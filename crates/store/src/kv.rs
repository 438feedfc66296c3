//! The status database: a byte-budgeted cache over the disk log.
//!
//! This is the component whose behaviour the paper's §II-B describes: "the
//! memory will firstly be accessed to fetch the corresponding UTXOs. If not
//! found, the disk will be further accessed." Reads check the
//! [`LruCache`]; misses go to the [`DiskLog`] and are promoted into the
//! cache, evicting (and flushing) least-recently-used entries.

use crate::cache::{CacheValue, LruCache};
use crate::disk::{DiskError, DiskLog, LatencyModel};
use crate::stats::DboStats;
use ebv_telemetry::{counter, span, trace_event};
use std::path::{Path, PathBuf};

/// Configuration for a [`KvStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Cache byte budget — the "memory limit" knob of the experiments
    /// (Btcd hard-codes 100 MB; the paper evaluates both systems at
    /// 500 MB).
    pub cache_budget: usize,
    /// Injected disk latency model.
    pub latency: LatencyModel,
    /// Path for the disk log. `None` creates a unique file in the system
    /// temp directory, removed on drop.
    pub path: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            cache_budget: 64 << 20,
            latency: LatencyModel::none(),
            path: None,
        }
    }
}

impl StoreConfig {
    /// Budget-only config with no injected latency.
    pub fn with_budget(cache_budget: usize) -> StoreConfig {
        StoreConfig {
            cache_budget,
            ..Default::default()
        }
    }
}

/// A key-value status database with memory-limited caching.
pub struct KvStore {
    cache: LruCache,
    disk: DiskLog,
    stats: DboStats,
    /// Present only for auto-created temp files: removed on drop.
    temp_path: Option<PathBuf>,
}

impl KvStore {
    /// Open a store with the given configuration.
    pub fn open(config: StoreConfig) -> Result<KvStore, DiskError> {
        let (path, temp_path) = match config.path {
            Some(p) => (p, None),
            None => {
                let p = unique_temp_path();
                (p.clone(), Some(p))
            }
        };
        Ok(KvStore {
            cache: LruCache::new(config.cache_budget),
            disk: DiskLog::open(&path, config.latency)?,
            stats: DboStats::default(),
            temp_path,
        })
    }

    /// Open with default config at a specific path.
    pub fn open_at(
        path: &Path,
        cache_budget: usize,
        latency: LatencyModel,
    ) -> Result<KvStore, DiskError> {
        KvStore::open(StoreConfig {
            cache_budget,
            latency,
            path: Some(path.to_path_buf()),
        })
    }

    /// Fetch a value. This is the paper's `Fetch` DBO: cache first, disk on
    /// miss, promoting the result into the cache.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, DiskError> {
        let KvStore {
            cache, disk, stats, ..
        } = self;
        let _span = span!("store.get", &mut stats.time);
        stats.fetches += 1;
        counter!("store.fetches").inc();
        let result = match cache.get(key) {
            Some(CacheValue::Present(v)) => {
                stats.cache_hits += 1;
                counter!("store.cache.hits").inc();
                Some(v)
            }
            Some(CacheValue::Deleted) => {
                stats.cache_hits += 1;
                counter!("store.cache.hits").inc();
                None
            }
            None => {
                stats.cache_misses += 1;
                stats.disk_reads += 1;
                counter!("store.cache.misses").inc();
                counter!("store.disk.reads").inc();
                let from_disk = disk.get(key)?;
                if let Some(v) = &from_disk {
                    let evicted = cache.put(key.to_vec(), CacheValue::Present(v.clone()), false);
                    flush_evicted(disk, &mut stats.disk_writes, evicted)?;
                }
                from_disk
            }
        };
        Ok(result)
    }

    /// Insert or overwrite a value (the `Insert` DBO). Writes land in the
    /// cache and reach disk on eviction or flush.
    pub fn put(&mut self, key: &[u8], value: Vec<u8>) -> Result<(), DiskError> {
        let KvStore {
            cache, disk, stats, ..
        } = self;
        let _span = span!("store.put", &mut stats.time);
        stats.inserts += 1;
        counter!("store.inserts").inc();
        let evicted = cache.put(key.to_vec(), CacheValue::Present(value), true);
        flush_evicted(disk, &mut stats.disk_writes, evicted)?;
        Ok(())
    }

    /// Delete a key (the `Delete` DBO), via a cached tombstone.
    pub fn delete(&mut self, key: &[u8]) -> Result<(), DiskError> {
        let KvStore {
            cache, disk, stats, ..
        } = self;
        let _span = span!("store.delete", &mut stats.time);
        stats.deletes += 1;
        counter!("store.deletes").inc();
        // If the key only ever lived in the cache (never flushed), the
        // tombstone is still needed in case an older value is on disk.
        let evicted = cache.put(key.to_vec(), CacheValue::Deleted, true);
        flush_evicted(disk, &mut stats.disk_writes, evicted)?;
        Ok(())
    }

    /// Flush all dirty cache entries to disk (block-commit boundary).
    pub fn flush(&mut self) -> Result<(), DiskError> {
        let KvStore {
            cache, disk, stats, ..
        } = self;
        let _span = span!("store.flush", &mut stats.time);
        for (key, value) in cache.drain_dirty() {
            stats.disk_writes += 1;
            counter!("store.disk.writes").inc();
            match value {
                CacheValue::Present(v) => disk.put(&key, &v)?,
                CacheValue::Deleted => disk.delete(&key)?,
            }
        }
        Ok(())
    }

    /// Accumulated DBO statistics.
    pub fn stats(&self) -> DboStats {
        self.stats
    }

    /// Live keys on disk plus resident dirty inserts. Exact when flushed.
    pub fn disk_len(&self) -> usize {
        self.disk.len()
    }

    /// Compact the disk log, returning reclaimed bytes.
    pub fn compact(&mut self) -> Result<u64, DiskError> {
        self.disk.compact()
    }
}

/// Write dirty evictees through to the disk log. A free function (not a
/// method) so callers can hold a span borrow on `stats.time` while the
/// write count is bumped through a disjoint field borrow.
fn flush_evicted(
    disk: &mut DiskLog,
    disk_writes: &mut u64,
    evicted: Vec<crate::cache::Evicted>,
) -> Result<(), DiskError> {
    let mut flushed = 0u64;
    for e in evicted {
        if !e.dirty {
            continue;
        }
        *disk_writes += 1;
        flushed += 1;
        match e.value {
            CacheValue::Present(v) => disk.put(&e.key, &v)?,
            CacheValue::Deleted => disk.delete(&e.key)?,
        }
    }
    if flushed > 0 {
        counter!("store.disk.writes").add(flushed);
        counter!("store.cache.evictions").add(flushed);
        trace_event!("store.cache_evicted", flushed = flushed);
    }
    Ok(())
}

impl Drop for KvStore {
    fn drop(&mut self) {
        if let Some(p) = &self.temp_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn unique_temp_path() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ebv-kv-{}-{}-{}.log",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(budget: usize) -> KvStore {
        KvStore::open(StoreConfig::with_budget(budget)).unwrap()
    }

    #[test]
    fn get_put_delete_round_trip() {
        let mut s = store(1 << 20);
        assert!(s.get(b"a").unwrap().is_none());
        s.put(b"a", b"1".to_vec()).unwrap();
        assert_eq!(s.get(b"a").unwrap().unwrap(), b"1");
        s.delete(b"a").unwrap();
        assert!(s.get(b"a").unwrap().is_none());
    }

    #[test]
    fn eviction_spills_to_disk_and_reloads() {
        // Tiny budget: almost every entry spills.
        let mut s = store(200);
        for i in 0..100u32 {
            s.put(&i.to_le_bytes(), vec![i as u8; 50]).unwrap();
        }
        // All values must still be readable (via disk).
        for i in 0..100u32 {
            assert_eq!(
                s.get(&i.to_le_bytes()).unwrap().unwrap(),
                vec![i as u8; 50],
                "i={i}"
            );
        }
        let st = s.stats();
        assert!(st.cache_misses > 0, "expected misses with tiny budget");
        assert!(st.disk_writes > 0);
    }

    #[test]
    fn tombstone_shadows_disk_value() {
        let mut s = store(200);
        // Write enough to force "old" onto disk.
        s.put(b"old", vec![1; 50]).unwrap();
        for i in 0..50u32 {
            s.put(&i.to_le_bytes(), vec![0; 50]).unwrap();
        }
        // Delete while the value lives on disk; tombstone may itself be
        // evicted later — the delete must still win.
        s.delete(b"old").unwrap();
        for i in 50..100u32 {
            s.put(&i.to_le_bytes(), vec![0; 50]).unwrap();
        }
        assert!(s.get(b"old").unwrap().is_none());
    }

    #[test]
    fn flush_persists_everything() {
        let dir = std::env::temp_dir().join(format!("ebv-kvtest-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        {
            let mut s = KvStore::open_at(&dir, 1 << 20, LatencyModel::none()).unwrap();
            for i in 0..20u32 {
                s.put(&i.to_le_bytes(), vec![i as u8; 10]).unwrap();
            }
            s.delete(&3u32.to_le_bytes()).unwrap();
            s.flush().unwrap();
        }
        let mut s = KvStore::open_at(&dir, 1 << 20, LatencyModel::none()).unwrap();
        assert_eq!(s.get(&5u32.to_le_bytes()).unwrap().unwrap(), vec![5; 10]);
        assert!(s.get(&3u32.to_le_bytes()).unwrap().is_none());
        assert_eq!(s.disk_len(), 19);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn stats_track_operations() {
        let mut s = store(1 << 20);
        s.put(b"a", vec![1]).unwrap();
        s.get(b"a").unwrap();
        s.get(b"missing").unwrap();
        s.delete(b"a").unwrap();
        let st = s.stats();
        assert_eq!(st.inserts, 1);
        assert_eq!(st.deletes, 1);
        assert_eq!(st.fetches, 2);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.cache_misses, 1);
        assert!(st.time > std::time::Duration::ZERO);
    }

    #[test]
    fn high_budget_stays_in_memory() {
        let mut s = store(10 << 20);
        for i in 0..1000u32 {
            s.put(&i.to_le_bytes(), vec![0; 40]).unwrap();
        }
        for i in 0..1000u32 {
            s.get(&i.to_le_bytes()).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.cache_misses, 0);
        assert_eq!(st.disk_writes, 0);
    }

    #[test]
    fn overwrite_then_read() {
        let mut s = store(1 << 20);
        s.put(b"k", b"v1".to_vec()).unwrap();
        s.put(b"k", b"v2".to_vec()).unwrap();
        assert_eq!(s.get(b"k").unwrap().unwrap(), b"v2");
    }
}
