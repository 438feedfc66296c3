//! Byte-budgeted LRU cache.
//!
//! Models the memory-limited UTXO cache of a Btcd-style node: entries are
//! charged by key+value size, and inserting past the budget evicts the
//! least-recently-used entries. Evicted dirty entries are returned to the
//! caller so the store can flush them to disk — the flush traffic is
//! exactly the DBO cost the paper's baseline suffers from. Every resident
//! entry is a live value: the store removes a deleted key's entry.

use std::collections::{BTreeMap, HashMap};

/// Per-entry overhead approximating the bookkeeping of a real cache (hash
/// bucket, order node); keeps budgets honest for tiny values.
const ENTRY_OVERHEAD: usize = 48;

struct Slot {
    value: Vec<u8>,
    dirty: bool,
    tick: u64,
    charge: usize,
}

/// An LRU cache with a byte budget.
pub struct LruCache {
    budget: usize,
    used: usize,
    next_tick: u64,
    slots: HashMap<Vec<u8>, Slot>,
    order: BTreeMap<u64, Vec<u8>>,
}

/// An entry evicted because of budget pressure.
pub struct Evicted {
    pub key: Vec<u8>,
    pub value: Vec<u8>,
    /// Whether the entry had unflushed changes.
    pub dirty: bool,
}

impl LruCache {
    /// Create a cache holding at most `budget` bytes of charged entries.
    pub fn new(budget: usize) -> LruCache {
        LruCache {
            budget,
            used: 0,
            next_tick: 0,
            slots: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// Bytes currently charged.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Configured budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn touch(&mut self, key: &[u8]) {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(slot) = self.slots.get_mut(key) {
            self.order.remove(&slot.tick);
            slot.tick = tick;
            self.order.insert(tick, key.to_vec());
        }
    }

    /// Look up `key`, refreshing its recency.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        if !self.slots.contains_key(key) {
            return None;
        }
        self.touch(key);
        Some(self.slots[key].value.clone())
    }

    /// Insert or replace `key`, returning any entries evicted to make room.
    /// `dirty` marks the entry as needing a disk flush on eviction.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>, dirty: bool) -> Vec<Evicted> {
        let charge = ENTRY_OVERHEAD + key.len() + value.len();
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(old) = self.slots.remove(&key) {
            self.order.remove(&old.tick);
            self.used -= old.charge;
        }
        self.used += charge;
        self.order.insert(tick, key.clone());
        // A re-dirtied entry stays dirty even if the new write is clean.
        self.slots.insert(
            key,
            Slot {
                value,
                dirty,
                tick,
                charge,
            },
        );
        self.evict_to_budget()
    }

    /// Remove `key` from the cache without flushing (caller handles disk).
    pub fn remove(&mut self, key: &[u8]) -> Option<(Vec<u8>, bool)> {
        let slot = self.slots.remove(key)?;
        self.order.remove(&slot.tick);
        self.used -= slot.charge;
        Some((slot.value, slot.dirty))
    }

    fn evict_to_budget(&mut self) -> Vec<Evicted> {
        let mut evicted = Vec::new();
        while self.used > self.budget && self.slots.len() > 1 {
            let (&tick, _) = self.order.iter().next().expect("nonempty when over budget");
            let key = self.order.remove(&tick).expect("tick present");
            let slot = self.slots.remove(&key).expect("slot present");
            self.used -= slot.charge;
            evicted.push(Evicted {
                key,
                value: slot.value,
                dirty: slot.dirty,
            });
        }
        evicted
    }

    /// Drain every dirty entry (for a full flush), leaving entries resident
    /// but clean.
    pub fn drain_dirty(&mut self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for (key, slot) in self.slots.iter_mut() {
            if slot.dirty {
                slot.dirty = false;
                out.push((key.clone(), slot.value.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u32) -> Vec<u8> {
        i.to_le_bytes().to_vec()
    }

    fn v(len: usize) -> Vec<u8> {
        vec![0xab; len]
    }

    #[test]
    fn get_put_round_trip() {
        let mut c = LruCache::new(10_000);
        assert!(c.get(&k(1)).is_none());
        c.put(k(1), v(10), false);
        assert_eq!(c.get(&k(1)), Some(v(10)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        // Each entry charges 48 + 4 + 10 = 62 bytes; budget fits 3.
        let mut c = LruCache::new(3 * 62);
        for i in 0..3 {
            assert!(c.put(k(i), v(10), false).is_empty());
        }
        // Touch key 0 so key 1 becomes LRU.
        c.get(&k(0));
        let evicted = c.put(k(3), v(10), false);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, k(1));
        assert!(c.get(&k(0)).is_some());
        assert!(c.get(&k(1)).is_none());
    }

    #[test]
    fn eviction_reports_dirty_flag() {
        let mut c = LruCache::new(62);
        c.put(k(1), v(10), true);
        let evicted = c.put(k(2), v(10), false);
        assert_eq!(evicted.len(), 1);
        assert!(evicted[0].dirty);
        assert_eq!(evicted[0].value, v(10));
    }

    #[test]
    fn replacing_updates_charge() {
        let mut c = LruCache::new(1000);
        c.put(k(1), v(100), false);
        let used_large = c.used_bytes();
        c.put(k(1), v(10), false);
        assert!(c.used_bytes() < used_large);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_returns_state() {
        let mut c = LruCache::new(1000);
        c.put(k(1), v(5), true);
        let (value, dirty) = c.remove(&k(1)).unwrap();
        assert_eq!(value, v(5));
        assert!(dirty);
        assert!(c.remove(&k(1)).is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn drain_dirty_cleans_entries() {
        let mut c = LruCache::new(10_000);
        c.put(k(1), v(5), true);
        c.put(k(2), v(5), false);
        c.put(k(3), v(5), true);
        let mut dirty = c.drain_dirty();
        dirty.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(dirty.len(), 2);
        // Draining again yields nothing.
        assert!(c.drain_dirty().is_empty());
        // Entries are still resident.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn at_least_one_entry_survives_tiny_budget() {
        // Budget smaller than a single entry: the newest entry stays (a
        // cache that evicted its only entry on every put would thrash).
        let mut c = LruCache::new(1);
        c.put(k(1), v(100), false);
        assert_eq!(c.len(), 1);
        let evicted = c.put(k(2), v(100), false);
        assert_eq!(evicted.len(), 1);
        assert_eq!(c.len(), 1);
        assert!(c.get(&k(2)).is_some());
    }

    #[test]
    fn used_bytes_tracks_all_mutations() {
        let mut c = LruCache::new(100_000);
        for i in 0..100 {
            c.put(k(i), v(i as usize), false);
        }
        for i in 0..50 {
            c.remove(&k(i));
        }
        let expected: usize = (50..100).map(|i| 48 + 4 + i as usize).sum();
        assert_eq!(c.used_bytes(), expected);
    }
}
