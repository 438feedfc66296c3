//! The status database against a `HashMap` model.
//!
//! Seeded random sequences of put, get, delete, flush, reopen and compact
//! over a small key space run at cache budgets from one entry up to room
//! for every key. Every `get` must return the model's value, and after a
//! flush and a reopen every key must read as the model holds it and the
//! log must hold exactly the model's keys. The record counts of a delete
//! are pinned exactly: a key the log never held costs no write, one it
//! holds costs one, and neither leaves the key resident.

use ebv_store::{KvStore, LatencyModel, StoreConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Keys `k0`..`k23`: few enough that deletes, re-puts and reads of
/// deleted keys all recur.
const KEYS: u8 = 24;

/// An entry charges 48 + 2 + its value's length, up to 40 bytes: budgets
/// of 1 and 100 bytes hold one entry or two, 300 about four, 1,000 about
/// fourteen, and 1 MiB every key.
const BUDGETS: [usize; 5] = [1, 100, 300, 1_000, 1 << 20];

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ebv-store-model-{}-{}-{tag}.log",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos()
    ))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn open(path: &Path, budget: usize) -> KvStore {
    KvStore::open_at(path, budget, LatencyModel::none()).expect("open")
}

fn key(i: u8) -> Vec<u8> {
    vec![b'k', i]
}

/// Flush, drop and reopen `store`, then check that every key reads as the
/// model holds it and that the log holds exactly the model's keys.
fn reopen_matches(
    mut store: KvStore,
    path: &Path,
    budget: usize,
    model: &HashMap<Vec<u8>, Vec<u8>>,
    at: &str,
) -> KvStore {
    store.flush().expect("flush");
    drop(store);
    let mut store = open(path, budget);
    assert_eq!(store.disk_len(), model.len(), "{at}: live keys in the log");
    for i in 0..KEYS {
        let k = key(i);
        assert_eq!(
            store.get(&k).expect("get"),
            model.get(&k).cloned(),
            "{at}: k{i}"
        );
    }
    store
}

/// Run `ops` seeded operations at `budget`, checking each read.
fn run_against_model(seed: u64, budget: usize, ops: usize) {
    let path = temp_path(&format!("{seed}-{budget}"));
    let _cleanup = Cleanup(path.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut store = open(&path, budget);
    let mut model = HashMap::new();
    for step in 0..ops {
        let at = format!("seed {seed}, budget {budget}, step {step}");
        let k = key(rng.gen_range(0..KEYS));
        match rng.gen_range(0..100u32) {
            0..=34 => {
                let len = rng.gen_range(0..=40usize);
                let value: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                store.put(&k, value.clone()).expect("put");
                model.insert(k, value);
            }
            35..=64 => {
                assert_eq!(store.get(&k).expect("get"), model.get(&k).cloned(), "{at}");
            }
            65..=89 => {
                store.delete(&k).expect("delete");
                model.remove(&k);
            }
            90..=94 => store.flush().expect("flush"),
            95..=97 => store = reopen_matches(store, &path, budget, &model, &at),
            _ => {
                store.compact().expect("compact");
            }
        }
    }
    reopen_matches(store, &path, budget, &model, &format!("seed {seed}, end"));
}

#[test]
fn store_reads_match_a_hashmap_model_at_every_budget() {
    for budget in BUDGETS {
        for seed in 0..8 {
            run_against_model(seed, budget, 2_000);
        }
    }
}

/// Delete `k` and read it back, returning the records the delete wrote.
/// The read must miss the cache: the delete left no entry for `k`.
fn delete_then_read(store: &mut KvStore, k: &[u8]) -> u64 {
    let before = store.stats();
    store.delete(k).expect("delete");
    let writes = store.stats().disk_writes - before.disk_writes;
    assert_eq!(store.get(k).expect("get"), None);
    assert_eq!(store.stats().cache_misses - before.cache_misses, 1);
    writes
}

#[test]
fn deletes_write_only_records_that_shadow_the_log() {
    let mut store = KvStore::open(StoreConfig::with_budget(1 << 20)).expect("open");

    // Put, then delete before any flush: no record.
    store.put(b"fresh", vec![1; 40]).expect("put");
    assert_eq!(delete_then_read(&mut store, b"fresh"), 0);

    // A flushed key: exactly one delete record.
    store.put(b"flushed", vec![2; 40]).expect("put");
    store.flush().expect("flush");
    assert_eq!(delete_then_read(&mut store, b"flushed"), 1);

    // A flushed key put again (a duplicate txid): its dirty value is
    // resident, yet the log still holds the old one, so one record.
    store.put(b"again", vec![3; 40]).expect("put");
    store.flush().expect("flush");
    store.put(b"again", vec![4; 40]).expect("put");
    assert_eq!(delete_then_read(&mut store, b"again"), 1);

    // An absent key: no record.
    assert_eq!(delete_then_read(&mut store, b"absent"), 0);

    // Two put records and two delete records; nothing is left to flush.
    let writes = store.stats().disk_writes;
    store.flush().expect("flush");
    assert_eq!((writes, store.stats().disk_writes), (4, 4));
    assert_eq!(store.disk_len(), 0);
}
