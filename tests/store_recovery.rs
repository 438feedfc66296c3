//! Status-database durability: restart and crash-recovery behaviour of
//! the UTXO set across real files.

use ebv::chain::OutPoint;
use ebv::primitives::hash::sha256d;
use ebv::script::Builder;
use ebv::store::{KvStore, LatencyModel, UtxoEntry, UtxoSet};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ebv-recovery-{}-{}-{tag}.log",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn entry(value: u64) -> UtxoEntry {
    UtxoEntry {
        value,
        locking_script: Builder::new().push_data(&[0xcd; 25]).into_script(),
        height: 2,
        position: value as u32,
        coinbase: false,
    }
}

fn outpoint(i: u64) -> OutPoint {
    OutPoint::new(sha256d(&i.to_le_bytes()), 0)
}

#[test]
fn utxo_set_survives_restart() {
    let path = temp_path("restart");
    let _c = Cleanup(path.clone());
    {
        let kv = KvStore::open_at(&path, 1 << 20, LatencyModel::none()).expect("open");
        let mut set = UtxoSet::new(kv);
        for i in 0..50 {
            set.insert(&outpoint(i), &entry(i)).expect("insert");
        }
        let e = entry(7);
        set.delete(&outpoint(7), &e).expect("delete");
        set.flush().expect("flush");
    }
    // Reopen: all entries except the deleted one are present.
    let kv = KvStore::open_at(&path, 1 << 20, LatencyModel::none()).expect("reopen");
    let mut set = UtxoSet::new(kv);
    assert!(set.fetch(&outpoint(7)).expect("io").is_none());
    for i in (0..50).filter(|&i| i != 7) {
        let got = set.fetch(&outpoint(i)).expect("io").expect("present");
        assert_eq!(got.value, i);
    }
}

#[test]
fn crash_mid_append_loses_only_the_torn_record() {
    let path = temp_path("crash");
    let _c = Cleanup(path.clone());
    {
        let mut kv = KvStore::open_at(&path, 1 << 20, LatencyModel::none()).expect("open");
        kv.put(b"durable-1", vec![1; 40]).expect("put");
        kv.put(b"durable-2", vec![2; 40]).expect("put");
        kv.flush().expect("flush");
    }
    // Simulate a torn write: append garbage that looks like a cut-off
    // record header.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open raw");
        f.write_all(&[1u8, 90, 0, 0]).expect("torn tail");
    }
    let mut kv = KvStore::open_at(&path, 1 << 20, LatencyModel::none()).expect("recovers");
    assert_eq!(
        kv.get(b"durable-1").expect("io").expect("present"),
        vec![1; 40]
    );
    assert_eq!(
        kv.get(b"durable-2").expect("io").expect("present"),
        vec![2; 40]
    );
    // And the store keeps working after recovery.
    kv.put(b"post-crash", vec![3; 8]).expect("put");
    kv.flush().expect("flush");
    drop(kv);
    let mut kv = KvStore::open_at(&path, 1 << 20, LatencyModel::none()).expect("reopen");
    assert_eq!(
        kv.get(b"post-crash").expect("io").expect("present"),
        vec![3; 8]
    );
}

#[test]
fn compaction_preserves_contents_across_restart() {
    let path = temp_path("compact");
    let _c = Cleanup(path.clone());
    {
        let mut kv = KvStore::open_at(&path, 1 << 20, LatencyModel::none()).expect("open");
        for i in 0..100u32 {
            kv.put(&i.to_le_bytes(), vec![0xee; 64]).expect("put");
        }
        // On disk first, so that the deletes write records that shadow them.
        kv.flush().expect("flush");
        for i in 0..80u32 {
            kv.delete(&i.to_le_bytes()).expect("delete");
        }
        kv.flush().expect("flush");
        let reclaimed = kv.compact().expect("compact");
        assert!(reclaimed > 0, "compaction reclaims shadowed records");
    }
    let mut kv = KvStore::open_at(&path, 1 << 20, LatencyModel::none()).expect("reopen");
    for i in 0..80u32 {
        assert!(
            kv.get(&i.to_le_bytes()).expect("io").is_none(),
            "{i} deleted"
        );
    }
    for i in 80..100u32 {
        assert_eq!(
            kv.get(&i.to_le_bytes()).expect("io").expect("kept"),
            vec![0xee; 64]
        );
    }
}
