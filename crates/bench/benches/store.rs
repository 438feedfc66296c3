//! Criterion benches for the status database and the bit-vector set —
//! the UV/DBO cost gap the paper's design exploits.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ebv_core::bitvec::BitVectorSet;
use ebv_primitives::encode::Encodable;
use ebv_store::{KvStore, LatencyModel, StoreConfig};

fn bench_kv(c: &mut Criterion) {
    // Cache-hit fetch: everything resident.
    let mut hot = KvStore::open(StoreConfig::with_budget(64 << 20)).expect("store");
    for i in 0..10_000u32 {
        hot.put(&i.to_le_bytes(), vec![0xab; 60]).expect("put");
    }
    let mut i = 0u32;
    c.bench_function("kv/fetch_cache_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 10_000;
            black_box(hot.get(&i.to_le_bytes()).expect("io"))
        })
    });

    // Cache-miss fetch with injected latency: the baseline's pain.
    let mut cold = KvStore::open(StoreConfig {
        cache_budget: 4 << 10,
        latency: LatencyModel::scaled_hdd(50, 10),
        path: None,
    })
    .expect("store");
    for i in 0..10_000u32 {
        cold.put(&i.to_le_bytes(), vec![0xab; 60]).expect("put");
    }
    cold.flush().expect("flush");
    let mut j = 0u32;
    c.bench_function("kv/fetch_cache_miss_50us_disk", |b| {
        b.iter(|| {
            j = (j + 4099) % 10_000; // stride defeats the tiny cache
            black_box(cold.get(&j.to_le_bytes()).expect("io"))
        })
    });
}

fn bench_bitvec(c: &mut Criterion) {
    // The UV probe: O(1) bit test in memory.
    let mut set = BitVectorSet::new();
    for h in 0..1000u32 {
        set.insert_block(h, 64);
    }
    let mut h = 0u32;
    c.bench_function("bitvec/uv_probe", |b| {
        b.iter(|| {
            h = (h + 1) % 1000;
            black_box(set.check_unspent(h, 13)).expect("unspent")
        })
    });

    // Serialization cost of dense vs sparse vectors (flush-time work).
    let dense = ebv_core::bitvec::BlockBitVector::new_all_unspent(4096);
    let mut sparse = ebv_core::bitvec::BlockBitVector::new_all_unspent(4096);
    for i in 0..4090 {
        sparse.spend(i);
    }
    c.bench_function("bitvec/encode_dense_4096", |b| {
        b.iter(|| black_box(dense.to_bytes()))
    });
    c.bench_function("bitvec/encode_sparse_4096", |b| {
        b.iter(|| black_box(sparse.to_bytes()))
    });

    // Memory accounting sweep (figure-time work).
    c.bench_function("bitvec/memory_scan_1000_vectors", |b| {
        b.iter(|| black_box(set.memory()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kv, bench_bitvec
}
criterion_main!(benches);
