//! Criterion microbenches for the cryptographic substrate: the per-input
//! costs every figure is built from.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ebv_chain::merkle::{merkle_levels, merkle_root, MerkleBranch};
use ebv_core::sighash::SV_BATCH_MAX;
use ebv_core::sighash::{sign_input, DigestChecker, PubkeyCache};
use ebv_primitives::ec::field::Fe;
use ebv_primitives::ec::{
    ecdsa, lincomb_gen, Affine, BatchVerifier, PointTable, PrivateKey, Scalar, Signature,
};
use ebv_primitives::hash::{sha256, sha256d, Hash256};
use ebv_script::standard::{p2pkh_lock, p2pkh_unlock};
use ebv_script::{verify_spend, Builder, RejectAllChecker};

fn bench_hashing(c: &mut Criterion) {
    let data_1k = vec![0xabu8; 1024];
    c.bench_function("sha256/1KiB", |b| b.iter(|| sha256(black_box(&data_1k))));
    // One message block plus one padding block: two compressions.
    let data_64 = [0x5au8; 64];
    c.bench_function("sha256/64B", |b| b.iter(|| sha256(black_box(&data_64))));
    c.bench_function("sha256d/80B_header", |b| {
        let header = [0x77u8; 80];
        b.iter(|| sha256d(black_box(&header)))
    });
    // A Merkle node: sha256d over two 32-byte children, three compressions.
    let (left, right) = (sha256d(b"left"), sha256d(b"right"));
    c.bench_function("sha256d/64B_merkle_parent", |b| {
        b.iter(|| Hash256::merkle_parent(black_box(&left), black_box(&right)))
    });
}

/// Signer keys per ring: the ledgers' key pool.
const RING_KEYS: usize = 128;

/// Distinct `(digest, signature, key)` entries per ring. The verify benches
/// step through a ring as the ledgers' inputs do: one fixed signature
/// verified in a loop read ~1.5× under what the workloads pay per verify.
const RING_LEN: usize = 2048;

/// A digest, its signature, and the signing key's index.
type RingItem = ([u8; 32], Signature, usize);

/// `RING_LEN` signatures, each over its own digest, by a key the digest
/// picks: a batch of 64 repeats some keys, as a ledger's does.
fn signature_ring() -> (Vec<PrivateKey>, Vec<RingItem>) {
    let keys: Vec<PrivateKey> = (0..RING_KEYS as u64).map(PrivateKey::from_seed).collect();
    let items = (0..RING_LEN)
        .map(|i| {
            let digest = sha256(format!("ring item {i}").as_bytes());
            let k = usize::from(digest[0]) % RING_KEYS;
            (digest, keys[k].sign(&digest), k)
        })
        .collect();
    (keys, items)
}

fn bench_ecdsa(c: &mut Criterion) {
    let sk = PrivateKey::from_seed(1);
    let digest = sha256(b"bench digest");
    c.bench_function("ecdsa/sign", |b| b.iter(|| sk.sign(black_box(&digest))));
    // Each sample verifies the next signature of the ring.
    let (keys, ring) = signature_ring();
    let public: Vec<_> = keys.iter().map(PrivateKey::public_key).collect();
    let mut next = ring.iter().cycle();
    c.bench_function("ecdsa/verify", |b| {
        b.iter(|| {
            let (digest, sig, k) = next.next().expect("a ring never ends");
            assert!(public[*k].verify(black_box(digest), black_box(sig)))
        })
    });
    // The pre-fast-path ladder, kept as the correctness oracle; the gap to
    // ecdsa/verify is the tentpole speedup this crate's PR chain tracks.
    c.bench_function("ecdsa/verify_reference", |b| {
        b.iter(|| {
            let (digest, sig, k) = next.next().expect("a ring never ends");
            assert!(ecdsa::verify_reference(
                black_box(digest),
                black_box(sig),
                black_box(public[*k].point()),
            ))
        })
    });
    // Amortized path: each key's tables are built once (what a node's
    // pubkey cache does for repeated signers), so after the warmup every
    // verify runs on the half-depth ladder.
    let prepared: Vec<_> = public.iter().map(|pk| pk.prepare()).collect();
    c.bench_function("ecdsa/verify_prepared", |b| {
        b.iter(|| {
            let (digest, sig, k) = next.next().expect("a ring never ends");
            assert!(prepared[*k].verify(black_box(digest), black_box(sig)))
        })
    });
    // A freshly prepared key verified once (preparing it is untimed): a
    // key's first verify runs the full-depth ladder and builds no shifted
    // table, so this is what a signer seen only once costs.
    c.bench_function("ecdsa/verify_prepared_fresh_key", |b| {
        b.iter_batched(
            || {
                let (digest, sig, k) = next.next().expect("a ring never ends");
                (digest, sig, public[*k].prepare())
            },
            |(digest, sig, key)| assert!(key.verify(black_box(digest), black_box(sig))),
            BatchSize::SmallInput,
        )
    });
}

/// One full SV batch (the next `SV_BATCH_MAX` signatures of the ring)
/// settled by one [`BatchVerifier`] equation, against the same signatures
/// verified one by one: the raw speedup ceiling of batched SV.
fn bench_batch_verify(c: &mut Criterion) {
    let (keys, ring) = signature_ring();
    let prepared: Vec<_> = keys.iter().map(|k| k.public_key().prepare()).collect();
    let mut batches = ring.chunks_exact(SV_BATCH_MAX).cycle();
    c.bench_function("ecdsa/verify_64_individual", |b| {
        b.iter(|| {
            for (digest, sig, k) in batches.next().expect("a ring never ends") {
                assert!(prepared[*k].verify(black_box(digest), black_box(sig)));
            }
        })
    });
    c.bench_function("ecdsa/verify_64_batch", |b| {
        b.iter(|| {
            let mut batch = BatchVerifier::new();
            for (digest, sig, k) in batches.next().expect("a ring never ends") {
                batch.push(*black_box(digest), *black_box(sig), &prepared[*k]);
            }
            assert!(batch.verify().all_valid);
        })
    });
}

/// Distinct operands per ring for the EC and field benches.
const OPERAND_RING: usize = 1024;

/// `len` scalars from a sha256 chain seeded by `seed`.
fn scalar_ring(seed: &str, len: usize) -> Vec<Scalar> {
    let mut state = sha256(seed.as_bytes());
    (0..len)
        .map(|_| {
            let k = Scalar::from_be_bytes_reduced(&state);
            state = sha256(&state);
            k
        })
        .collect()
}

/// `len` field elements from a sha256 chain, skipping values ≥ p.
fn field_ring(seed: &str, len: usize) -> Vec<Fe> {
    let mut state = sha256(seed.as_bytes());
    let mut ring = Vec::with_capacity(len);
    while ring.len() < len {
        ring.extend(Fe::from_be_bytes(&state));
        state = sha256(&state);
    }
    ring
}

/// Each sample takes the next input of a ring, as the `ecdsa/*` benches
/// do: one fixed input in a loop lets the branch predictor learn every
/// branch of the call, which a node's random inputs never allow.
fn bench_ec_ops(c: &mut Criterion) {
    let scalars = scalar_ring("ec ops", OPERAND_RING);
    let mut next = scalars.iter().cycle();
    c.bench_function("ec/mul_gen", |b| {
        b.iter(|| Affine::mul_gen(black_box(next.next().expect("a ring never ends"))).to_affine())
    });
    c.bench_function("ec/mul_reference", |b| {
        b.iter(|| Affine::generator().mul(black_box(next.next().expect("a ring never ends"))))
    });
    // The ledgers' key pool, one table per key.
    let points: Vec<Affine> = (0..RING_KEYS as u64)
        .map(|seed| *PrivateKey::from_seed(seed).public_key().point())
        .collect();
    let mut next_point = points.iter().cycle();
    c.bench_function("ec/point_table_build", |b| {
        b.iter(|| PointTable::new(black_box(next_point.next().expect("a ring never ends"))))
    });
    let tables: Vec<PointTable> = points.iter().map(PointTable::new).collect();
    let mut next_lincomb = scalars
        .chunks_exact(2)
        .zip(tables.iter().zip(&points).cycle())
        .cycle();
    c.bench_function("ec/lincomb_gen", |b| {
        b.iter(|| {
            let (u, (table, _)) = next_lincomb.next().expect("a ring never ends");
            lincomb_gen(black_box(&u[0]), black_box(table), black_box(&u[1])).to_affine()
        })
    });
    let gj = Affine::generator().to_jacobian();
    c.bench_function("ec/shamir_reference", |b| {
        b.iter(|| {
            let (u, (_, q)) = next_lincomb.next().expect("a ring never ends");
            let qj = q.to_jacobian();
            gj.shamir_mul(black_box(&u[0]), black_box(&qj), black_box(&u[1]))
                .to_affine()
        })
    });
}

/// The field and scalar kernels over rings of random operands: an add
/// carries, and a sub borrows, on about half of them.
fn bench_field(c: &mut Criterion) {
    let elements = field_ring("field ops", OPERAND_RING);
    // One call adds each ring element into a running sum and subtracts it
    // from a running difference: 1,024 dependent steps on each chain, as
    // in the point formulas (one step alone is below the timer's
    // resolution). Both carry on across calls, so no call repeats another's
    // carry pattern; a pass of independent sums over the fixed ring lets
    // the predictor learn it.
    let (mut sum, mut diff) = (Fe::ZERO, Fe::ZERO);
    c.bench_function("field/add_sub", |b| {
        b.iter(|| {
            for x in black_box(&elements) {
                sum = sum.add(x);
                diff = diff.sub(x);
            }
            (sum, diff)
        })
    });
    let mut next = elements.iter().cycle();
    c.bench_function("field/invert", |b| {
        b.iter(|| black_box(next.next().expect("a ring never ends")).invert())
    });
    let scalars = scalar_ring("scalar ops", OPERAND_RING);
    let mut next = scalars.iter().cycle();
    c.bench_function("scalar/invert", |b| {
        b.iter(|| black_box(next.next().expect("a ring never ends")).invert())
    });
}

fn bench_merkle(c: &mut Criterion) {
    let leaves: Vec<Hash256> = (0..1024u64).map(|i| sha256d(&i.to_le_bytes())).collect();
    c.bench_function("merkle/root_1024", |b| {
        b.iter(|| merkle_root(black_box(&leaves)))
    });
    // What the proof archive pays once per block, then per proof.
    c.bench_function("merkle/levels_1024", |b| {
        b.iter(|| merkle_levels(black_box(&leaves)))
    });
    let levels = merkle_levels(&leaves);
    c.bench_function("merkle/branch_from_levels_1024", |b| {
        b.iter(|| MerkleBranch::from_levels(black_box(&levels), 700))
    });
    let branch = MerkleBranch::from_levels(&levels, 700);
    let root = merkle_root(&leaves);
    // The EV hot path: fold a 10-sibling branch.
    c.bench_function("merkle/fold_branch_1024", |b| {
        b.iter(|| assert!(branch.verify(black_box(&leaves[700]), black_box(&root))))
    });
}

fn bench_script(c: &mut Criterion) {
    // The SV hot path: a full P2PKH spend (hashing + one ECDSA verify),
    // each sample the next spend of a ring over the ledgers' key pool.
    let spends: Vec<_> = (0..RING_LEN / 2)
        .map(|i| {
            // Key `i % RING_KEYS`, so the first `RING_KEYS` spends cover
            // every key.
            let sk = PrivateKey::from_seed((i % RING_KEYS) as u64);
            let pk = sk.public_key();
            let digest = sha256d(format!("spend digest {i}").as_bytes());
            let lock = p2pkh_lock(&pk.address_hash());
            let unlock = p2pkh_unlock(&sign_input(&sk, &digest), &pk.to_compressed());
            (digest, unlock, lock)
        })
        .collect();
    let mut next = spends.iter().cycle();
    c.bench_function("script/p2pkh_verify_spend", |b| {
        b.iter(|| {
            let (digest, unlock, lock) = next.next().expect("a ring never ends");
            let checker = DigestChecker::new(*digest);
            verify_spend(black_box(unlock), black_box(lock), &checker).expect("valid")
        })
    });
    // The same spends with their keys already in a node's pubkey cache:
    // what every input signed by a key the node has seen before costs.
    let cache = PubkeyCache::new();
    for (digest, unlock, lock) in &spends[..RING_KEYS] {
        let checker = DigestChecker::with_context(*digest, 0, &cache);
        verify_spend(unlock, lock, &checker).expect("valid");
    }
    c.bench_function("script/p2pkh_verify_spend_cached", |b| {
        b.iter(|| {
            let (digest, unlock, lock) = next.next().expect("a ring never ends");
            let checker = DigestChecker::with_context(*digest, 0, &cache);
            verify_spend(black_box(unlock), black_box(lock), &checker).expect("valid")
        })
    });

    // Pure stack work, no crypto: 50 arithmetic ops.
    let mut builder = Builder::new().push_int(0);
    for i in 0..50 {
        builder = builder.push_int(i).push_op(ebv_script::opcodes::OP_ADD);
    }
    let arith = builder.into_script();
    c.bench_function("script/arith_50_ops", |b| {
        b.iter(|| {
            let mut e = ebv_script::Engine::new(&RejectAllChecker);
            e.execute(black_box(&arith)).expect("valid")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hashing, bench_ecdsa, bench_batch_verify, bench_ec_ops, bench_field, bench_merkle,
        bench_script
}
criterion_main!(benches);
