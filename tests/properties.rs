//! Randomized property tests over the core data structures and invariants
//! that every experiment rests on.
//!
//! Previously written with `proptest`; the offline build environment has
//! no registry, so these now drive the same properties from the local
//! deterministic `rand` shim (fixed seeds, explicit case loops). Failures
//! print the seed/case so a run is trivially reproducible.

use ebv::primitives::encode::{Decodable, Encodable, Reader};
use ebv_chain::merkle::{merkle_levels, merkle_root, MerkleBranch};
use ebv_core::bitvec::{BitVectorSet, BlockBitVector};
use ebv_primitives::hash::{sha256d, Hash256};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

// ---- bit-vectors --------------------------------------------------------

#[test]
fn bitvec_roundtrip_any_spend_pattern() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0001);
    for case in 0..CASES {
        let len = rng.gen_range(1u32..2000);
        let mut v = BlockBitVector::new_all_unspent(len);
        for _ in 0..rng.gen_range(0usize..300) {
            let s = rng.gen_range(0u32..2000);
            // Keep at least one bit unspent: the set deletes fully-spent
            // vectors, so all-spent never reaches the wire and the hardened
            // decoder rejects it.
            if v.ones() > 1 || v.is_unspent(s % len) == Some(false) {
                v.spend(s % len);
            }
        }
        let decoded = BlockBitVector::from_bytes(&v.to_bytes()).expect("round trip");
        assert_eq!(decoded, v, "case {case}, len {len}");
        // The optimized encoding is never larger than the dense one.
        assert!(v.optimized_size() <= v.dense_size(), "case {case}");
        // ones() always equals the popcount implied by iter_unspent().
        assert_eq!(v.iter_unspent().count() as u32, v.ones(), "case {case}");
    }
}

#[test]
fn bitvec_spend_unspend_involution() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0002);
    for case in 0..CASES {
        let len = rng.gen_range(1u32..500);
        let pos = rng.gen_range(0u32..500) % len;
        let mut v = BlockBitVector::new_all_unspent(len);
        assert!(v.spend(pos), "case {case}");
        assert!(!v.spend(pos), "case {case}");
        assert!(v.unspend(pos), "case {case}");
        assert_eq!(v.ones(), len, "case {case}");
        assert_eq!(v, BlockBitVector::new_all_unspent(len), "case {case}");
    }
}

#[test]
fn bitvec_set_counts_are_conserved() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0003);
    for case in 0..CASES {
        let blocks: Vec<u32> = (0..rng.gen_range(1usize..12))
            .map(|_| rng.gen_range(1u32..64))
            .collect();
        let mut set = BitVectorSet::new();
        let mut expected: u64 = 0;
        for (h, &n) in blocks.iter().enumerate() {
            set.insert_block(h as u32, n);
            expected += n as u64;
        }
        for _ in 0..rng.gen_range(0usize..100) {
            let h = rng.gen_range(0usize..12) % blocks.len();
            let pos = rng.gen_range(0u32..64) % blocks[h];
            if set.spend(h as u32, pos).is_ok() {
                expected -= 1;
            }
        }
        assert_eq!(set.total_unspent(), expected, "case {case}");
        // Memory never exceeds the dense upper bound.
        let m = set.memory();
        assert!(m.optimized <= m.unoptimized, "case {case}");
    }
}

// ---- Merkle -------------------------------------------------------------

#[test]
fn merkle_branch_verifies_for_every_leaf() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0004);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..60);
        let tamper = rng.gen::<bool>();
        let leaves: Vec<Hash256> = (0..n).map(|i| sha256d(&(i as u64).to_le_bytes())).collect();
        let root = merkle_root(&leaves);
        let levels = merkle_levels(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let mut branch = MerkleBranch::from_levels(&levels, i);
            if tamper && !branch.siblings.is_empty() {
                branch.siblings[0] = sha256d(b"tampered");
                // A tampered sibling always breaks verification.
                assert!(!branch.verify(leaf, &root), "case {case}, leaf {i}");
            } else {
                assert!(branch.verify(leaf, &root), "case {case}, leaf {i}");
            }
        }
    }
}

#[test]
fn merkle_root_is_injective_on_leaf_change() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0005);
    for case in 0..CASES {
        let n = rng.gen_range(2usize..40);
        let flip = rng.gen_range(0usize..40) % n;
        let leaves: Vec<Hash256> = (0..n).map(|i| sha256d(&(i as u64).to_le_bytes())).collect();
        let mut altered = leaves.clone();
        altered[flip] = sha256d(b"altered");
        assert_ne!(merkle_root(&leaves), merkle_root(&altered), "case {case}");
    }
}

// ---- encoding -----------------------------------------------------------

#[test]
fn varint_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0006);
    // Mix the full u64 domain with small values, where varint width changes.
    let mut values: Vec<u64> = (0..CASES).map(|_| rng.gen::<u64>()).collect();
    values.extend([
        0,
        1,
        0xfc,
        0xfd,
        0xfffe,
        0xffff,
        0x1_0000,
        u32::MAX as u64,
        u64::MAX,
    ]);
    for v in values {
        let mut buf = Vec::new();
        ebv::primitives::encode::write_varint(&mut buf, v);
        assert_eq!(buf.len(), ebv::primitives::encode::varint_len(v), "v={v}");
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_varint().expect("decodes"), v);
        assert_eq!(r.remaining(), 0, "v={v}");
    }
}

#[test]
fn script_num_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0007);
    let mut values: Vec<i64> = (0..CASES)
        .map(|_| rng.gen_range(-0x8000_0000i64..=0x8000_0000i64))
        .collect();
    values.extend([
        0,
        1,
        -1,
        127,
        128,
        -128,
        0x7fff_ffff,
        -0x8000_0000,
        0x8000_0000,
    ]);
    for v in values {
        let enc = ebv::script::ScriptNum(v).encode();
        let dec = ebv::script::ScriptNum::decode(&enc, 5).expect("minimal");
        assert_eq!(dec.0, v);
        assert!(enc.len() <= 5, "v={v}");
    }
}

#[test]
fn hash256_encode_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0008);
    for case in 0..CASES {
        let mut bytes = [0u8; 32];
        for b in bytes.iter_mut() {
            *b = rng.gen::<u8>();
        }
        let h = Hash256::from_bytes(bytes);
        let enc = h.to_bytes();
        assert_eq!(Hash256::from_bytes_dec(&enc), h, "case {case}");
    }
}

// ---- crypto -------------------------------------------------------------

#[test]
fn ecdsa_sign_verify_random_keys() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0009);
    // The curve ops dominate runtime; 16 cases keep this test snappy while
    // still varying both key and message.
    for case in 0..16 {
        let seed = rng.gen_range(1u64..5000);
        let mut msg = [0u8; 16];
        for b in msg.iter_mut() {
            *b = rng.gen::<u8>();
        }
        let sk = ebv::primitives::ec::PrivateKey::from_seed(seed);
        let pk = sk.public_key();
        let digest = ebv::primitives::hash::sha256(&msg);
        let sig = sk.sign(&digest);
        assert!(pk.verify(&digest, &sig), "case {case}, seed {seed}");
        // Tampered digest never verifies.
        let mut other = digest;
        other[0] ^= 1;
        assert!(!pk.verify(&other, &sig), "case {case}, seed {seed}");
    }
}

#[test]
fn compressed_pubkey_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_000a);
    for case in 0..16 {
        let seed = rng.gen_range(1u64..5000);
        let pk = ebv::primitives::ec::PrivateKey::from_seed(seed).public_key();
        let enc = pk.to_compressed();
        let dec = ebv::primitives::ec::PublicKey::from_compressed(&enc).expect("valid");
        assert_eq!(dec, pk, "case {case}, seed {seed}");
    }
}

/// Helper: decode via the `Decodable` trait without inline turbofish.
trait DecHelper {
    fn from_bytes_dec(buf: &[u8]) -> Hash256;
}

impl DecHelper for Hash256 {
    fn from_bytes_dec(buf: &[u8]) -> Hash256 {
        <Hash256 as Decodable>::from_bytes(buf).expect("32 bytes")
    }
}
