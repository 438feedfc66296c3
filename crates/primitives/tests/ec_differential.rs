//! Differential tests: the EC fast path (comb/wNAF tables, batch
//! normalization, divstep inversion, mask-selected field add/sub,
//! projective x-comparison, the full- and half-depth verify ladders)
//! against the reference double-and-add ladder that predates it, and the
//! field kernels against long division.
//!
//! The reference implementations (`Jacobian::mul`, `Jacobian::shamir_mul`,
//! `ecdsa::verify_reference`, `Fe::invert_fermat`, `Scalar::invert_fermat`,
//! `Scalar::wnaf`) are kept byte-for-byte stable precisely so these tests
//! pin the fast path to known-good behavior over adversarial scalar shapes:
//! zero, one, powers of two straddling limb boundaries, the group order's
//! neighborhood, GLV halves cut at the half-depth split, and a
//! deterministic pseudo-random sweep.

use std::sync::Barrier;

use ebv_primitives::ec::ecdsa::{self, Signature};
use ebv_primitives::ec::field::{Fe, P};
use ebv_primitives::ec::keys::{PreparedPublicKey, PrivateKey, PublicKey};
use ebv_primitives::ec::point::{
    generator_wnaf_tables, half_depth_pieces, lincomb_gen, lincomb_gen_half_depth, Affine,
    Jacobian, PointTable, HALF_DEPTH_DIGITS, POINT_TABLE_W, SHIFT_BITS,
};
use ebv_primitives::ec::scalar::{Scalar, HALF_N, N};
use ebv_primitives::hash::sha256;
use ebv_primitives::u256::U256;

/// `2^k` as a U256 (`k < 256`).
fn pow2(k: usize) -> U256 {
    let mut limbs = [0u64; 4];
    limbs[k / 64] = 1u64 << (k % 64);
    U256 { limbs }
}

/// Scalars chosen to stress limb boundaries, wNAF carry chains and the
/// top of the scalar range.
fn edge_scalars() -> Vec<Scalar> {
    let mut out = vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_u64(2),
        Scalar::from_u64(3),
        Scalar::from_u64(0xffff_ffff_ffff_ffff),
    ];
    for k in [31usize, 63, 64, 127, 128, 191, 255] {
        let p = pow2(k);
        out.push(Scalar::from_be_bytes_reduced(&p.to_be_bytes()));
        out.push(Scalar::from_be_bytes_reduced(
            &p.overflowing_sub(&U256::ONE).0.to_be_bytes(),
        ));
        out.push(Scalar::from_be_bytes_reduced(
            &p.overflowing_add(&U256::ONE).0.to_be_bytes(),
        ));
    }
    let n_minus_1 = N.overflowing_sub(&U256::ONE).0;
    let n_minus_2 = N.overflowing_sub(&U256::from_u64(2)).0;
    out.push(Scalar(n_minus_1));
    out.push(Scalar(n_minus_2));
    out.push(Scalar(HALF_N));
    out.push(Scalar(HALF_N.overflowing_add(&U256::ONE).0));
    out.push(Scalar(HALF_N.overflowing_sub(&U256::ONE).0));
    out
}

/// Deterministic scalar stream: a sha256 chain seeded by `seed`, reduced
/// mod n. No RNG so failures replay exactly.
fn sweep_scalars(seed: &[u8], count: usize) -> Vec<Scalar> {
    let mut out = Vec::with_capacity(count);
    let mut state = sha256(seed);
    for _ in 0..count {
        out.push(Scalar::from_be_bytes_reduced(&state));
        state = sha256(&state);
    }
    out
}

#[test]
fn mul_gen_matches_reference_over_edge_scalars() {
    for k in edge_scalars() {
        assert_eq!(
            Affine::mul_gen(&k).to_affine(),
            Affine::G.mul(&k),
            "k = {k:?}"
        );
    }
}

#[test]
fn mul_gen_matches_reference_over_sweep() {
    for k in sweep_scalars(b"mul_gen sweep", 24) {
        assert_eq!(
            Affine::mul_gen(&k).to_affine(),
            Affine::G.mul(&k),
            "k = {k:?}"
        );
    }
}

#[test]
fn lincomb_matches_shamir_over_edge_scalars() {
    let g = Affine::G.to_jacobian();
    let q = g.mul(&Scalar::from_u64(0x5eed));
    let table = PointTable::new(&q.to_affine());
    // Pair each edge scalar with a shifted copy of the list so both inputs
    // see every edge value.
    let edges = edge_scalars();
    for (i, u1) in edges.iter().enumerate() {
        let u2 = &edges[(i + 7) % edges.len()];
        let expected = g.shamir_mul(u1, &q, u2).to_affine();
        assert_eq!(
            lincomb_gen(u1, &table, u2).to_affine(),
            expected,
            "u1 = {u1:?}, u2 = {u2:?}"
        );
    }
}

#[test]
fn lincomb_matches_separate_muls_over_sweep() {
    let g = Affine::G.to_jacobian();
    let scalars = sweep_scalars(b"lincomb sweep", 30);
    for chunk in scalars.chunks(3) {
        let [qk, u1, u2] = chunk else { unreachable!() };
        let q = g.mul(qk);
        let table = PointTable::new(&q.to_affine());
        let expected = g.mul(u1).add_jacobian(&q.mul(u2)).to_affine();
        assert_eq!(lincomb_gen(u1, &table, u2).to_affine(), expected);
    }
}

#[test]
fn wnaf_reconstructs_edge_scalars_at_all_widths() {
    for k in edge_scalars() {
        for w in 2..=8u32 {
            let digits = k.wnaf(w);
            let mut acc = Scalar::ZERO;
            let mut pow = Scalar::ONE;
            let two = Scalar::from_u64(2);
            for &d in &digits {
                if d != 0 {
                    assert!(d % 2 != 0, "even digit in wnaf({w}) of {k:?}");
                    assert!(d.unsigned_abs() < 1 << (w - 1), "digit overflow");
                    let term = pow.mul(&Scalar::from_u64(d.unsigned_abs() as u64));
                    acc = if d > 0 {
                        acc.add(&term)
                    } else {
                        acc.add(&term.neg())
                    };
                }
                pow = pow.mul(&two);
            }
            assert_eq!(acc, k, "wnaf({w}) reconstruction of {k:?}");
        }
    }
}

#[test]
fn batch_to_affine_matches_individual_projection() {
    let g = Affine::G.to_jacobian();
    // Mix infinities into every position of a varied batch.
    let mut points = vec![Jacobian::infinity()];
    for k in sweep_scalars(b"batch", 12) {
        points.push(g.mul(&k));
        points.push(Jacobian::infinity());
    }
    let batch = Jacobian::batch_to_affine(&points);
    assert_eq!(batch.len(), points.len());
    for (i, (b, p)) in batch.iter().zip(&points).enumerate() {
        assert_eq!(*b, p.to_affine(), "index {i}");
    }
    assert!(Jacobian::batch_to_affine(&[]).is_empty());
    assert!(Jacobian::batch_to_affine(&[Jacobian::infinity(); 5])
        .iter()
        .all(|p| p.is_infinity()));
}

/// Operands for the inverse: 1, 2, m − 1, m − 2, and every 2ᵏ and 2ᵏ ± 1
/// below the modulus (zero included, as 2⁰ − 1).
fn edge_inverse_operands(m: &U256) -> Vec<U256> {
    let mut out = vec![
        U256::ONE,
        U256::from_u64(2),
        m.overflowing_sub(&U256::ONE).0,
        m.overflowing_sub(&U256::from_u64(2)).0,
    ];
    for k in 0..256 {
        let p = pow2(k);
        out.push(p.overflowing_sub(&U256::ONE).0);
        out.push(p);
        out.push(p.overflowing_add(&U256::ONE).0);
    }
    out.retain(|v| v < m);
    out
}

/// The divstep inverse against the Fermat reference on edge operands and
/// a seeded sweep of 10,000.
#[test]
fn scalar_inversion_matches_fermat_reference() {
    let edges = edge_inverse_operands(&N).into_iter().map(Scalar);
    for k in edge_scalars().into_iter().chain(edges) {
        assert_eq!(k.invert(), k.invert_fermat(), "k = {k:?}");
        if let Some(inv) = k.invert() {
            assert_eq!(k.mul(&inv), Scalar::ONE);
        }
    }
    for k in sweep_scalars(b"scalar inv", 10_000) {
        assert_eq!(k.invert(), k.invert_fermat(), "k = {k:?}");
    }
}

#[test]
fn field_inversion_matches_fermat_reference() {
    let mut values = vec![Fe::ZERO, Fe::ONE, Fe::from_u64(2)];
    let mut state = sha256(b"field inv");
    for _ in 0..16 {
        // Clamp the top byte so the 32-byte string is always < p.
        let mut b = state;
        b[0] &= 0x7f;
        values.push(Fe::from_be_bytes(&b).expect("below p"));
        state = sha256(&state);
    }
    values.extend(edge_inverse_operands(&P).into_iter().map(Fe));
    values.extend(sweep_field_elements(b"field inv sweep", 10_000));
    for v in values {
        assert_eq!(v.invert(), v.invert_fermat(), "v = {v:?}");
        if let Some(inv) = v.invert() {
            assert_eq!(v.mul(&inv), Fe::ONE);
        }
    }
}

/// `x mod m` for the 257-bit `carry·2²⁵⁶ + x`, by long division only:
/// `2²⁵⁶ mod m` comes from `(2²⁵⁶ − 1) mod m`, not from the field's
/// constant.
fn reduce257(carry: bool, x: &U256, m: &U256) -> U256 {
    let r = x.div_rem(m).1;
    if !carry {
        return r;
    }
    let max = U256 {
        limbs: [u64::MAX; 4],
    };
    let two256 = max.div_rem(m).1.overflowing_add(&U256::ONE).0;
    // r + two256 < 2m ≤ 2²⁵⁶ for m = p, so the sum does not wrap.
    let (s, wrapped) = r.overflowing_add(&two256);
    assert!(!wrapped);
    s.div_rem(m).1
}

/// `(a + b) mod p` from the exact 257-bit sum.
fn add_reference(a: &Fe, b: &Fe) -> Fe {
    let (s, carry) = a.0.overflowing_add(&b.0);
    Fe(reduce257(carry, &s, &P))
}

/// `(a − b) mod p` from the exact difference: a borrow means the true
/// value is `−(2²⁵⁶ − s)`.
fn sub_reference(a: &Fe, b: &Fe) -> Fe {
    let (s, borrow) = a.0.overflowing_sub(&b.0);
    if !borrow {
        return Fe(s.div_rem(&P).1);
    }
    let magnitude = U256::ZERO.overflowing_sub(&s).0.div_rem(&P).1;
    if magnitude.is_zero() {
        Fe::ZERO
    } else {
        Fe(P.overflowing_sub(&magnitude).0)
    }
}

/// Field operands around every place the add/sub kernels select: zero,
/// `C = 2²⁵⁶ − p` and its neighbors, the middle of the range, the top of
/// the field, and halves of the sums at the carry boundaries.
fn edge_field_elements() -> Vec<Fe> {
    let c = U256::from_u64(0x1_0000_03d1);
    let p_minus = |k: u64| P.overflowing_sub(&U256::from_u64(k)).0;
    let half_p = P.shr1(); // (p − 1) / 2
    let values = [
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        c.overflowing_sub(&U256::ONE).0,
        c,
        c.overflowing_add(&U256::ONE).0,
        c.overflowing_add(&U256::from_u64(2)).0,
        pow2(255).overflowing_sub(&U256::ONE).0,
        pow2(255),
        pow2(255).overflowing_add(&U256::ONE).0,
        P.overflowing_sub(&c).0,
        half_p,
        half_p.overflowing_add(&U256::ONE).0,
        p_minus(2),
        p_minus(1),
    ];
    values.iter().map(|v| Fe(*v)).collect()
}

/// Deterministic field elements: a sha256 chain, skipping values ≥ p.
fn sweep_field_elements(seed: &[u8], count: usize) -> Vec<Fe> {
    let mut out = Vec::with_capacity(count);
    let mut state = sha256(seed);
    while out.len() < count {
        if let Some(v) = Fe::from_be_bytes(&state) {
            out.push(v);
        }
        state = sha256(&state);
    }
    out
}

fn assert_field_kernels_match(a: &Fe, b: &Fe) {
    assert_eq!(a.add(b), add_reference(a, b), "{a:?} + {b:?}");
    assert_eq!(a.sub(b), sub_reference(a, b), "{a:?} - {b:?}");
}

/// The mask-selected `Fe::add`/`Fe::sub` (and `dbl`, `neg` on top of
/// them) against sums and differences reduced by long division, over
/// every pair of edge operands and a seeded sweep.
#[test]
fn field_add_sub_match_long_division_reference() {
    let edges = edge_field_elements();
    // The edge pairs reach every exact sum at which the kernel's carry and
    // mask change: p − 1, p, p + 1 and 2²⁵⁶ − 1, 2²⁵⁶, 2²⁵⁶ + 1.
    let max = U256 {
        limbs: [u64::MAX; 4],
    };
    let targets = [
        (false, P.overflowing_sub(&U256::ONE).0),
        (false, P),
        (false, P.overflowing_add(&U256::ONE).0),
        (false, max),
        (true, U256::ZERO),
        (true, U256::ONE),
    ];
    for target in targets {
        assert!(
            edges.iter().any(|a| edges
                .iter()
                .any(|b| a.0.overflowing_add(&b.0) == (target.1, target.0))),
            "no edge pair sums to {target:?}"
        );
    }
    for a in &edges {
        for b in &edges {
            assert_field_kernels_match(a, b);
        }
        assert_eq!(a.dbl(), add_reference(a, a), "dbl {a:?}");
        assert_eq!(a.neg(), sub_reference(&Fe::ZERO, a), "neg {a:?}");
    }
    let sweep = sweep_field_elements(b"field add/sub sweep", 10_001);
    for pair in sweep.windows(2) {
        assert_field_kernels_match(&pair[0], &pair[1]);
        assert_field_kernels_match(&pair[1], &pair[0]);
        assert_eq!(pair[0].dbl(), add_reference(&pair[0], &pair[0]));
        assert_eq!(pair[0].neg(), sub_reference(&Fe::ZERO, &pair[0]));
    }
}

/// `a·b mod m` by shift-and-add, for `a < m < 2²⁵⁵` (so a doubled residue
/// never wraps).
fn mul_mod_reference(a: &U256, b: &U256, m: &U256) -> U256 {
    let add_mod = |x: U256, y: &U256| {
        let s = x.overflowing_add(y).0;
        if s >= *m {
            s.overflowing_sub(m).0
        } else {
            s
        }
    };
    let mut acc = U256::ZERO;
    for i in (0..b.bits()).rev() {
        acc = add_mod(acc, &acc);
        if b.bit(i) {
            acc = add_mod(acc, a);
        }
    }
    acc
}

fn gcd(mut a: U256, mut b: U256) -> U256 {
    while !b.is_zero() {
        (a, b) = (b, a.div_rem(&b).1);
    }
    a
}

/// On composite moduli the inverse exists exactly when the gcd is 1: every
/// operand of every odd modulus below 256, then seeded operands and the
/// moduli's own factors on two large composites.
#[test]
fn inv_mod_refuses_exactly_the_non_units_of_composite_moduli() {
    for m in (1u64..256).step_by(2) {
        for a in 0..m {
            let inv = U256::from_u64(a).inv_mod(&U256::from_u64(m));
            let unit = a != 0 && gcd(U256::from_u64(a), U256::from_u64(m)) == U256::ONE;
            match inv {
                Some(inv) => {
                    assert!(unit, "{a}⁻¹ mod {m} should not exist");
                    assert!(inv.limbs[0] < m && inv.limbs[1..] == [0; 3]);
                    assert_eq!(u128::from(a) * u128::from(inv.limbs[0]) % u128::from(m), 1);
                }
                None => assert!(!unit, "{a}⁻¹ mod {m} exists"),
            }
        }
    }
    // 3¹⁶⁰ (254 bits), and (2¹²⁷ − 1)·(2⁶¹ − 1), a product of two primes.
    let pow3 = (0..160).fold(U256::ONE, |acc, _| {
        let (t, _) = acc.overflowing_add(&acc);
        t.overflowing_add(&acc).0
    });
    let (m127, m61) = (
        pow2(127).overflowing_sub(&U256::ONE).0,
        U256::from_u64((1 << 61) - 1),
    );
    let w = m127.widening_mul(&m61);
    let mersenne = U256 {
        limbs: [w[0], w[1], w[2], w[3]],
    };
    for (m, factors) in [(pow3, vec![U256::from_u64(3)]), (mersenne, vec![m127, m61])] {
        let mut operands: Vec<U256> = sweep_scalars(b"composite moduli", 300)
            .iter()
            .map(|s| s.0.div_rem(&m).1)
            .collect();
        for f in &factors {
            operands.push(*f);
            operands.push(f.overflowing_add(f).0);
            operands.push(mul_mod_reference(f, &operands[0], &m));
        }
        for a in operands {
            let unit = !a.is_zero() && gcd(a, m) == U256::ONE;
            match a.inv_mod(&m) {
                Some(inv) => {
                    assert!(unit, "{a:?}⁻¹ mod {m:?} should not exist");
                    assert!(inv < m);
                    assert_eq!(mul_mod_reference(&a, &inv, &m), U256::ONE, "{a:?}");
                }
                None => assert!(!unit, "{a:?}⁻¹ mod {m:?} exists"),
            }
        }
    }
}

#[test]
fn squaring_matches_general_multiplication() {
    let mut state = sha256(b"sqr");
    for _ in 0..32 {
        let v = U256::from_be_bytes(&state);
        assert_eq!(v.widening_sqr(), v.widening_mul(&v));
        state = sha256(&state);
    }
    assert_eq!([0u64; 8], U256::ZERO.widening_sqr());
    let max = U256 {
        limbs: [u64::MAX; 4],
    };
    assert_eq!(max.widening_sqr(), max.widening_mul(&max));
}

/// Both verifiers must agree — accept and reject alike — on valid
/// signatures, every single-component tamper, wrong digests, wrong keys,
/// and structurally odd (zero/high) component values.
#[test]
fn verify_decisions_match_reference() {
    let digests: Vec<[u8; 32]> = (0u64..4).map(|i| sha256(&i.to_le_bytes())).collect();
    for seed in 0..4u64 {
        let sk = PrivateKey::from_seed(seed);
        let pk = *sk.public_key().point();
        let prepared = sk.public_key().prepare();
        for z in &digests {
            let sig = sk.sign(z);
            let cases = [
                sig,
                Signature {
                    r: sig.r.add(&Scalar::ONE),
                    s: sig.s,
                },
                Signature {
                    r: sig.r,
                    s: sig.s.add(&Scalar::ONE),
                },
                Signature {
                    r: sig.r.neg(),
                    s: sig.s,
                },
                Signature {
                    r: sig.r,
                    s: sig.s.neg(), // high-S twin: same curve equation
                },
                Signature {
                    r: Scalar::ZERO,
                    s: sig.s,
                },
                Signature {
                    r: sig.r,
                    s: Scalar::ZERO,
                },
                Signature {
                    r: Scalar::ONE,
                    s: Scalar::ONE,
                },
            ];
            for (i, cand) in cases.iter().enumerate() {
                let fast = ecdsa::verify(z, cand, &pk);
                let reference = ecdsa::verify_reference(z, cand, &pk);
                // The fast path drops the redundant r/s zero pre-check; the
                // zero cases still agree because a zero component can never
                // satisfy the final x-equation.
                if cand.r.is_zero() || cand.s.is_zero() {
                    assert!(!fast, "zero component accepted (case {i})");
                    assert!(!reference, "zero component accepted by ref (case {i})");
                } else {
                    assert_eq!(fast, reference, "seed {seed}, case {i}");
                }
                assert_eq!(prepared.verify(z, cand), fast, "prepared disagrees");
            }
            // Cross-digest rejections agree too.
            for other in &digests {
                if other != z {
                    assert_eq!(
                        ecdsa::verify(other, &sig, &pk),
                        ecdsa::verify_reference(other, &sig, &pk)
                    );
                }
            }
        }
    }
}

/// The RFC 6979 known vector must round-trip through the fast path, the
/// reference path, and the compact encoding.
#[test]
fn known_vector_passes_both_paths() {
    let sk = PrivateKey::from_scalar(Scalar::ONE).unwrap();
    let z = sha256(b"Satoshi Nakamoto");
    let sig = sk.sign(&z);
    let pk = sk.public_key();
    assert!(ecdsa::verify(&z, &sig, pk.point()));
    assert!(ecdsa::verify_reference(&z, &sig, pk.point()));
    let parsed = Signature::from_compact(&sig.to_compact()).unwrap();
    assert!(pk.prepare().verify(&z, &parsed));
}

/// Public keys derived via the comb table must equal the reference ladder's,
/// and parse back identically from their compressed encoding.
#[test]
fn key_derivation_matches_reference_ladder() {
    for seed in 0..8u64 {
        let sk = PrivateKey::from_seed(seed);
        let fast = *sk.public_key().point();
        let reference = Affine::generator().mul(sk.scalar());
        assert_eq!(fast, reference, "seed {seed}");
        let encoded = sk.public_key().to_compressed();
        assert_eq!(
            PublicKey::from_compressed(&encoded).unwrap(),
            sk.public_key()
        );
    }
}

/// secp256k1's endomorphism constants as published (SEC 2 / libsecp256k1):
/// `λ·P = (β·x, y)`. Transcribed here, independently of the derivation in
/// the crate, so the half-depth tests have their own oracle for the bases.
const LAMBDA: U256 = U256::from_be_limbs([
    0x5363AD4CC05C30E0,
    0xA5261C028812645A,
    0x122E22EA20816678,
    0xDF02967C1B23BD72,
]);
const BETA: U256 = U256::from_be_limbs([
    0x7AE96A2B657C0710,
    0x6E64479EAC3434E9,
    0x9CF0497512F58995,
    0xC1396C28719501EE,
]);

fn lambda() -> Scalar {
    Scalar(LAMBDA)
}

#[test]
fn published_lambda_acts_as_beta() {
    let (x, y) = Affine::G.coords().unwrap();
    let phi_g = Affine::Point {
        x: x.mul(&Fe(BETA)),
        y,
    };
    assert_eq!(Affine::G.mul(&lambda()), phi_g);
}

/// `2^64` as a scalar.
fn shift() -> Scalar {
    Scalar(pow2(SHIFT_BITS))
}

/// `±(lo + 2^64·hi)` as a scalar.
fn half(neg: bool, lo: u64, hi: u64) -> Scalar {
    let h = Scalar(U256 {
        limbs: [lo, hi, 0, 0],
    });
    if neg {
        h.neg()
    } else {
        h
    }
}

/// Scalars `k = k₁ + λ·k₂` whose GLV halves are cut at the half-depth
/// split into pieces of 0, 1 and 2^64 − 1 in every combination and sign:
/// halves at, just below and just above the split bound `2^64`, and at
/// `2^128 − 1`. Returned with the halves that built them.
fn crafted_halves() -> Vec<(Scalar, Scalar, Scalar)> {
    let pieces = [0u64, 1, u64::MAX];
    let mut halves = Vec::new();
    for &lo in &pieces {
        for &hi in &pieces {
            for neg in [false, true] {
                halves.push(half(neg, lo, hi));
            }
        }
    }
    let mut out = Vec::new();
    for (i, k1) in halves.iter().enumerate() {
        // Every first half against a rotating second half keeps the list
        // linear in size while each half meets both roles.
        for k2 in [halves[i], halves[(i * 7 + 3) % halves.len()]] {
            out.push((k1.add(&k2.mul(&lambda())), *k1, k2));
        }
    }
    out
}

/// Recombine `half_depth_pieces(k)` over the bases `1, 2^64, λ, λ·2^64`.
fn recombine(pieces: &[(bool, U256); 4]) -> Scalar {
    let bases = [Scalar::ONE, shift(), lambda(), lambda().mul(&shift())];
    pieces
        .iter()
        .zip(bases)
        .fold(Scalar::ZERO, |acc, (&(neg, piece), base)| {
            let term = Scalar(piece).mul(&base);
            acc.add(&if neg { term.neg() } else { term })
        })
}

#[test]
fn half_depth_pieces_recombine_and_fit_the_ladder() {
    let mut scalars = edge_scalars();
    scalars.extend(sweep_scalars(b"half-depth pieces", 256));
    scalars.extend(crafted_halves().into_iter().map(|(k, _, _)| k));
    for k in &scalars {
        let pieces = half_depth_pieces(k);
        assert_eq!(recombine(&pieces), *k, "pieces of {k:?}");
        for (j, (_, piece)) in pieces.iter().enumerate() {
            let bound = if j % 2 == 0 { 64 } else { 66 };
            assert!(piece.bits() <= bound, "piece {j} of {k:?}");
            // The reference recoding, at both ladder widths: no stream of
            // the half-depth ladder is longer than its digit capacity.
            for w in [POINT_TABLE_W, 8] {
                let digits = Scalar(*piece).wnaf(w).len();
                assert!(digits <= HALF_DEPTH_DIGITS, "{digits} digits: {k:?}");
            }
        }
    }
    assert_eq!(HALF_DEPTH_DIGITS, 67);
}

#[test]
fn crafted_halves_reach_the_ladder_as_built() {
    // Halves below 2^65 sit deep inside the GLV rounding's fundamental
    // domain, so the split returns exactly the halves that built them: the
    // edge pieces (0, 1, 2^64 − 1 at the split bound) really reach the
    // ladder.
    let mut exact = 0;
    for (k, k1, k2) in crafted_halves() {
        let short = |h: &Scalar| h.0.bits() <= 65 || h.neg().0.bits() <= 65;
        if !(short(&k1) && short(&k2)) {
            continue;
        }
        let p = half_depth_pieces(&k);
        let rebuild = |lo: &(bool, U256), hi: &(bool, U256)| {
            let h = Scalar(lo.1).add(&Scalar(hi.1).mul(&shift()));
            if lo.0 {
                h.neg()
            } else {
                h
            }
        };
        assert_eq!(rebuild(&p[0], &p[1]), k1, "{k:?}");
        assert_eq!(rebuild(&p[2], &p[3]), k2, "{k:?}");
        exact += 1;
    }
    assert!(exact >= 18, "{exact} crafted scalars split as built");
}

#[test]
fn half_depth_lincomb_matches_shamir_over_edge_scalars() {
    let g = Affine::G.to_jacobian();
    let q = g.mul(&Scalar::from_u64(0x5eed));
    let qa = q.to_affine();
    let (table, shifted) = (PointTable::new(&qa), PointTable::shifted(&qa));
    let mut scalars = edge_scalars();
    scalars.extend(crafted_halves().into_iter().map(|(k, _, _)| k));
    for (i, u1) in scalars.iter().enumerate() {
        // u2 walks the list at another stride; zero on either side is in
        // the list, and each is also paired with zero explicitly.
        let u2 = scalars[(i * 5 + 11) % scalars.len()];
        for (a, b) in [(*u1, u2), (*u1, Scalar::ZERO), (Scalar::ZERO, *u1)] {
            let expected = g.shamir_mul(&a, &q, &b).to_affine();
            assert_eq!(
                lincomb_gen_half_depth(&a, &table, &shifted, &b).to_affine(),
                expected,
                "u1 = {a:?}, u2 = {b:?}"
            );
            assert_eq!(lincomb_gen(&a, &table, &b).to_affine(), expected);
        }
    }
}

#[test]
fn shifted_tables_match_reference_ladder() {
    let two64 = shift();
    let tables = generator_wnaf_tables();
    let bases = [Scalar::ONE, two64, lambda(), lambda().mul(&two64)];
    for (table, base) in tables.iter().zip(bases) {
        for (i, entry) in table.iter().enumerate() {
            let k = base.mul(&Scalar::from_u64(2 * i as u64 + 1));
            assert_eq!(*entry, Affine::G.mul(&k), "generator entry {i}");
        }
    }
    for seed in 0..3u64 {
        let pk = PrivateKey::from_seed(seed).public_key();
        let q = pk.point();
        let expected: Vec<Affine> = (0..8u64)
            .map(|i| q.mul(&two64.mul(&Scalar::from_u64(2 * i + 1))))
            .collect();
        assert_eq!(PointTable::shifted(q).entries(), &expected[..]);
        // The prepared key's lazily built table is the same.
        let prepared = pk.prepare();
        let sk = PrivateKey::from_seed(seed);
        let z = sha256(b"shifted");
        let sig = sk.sign(&z);
        assert!(prepared.verify(&z, &sig));
        assert!(prepared.shifted_table().is_none(), "built on first verify");
        assert!(prepared.verify(&z, &sig));
        let built = prepared.shifted_table().expect("built on second verify");
        assert_eq!(built.entries(), &expected[..]);
    }
}

/// A valid signature whose verify equation uses exactly `(u1, u2)` under
/// `q`: `R = u1·G + u2·Q` by the reference ladder, `r = R.x mod n`,
/// `s = r/u2`, `z = u1·s`. `None` when `R` is infinity or `r` is zero.
fn signature_for(u1: &Scalar, u2: &Scalar, q: &Affine) -> Option<([u8; 32], Signature)> {
    let g = Affine::G.to_jacobian();
    let (x, _) = g
        .shamir_mul(u1, &q.to_jacobian(), u2)
        .to_affine()
        .coords()?;
    let r = Scalar::from_be_bytes_reduced(&x.to_be_bytes());
    let s = r.mul(&u2.invert()?);
    if r.is_zero() {
        return None;
    }
    Some((u1.mul(&s).to_be_bytes(), Signature { r, s }))
}

/// Every verifier's verdict on `(z, sig)` under `key` — the prepared key's
/// (first or later), the one-shot and the reference — must agree.
fn assert_verifiers_agree(z: &[u8; 32], sig: &Signature, key: &PreparedPublicKey) -> bool {
    let q = key.public_key().point();
    let reference = ecdsa::verify_reference(z, sig, q);
    assert_eq!(ecdsa::verify(z, sig, q), reference, "one-shot: {sig:?}");
    assert_eq!(key.verify(z, sig), reference, "prepared: {sig:?}");
    reference
}

#[test]
fn verify_matches_reference_on_crafted_edge_scalars() {
    let crafted = crafted_halves();
    let full_width = sweep_scalars(b"u2", 1)[0];
    let mut valid = 0;
    for (n, (u1, _, _)) in crafted.iter().enumerate() {
        let sk = PrivateKey::from_seed(n as u64 % 4);
        let key = sk.public_key().prepare();
        // u2 from the crafted list too, and a plain full-width one.
        for u2 in [crafted[(n * 3 + 1) % crafted.len()].0, full_width] {
            let Some((z, sig)) = signature_for(u1, &u2, key.public_key().point()) else {
                continue;
            };
            // Twice: the key's first verify, then the half-depth ones.
            for _ in 0..2 {
                assert!(assert_verifiers_agree(&z, &sig, &key), "u1 = {u1:?}");
            }
            let tampered = Signature {
                r: sig.r,
                s: sig.s.add(&Scalar::ONE),
            };
            assert!(!assert_verifiers_agree(&z, &tampered, &key));
            valid += 1;
        }
        // u1 = 0: a zero digest.
        let Some((z, sig)) = signature_for(&Scalar::ZERO, u1, key.public_key().point()) else {
            continue;
        };
        assert_eq!(z, [0u8; 32]);
        assert!(assert_verifiers_agree(&z, &sig, &key));
        // u2 = 0 needs r = 0, which every verifier rejects.
        let zero_r = Signature {
            r: Scalar::ZERO,
            s: sig.s,
        };
        assert!(!assert_verifiers_agree(&z, &zero_r, &key));
    }
    assert!(valid >= 60, "{valid} valid crafted signatures");
}

/// Deterministic 64-bit values for picking mutations: a sha256 chain.
struct ChainRng([u8; 32]);

impl ChainRng {
    fn next(&mut self) -> u64 {
        self.0 = sha256(&self.0);
        u64::from_le_bytes(self.0[..8].try_into().unwrap())
    }
}

fn flip_bit(bytes: [u8; 32], bit: u64) -> [u8; 32] {
    let mut out = bytes;
    out[(bit / 8 % 32) as usize] ^= 1 << (bit % 8);
    out
}

#[test]
fn seeded_mutants_agree_with_reference_on_first_and_later_verifies() {
    const KEYS: u64 = 6;
    const MUTANTS: usize = 1200;
    let signers: Vec<PrivateKey> = (0..KEYS).map(|i| PrivateKey::from_seed(100 + i)).collect();
    let mut keys: Vec<PreparedPublicKey> = Vec::new();
    let mut rng = ChainRng(sha256(b"ecdsa mutants"));
    let (mut accepted, mut first_verifies) = (0, 0);
    for i in 0..MUTANTS {
        // Fresh keys every 40 mutants, so first verifies recur throughout.
        if i % 40 == 0 {
            keys = signers.iter().map(|k| k.public_key().prepare()).collect();
        }
        let k = (rng.next() % KEYS) as usize;
        let z = sha256(&(i as u64).to_le_bytes());
        let sig = signers[k].sign(&z);
        if keys[k].shifted_table().is_none() {
            first_verifies += 1;
        }
        accepted += usize::from(assert_verifiers_agree(&z, &sig, &keys[k]));
        let bit = rng.next();
        let (z2, sig2, k2) = match rng.next() % 4 {
            0 => {
                let r = Scalar::from_be_bytes_reduced(&flip_bit(sig.r.to_be_bytes(), bit));
                (z, Signature { r, s: sig.s }, k)
            }
            1 => {
                let s = Scalar::from_be_bytes_reduced(&flip_bit(sig.s.to_be_bytes(), bit));
                (z, Signature { r: sig.r, s }, k)
            }
            2 => (flip_bit(z, bit), sig, k),
            _ => (
                z,
                sig,
                (k + 1 + (bit % (KEYS - 1)) as usize) % KEYS as usize,
            ),
        };
        assert!(
            !assert_verifiers_agree(&z2, &sig2, &keys[k2]),
            "mutant {i} accepted"
        );
    }
    assert_eq!(accepted, MUTANTS);
    assert!(first_verifies >= 100, "{first_verifies} first verifies");
}

#[test]
fn racing_second_verifies_agree() {
    for seed in 0..8u64 {
        let sk = PrivateKey::from_seed(seed);
        let key = sk.public_key().prepare();
        let z = sha256(&seed.to_le_bytes());
        let sig = sk.sign(&z);
        let bad = Signature {
            r: sig.r,
            s: sig.s.add(&Scalar::ONE),
        };
        assert!(key.verify(&z, &sig));
        let start = Barrier::new(2);
        let verdicts: Vec<(bool, bool)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (key.verify(&z, &sig), key.verify(&z, &bad))
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racer"))
                .collect()
        });
        assert_eq!(verdicts, vec![(true, false); 2], "seed {seed}");
        let expected = PointTable::shifted(key.public_key().point());
        assert_eq!(
            key.shifted_table().expect("built").entries(),
            expected.entries()
        );
    }
}
