//! GLV endomorphism acceleration for secp256k1 (Gallant–Lambert–Vanstone).
//!
//! secp256k1 has `j`-invariant 0, so it carries the efficient endomorphism
//! `φ(x, y) = (β·x, y)` where `β` is a primitive cube root of unity mod `p`.
//! On the group, `φ` acts as multiplication by `λ`, a cube root of unity mod
//! `n`. Any scalar `k` can then be rewritten `k = k₁ + λ·k₂ (mod n)` with
//! `|k₁|, |k₂| ≈ √n`, turning one 256-bit multiplication into two ~128-bit
//! ones that share a doubling ladder — halving the doubling count of
//! [`lincomb_gen`](super::point::lincomb_gen).
//!
//! Every parameter here is **derived at first use**, not transcribed:
//!
//! * `β = a^((p−1)/3)` for the first base `a` that gives a non-trivial root;
//!   likewise a candidate `μ = a^((n−1)/3)` mod `n`.
//! * `λ` is whichever of `μ`, `μ²` satisfies `λ·G = φ(G)` under the
//!   *reference* ladder (the other pairs with `β²`).
//! * The short lattice basis comes from the extended Euclidean algorithm on
//!   `(n, λ)`, stopped at the first remainder below `√n` — the construction
//!   from the GLV paper (CRYPTO 2001), also used by libsecp256k1.
//!
//! Correctness of a split never rests on the derivation being *optimal*:
//! `k₁` and `k₂` are computed mod `n` from the definition
//! `k₁ = k − c₁a₁ − c₂a₂`, `k₂ = −(c₁b₁ + c₂b₂)`, so `k₁ + λk₂ ≡ k (mod n)`
//! holds for **any** rounding `c₁, c₂` because `(a₁, b₁)` and `(a₂, b₂)`
//! both lie in the lattice `{(a, b) : a + bλ ≡ 0 (mod n)}`. A bad basis
//! could only make the halves long (slow), never wrong — and the unit tests
//! pin the ~128-bit bound.

use std::sync::OnceLock;

use super::field::{Fe, P};
use super::point::Affine;
use super::scalar::{Scalar, HALF_N, N};
use crate::u256::U256;

/// Every half of a split is below `2^HALF_BITS`. `derive` asserts that
/// each basis component is below `2^129`, and a half is the sum of two
/// basis components weighted by at most `1/2 + 2^-129` each (the rounding
/// error of `cᵢ`), so it stays below `2^129·(1 + 2^-128)`. The ladders size
/// their digit streams by this bound.
pub(crate) const HALF_BITS: usize = 130;

/// One half of a GLV decomposition: a sign and a magnitude below
/// `2^HALF_BITS`.
pub(crate) struct SplitScalar {
    pub neg: bool,
    pub mag: Scalar,
}

/// Derived endomorphism parameters; built once per process.
pub(crate) struct Glv {
    /// Primitive cube root of unity mod `p`, paired with `lambda`.
    pub beta: Fe,
    /// Primitive cube root of unity mod `n`: `φ(P) = λ·P`.
    pub lambda: Scalar,
    /// Short lattice vectors `v₁ = (a1, b1)`, `v₂ = (a2, b2)` with
    /// `aᵢ + bᵢ·λ ≡ 0 (mod n)`, stored as sign + magnitude-as-scalar.
    a1: (bool, Scalar),
    b1: (bool, Scalar),
    a2: (bool, Scalar),
    b2: (bool, Scalar),
    /// `gᵢ = round(2^384·|βᵢ|/n)` with `β₁ = b2·sign(d)`, `β₂ = −b1·sign(d)`
    /// and `d = a1·b2 − a2·b1 = ±n`, so `cᵢ = round(k·gᵢ/2^384)` approximates
    /// the exact rational solution `cᵢ = k·βᵢ/n`. The stored sign is `βᵢ`'s.
    g1: (bool, U256),
    g2: (bool, U256),
}

static GLV: OnceLock<Glv> = OnceLock::new();

pub(crate) fn params() -> &'static Glv {
    GLV.get_or_init(Glv::derive)
}

/// Signed 256-bit value as sign + magnitude (init-time bookkeeping only).
#[derive(Clone, Copy)]
struct Signed {
    neg: bool,
    mag: U256,
}

impl Signed {
    const ZERO: Signed = Signed {
        neg: false,
        mag: U256::ZERO,
    };

    fn neg(&self) -> Signed {
        Signed {
            neg: !self.neg && !self.mag.is_zero(),
            mag: self.mag,
        }
    }

    /// `self − other`, i.e. the sum of `self` and `−other`.
    fn sub(&self, other: &Signed) -> Signed {
        let o = other.neg();
        if self.neg == o.neg {
            let (s, carry) = self.mag.overflowing_add(&o.mag);
            assert!(!carry, "signed magnitude overflow");
            Signed {
                neg: self.neg && !s.is_zero(),
                mag: s,
            }
        } else if self.mag >= o.mag {
            let d = self.mag.overflowing_sub(&o.mag).0;
            Signed {
                neg: self.neg && !d.is_zero(),
                mag: d,
            }
        } else {
            Signed {
                neg: o.neg,
                mag: o.mag.overflowing_sub(&self.mag).0,
            }
        }
    }

    /// `q·self` for unsigned `q`; panics if the magnitude leaves 256 bits
    /// (cannot happen for Euclidean coefficients, which stay below `n`).
    fn mul_u(&self, q: &U256) -> Signed {
        let wide = self.mag.widening_mul(q);
        assert!(
            wide[4..].iter().all(|&l| l == 0),
            "signed magnitude overflow"
        );
        Signed {
            neg: self.neg && !(self.mag.is_zero() || q.is_zero()),
            mag: U256 {
                limbs: [wide[0], wide[1], wide[2], wide[3]],
            },
        }
    }
}

/// `dividend / n` and remainder for a 576-bit little-endian dividend; the
/// quotient is asserted to fit 256 bits by the caller. Init-time only.
fn div_wide(dividend: &[u64; 9], divisor: &U256) -> ([u64; 9], U256) {
    let mut q = [0u64; 9];
    let mut r = U256::ZERO;
    for i in (0..576).rev() {
        let overflow = r.bit(255);
        r = r.shl1();
        if dividend[i / 64] >> (i % 64) & 1 == 1 {
            r.limbs[0] |= 1;
        }
        if overflow {
            let comp = U256::ZERO.overflowing_sub(divisor).0;
            r = r.overflowing_add(&comp).0;
            q[i / 64] |= 1 << (i % 64);
        } else if r >= *divisor {
            r = r.overflowing_sub(divisor).0;
            q[i / 64] |= 1 << (i % 64);
        }
    }
    (q, r)
}

/// First non-trivial cube root of unity: `a^((m−1)/3)` over the given `pow`,
/// trying small bases until the result is not 1. Requires `m ≡ 1 (mod 3)`.
fn cube_root<T: PartialEq>(one: T, pow: impl Fn(u64, &U256) -> T, m: &U256) -> T {
    let m_minus_1 = m.overflowing_sub(&U256::ONE).0;
    let (exp, rem) = m_minus_1.div_rem(&U256::from_u64(3));
    assert!(rem.is_zero(), "modulus is not 1 mod 3");
    for base in 2..64 {
        let r = pow(base, &exp);
        if r != one {
            return r;
        }
    }
    unreachable!("no cube non-residue among small bases");
}

impl Glv {
    fn derive() -> Glv {
        // β and λ, paired through the reference ladder.
        let beta = cube_root(Fe(U256::ONE), |b, e| Fe::from_u64(b).pow(e), &P);
        let mu = cube_root(Scalar::ONE, |b, e| Scalar::from_u64(b).pow(e), &N);
        let g = Affine::generator();
        let (gx, gy) = g.coords().expect("generator is finite");
        let phi_g = Affine::Point {
            x: gx.mul(&beta),
            y: gy,
        };
        let lambda = if g.mul(&mu) == phi_g {
            mu
        } else {
            let mu2 = mu.mul(&mu);
            assert_eq!(g.mul(&mu2), phi_g, "no cube root acts as φ");
            mu2
        };

        // Extended Euclid on (n, λ): remainders r with coefficients t such
        // that r ≡ t·λ (mod n), i.e. (r, −t) is in the GLV lattice. Stop at
        // the first remainder below √n ≈ 2^128.
        let sqrt_n = U256 {
            limbs: [0, 0, 1, 0],
        };
        let mut prev = (N, Signed::ZERO); // (r₀, t₀)
        let mut cur = (
            lambda.0,
            Signed {
                neg: false,
                mag: U256::ONE,
            },
        ); // (r₁, t₁)
        while cur.0 >= sqrt_n {
            let (q, r2) = prev.0.div_rem(&cur.0);
            let t2 = prev.1.sub(&cur.1.mul_u(&q));
            prev = std::mem::replace(&mut cur, (r2, t2));
        }
        let (q, r2) = prev.0.div_rem(&cur.0);
        let t2 = prev.1.sub(&cur.1.mul_u(&q));
        let v1 = (
            Signed {
                neg: false,
                mag: cur.0,
            },
            cur.1.neg(),
        );
        // v₂: the shorter of the neighbours (r₋, −t₋), (r₊, −t₊).
        let cand_lo = (
            Signed {
                neg: false,
                mag: prev.0,
            },
            prev.1.neg(),
        );
        let cand_hi = (
            Signed {
                neg: false,
                mag: r2,
            },
            t2.neg(),
        );
        let norm = |v: &(Signed, Signed)| std::cmp::max(v.0.mag, v.1.mag);
        let v2 = if norm(&cand_lo) <= norm(&cand_hi) {
            cand_lo
        } else {
            cand_hi
        };
        // HALF_BITS rests on this bound.
        assert!(
            [&v1.0, &v1.1, &v2.0, &v2.1]
                .iter()
                .all(|c| c.mag.bits() < HALF_BITS),
            "basis component exceeds 2^129"
        );

        // d = a1·b2 − a2·b1 must be ±n (the lattice has index n in Z²).
        let p1 = v1.0.mag.widening_mul(&v2.1.mag);
        let p1_neg = v1.0.neg ^ v2.1.neg;
        let p2 = v2.0.mag.widening_mul(&v1.1.mag);
        let p2_neg = v2.0.neg ^ v1.1.neg;
        let (d_mag, d_neg) = sub_wide_signed(&p1, p1_neg, &p2, p2_neg);
        assert!(d_mag[4..].iter().all(|&l| l == 0), "determinant overflow");
        assert_eq!(
            U256 {
                limbs: [d_mag[0], d_mag[1], d_mag[2], d_mag[3]]
            },
            N,
            "basis determinant is not ±n"
        );

        // β₁ = b2·sign(d), β₂ = −b1·sign(d); gᵢ = round(2^384·|βᵢ|/n).
        let beta1 = Signed {
            neg: v2.1.neg ^ d_neg,
            mag: v2.1.mag,
        };
        let beta2 = Signed {
            neg: !v1.1.neg ^ d_neg,
            mag: v1.1.mag,
        };
        let g_of = |b: &Signed| -> (bool, U256) {
            // (|β| << 384) + n/2, then floor-divide by n.
            let m = b.mag.limbs;
            assert!(m[2] < 2 && m[3] == 0, "basis component exceeds 2^129");
            let mut dividend = [0u64; 9];
            dividend[6..9].copy_from_slice(&m[..3]);
            let half = HALF_N.limbs;
            let mut carry = 0u128;
            for (i, &h) in half.iter().enumerate() {
                let t = dividend[i] as u128 + h as u128 + carry;
                dividend[i] = t as u64;
                carry = t >> 64;
            }
            let mut i = 4;
            while carry != 0 {
                let t = dividend[i] as u128 + carry;
                dividend[i] = t as u64;
                carry = t >> 64;
                i += 1;
            }
            let (q, _) = div_wide(&dividend, &N);
            assert!(q[4..].iter().all(|&l| l == 0), "g does not fit 256 bits");
            (
                b.neg,
                U256 {
                    limbs: [q[0], q[1], q[2], q[3]],
                },
            )
        };
        let g1 = g_of(&beta1);
        let g2 = g_of(&beta2);

        let as_scalar = |s: &Signed| -> (bool, Scalar) {
            debug_assert!(s.mag < N);
            (s.neg, Scalar(s.mag))
        };
        Glv {
            beta,
            lambda,
            a1: as_scalar(&v1.0),
            b1: as_scalar(&v1.1),
            a2: as_scalar(&v2.0),
            b2: as_scalar(&v2.1),
            g1,
            g2,
        }
    }

    /// Decompose `k ≡ k₁ + λ·k₂ (mod n)` with both halves ~128 bits.
    pub(crate) fn split(&self, k: &Scalar) -> (SplitScalar, SplitScalar) {
        // cᵢ = round(k·gᵢ/2^384), carrying βᵢ's sign.
        let round_shift = |g: &U256| -> U256 {
            let mut w = k.0.widening_mul(g);
            let t = w[5] as u128 + (1u128 << 63);
            w[5] = t as u64;
            let mut carry = (t >> 64) as u64;
            for limb in &mut w[6..8] {
                let t = *limb as u128 + carry as u128;
                *limb = t as u64;
                carry = (t >> 64) as u64;
            }
            debug_assert_eq!(carry, 0, "product of reduced inputs fits 512 bits");
            U256 {
                limbs: [w[6], w[7], 0, 0],
            }
        };
        let c1 = (self.g1.0, Scalar(round_shift(&self.g1.1)));
        let c2 = (self.g2.0, Scalar(round_shift(&self.g2.1)));

        let term = |c: &(bool, Scalar), v: &(bool, Scalar)| -> Scalar {
            let p = c.1.mul(&v.1);
            if c.0 ^ v.0 {
                p.neg()
            } else {
                p
            }
        };
        // k₁ = k − c₁a₁ − c₂a₂, k₂ = −(c₁b₁ + c₂b₂), all mod n.
        let k1 = k
            .add(&term(&c1, &self.a1).neg())
            .add(&term(&c2, &self.a2).neg());
        let k2 = term(&c1, &self.b1).add(&term(&c2, &self.b2)).neg();

        debug_assert_eq!(
            &k1.add(&k2.mul(&self.lambda)),
            k,
            "GLV split lost the scalar"
        );

        // Centered lift: values above n/2 are small negatives.
        let lift = |s: Scalar| -> SplitScalar {
            if s.0 > HALF_N {
                SplitScalar {
                    neg: true,
                    mag: s.neg(),
                }
            } else {
                SplitScalar { neg: false, mag: s }
            }
        };
        (lift(k1), lift(k2))
    }
}

/// `a·sa − b·sb` over 512-bit magnitudes, returning sign + magnitude.
fn sub_wide_signed(a: &[u64; 8], a_neg: bool, b: &[u64; 8], b_neg: bool) -> ([u64; 8], bool) {
    if a_neg != b_neg {
        // Opposite signs: magnitudes add, sign follows `a`.
        let mut out = [0u64; 8];
        let mut carry = 0u128;
        for i in 0..8 {
            let t = a[i] as u128 + b[i] as u128 + carry;
            out[i] = t as u64;
            carry = t >> 64;
        }
        assert_eq!(carry, 0, "wide signed overflow");
        return (out, a_neg);
    }
    // Same sign: subtract the smaller magnitude.
    let a_ge = a
        .iter()
        .zip(b.iter())
        .rev()
        .find(|(x, y)| x != y)
        .map(|(x, y)| x > y)
        .unwrap_or(true);
    let (hi, lo, neg) = if a_ge { (a, b, a_neg) } else { (b, a, !a_neg) };
    let mut out = [0u64; 8];
    let mut borrow = 0u64;
    for i in 0..8 {
        let (d1, b1) = hi[i].overflowing_sub(lo[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0);
    let zero = out.iter().all(|&l| l == 0);
    (out, neg && !zero)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_and_lambda_are_primitive_cube_roots() {
        let glv = params();
        let b = &glv.beta;
        assert_ne!(*b, Fe(U256::ONE));
        assert_eq!(b.mul(b).mul(b), Fe(U256::ONE));
        let l = &glv.lambda;
        assert_ne!(*l, Scalar::ONE);
        assert_eq!(l.mul(l).mul(l), Scalar::ONE);
    }

    #[test]
    fn endomorphism_is_lambda_multiplication() {
        let glv = params();
        for seed in 1u64..6 {
            let k = Scalar::from_u64(seed * 7 + 1);
            let p = Affine::generator().mul(&k);
            let (x, y) = p.coords().unwrap();
            let phi = Affine::Point {
                x: x.mul(&glv.beta),
                y,
            };
            assert_eq!(p.mul(&glv.lambda), phi, "φ(P) ≠ λ·P at seed {seed}");
        }
    }

    #[test]
    fn split_reconstructs_and_is_short() {
        let glv = params();
        let bound = U256 {
            limbs: [0, 0, 1 << (HALF_BITS - 128), 0],
        };
        let mut cases: Vec<Scalar> = (0u64..32)
            .map(|i| Scalar::from_be_bytes_reduced(&crate::hash::sha256(&i.to_le_bytes())))
            .collect();
        cases.push(Scalar::ZERO);
        cases.push(Scalar::ONE);
        cases.push(Scalar(N.overflowing_sub(&U256::ONE).0));
        cases.push(Scalar(HALF_N));
        cases.push(glv.lambda);
        for k in &cases {
            let (k1, k2) = glv.split(k);
            let signed = |s: &SplitScalar| if s.neg { s.mag.neg() } else { s.mag };
            let back = signed(&k1).add(&signed(&k2).mul(&glv.lambda));
            assert_eq!(&back, k, "split does not reconstruct");
            assert!(k1.mag.0 < bound, "k1 too long for {k:?}");
            assert!(k2.mag.0 < bound, "k2 too long for {k:?}");
        }
    }
}
