//! Arithmetic in the secp256k1 base field
//! `F_p`, `p = 2^256 - 2^32 - 977`.
//!
//! Elements are kept fully reduced. Because `p = 2^256 - C` with
//! `C = 0x1000003D1` fitting in 33 bits, reduction of a 512-bit product is a
//! cheap fold: `H·2^256 + L ≡ H·C + L (mod p)`.

use crate::u256::U256;

/// `p = 2^256 - 2^32 - 977`.
pub const P: U256 = U256::from_be_limbs([
    0xFFFFFFFFFFFFFFFF,
    0xFFFFFFFFFFFFFFFF,
    0xFFFFFFFFFFFFFFFF,
    0xFFFFFFFEFFFFFC2F,
]);

/// `2^256 mod p`.
const C: u64 = 0x1000003D1;

/// An element of `F_p`, always in `[0, p)`.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Fe(pub U256);

/// Test for `r ≥ p`, exploiting p's shape: every limb above the lowest is
/// all-ones, so `r ≥ p` iff limbs 1–3 are saturated and limb 0 reaches p's
/// low limb. One AND-chain instead of a lexicographic compare loop. Only
/// [`reduce512`] uses it, where a folded product lands in `[p, 2²⁵⁶)` with
/// probability ~2⁻²²⁴, so its branch is never taken in practice.
#[inline(always)]
fn ge_p(r: &[u64; 4]) -> bool {
    (r[1] & r[2] & r[3]) == u64::MAX && r[0] >= P.limbs[0]
}

/// Subtract `p` in place (caller guarantees `r ≥ p`). Since limbs 1–3 of
/// both values are saturated, the difference is just the low limbs' gap.
#[inline(always)]
fn sub_p(r: &mut [u64; 4]) {
    debug_assert!(ge_p(r));
    r[0] -= P.limbs[0];
    r[1] = 0;
    r[2] = 0;
    r[3] = 0;
}

/// `a − b − borrow`, returning the difference and the borrow-out.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: bool) -> (u64, bool) {
    let (d, b1) = a.overflowing_sub(b);
    let (d, b2) = d.overflowing_sub(borrow as u64);
    (d, b1 | b2)
}

/// `r − c` for a 33-bit `c` (zero or `C`) that the caller guarantees
/// cannot borrow out of the top limb.
#[inline(always)]
fn sub_c(r: [u64; 4], c: u64) -> U256 {
    let (r0, bw) = sbb(r[0], c, false);
    let (r1, bw) = sbb(r[1], 0, bw);
    let (r2, bw) = sbb(r[2], 0, bw);
    let (r3, bw) = sbb(r[3], 0, bw);
    debug_assert!(!bw, "C correction borrowed out of the top limb");
    U256 {
        limbs: [r0, r1, r2, r3],
    }
}

/// Reduce a 512-bit little-endian product modulo `p`, fully unrolled.
///
/// Fold 1 merges `l + h·C` in a single carry chain (h·C fits 256+34 bits);
/// fold 2 re-absorbs the ≤34-bit overflow as `top·C < 2^67`. This sits
/// under every field multiplication and squaring, so it is written without
/// loops, sub-calls, or wide compares.
#[inline]
fn reduce512(w: &[u64; 8]) -> Fe {
    let c = C as u128;
    // Fold 1: r = l + h·C.
    let t0 = w[0] as u128 + (w[4] as u128) * c;
    let t1 = w[1] as u128 + (w[5] as u128) * c + (t0 >> 64);
    let t2 = w[2] as u128 + (w[6] as u128) * c + (t1 >> 64);
    let t3 = w[3] as u128 + (w[7] as u128) * c + (t2 >> 64);
    let top = (t3 >> 64) as u64; // < 2^34

    // Fold 2: r += top·C (< 2^67), carried across all limbs.
    let tc = (top as u128) * c;
    let u0 = (t0 as u64 as u128) + (tc as u64 as u128);
    let u1 = (t1 as u64 as u128) + (tc >> 64) + (u0 >> 64);
    let u2 = (t2 as u64 as u128) + (u1 >> 64);
    let u3 = (t3 as u64 as u128) + (u2 >> 64);
    let mut r = [u0 as u64, u1 as u64, u2 as u64, u3 as u64];
    if (u3 >> 64) != 0 {
        // Wrapped past 2^256: 2^256 ≡ C (mod p); r is tiny so adding C
        // cannot wrap again.
        let v0 = r[0] as u128 + C as u128;
        r[0] = v0 as u64;
        let v1 = r[1] as u128 + (v0 >> 64);
        r[1] = v1 as u64;
        let v2 = r[2] as u128 + (v1 >> 64);
        r[2] = v2 as u64;
        r[3] += (v2 >> 64) as u64;
    }
    if ge_p(&r) {
        sub_p(&mut r);
    }
    Fe(U256 { limbs: r })
}

impl Fe {
    pub const ZERO: Fe = Fe(U256::ZERO);
    pub const ONE: Fe = Fe(U256::ONE);

    /// Construct from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        Fe(U256::from_u64(v))
    }

    /// Parse 32 big-endian bytes; returns `None` if the value is ≥ p.
    pub fn from_be_bytes(b: &[u8; 32]) -> Option<Fe> {
        let v = U256::from_be_bytes(b);
        if v >= P {
            None
        } else {
            Some(Fe(v))
        }
    }

    /// Serialize as 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// True if the canonical representative is odd (used for compressed
    /// point parity).
    pub fn is_odd(&self) -> bool {
        self.0.limbs[0] & 1 == 1
    }

    /// `self + other`, with no branch on the operands: the sum is formed
    /// as `a + b + C`, which carries past 2²⁵⁶ exactly when `a + b ≥ p`,
    /// and then `a + b + C − 2²⁵⁶ = a + b − p` is the reduced sum. Without
    /// the carry, `C` is taken back off under a mask.
    #[inline]
    pub fn add(&self, other: &Fe) -> Fe {
        let a = &self.0.limbs;
        let b = &other.0.limbs;
        let t0 = a[0] as u128 + b[0] as u128 + C as u128;
        let t1 = a[1] as u128 + b[1] as u128 + (t0 >> 64);
        let t2 = a[2] as u128 + b[2] as u128 + (t1 >> 64);
        let t3 = a[3] as u128 + b[3] as u128 + (t2 >> 64);
        // All-ones when nothing carried; the sum is then at least C, so
        // taking C off cannot borrow out of the top limb.
        let keep = ((t3 >> 64) as u64).wrapping_sub(1);
        let sum = [t0 as u64, t1 as u64, t2 as u64, t3 as u64];
        Fe(sub_c(sum, C & keep))
    }

    /// `self − other`, with no branch on the operands: on a borrow the
    /// wrapped difference is `a − b + 2²⁵⁶`, and subtracting `C` under the
    /// borrow mask gives `a − b + p`.
    #[inline]
    pub fn sub(&self, other: &Fe) -> Fe {
        let a = &self.0.limbs;
        let b = &other.0.limbs;
        let (d0, bw) = sbb(a[0], b[0], false);
        let (d1, bw) = sbb(a[1], b[1], bw);
        let (d2, bw) = sbb(a[2], b[2], bw);
        let (d3, bw) = sbb(a[3], b[3], bw);
        // a − b ≥ −(p − 1) makes the wrapped difference exceed C, so the
        // correction cannot borrow either.
        Fe(sub_c([d0, d1, d2, d3], C & (bw as u64).wrapping_neg()))
    }

    #[inline]
    pub fn neg(&self) -> Fe {
        if self.is_zero() {
            *self
        } else {
            Fe(P.overflowing_sub(&self.0).0)
        }
    }

    #[inline]
    pub fn mul(&self, other: &Fe) -> Fe {
        reduce512(&self.0.widening_mul(&other.0))
    }

    #[inline]
    pub fn square(&self) -> Fe {
        reduce512(&self.0.widening_sqr())
    }

    /// `2·self`.
    #[inline]
    pub fn dbl(&self) -> Fe {
        self.add(self)
    }

    /// `self^e` by square-and-multiply, MSB first.
    pub fn pow(&self, e: &U256) -> Fe {
        let mut acc = Fe::ONE;
        let bits = e.bits();
        for i in (0..bits).rev() {
            acc = acc.square();
            if e.bit(i) {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Multiplicative inverse by divsteps ([`U256::inv_mod`]); `None` for
    /// zero. The Fermat exponentiation ([`Fe::invert_fermat`]) is kept as
    /// the reference implementation and differentially tested against this.
    pub fn invert(&self) -> Option<Fe> {
        self.0.inv_mod(&P).map(Fe)
    }

    /// Reference inverse by Fermat's little theorem (`a^(p-2)`); `None`
    /// for zero. Exists to pin [`Fe::invert`] in differential tests.
    pub fn invert_fermat(&self) -> Option<Fe> {
        if self.is_zero() {
            return None;
        }
        let p_minus_2 = P.overflowing_sub(&U256::from_u64(2)).0;
        Some(self.pow(&p_minus_2))
    }

    /// Square root, if one exists. Since `p ≡ 3 (mod 4)`,
    /// `sqrt(a) = a^((p+1)/4)`; the candidate is verified before returning.
    ///
    /// The exponentiation uses a fixed addition chain (253 squarings plus
    /// 13 multiplications) instead of generic square-and-multiply: the
    /// binary expansion of `(p+1)/4` is three runs of 1s with lengths
    /// {223, 22, 2}, so chaining `2^n - 1` powers covers it with a handful
    /// of multiplies. Signature batch verification performs one sqrt per
    /// signature to recover the nonce point, which makes this the hottest
    /// field exponentiation in the codebase.
    pub fn sqrt(&self) -> Option<Fe> {
        // x_n denotes self^(2^n - 1).
        #[inline(always)]
        fn sq_n(x: &Fe, n: usize) -> Fe {
            let mut acc = *x;
            for _ in 0..n {
                acc = acc.square();
            }
            acc
        }
        let x2 = sq_n(self, 1).mul(self);
        let x3 = sq_n(&x2, 1).mul(self);
        let x6 = sq_n(&x3, 3).mul(&x3);
        let x9 = sq_n(&x6, 3).mul(&x3);
        let x11 = sq_n(&x9, 2).mul(&x2);
        let x22 = sq_n(&x11, 11).mul(&x11);
        let x44 = sq_n(&x22, 22).mul(&x22);
        let x88 = sq_n(&x44, 44).mul(&x44);
        let x176 = sq_n(&x88, 88).mul(&x88);
        let x220 = sq_n(&x176, 44).mul(&x44);
        let x223 = sq_n(&x220, 3).mul(&x3);
        // Stitch the runs together: ...1{223} 0 1{22} 000000 1{2} 00.
        let t = sq_n(&x223, 23).mul(&x22);
        let t = sq_n(&t, 6).mul(&x2);
        let cand = sq_n(&t, 2);
        if cand.square() == *self {
            Some(cand)
        } else {
            None
        }
    }
}

impl std::fmt::Debug for Fe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fe(0x{})", crate::hex::encode(&self.to_be_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    #[test]
    fn add_wraps_at_p() {
        let p_minus_1 = Fe(P.overflowing_sub(&U256::ONE).0);
        assert_eq!(p_minus_1.add(&Fe::ONE), Fe::ZERO);
        assert_eq!(p_minus_1.add(&fe(2)), Fe::ONE);
    }

    #[test]
    fn sub_wraps_below_zero() {
        assert_eq!(Fe::ZERO.sub(&Fe::ONE), Fe(P.overflowing_sub(&U256::ONE).0));
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = fe(123456789);
        assert_eq!(a.add(&a.neg()), Fe::ZERO);
        assert_eq!(Fe::ZERO.neg(), Fe::ZERO);
    }

    #[test]
    fn mul_small() {
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
    }

    #[test]
    fn mul_reduces() {
        // (p-1)^2 mod p = 1  (since p-1 ≡ -1)
        let p_minus_1 = Fe(P.overflowing_sub(&U256::ONE).0);
        assert_eq!(p_minus_1.square(), Fe::ONE);
    }

    #[test]
    fn invert_round_trip() {
        for v in [1u64, 2, 3, 97, 0xffff_ffff, u64::MAX] {
            let a = fe(v);
            let inv = a.invert().expect("nonzero");
            assert_eq!(a.mul(&inv), Fe::ONE, "v = {v}");
        }
        assert!(Fe::ZERO.invert().is_none());
    }

    #[test]
    fn invert_matches_fermat_reference() {
        for v in [1u64, 2, 3, 97, 0xffff_ffff, u64::MAX] {
            let a = fe(v);
            assert_eq!(a.invert(), a.invert_fermat(), "v = {v}");
        }
        let p_minus_1 = Fe(P.overflowing_sub(&U256::ONE).0);
        assert_eq!(p_minus_1.invert(), p_minus_1.invert_fermat());
        assert!(Fe::ZERO.invert_fermat().is_none());
    }

    #[test]
    fn sqrt_of_squares() {
        for v in [2u64, 3, 5, 1234567, 0xdead_beef] {
            let a = fe(v);
            let sq = a.square();
            let r = sq.sqrt().expect("square has a root");
            assert!(r == a || r == a.neg(), "v = {v}");
        }
    }

    #[test]
    fn sqrt_chain_matches_pow_reference() {
        // The addition chain must compute exactly a^((p+1)/4); pin it
        // against the generic square-and-multiply over many values.
        let p_plus_1 = P.overflowing_add(&U256::ONE).0;
        let mut e = [0u64; 4];
        let mut carry = 0u64;
        for i in (0..4).rev() {
            let v = p_plus_1.limbs[i];
            e[i] = (v >> 2) | (carry << 62);
            carry = v & 0b11;
        }
        let exp = U256 { limbs: e };
        let mut a = fe(0xfeed_f00d);
        for _ in 0..64 {
            a = a.square().add(&Fe::ONE);
            let reference = a.pow(&exp);
            let is_root = reference.square() == a;
            match a.sqrt() {
                Some(root) => {
                    assert!(is_root);
                    assert!(root == reference || root == reference.neg());
                }
                None => assert!(!is_root),
            }
        }
    }

    #[test]
    fn sqrt_rejects_non_residue() {
        // 7 generates... instead test: for x where x is QR, -x is not
        // necessarily NQR; use a known non-residue: p ≡ 3 mod 4 means -1 is
        // a non-residue, so -(a^2) has no root when a != 0.
        let a = fe(42).square().neg();
        assert!(a.sqrt().is_none());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = fe(3);
        let mut acc = Fe::ONE;
        for _ in 0..17 {
            acc = acc.mul(&a);
        }
        assert_eq!(a.pow(&U256::from_u64(17)), acc);
    }

    #[test]
    fn from_be_bytes_rejects_ge_p() {
        assert!(Fe::from_be_bytes(&P.to_be_bytes()).is_none());
        assert!(Fe::from_be_bytes(&[0xff; 32]).is_none());
        assert_eq!(Fe::from_be_bytes(&U256::ONE.to_be_bytes()), Some(Fe::ONE));
    }
}
