//! Arithmetic modulo the secp256k1 group order `n`.
//!
//! `n = 2^256 - Δ` with a 129-bit `Δ`, so 512-bit products reduce by
//! repeated folding `H·2^256 + L ≡ H·Δ + L (mod n)`; three folds suffice.

use crate::u256::U256;

/// The group order `n`.
pub const N: U256 = U256::from_be_limbs([
    0xFFFFFFFFFFFFFFFF,
    0xFFFFFFFFFFFFFFFE,
    0xBAAEDCE6AF48A03B,
    0xBFD25E8CD0364141,
]);

/// `Δ = 2^256 - n` (129 bits).
const DELTA: U256 = U256::from_be_limbs([
    0x0000000000000000,
    0x0000000000000001,
    0x45512319_50B75FC4,
    0x402DA173_2FC9BEBF,
]);

/// `(n - 1) / 2`, the low-S threshold.
pub const HALF_N: U256 = U256::from_be_limbs([
    0x7FFFFFFFFFFFFFFF,
    0xFFFFFFFFFFFFFFFF,
    0x5D576E7357A4501D,
    0xDFE92F46681B20A0,
]);

/// An integer modulo `n`, always in `[0, n)`.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Scalar(pub U256);

/// 512-bit addition, little-endian limbs.
fn add512(a: &[u64; 8], b: &[u64; 8]) -> [u64; 8] {
    let mut out = [0u64; 8];
    let mut carry = 0u64;
    for i in 0..8 {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        out[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    debug_assert_eq!(carry, 0, "512-bit fold addition cannot carry out");
    out
}

/// Reduce a 512-bit little-endian value modulo `n`.
fn reduce512(w: &[u64; 8]) -> Scalar {
    let mut v = *w;
    // Each fold replaces H·2^256 + L with H·Δ + L; since Δ < 2^129, the high
    // half shrinks from 256 → 129+ε → 3 bits → 0 in three folds.
    loop {
        let h = U256 {
            limbs: [v[4], v[5], v[6], v[7]],
        };
        if h.is_zero() {
            break;
        }
        let l = [v[0], v[1], v[2], v[3], 0, 0, 0, 0];
        let hd = h.widening_mul(&DELTA);
        v = add512(&l, &hd);
    }
    let mut r = U256 {
        limbs: [v[0], v[1], v[2], v[3]],
    };
    while r >= N {
        r = r.overflowing_sub(&N).0;
    }
    Scalar(r)
}

impl Scalar {
    pub const ZERO: Scalar = Scalar(U256::ZERO);
    pub const ONE: Scalar = Scalar(U256::ONE);

    /// Construct from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar(U256::from_u64(v))
    }

    /// Parse 32 big-endian bytes; `None` if the value is ≥ n (the strict
    /// check used for private keys and signature components).
    pub fn from_be_bytes(b: &[u8; 32]) -> Option<Scalar> {
        let v = U256::from_be_bytes(b);
        if v >= N {
            None
        } else {
            Some(Scalar(v))
        }
    }

    /// Parse 32 big-endian bytes, reducing modulo n (the `bits2int` mapping
    /// used for message digests).
    pub fn from_be_bytes_reduced(b: &[u8; 32]) -> Scalar {
        let mut v = U256::from_be_bytes(b);
        while v >= N {
            v = v.overflowing_sub(&N).0;
        }
        Scalar(v)
    }

    /// Serialize as 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// True if `self > (n-1)/2` — a "high-S" value that [`normalize_s`]
    /// would flip.
    ///
    /// [`normalize_s`]: Scalar::normalize_s
    pub fn is_high(&self) -> bool {
        self.0 > HALF_N
    }

    /// Canonicalize to the low-S form used by the signature encoding.
    pub fn normalize_s(&self) -> Scalar {
        if self.is_high() {
            self.neg()
        } else {
            *self
        }
    }

    pub fn add(&self, other: &Scalar) -> Scalar {
        let (mut s, carry) = self.0.overflowing_add(&other.0);
        if carry || s >= N {
            s = s.overflowing_sub(&N).0;
        }
        Scalar(s)
    }

    pub fn neg(&self) -> Scalar {
        if self.is_zero() {
            *self
        } else {
            Scalar(N.overflowing_sub(&self.0).0)
        }
    }

    pub fn mul(&self, other: &Scalar) -> Scalar {
        reduce512(&self.0.widening_mul(&other.0))
    }

    /// `self^e mod n` by square-and-multiply.
    pub fn pow(&self, e: &U256) -> Scalar {
        let mut acc = Scalar::ONE;
        for i in (0..e.bits()).rev() {
            acc = acc.mul(&acc);
            if e.bit(i) {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Multiplicative inverse by divsteps ([`U256::inv_mod`]); `None` for
    /// zero. Replaces the Fermat exponentiation on the ECDSA hot path (one
    /// inversion per sign and per verify); [`Scalar::invert_fermat`] stays
    /// as the differential reference.
    pub fn invert(&self) -> Option<Scalar> {
        self.0.inv_mod(&N).map(Scalar)
    }

    /// Reference inverse (`a^(n-2)`); `None` for zero. Exists to pin
    /// [`Scalar::invert`] in differential tests.
    pub fn invert_fermat(&self) -> Option<Scalar> {
        if self.is_zero() {
            return None;
        }
        let n_minus_2 = N.overflowing_sub(&U256::from_u64(2)).0;
        Some(self.pow(&n_minus_2))
    }

    /// Width-`w` non-adjacent form: signed digits, least significant first,
    /// each either zero or odd with `|d| < 2^(w-1)`, and any two nonzero
    /// digits separated by at least `w - 1` zeros. Reconstruction:
    /// `self = Σ digits[i]·2^i`. The sparse signed digits are what let the
    /// Strauss ladders in [`super::point`] skip ~`w/(w+1)` of the additions
    /// a plain double-and-add ladder performs. This is the reference
    /// recoding: the ladders recode into fixed-size digit arrays, and their
    /// unit tests pin those digits to these.
    pub fn wnaf(&self, w: u32) -> Vec<i32> {
        debug_assert!((2..=16).contains(&w), "window width out of range");
        let mut k = self.0;
        // n < 2^256 and each round-up adds < 2^(w-1), so k never overflows;
        // the digit string can still be one longer than k's bit length.
        let mut digits = Vec::with_capacity(self.0.bits() + 1);
        let window = 1u64 << w;
        let sign_bound = 1i64 << (w - 1);
        while !k.is_zero() {
            if k.limbs[0] & 1 == 1 {
                let low = (k.limbs[0] & (window - 1)) as i64;
                let d = if low >= sign_bound {
                    low - window as i64
                } else {
                    low
                };
                digits.push(d as i32);
                if d >= 0 {
                    k = k.overflowing_sub(&U256::from_u64(d as u64)).0;
                } else {
                    let (sum, carry) = k.overflowing_add(&U256::from_u64(d.unsigned_abs()));
                    debug_assert!(!carry, "wNAF round-up cannot overflow 256 bits");
                    k = sum;
                }
            } else {
                digits.push(0);
            }
            k = k.shr1();
        }
        digits
    }
}

impl std::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scalar(0x{})", crate::hex::encode(&self.to_be_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u64) -> Scalar {
        Scalar::from_u64(v)
    }

    #[test]
    fn delta_is_2_256_minus_n() {
        // n + Δ must overflow to exactly zero.
        let (sum, carry) = N.overflowing_add(&DELTA);
        assert!(carry);
        assert!(sum.is_zero());
    }

    #[test]
    fn half_n_is_half() {
        // 2·HALF_N + 1 == n
        let (d, carry) = HALF_N.overflowing_add(&HALF_N);
        assert!(!carry);
        assert_eq!(d.overflowing_add(&U256::ONE).0, N);
    }

    #[test]
    fn add_wraps() {
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        assert_eq!(n_minus_1.add(&Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn mul_reduces() {
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        // (-1)^2 = 1
        assert_eq!(n_minus_1.mul(&n_minus_1), Scalar::ONE);
    }

    #[test]
    fn invert_round_trip() {
        for v in [1u64, 2, 3, 12345, u64::MAX] {
            let a = s(v);
            assert_eq!(a.mul(&a.invert().unwrap()), Scalar::ONE, "v = {v}");
        }
        assert!(Scalar::ZERO.invert().is_none());
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = s(999);
        assert_eq!(a.add(&a.neg()), Scalar::ZERO);
    }

    #[test]
    fn normalize_s_flips_high_values() {
        let high = Scalar(N.overflowing_sub(&U256::ONE).0); // n-1 ≡ -1, high
        assert!(high.is_high());
        let low = high.normalize_s();
        assert!(!low.is_high());
        assert_eq!(low, Scalar::ONE);
        // Already-low values are untouched.
        assert_eq!(s(5).normalize_s(), s(5));
    }

    #[test]
    fn from_be_bytes_bounds() {
        assert!(Scalar::from_be_bytes(&N.to_be_bytes()).is_none());
        assert!(Scalar::from_be_bytes(&[0xff; 32]).is_none());
        // Reduced variant always succeeds: 2^256-1 mod n.
        let r = Scalar::from_be_bytes_reduced(&[0xff; 32]);
        assert!(r.0 < N);
        // 2^256 - 1 = n + (Δ - 1)  →  reduced = Δ - 1
        assert_eq!(r.0, DELTA.overflowing_sub(&U256::ONE).0);
    }

    #[test]
    fn reduce512_small_values_untouched() {
        let got = Scalar::from_be_bytes_reduced(&U256::from_u64(42).to_be_bytes());
        assert_eq!(got, s(42));
    }

    #[test]
    fn invert_matches_fermat_reference() {
        for v in [1u64, 2, 3, 12345, u64::MAX] {
            let a = s(v);
            assert_eq!(a.invert(), a.invert_fermat(), "v = {v}");
        }
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        assert_eq!(n_minus_1.invert(), n_minus_1.invert_fermat());
        assert!(Scalar::ZERO.invert_fermat().is_none());
    }

    /// Rebuild Σ digits[i]·2^i with scalar arithmetic and compare.
    fn wnaf_reconstructs(a: &Scalar, w: u32) {
        let digits = a.wnaf(w);
        let two = s(2);
        let mut acc = Scalar::ZERO;
        let mut pow2 = Scalar::ONE;
        let bound = 1i32 << (w - 1);
        let mut last_nonzero: Option<usize> = None;
        for (i, &d) in digits.iter().enumerate() {
            if d != 0 {
                assert!(d % 2 != 0, "nonzero digit must be odd");
                assert!(d.abs() < bound, "digit out of window");
                if let Some(j) = last_nonzero {
                    assert!(i - j >= w as usize, "nonzero digits too close");
                }
                last_nonzero = Some(i);
                let m = s(d.unsigned_abs() as u64);
                let term = pow2.mul(&m);
                acc = if d > 0 {
                    acc.add(&term)
                } else {
                    acc.add(&term.neg())
                };
            }
            pow2 = pow2.mul(&two);
        }
        assert_eq!(&acc, a, "wnaf({w}) reconstruction failed");
    }

    #[test]
    fn wnaf_reconstruction_and_digit_bounds() {
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        let samples = [
            Scalar::ONE,
            s(2),
            s(0xdead_beef),
            s(u64::MAX),
            Scalar(HALF_N),
            n_minus_1,
            Scalar::from_be_bytes_reduced(&[0xa5; 32]),
        ];
        for a in &samples {
            for w in [2, 4, 5, 8] {
                wnaf_reconstructs(a, w);
            }
        }
        assert!(Scalar::ZERO.wnaf(5).is_empty());
    }
}
