//! Fixed-width 256-bit unsigned arithmetic.
//!
//! [`U256`] is the carrier type for the secp256k1 field and scalar
//! implementations in [`crate::ec`]. Limbs are `u64`, least significant
//! first; widening multiplication produces a little-endian `[u64; 8]`.
//! All operations are constant-size loops (no heap allocation).

/// A 256-bit unsigned integer; `limbs[0]` is least significant.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U256 {
    pub limbs: [u64; 4],
}

impl U256 {
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };

    /// Construct from a small integer.
    pub const fn from_u64(v: u64) -> U256 {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Construct from limbs given most-significant first (matches the way
    /// curve constants are written in standards documents).
    pub const fn from_be_limbs(l: [u64; 4]) -> U256 {
        U256 {
            limbs: [l[3], l[2], l[1], l[0]],
        }
    }

    /// Parse 32 big-endian bytes.
    pub fn from_be_bytes(b: &[u8; 32]) -> U256 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[3 - i] = u64::from_be_bytes(b[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        U256 { limbs }
    }

    /// Serialize as 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.limbs[3 - i].to_be_bytes());
        }
        out
    }

    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Test bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return 64 * i + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// `self + other`, returning the sum and the carry-out.
    #[inline]
    pub fn overflowing_add(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (i, o) in out.iter_mut().enumerate() {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            *o = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256 { limbs: out }, carry != 0)
    }

    /// `self - other`, returning the difference and the borrow-out.
    #[inline]
    pub fn overflowing_sub(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (i, o) in out.iter_mut().enumerate() {
            let (d1, b1) = self.limbs[i].overflowing_sub(other.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256 { limbs: out }, borrow != 0)
    }

    /// Full 256×256 → 512-bit product, little-endian limbs.
    ///
    /// Fully unrolled operand scanning: each row accumulates into locals the
    /// optimizer keeps in registers, which is measurably faster than the
    /// obvious `out[i + j]` loop (the array round-trips through memory).
    /// Every `lo + aᵢ·bⱼ + carry` sum fits in `u128`:
    /// (2⁶⁴−1) + (2⁶⁴−1)² + (2⁶⁴−1) = 2¹²⁸ − 1.
    #[inline]
    pub fn widening_mul(&self, other: &U256) -> [u64; 8] {
        let [a0, a1, a2, a3] = self.limbs;
        let [b0, b1, b2, b3] = other.limbs;
        let (a0, a1, a2, a3) = (a0 as u128, a1 as u128, a2 as u128, a3 as u128);
        let (b0, b1, b2, b3) = (b0 as u128, b1 as u128, b2 as u128, b3 as u128);

        // Row 0: a0 · b.
        let t = a0 * b0;
        let r0 = t as u64;
        let t = a0 * b1 + (t >> 64);
        let mut r1 = t as u64;
        let t = a0 * b2 + (t >> 64);
        let mut r2 = t as u64;
        let t = a0 * b3 + (t >> 64);
        let mut r3 = t as u64;
        let mut r4 = (t >> 64) as u64;

        // Row 1: a1 · b, shifted one limb.
        let t = r1 as u128 + a1 * b0;
        r1 = t as u64;
        let t = r2 as u128 + a1 * b1 + (t >> 64);
        r2 = t as u64;
        let t = r3 as u128 + a1 * b2 + (t >> 64);
        r3 = t as u64;
        let t = r4 as u128 + a1 * b3 + (t >> 64);
        r4 = t as u64;
        let mut r5 = (t >> 64) as u64;

        // Row 2.
        let t = r2 as u128 + a2 * b0;
        r2 = t as u64;
        let t = r3 as u128 + a2 * b1 + (t >> 64);
        r3 = t as u64;
        let t = r4 as u128 + a2 * b2 + (t >> 64);
        r4 = t as u64;
        let t = r5 as u128 + a2 * b3 + (t >> 64);
        r5 = t as u64;
        let mut r6 = (t >> 64) as u64;

        // Row 3.
        let t = r3 as u128 + a3 * b0;
        let r3 = t as u64;
        let t = r4 as u128 + a3 * b1 + (t >> 64);
        let r4 = t as u64;
        let t = r5 as u128 + a3 * b2 + (t >> 64);
        let r5 = t as u64;
        let t = r6 as u128 + a3 * b3 + (t >> 64);
        r6 = t as u64;
        let r7 = (t >> 64) as u64;

        [r0, r1, r2, r3, r4, r5, r6, r7]
    }

    /// `self²` as a 512-bit product. Same result as `widening_mul(self)`
    /// but computes each cross product `aᵢ·aⱼ` (i ≠ j) once and doubles the
    /// sum, so squaring costs ~10 limb products instead of 16 — squarings
    /// dominate the point-doubling ladder, so this matters.
    #[inline]
    pub fn widening_sqr(&self) -> [u64; 8] {
        let [a0, a1, a2, a3] = self.limbs;
        let (a0, a1, a2, a3) = (a0 as u128, a1 as u128, a2 as u128, a3 as u128);

        // Six cross products, column-scanned into limbs c1..c6 (column 0 has
        // no cross term). Each accumulator sum below stays within u128: at
        // most carry + full-product + low-limb = (2⁶⁴−1) + (2⁶⁴−1)² +
        // (2⁶⁴−1) = 2¹²⁸ − 1.
        let x12 = a1 * a2;
        let x13 = a1 * a3;
        let t = a0 * a1;
        let c1 = t as u64;
        let t = a0 * a2 + (t >> 64);
        let c2 = t as u64;
        let t = a0 * a3 + (x12 as u64 as u128) + (t >> 64);
        let c3 = t as u64;
        let t = x13 + (x12 >> 64) + (t >> 64);
        let c4 = t as u64;
        let t = a2 * a3 + (t >> 64);
        let c5 = t as u64;
        let c6 = (t >> 64) as u64;

        // Double the cross sum (columns 1..6 shift into 1..7; the top bit of
        // c6 becomes c7, so nothing falls off 512 bits).
        let d1 = c1 << 1;
        let d2 = (c2 << 1) | (c1 >> 63);
        let d3 = (c3 << 1) | (c2 >> 63);
        let d4 = (c4 << 1) | (c3 >> 63);
        let d5 = (c5 << 1) | (c4 >> 63);
        let d6 = (c6 << 1) | (c5 >> 63);
        let d7 = c6 >> 63;

        // Add the diagonal terms aᵢ² at columns 2i.
        let s0 = a0 * a0;
        let s1 = a1 * a1;
        let s2 = a2 * a2;
        let s3 = a3 * a3;
        let r0 = s0 as u64;
        let t = d1 as u128 + (s0 >> 64);
        let r1 = t as u64;
        let t = d2 as u128 + (s1 as u64 as u128) + (t >> 64);
        let r2 = t as u64;
        let t = d3 as u128 + (s1 >> 64) + (t >> 64);
        let r3 = t as u64;
        let t = d4 as u128 + (s2 as u64 as u128) + (t >> 64);
        let r4 = t as u64;
        let t = d5 as u128 + (s2 >> 64) + (t >> 64);
        let r5 = t as u64;
        let t = d6 as u128 + (s3 as u64 as u128) + (t >> 64);
        let r6 = t as u64;
        let t = d7 as u128 + (s3 >> 64) + (t >> 64);
        let r7 = t as u64;
        debug_assert_eq!(t >> 64, 0, "square of a 256-bit value fits in 512 bits");

        [r0, r1, r2, r3, r4, r5, r6, r7]
    }

    /// Logical shift right by one bit.
    pub fn shr1(&self) -> U256 {
        let l = &self.limbs;
        U256 {
            limbs: [
                (l[0] >> 1) | (l[1] << 63),
                (l[1] >> 1) | (l[2] << 63),
                (l[2] >> 1) | (l[3] << 63),
                l[3] >> 1,
            ],
        }
    }

    /// Euclidean division: `(self / divisor, self % divisor)` by binary long
    /// division. Not a hot path — used by the init-time GLV lattice
    /// derivation and by tests.
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &U256) -> (U256, U256) {
        assert!(!divisor.is_zero(), "division by zero");
        let mut q = U256::ZERO;
        let mut r = U256::ZERO;
        for i in (0..self.bits()).rev() {
            // r := 2r + bit_i(self); the invariant r < divisor means the
            // true value fits in 257 bits, so track the shifted-out bit.
            let overflow = r.bit(255);
            r = r.shl1();
            if self.bit(i) {
                r.limbs[0] |= 1;
            }
            if overflow {
                // True value is 2^256 + r ≥ divisor; subtracting the divisor
                // wraps back into range: r + (2^256 − divisor).
                let comp = U256::ZERO.overflowing_sub(divisor).0;
                r = r.overflowing_add(&comp).0;
                q.limbs[i / 64] |= 1 << (i % 64);
            } else if r >= *divisor {
                r = r.overflowing_sub(divisor).0;
                q.limbs[i / 64] |= 1 << (i % 64);
            }
        }
        (q, r)
    }

    /// Logical shift left by one bit (the top bit falls off).
    pub fn shl1(&self) -> U256 {
        let l = &self.limbs;
        U256 {
            limbs: [
                l[0] << 1,
                (l[1] << 1) | (l[0] >> 63),
                (l[2] << 1) | (l[1] >> 63),
                (l[3] << 1) | (l[2] >> 63),
            ],
        }
    }

    /// Modular inverse of `self` modulo the odd modulus `m`, by binary
    /// extended GCD (HAC 14.61). Returns `None` for zero or when
    /// `gcd(self, m) ≠ 1`. Orders of magnitude cheaper than the Fermat
    /// `a^(m-2)` exponentiation the EC code used historically; the Fermat
    /// paths are kept as references and pinned by differential tests.
    ///
    /// Requires `self < m`.
    pub fn inv_mod(&self, m: &U256) -> Option<U256> {
        debug_assert!(m.limbs[0] & 1 == 1, "modulus must be odd");
        debug_assert!(self < m, "operand must be reduced");
        if self.is_zero() {
            return None;
        }
        let mut u = *self;
        let mut v = *m;
        let mut x1 = U256::ONE;
        let mut x2 = U256::ZERO;
        loop {
            while u.limbs[0] & 1 == 0 {
                u = u.shr1();
                x1 = half_mod(&x1, m);
            }
            while v.limbs[0] & 1 == 0 {
                v = v.shr1();
                x2 = half_mod(&x2, m);
            }
            if u == U256::ONE {
                return Some(x1);
            }
            if v == U256::ONE {
                return Some(x2);
            }
            if u >= v {
                u = u.overflowing_sub(&v).0;
                x1 = sub_mod(&x1, &x2, m);
                if u.is_zero() {
                    // gcd(self, m) = v > 1.
                    return None;
                }
            } else {
                v = v.overflowing_sub(&u).0;
                x2 = sub_mod(&x2, &x1, m);
            }
        }
    }
}

/// `x / 2 mod m` for odd `m`: shift if even, else add `m` first (making it
/// even) and shift the 257-bit sum.
fn half_mod(x: &U256, m: &U256) -> U256 {
    if x.limbs[0] & 1 == 0 {
        x.shr1()
    } else {
        let (s, carry) = x.overflowing_add(m);
        let mut h = s.shr1();
        if carry {
            h.limbs[3] |= 1 << 63;
        }
        h
    }
}

/// `a - b mod m` for `a, b < m`.
fn sub_mod(a: &U256, b: &U256, m: &U256) -> U256 {
    let (d, borrow) = a.overflowing_sub(b);
    if borrow {
        d.overflowing_add(m).0
    } else {
        d
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl std::fmt::Debug for U256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "U256(0x{})", crate::hex::encode(&self.to_be_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn be_bytes_round_trip() {
        let mut b = [0u8; 32];
        for (i, item) in b.iter_mut().enumerate() {
            *item = i as u8;
        }
        assert_eq!(U256::from_be_bytes(&b).to_be_bytes(), b);
    }

    #[test]
    fn add_sub_inverse() {
        let a = U256::from_be_limbs([0x0123, 0x4567, 0x89ab, 0xcdef]);
        let b = U256::from_be_limbs([0xfedc, 0xba98, 0x7654, 0x3210]);
        let (s, c) = a.overflowing_add(&b);
        assert!(!c);
        let (d, bo) = s.overflowing_sub(&b);
        assert!(!bo);
        assert_eq!(d, a);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256 {
            limbs: [u64::MAX, u64::MAX, 0, 0],
        };
        let (s, c) = a.overflowing_add(&U256::ONE);
        assert!(!c);
        assert_eq!(s.limbs, [0, 0, 1, 0]);
    }

    #[test]
    fn add_overflow_flag() {
        let max = U256 {
            limbs: [u64::MAX; 4],
        };
        let (s, c) = max.overflowing_add(&U256::ONE);
        assert!(c);
        assert!(s.is_zero());
    }

    #[test]
    fn sub_borrow_flag() {
        let (d, b) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(b);
        assert_eq!(d.limbs, [u64::MAX; 4]);
    }

    #[test]
    fn widening_mul_small() {
        let p = u(0xffff_ffff).widening_mul(&u(0xffff_ffff));
        assert_eq!(p[0], 0xffff_fffe_0000_0001);
        assert!(p[1..].iter().all(|&l| l == 0));
    }

    #[test]
    fn widening_mul_max() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1
        let max = U256 {
            limbs: [u64::MAX; 4],
        };
        let p = max.widening_mul(&max);
        assert_eq!(p[0], 1);
        assert_eq!(p[1], 0);
        assert_eq!(p[2], 0);
        assert_eq!(p[3], 0);
        assert_eq!(p[4], u64::MAX - 1);
        assert_eq!(p[5], u64::MAX);
        assert_eq!(p[6], u64::MAX);
        assert_eq!(p[7], u64::MAX);
    }

    #[test]
    fn widening_sqr_matches_mul() {
        let samples = [
            U256::ZERO,
            U256::ONE,
            u(u64::MAX),
            U256::from_be_limbs([0x0123, 0x4567, 0x89ab, 0xcdef]),
            U256 {
                limbs: [u64::MAX; 4],
            },
            U256::from_be_limbs([
                0xdeadbeefdeadbeef,
                0xfeedfacefeedface,
                0x0123456789abcdef,
                0xfedcba9876543210,
            ]),
        ];
        for s in samples {
            assert_eq!(s.widening_sqr(), s.widening_mul(&s), "{s:?}");
        }
    }

    #[test]
    fn shr1_halves() {
        let x = U256::from_be_limbs([0x8000000000000001, 1, 3, 7]);
        let h = x.shr1();
        // 2·(x>>1) + (x & 1) == x
        let (d, carry) = h.overflowing_add(&h);
        assert!(!carry);
        assert_eq!(d.overflowing_add(&U256::ONE).0, x);
        assert_eq!(U256::ONE.shr1(), U256::ZERO);
    }

    #[test]
    fn inv_mod_small_prime() {
        // Modulus 17: inverses are easy to check by hand.
        let m = u(17);
        for a in 1u64..17 {
            let inv = u(a).inv_mod(&m).expect("unit mod prime");
            let prod = u(a).widening_mul(&inv);
            // prod mod 17 must be 1 (prod fits in u128 here).
            let v = (prod[0] as u128) + ((prod[1] as u128) << 64);
            assert_eq!(v % 17, 1, "a = {a}");
        }
        assert!(U256::ZERO.inv_mod(&m).is_none());
        // Non-unit: gcd(3, 15) = 3.
        assert!(u(3).inv_mod(&u(15)).is_none());
    }

    #[test]
    fn ordering() {
        assert!(u(1) < u(2));
        assert!(
            U256 {
                limbs: [0, 0, 0, 1]
            } > U256 {
                limbs: [u64::MAX, u64::MAX, u64::MAX, 0]
            }
        );
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        let x = U256 {
            limbs: [0, 1, 0, 0],
        };
        assert_eq!(x.bits(), 65);
        assert!(x.bit(64));
        assert!(!x.bit(63));
    }
}
