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

    /// Modular inverse of `self` modulo the odd modulus `m`, by Bernstein
    /// and Yang's divsteps ("Fast constant-time gcd computation and modular
    /// inversion", TCHES 2019) in the variable-time form: batches of 62
    /// divsteps on the low limbs give a 2×2 transition matrix, which then
    /// updates the full-width `f, g` (exact division by 2⁶²) and their
    /// coefficients `d, e` (mod `m`). Returns `None` for zero or when
    /// `gcd(self, m) ≠ 1`. The Fermat inverses (`a^(m-2)`) are kept as
    /// references and pinned by differential tests.
    ///
    /// Requires `self < m`.
    pub fn inv_mod(&self, m: &U256) -> Option<U256> {
        debug_assert!(m.limbs[0] & 1 == 1, "modulus must be odd");
        debug_assert!(self < m, "operand must be reduced");
        if self.is_zero() {
            return None;
        }
        let modulus = to_signed62(m);
        let m_inv62 = inv_mod_2_62(m.limbs[0]);
        // Invariants: f ≡ d·self and g ≡ e·self (mod m), d and e in
        // (−2m, m). Divsteps keep gcd(f, g) = gcd(m, self) and end at g = 0.
        let mut d: Signed62 = [0; 5];
        let mut e: Signed62 = [1, 0, 0, 0, 0];
        let mut f = modulus;
        let mut g = to_signed62(self);
        let mut len = 5;
        // η = −δ; δ starts at 1.
        let mut eta = -1;
        loop {
            let t;
            (eta, t) = divsteps_62_var(eta, f[0] as u64, g[0] as u64);
            update_de(&mut d, &mut e, &t, &modulus, m_inv62);
            update_fg(&mut f[..len], &mut g[..len], &t);
            if g[..len].iter().all(|&l| l == 0) {
                break;
            }
            // Drop the top limb once it holds only the sign of both f and
            // g, folding the sign into the limb below.
            let (fn_, gn) = (f[len - 1], g[len - 1]);
            if len > 1 && ((fn_ ^ (fn_ >> 63)) | (gn ^ (gn >> 63))) == 0 {
                f[len - 2] |= fn_ << 62;
                g[len - 2] |= gn << 62;
                len -= 1;
            }
        }
        // Now f = ±gcd(m, self), and f ≡ d·self gives self⁻¹ = ±d.
        if !is_unit(&f[..len]) {
            return None;
        }
        Some(normalize(d, f[len - 1] < 0, &modulus))
    }
}

/// Signed 62-bit limbs, least significant first: `Σ v[i]·2^(62·i)`. Limbs
/// below the top are in `[0, 2⁶²)`; the top limb carries the sign.
type Signed62 = [i64; 5];

const M62: u64 = u64::MAX >> 2;

/// The transition matrix of 62 divsteps, scaled by 2⁶²:
/// `[f', g'] = [[u, v], [q, r]]·[f, g] / 2⁶²`.
struct Trans {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

fn to_signed62(x: &U256) -> Signed62 {
    let l = &x.limbs;
    [
        (l[0] & M62) as i64,
        ((l[0] >> 62 | l[1] << 2) & M62) as i64,
        ((l[1] >> 60 | l[2] << 4) & M62) as i64,
        ((l[2] >> 58 | l[3] << 6) & M62) as i64,
        (l[3] >> 56) as i64,
    ]
}

/// Inverse of [`to_signed62`] for a value in `[0, 2²⁵⁶)`.
fn from_signed62(x: &Signed62) -> U256 {
    let v = x.map(|l| l as u64);
    U256 {
        limbs: [
            v[0] | v[1] << 62,
            v[1] >> 2 | v[2] << 60,
            v[2] >> 4 | v[3] << 58,
            v[3] >> 6 | v[4] << 56,
        ],
    }
}

/// `m⁻¹ mod 2⁶²` for odd `m` by Newton's iteration: `m·m ≡ 1 (mod 8)`
/// starts it with 3 correct bits, and each step doubles them.
fn inv_mod_2_62(m: u64) -> u64 {
    let mut inv = m;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
    }
    debug_assert_eq!(m.wrapping_mul(inv) & M62, 1);
    inv & M62
}

/// 62 divsteps on the low bits of `f` (odd) and `g`, starting from `η`;
/// returns the new `η` and the transition matrix. A run of trailing zeros
/// in `g` is one shift, and an odd `g` cancels up to 4 (6 right after a
/// swap) low bits at once by adding the multiple of `f` that clears them.
fn divsteps_62_var(mut eta: i64, f0: u64, g0: u64) -> (i64, Trans) {
    // u·f0 + v·g0 = f·2^(62−i) and q·f0 + r·g0 = g·2^(62−i).
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut i = 62u32;
    loop {
        // A sentinel bit at i stops the count at the steps left.
        let zeros = (g | (u64::MAX << i)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        i -= zeros;
        if i == 0 {
            break;
        }
        debug_assert!(f & 1 == 1 && g & 1 == 1);
        // Each step with η ≥ 0 adds f to an odd g and halves, so up to
        // η + 1 of them (and no more than the i left) fold into one
        // g += w·f with w = −g/f modulo a power of two.
        let w = if eta < 0 {
            // Swap: (f, g) becomes (g, −f), and η becomes −η.
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            // Up to 6 bits: f·(f² − 2) ≡ −f⁻¹ (mod 64) for odd f.
            let mask = low_mask(eta, i) & 63;
            f.wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask
        } else {
            // Up to 4 bits: f + (((f + 1) & 4) << 1) ≡ f⁻¹ (mod 16).
            let mask = low_mask(eta, i) & 15;
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            f_inv.wrapping_neg().wrapping_mul(g) & mask
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    let t = Trans {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// A mask of the low `min(η + 1, i)` bits (`η ≥ 0`, `1 ≤ i ≤ 62`).
#[inline(always)]
fn low_mask(eta: i64, i: u32) -> u64 {
    let limit = (eta + 1).min(i64::from(i)) as u32;
    u64::MAX >> (64 - limit)
}

/// `[d, e] ← t·[d, e] / 2⁶² (mod m)`. Before the product, each of `d, e`
/// that is negative gets `m` added, and then the multiple of `m` that
/// clears the low 62 bits (found through `m⁻¹ mod 2⁶²`) makes the division
/// exact. Both stay in `(−2m, m)`.
fn update_de(d: &mut Signed62, e: &mut Signed62, t: &Trans, m: &Signed62, m_inv62: u64) {
    let Trans { u, v, q, r } = *t;
    let (sd, se) = (d[4] >> 63, e[4] >> 63);
    let mut md = (u & sd) + (v & se);
    let mut me = (q & sd) + (r & se);
    let mut cd = i128::from(u) * i128::from(d[0]) + i128::from(v) * i128::from(e[0]);
    let mut ce = i128::from(q) * i128::from(d[0]) + i128::from(r) * i128::from(e[0]);
    md -= (m_inv62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (m_inv62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += i128::from(m[0]) * i128::from(md);
    ce += i128::from(m[0]) * i128::from(me);
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += i128::from(u) * i128::from(d[i])
            + i128::from(v) * i128::from(e[i])
            + i128::from(m[i]) * i128::from(md);
        ce += i128::from(q) * i128::from(d[i])
            + i128::from(r) * i128::from(e[i])
            + i128::from(m[i]) * i128::from(me);
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// `[f, g] ← t·[f, g] / 2⁶²` over the `len` limbs in use; the division
/// is exact by construction of `t`.
fn update_fg(f: &mut [i64], g: &mut [i64], t: &Trans) {
    let Trans { u, v, q, r } = *t;
    let len = f.len();
    let mut cf = i128::from(u) * i128::from(f[0]) + i128::from(v) * i128::from(g[0]);
    let mut cg = i128::from(q) * i128::from(f[0]) + i128::from(r) * i128::from(g[0]);
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        cf += i128::from(u) * i128::from(f[i]) + i128::from(v) * i128::from(g[i]);
        cg += i128::from(q) * i128::from(f[i]) + i128::from(r) * i128::from(g[i]);
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// Whether the signed-62 value in `x` (its top limb signed) is ±1.
fn is_unit(x: &[i64]) -> bool {
    let (&top, low) = x.split_last().expect("at least one limb");
    match (top, low.split_first()) {
        (1 | -1, None) => true,
        (0, Some((&l0, rest))) => l0 == 1 && rest.iter().all(|&l| l == 0),
        (-1, Some(_)) => low.iter().all(|&l| l as u64 == M62),
        _ => false,
    }
}

/// Bring `d ∈ (−2m, m)`, negated if `negate`, into `[0, m)`.
fn normalize(mut d: Signed62, negate: bool, m: &Signed62) -> U256 {
    let add_m = |d: &mut Signed62| d.iter_mut().zip(m).for_each(|(l, &ml)| *l += ml);
    // Limbs below the top back into [0, 2⁶²), the excess carried up.
    let carry = |d: &mut Signed62| {
        for i in 0..4 {
            d[i + 1] += d[i] >> 62;
            d[i] &= M62 as i64;
        }
    };
    if d[4] < 0 {
        add_m(&mut d);
    }
    if negate {
        d.iter_mut().for_each(|l| *l = -*l);
    }
    carry(&mut d);
    if d[4] < 0 {
        add_m(&mut d);
        carry(&mut d);
    }
    debug_assert!(d[4] >= 0);
    from_signed62(&d)
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
