//! secp256k1 group arithmetic: `y² = x³ + 7` over `F_p`.
//!
//! Points are manipulated in Jacobian coordinates (`X/Z²`, `Y/Z³`) so that
//! scalar multiplication needs a single field inversion at the end.
//!
//! Two tiers of scalar multiplication coexist:
//!
//! - The **reference ladder** — [`Jacobian::mul`], [`Jacobian::shamir_mul`]
//!   over plain double-and-add with the generic [`Jacobian::double`] /
//!   [`Jacobian::add_jacobian`] formulas. It is kept byte-for-byte stable as
//!   the differential-testing oracle.
//! - The **fast path** — [`Affine::mul_gen`] (fixed-base comb over a
//!   precomputed generator table), and [`lincomb_gen`],
//!   [`lincomb_gen_half_depth`] and [`multi_scalar_mul`]: interleaved-wNAF
//!   Strauss passes over static generator tables and per-key
//!   [`PointTable`]s that share one ladder loop. They are built on the
//!   cheaper [`Jacobian::dbl`] / [`Jacobian::add_mixed`] formulas and
//!   [`Jacobian::batch_to_affine`] normalization.
//!
//! The fast path is still "honest work" in the paper's sense — Script
//! Validation cost drives the Fig. 16b/17b breakdowns — it just removes the
//! algorithmic slack a production validator would never carry.

use std::sync::OnceLock;

use super::field::{Fe, P};
use super::glv;
use super::scalar::{Scalar, N};
use crate::u256::U256;

/// Affine curve point, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Affine {
    /// The identity element.
    Infinity,
    /// A finite point `(x, y)`.
    Point { x: Fe, y: Fe },
}

/// Jacobian-coordinate point; `z = 0` encodes infinity.
#[derive(Clone, Copy, Debug)]
pub struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// Generator x-coordinate.
const GX: U256 = U256::from_be_limbs([
    0x79BE667EF9DCBBAC,
    0x55A06295CE870B07,
    0x029BFCDB2DCE28D9,
    0x59F2815B16F81798,
]);

/// Generator y-coordinate.
const GY: U256 = U256::from_be_limbs([
    0x483ADA7726A3C465,
    0x5DA4FBFC0E1108A8,
    0xFD17B448A6855419,
    0x9C47D08FFB10D4B8,
]);

impl Affine {
    /// The standard generator `G`.
    pub const G: Affine = Affine::Point {
        x: Fe(GX),
        y: Fe(GY),
    };

    /// The standard generator `G` (alias for [`Affine::G`]).
    pub fn generator() -> Affine {
        Affine::G
    }

    pub fn is_infinity(&self) -> bool {
        matches!(self, Affine::Infinity)
    }

    /// The affine coordinates, or `None` for infinity.
    pub fn coords(&self) -> Option<(Fe, Fe)> {
        match self {
            Affine::Infinity => None,
            Affine::Point { x, y } => Some((*x, *y)),
        }
    }

    /// Check the curve equation `y² = x³ + 7`.
    pub fn is_on_curve(&self) -> bool {
        match self {
            Affine::Infinity => true,
            Affine::Point { x, y } => {
                let lhs = y.square();
                let rhs = x.square().mul(x).add(&Fe::from_u64(7));
                lhs == rhs
            }
        }
    }

    /// Negate (reflect across the x-axis).
    pub fn neg(&self) -> Affine {
        match self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => Affine::Point { x: *x, y: y.neg() },
        }
    }

    /// The curve endomorphism `φ(x, y) = (β·x, y)`, equal to scalar
    /// multiplication by `λ` (see [`glv`](super::glv)). One field
    /// multiplication instead of a point multiplication.
    pub(crate) fn endo(&self, beta: &Fe) -> Affine {
        match self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => Affine::Point {
                x: x.mul(beta),
                y: *y,
            },
        }
    }

    /// Lift to Jacobian coordinates.
    pub fn to_jacobian(&self) -> Jacobian {
        match self {
            Affine::Infinity => Jacobian::infinity(),
            Affine::Point { x, y } => Jacobian {
                x: *x,
                y: *y,
                z: Fe::ONE,
            },
        }
    }

    /// Reconstruct the point with x-coordinate `x` and y-parity `odd`, if it
    /// lies on the curve (compressed-point decoding).
    pub fn lift_x(x: Fe, odd: bool) -> Option<Affine> {
        let y2 = x.square().mul(&x).add(&Fe::from_u64(7));
        let mut y = y2.sqrt()?;
        if y.is_odd() != odd {
            y = y.neg();
        }
        Some(Affine::Point { x, y })
    }

    /// `k * self` via Jacobian double-and-add.
    pub fn mul(&self, k: &Scalar) -> Affine {
        self.to_jacobian().mul(k).to_affine()
    }

    /// `k·G` via the fixed-base comb table: the scalar's 64 nibbles each
    /// select one precomputed `d·16^w·G`, so the whole multiplication is at
    /// most 63 mixed additions and no doublings. Used by signing and key
    /// derivation; verification goes through [`lincomb_gen`].
    pub fn mul_gen(k: &Scalar) -> Jacobian {
        let t = gen_tables();
        let mut acc = Jacobian::infinity();
        for (w, row) in t.comb.iter().enumerate() {
            let limb = k.0.limbs[w / 16];
            let d = ((limb >> ((w % 16) * 4)) & 0xf) as usize;
            if d != 0 {
                acc = acc.add_mixed(&row[d - 1]);
            }
        }
        acc
    }

    /// `a + b` in affine terms (used by verification: `u1·G + u2·Q`).
    pub fn add(&self, other: &Affine) -> Affine {
        self.to_jacobian()
            .add_jacobian(&other.to_jacobian())
            .to_affine()
    }
}

impl Jacobian {
    pub fn infinity() -> Jacobian {
        Jacobian {
            x: Fe::ONE,
            y: Fe::ONE,
            z: Fe::ZERO,
        }
    }

    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (curve has `a = 0`).
    #[inline]
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::infinity();
        }
        let y2 = self.y.square();
        let s = self.x.mul(&y2).mul(&Fe::from_u64(4));
        let m = self.x.square().mul(&Fe::from_u64(3));
        let x3 = m.square().sub(&s).sub(&s);
        let y4_8 = y2.square().mul(&Fe::from_u64(8));
        let y3 = m.mul(&s.sub(&x3)).sub(&y4_8);
        let z3 = self.y.mul(&self.z).mul(&Fe::from_u64(2));
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition.
    pub fn add_jacobian(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = other.x.mul(&z1z1);
        let s1 = self.y.mul(&z2z2).mul(&other.z);
        let s2 = other.y.mul(&z1z1).mul(&self.z);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::infinity();
        }
        let h = u2.sub(&u1);
        let r = s2.sub(&s1);
        let h2 = h.square();
        let h3 = h2.mul(&h);
        let u1h2 = u1.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2).sub(&u1h2);
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&s1.mul(&h3));
        let z3 = h.mul(&self.z).mul(&other.z);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// `k * self`, MSB-first double-and-add.
    pub fn mul(&self, k: &Scalar) -> Jacobian {
        let mut acc = Jacobian::infinity();
        let bits = k.0.bits();
        for i in (0..bits).rev() {
            acc = acc.double();
            if k.0.bit(i) {
                acc = acc.add_jacobian(self);
            }
        }
        acc
    }

    /// Shamir's trick: `a·self + b·other` in a single double-and-add pass
    /// (ECDSA verification computes `u1·G + u2·Q`; the shared pass does
    /// one doubling ladder instead of two).
    pub fn shamir_mul(&self, a: &Scalar, other: &Jacobian, b: &Scalar) -> Jacobian {
        let sum = self.add_jacobian(other);
        let bits = a.0.bits().max(b.0.bits());
        let mut acc = Jacobian::infinity();
        for i in (0..bits).rev() {
            acc = acc.double();
            match (a.0.bit(i), b.0.bit(i)) {
                (true, true) => acc = acc.add_jacobian(&sum),
                (true, false) => acc = acc.add_jacobian(self),
                (false, true) => acc = acc.add_jacobian(other),
                (false, false) => {}
            }
        }
        acc
    }

    /// Project back to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        let zinv = self.z.invert().expect("nonzero z");
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(&zinv);
        Affine::Point {
            x: self.x.mul(&zinv2),
            y: self.y.mul(&zinv3),
        }
    }

    /// Fast-path doubling: `dbl-2009-l` (2M + 5S since `a = 0`), versus the
    /// 4M + 4S-plus-small-multiples shape of the reference
    /// [`Jacobian::double`].
    #[inline]
    pub fn dbl(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::infinity();
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        // D = 2·((X1+B)² − A − C)
        let d = self.x.add(&b).square().sub(&a).sub(&c).dbl();
        let e = a.dbl().add(&a); // 3·A
        let f = e.square();
        let x3 = f.sub(&d).sub(&d);
        let c8 = c.dbl().dbl().dbl();
        let y3 = e.mul(&d.sub(&x3)).sub(&c8);
        let z3 = self.y.mul(&self.z).dbl();
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Fast-path mixed addition of an affine point: `madd-2007-bl`
    /// (7M + 4S), versus 12M + 4S for the general [`Jacobian::add_jacobian`].
    /// This is what makes precomputed *affine* tables pay off.
    #[inline]
    pub fn add_mixed(&self, other: &Affine) -> Jacobian {
        let (x2, y2) = match other {
            Affine::Infinity => return *self,
            Affine::Point { x, y } => (x, y),
        };
        if self.is_infinity() {
            return other.to_jacobian();
        }
        let z1z1 = self.z.square();
        let u2 = x2.mul(&z1z1);
        let s2 = y2.mul(&self.z).mul(&z1z1);
        if u2 == self.x {
            if s2 == self.y {
                return self.dbl();
            }
            return Jacobian::infinity();
        }
        let h = u2.sub(&self.x);
        let hh = h.square();
        let i = hh.dbl().dbl(); // 4·HH
        let j = h.mul(&i);
        let r = s2.sub(&self.y).dbl();
        let v = self.x.mul(&i);
        let x3 = r.square().sub(&j).sub(&v).sub(&v);
        let y3 = r.mul(&v.sub(&x3)).sub(&self.y.mul(&j).dbl());
        let z3 = self.z.add(&h).square().sub(&z1z1).sub(&hh);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Normalize a batch of Jacobian points with **one** shared field
    /// inversion (Montgomery's simultaneous-inversion trick) instead of one
    /// per point. Infinities map to [`Affine::Infinity`] and are skipped in
    /// the product chain.
    pub fn batch_to_affine(points: &[Jacobian]) -> Vec<Affine> {
        // Forward pass: prefix[i] = product of z over non-infinite points
        // before index i.
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = Fe::ONE;
        for p in points {
            prefix.push(acc);
            if !p.is_infinity() {
                acc = acc.mul(&p.z);
            }
        }
        // acc is a product of nonzero field elements (or ONE), so invertible.
        let mut inv = acc.invert().expect("product of nonzero z is nonzero");
        // Backward pass: peel one z off the running inverse per point.
        let mut out = vec![Affine::Infinity; points.len()];
        for (i, p) in points.iter().enumerate().rev() {
            if p.is_infinity() {
                continue;
            }
            let zinv = inv.mul(&prefix[i]);
            inv = inv.mul(&p.z);
            let zinv2 = zinv.square();
            out[i] = Affine::Point {
                x: p.x.mul(&zinv2),
                y: p.y.mul(&zinv2.mul(&zinv)),
            };
        }
        out
    }

    /// Does this point's affine x-coordinate, reduced mod `n`, equal `r`?
    ///
    /// ECDSA verification ends with exactly this question, and answering it
    /// in projective form (`X == r̂·Z²` for each candidate lift `r̂` of `r`)
    /// removes the final field inversion of [`Jacobian::to_affine`].
    pub fn x_equals_scalar_mod_n(&self, r: &Scalar) -> bool {
        if self.is_infinity() {
            return false;
        }
        let z2 = self.z.square();
        if self.x == Fe(r.0).mul(&z2) {
            return true;
        }
        // x mod n == r also holds if x = r + n (possible since n < p); any
        // higher lift r + 2n exceeds p.
        let (rn, carry) = r.0.overflowing_add(&N);
        !carry && rn < P && self.x == Fe(rn).mul(&z2)
    }
}

/// Comb-table geometry for [`Affine::mul_gen`]: the 256-bit scalar is read
/// as 64 nibbles, and window `w` stores `d·16^w·G` for `d = 1..=15`, so a
/// full fixed-base multiplication is at most 63 mixed additions and **zero**
/// doublings.
const COMB_WINDOWS: usize = 64;
const COMB_TEETH: usize = 15;

/// wNAF window width for the ladders' generator streams; each static table
/// holds the 64 odd multiples `1·B, 3·B, …, 127·B` of its base `B`.
const GEN_WNAF_W: u32 = 8;
const GEN_WNAF_ENTRIES: usize = 1 << (GEN_WNAF_W - 2);

/// Where [`lincomb_gen_half_depth`] cuts each GLV half, `h = h₀ + 2^64·h₁`:
/// the shifted tables hold odd multiples of `2^64·G` and `2^64·Q`.
pub const SHIFT_BITS: usize = 64;

/// Digit capacity of a half-depth stream. GLV halves stay below `2^130`
/// ([`glv`]), so a piece has at most 66 bits, and a width-`w` NAF is at most
/// one digit longer than its scalar: this is also the half-depth ladder's
/// longest doubling run.
pub const HALF_DEPTH_DIGITS: usize = glv::HALF_BITS - SHIFT_BITS + 1;

/// Digit capacity of a full-depth stream: a GLV half (below `2^130`) or an
/// unsplit [`multi_scalar_mul`] scalar (at most [`MSM_SPLIT_BITS`] bits).
const FULL_DEPTH_DIGITS: usize = MSM_SPLIT_BITS + 1;
const _: () = assert!(FULL_DEPTH_DIGITS > glv::HALF_BITS);

/// Precomputed generator tables, built once per process.
struct GenTables {
    /// `comb[w][d-1] = d·16^w·G`.
    comb: Vec<[Affine; COMB_TEETH]>,
    /// Odd multiples `(2i+1)·B` for the ladders' generator streams, one
    /// table per base `B` in [`half_depth_pieces`]' order: `G`, `2^64·G`,
    /// `λ·G`, `λ·2^64·G`. The full-depth ladders use the first and third.
    wnaf: [[Affine; GEN_WNAF_ENTRIES]; 4],
}

static GEN_TABLES: OnceLock<GenTables> = OnceLock::new();

/// Build the generator tables with the reference arithmetic (the tables are
/// an input to the fast path, so they must not depend on it) and normalize
/// everything with a single shared inversion.
fn gen_tables() -> &'static GenTables {
    GEN_TABLES.get_or_init(|| {
        let g = Affine::G.to_jacobian();
        let mut jac = Vec::with_capacity(COMB_WINDOWS * COMB_TEETH + 2 * GEN_WNAF_ENTRIES);
        let mut base = g;
        for _ in 0..COMB_WINDOWS {
            let mut acc = base;
            for _ in 0..COMB_TEETH {
                jac.push(acc);
                acc = acc.add_jacobian(&base);
            }
            base = acc; // acc has walked to 16·base: the next window's base
        }
        let mut g_shifted = g;
        for _ in 0..SHIFT_BITS {
            g_shifted = g_shifted.double();
        }
        for base in [g, g_shifted] {
            let two = base.double();
            let mut odd = base;
            for _ in 0..GEN_WNAF_ENTRIES {
                jac.push(odd);
                odd = odd.add_jacobian(&two);
            }
        }
        let affine = Jacobian::batch_to_affine(&jac);
        let (comb_points, wnaf_points) = affine.split_at(COMB_WINDOWS * COMB_TEETH);
        let comb = comb_points
            .chunks_exact(COMB_TEETH)
            .map(|row| row.try_into().expect("COMB_TEETH entries"))
            .collect();
        let odd_multiples = |base: usize| -> [Affine; GEN_WNAF_ENTRIES] {
            wnaf_points[base * GEN_WNAF_ENTRIES..(base + 1) * GEN_WNAF_ENTRIES]
                .try_into()
                .expect("GEN_WNAF_ENTRIES entries")
        };
        let (plain, shifted) = (odd_multiples(0), odd_multiples(1));
        let beta = &glv::params().beta;
        GenTables {
            comb,
            wnaf: [
                plain,
                shifted,
                plain.map(|e| e.endo(beta)),
                shifted.map(|e| e.endo(beta)),
            ],
        }
    })
}

/// The static odd-multiples tables of the ladders' generator streams, in
/// [`half_depth_pieces`]' base order (`G`, `2^64·G`, `λ·G`, `λ·2^64·G`):
/// entry `i` of each is `(2i+1)` times its base.
pub fn generator_wnaf_tables() -> &'static [[Affine; GEN_WNAF_ENTRIES]; 4] {
    &gen_tables().wnaf
}

/// wNAF window width for the variable points of the ladders; a
/// [`PointTable`] holds the 8 odd multiples `1·Q, 3·Q, …, 15·Q`.
pub const POINT_TABLE_W: u32 = 5;
const POINT_TABLE_ENTRIES: usize = 1 << (POINT_TABLE_W - 2);

/// Precomputed odd multiples of a variable point `Q`, normalized to affine
/// with one shared inversion. Building one costs a doubling, seven additions
/// and a batch normalization; it is the per-key state cached by the
/// verification layer so repeated signers amortize it across a block.
#[derive(Clone, Debug)]
pub struct PointTable {
    /// `entries[i] = (2i+1)·Q`; all infinity iff `Q` is infinity.
    entries: [Affine; POINT_TABLE_ENTRIES],
}

impl PointTable {
    pub fn new(q: &Affine) -> PointTable {
        PointTable::odd_multiples(q.to_jacobian())
    }

    /// The table of `2^64·Q`, the shifted base of
    /// [`lincomb_gen_half_depth`]: 64 doublings of `Q`, then the same build
    /// as [`PointTable::new`].
    pub fn shifted(q: &Affine) -> PointTable {
        let mut p = q.to_jacobian();
        for _ in 0..SHIFT_BITS {
            p = p.dbl();
        }
        PointTable::odd_multiples(p)
    }

    fn odd_multiples(q: Jacobian) -> PointTable {
        if q.is_infinity() {
            return PointTable {
                entries: [Affine::Infinity; POINT_TABLE_ENTRIES],
            };
        }
        let two_q = q.dbl();
        let mut jac = [q; POINT_TABLE_ENTRIES];
        for i in 1..POINT_TABLE_ENTRIES {
            jac[i] = jac[i - 1].add_jacobian(&two_q);
        }
        let affine = Jacobian::batch_to_affine(&jac);
        PointTable {
            entries: affine.try_into().expect("POINT_TABLE_ENTRIES entries"),
        }
    }

    /// Tables for many points with **one** shared field inversion across
    /// all of them, instead of one per [`PointTable::new`] call. The batch
    /// verifier builds a table per recovered nonce point `Rᵢ`, so per-table
    /// inversions would dominate its setup cost.
    pub fn batch_new(points: &[Affine]) -> Vec<PointTable> {
        let mut jac = Vec::with_capacity(points.len() * POINT_TABLE_ENTRIES);
        for q in points {
            if q.is_infinity() {
                jac.extend([Jacobian::infinity(); POINT_TABLE_ENTRIES]);
                continue;
            }
            let qj = q.to_jacobian();
            let two_q = qj.dbl();
            let mut acc = qj;
            for _ in 0..POINT_TABLE_ENTRIES {
                jac.push(acc);
                acc = acc.add_jacobian(&two_q);
            }
        }
        let affine = Jacobian::batch_to_affine(&jac);
        affine
            .chunks_exact(POINT_TABLE_ENTRIES)
            .map(|chunk| PointTable {
                entries: chunk.try_into().expect("POINT_TABLE_ENTRIES entries"),
            })
            .collect()
    }

    /// The odd multiples `1·Q, 3·Q, …, 15·Q`.
    pub fn entries(&self) -> &[Affine] {
        &self.entries
    }

    /// The table for `λ·Q`, by applying the endomorphism entrywise: eight
    /// field multiplications, against rebuilding a table from scratch
    /// (a doubling, seven full additions and a batch inversion).
    fn endo(&self, beta: &Fe) -> PointTable {
        PointTable {
            entries: self.entries.map(|e| e.endo(beta)),
        }
    }
}

/// One digit stream of a Strauss ladder: a scalar piece recoded in width-`w`
/// NAF (least significant digit first, its sign folded in, zero from `len`
/// on) and the odd multiples `1·B, 3·B, …` of the base its digits index. The
/// table's length, `2^(w-2)`, fixes `w`.
struct Stream<'a, const D: usize> {
    digits: [i8; D],
    len: usize,
    table: &'a [Affine],
}

impl<'a, const D: usize> Stream<'a, D> {
    /// Recode `±k` for `table`. Each window is read straight from `k`'s limbs
    /// at its bit position, so a digit costs O(1) and nothing is allocated;
    /// the digits are [`Scalar::wnaf`]'s, the reference recoding.
    fn new(k: &U256, neg: bool, table: &'a [Affine]) -> Stream<'a, D> {
        let w = table.len().trailing_zeros() + 2;
        let bits = k.bits();
        assert!(bits < D, "a {bits}-bit piece overflows a {D}-digit stream");
        let mut digits = [0i8; D];
        let mut len = 0;
        // Invariant: what is left to recode at position i is ⌊k/2^i⌋ + carry.
        let mut carry = 0;
        let mut i = 0;
        while i <= bits {
            if u64::from(k.bit(i)) == carry {
                i += 1; // even: a zero digit, and the carry stays
                continue;
            }
            // Odd, so the window is below 2^w; from 2^(w-1) up it takes the
            // negative digit and carries one into position i + w.
            let window = window_bits(k, i, w) + carry;
            carry = window >> (w - 1);
            let d = window as i32 - ((carry as i32) << w);
            let d = if neg { -d } else { d };
            digits[i] = d as i8;
            len = i + 1;
            i += w as usize;
        }
        Stream { digits, len, table }
    }
}

/// `w` bits of `k` from bit `i` up; bits past 255 read as zero.
fn window_bits(k: &U256, i: usize, w: u32) -> u64 {
    let (limb, offset) = (i / 64, i % 64);
    let mut v = k.limbs[limb] >> offset;
    if offset + w as usize > 64 && limb + 1 < k.limbs.len() {
        v |= k.limbs[limb + 1] << (64 - offset);
    }
    v & ((1 << w) - 1)
}

/// The one interleaved-wNAF Strauss ladder under every fast-path
/// multi-scalar product: a doubling per digit position, shared by all
/// streams, and a mixed addition (affine table entries) per nonzero digit.
/// Its depth — the doubling count, the dominant cost — is the longest
/// stream's length.
fn ladder<const D: usize>(streams: &[Stream<'_, D>]) -> Jacobian {
    let depth = streams.iter().map(|s| s.len).max().unwrap_or(0);
    let mut acc = Jacobian::infinity();
    for i in (0..depth).rev() {
        acc = acc.dbl();
        for s in streams {
            let d = s.digits[i];
            if d != 0 {
                // Odd |d| indexes entry (|d| − 1)/2 = |d| >> 1.
                let e = s.table[usize::from(d.unsigned_abs() >> 1)];
                acc = acc.add_mixed(&if d < 0 { e.neg() } else { e });
            }
        }
    }
    acc
}

/// `k`'s GLV halves ([`glv`]), each cut at bit [`SHIFT_BITS`]: four signed
/// pieces `(negative, magnitude)` with `k ≡ Σ ±pieceⱼ·bⱼ (mod n)` over the
/// bases `b = [1, 2^64, λ, λ·2^64]`. The low pieces are below `2^64` and the
/// high ones below `2^66`, because the halves are below `2^130`.
pub fn half_depth_pieces(k: &Scalar) -> [(bool, U256); 4] {
    let (lo, hi) = glv::params().split(k);
    let cut = |h: &glv::SplitScalar| {
        let [l0, l1, l2, l3] = h.mag.0.limbs;
        let piece = |limbs| (h.neg, U256 { limbs });
        [piece([l0, 0, 0, 0]), piece([l1, l2, l3, 0])]
    };
    let ([p0, p1], [p2, p3]) = (cut(&lo), cut(&hi));
    [p0, p1, p2, p3]
}

/// `u1·G + u2·Q` by a GLV-split interleaved-wNAF Strauss pass. Both scalars
/// are decomposed as `k₁ + λ·k₂` with ~128-bit halves ([`glv`]), so the
/// shared doubling ladder is ~130 long instead of 256 — doublings dominate
/// this function, and GLV halves them for the price of two splits and an
/// entrywise endomorphism on each table. The generator halves (width 8) are
/// served from the static `G`/`λG` tables, the `Q` halves (width 5) from
/// `q_table` and its endomorphism image. Nonzero digits are sparse and every
/// addition is mixed (affine table entries). This replaces
/// [`Jacobian::shamir_mul`] on a key's first verification;
/// [`lincomb_gen_half_depth`] serves the later ones.
pub fn lincomb_gen(u1: &Scalar, q_table: &PointTable, u2: &Scalar) -> Jacobian {
    let t = gen_tables();
    let glv = glv::params();
    let (g_lo, g_hi) = glv.split(u1);
    let (q_lo, q_hi) = glv.split(u2);
    let q_lambda = q_table.endo(&glv.beta);
    ladder::<FULL_DEPTH_DIGITS>(&[
        Stream::new(&g_lo.mag.0, g_lo.neg, &t.wnaf[0]),
        Stream::new(&g_hi.mag.0, g_hi.neg, &t.wnaf[2]),
        Stream::new(&q_lo.mag.0, q_lo.neg, &q_table.entries),
        Stream::new(&q_hi.mag.0, q_hi.neg, &q_lambda.entries),
    ])
}

/// `u1·G + u2·Q` on the half-depth ladder: each GLV half of both scalars is
/// cut once more, at bit 64 ([`half_depth_pieces`]), so the sum runs as
/// eight streams of at most [`HALF_DEPTH_DIGITS`] digits instead of four of
/// ~130. `G`'s pieces read the static width-8 tables of `G`, `2^64·G`,
/// `λ·G` and `λ·2^64·G`; `Q`'s read `q_table`, `q_shifted` (built by
/// [`PointTable::shifted`]) and their endomorphism images. The additions
/// stay as many as [`lincomb_gen`]'s and the doublings halve, for the price
/// of the shifted table, which a key builds once.
pub fn lincomb_gen_half_depth(
    u1: &Scalar,
    q_table: &PointTable,
    q_shifted: &PointTable,
    u2: &Scalar,
) -> Jacobian {
    let t = gen_tables();
    let beta = &glv::params().beta;
    let (q_lambda, q_shifted_lambda) = (q_table.endo(beta), q_shifted.endo(beta));
    let q_tables: [&[Affine]; 4] = [
        &q_table.entries,
        &q_shifted.entries,
        &q_lambda.entries,
        &q_shifted_lambda.entries,
    ];
    let (g, q) = (half_depth_pieces(u1), half_depth_pieces(u2));
    let streams: [Stream<'_, HALF_DEPTH_DIGITS>; 8] = std::array::from_fn(|i| {
        let ((neg, piece), table) = if i < 4 {
            (g[i], &t.wnaf[i][..])
        } else {
            (q[i - 4], q_tables[i - 4])
        };
        Stream::new(&piece, neg, table)
    });
    ladder(&streams)
}

/// One variable-point term of [`multi_scalar_mul`]: contributes
/// `±scalar·Q` where `Q` is the point `table` was built from (`negate`
/// selects the sign without touching the table).
pub struct MsmTerm<'a> {
    pub scalar: Scalar,
    pub table: &'a PointTable,
    pub negate: bool,
}

/// Scalars at or below this bit length skip the GLV split in
/// [`multi_scalar_mul`]: a split buys nothing once the scalar is already
/// ~half-width (the batch verifier's random coefficients are 128-bit by
/// construction), and skipping it halves that term's stream count. The
/// slack above 128 covers wNAF round-up.
const MSM_SPLIT_BITS: usize = 132;

/// `gen_scalar·G + Σᵢ ±scalarᵢ·Qᵢ` as one shared interleaved-wNAF Strauss
/// ladder — the n-term generalization of [`lincomb_gen`], and the engine
/// under batch ECDSA verification (`ec::batch`).
///
/// The generator term always takes the GLV split and is served from the
/// static width-8 `G`/`λG` tables. Each variable term brings its own
/// [`PointTable`]; full-width scalars are GLV-split (two width-5 streams,
/// the `λ` stream from an entrywise endomorphism of the table), while
/// short scalars ride a single unsplit stream. All streams share one
/// doubling ladder, so doublings — the dominant cost — are paid once for
/// the whole sum instead of once per term. The halves are not cut again as
/// in [`lincomb_gen_half_depth`]: a batch's ~130 doublings are already
/// shared by all its signatures, and a cut would add a stream per half.
pub fn multi_scalar_mul(gen_scalar: &Scalar, terms: &[MsmTerm<'_>]) -> Jacobian {
    let t = gen_tables();
    let glv = glv::params();
    let (g_lo, g_hi) = glv.split(gen_scalar);

    // Halves and endomorphism images of the split terms, materialized
    // before the stream list so the streams can borrow the images.
    let splits: Vec<Option<(glv::SplitScalar, glv::SplitScalar, PointTable)>> = terms
        .iter()
        .map(|term| {
            (term.scalar.0.bits() > MSM_SPLIT_BITS).then(|| {
                let (lo, hi) = glv.split(&term.scalar);
                (lo, hi, term.table.endo(&glv.beta))
            })
        })
        .collect();

    let mut streams: Vec<Stream<'_, FULL_DEPTH_DIGITS>> = Vec::with_capacity(2 + 2 * terms.len());
    streams.push(Stream::new(&g_lo.mag.0, g_lo.neg, &t.wnaf[0]));
    streams.push(Stream::new(&g_hi.mag.0, g_hi.neg, &t.wnaf[2]));
    for (term, split) in terms.iter().zip(&splits) {
        match split {
            Some((lo, hi, endo_table)) => {
                streams.push(Stream::new(
                    &lo.mag.0,
                    lo.neg ^ term.negate,
                    &term.table.entries,
                ));
                streams.push(Stream::new(
                    &hi.mag.0,
                    hi.neg ^ term.negate,
                    &endo_table.entries,
                ));
            }
            None => streams.push(Stream::new(
                &term.scalar.0,
                term.negate,
                &term.table.entries,
            )),
        }
    }
    ladder(&streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn scalar(v: u64) -> Scalar {
        Scalar::from_u64(v)
    }

    fn x_hex(p: &Affine) -> String {
        hex::encode(&p.coords().unwrap().0.to_be_bytes())
    }

    fn y_hex(p: &Affine) -> String {
        hex::encode(&p.coords().unwrap().1.to_be_bytes())
    }

    #[test]
    fn generator_on_curve() {
        assert!(Affine::generator().is_on_curve());
    }

    #[test]
    fn two_g_known_value() {
        let p2 = Affine::generator().mul(&scalar(2));
        assert_eq!(
            x_hex(&p2),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
        assert_eq!(
            y_hex(&p2),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"
        );
    }

    #[test]
    fn three_g_known_value() {
        let p3 = Affine::generator().mul(&scalar(3));
        assert_eq!(
            x_hex(&p3),
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"
        );
        assert_eq!(
            y_hex(&p3),
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672"
        );
    }

    #[test]
    fn add_matches_mul() {
        let g = Affine::generator();
        let sum = g.add(&g.add(&g)); // G + 2G via nested adds
        assert_eq!(sum, g.mul(&scalar(3)));
    }

    #[test]
    fn doubling_matches_addition() {
        let g = Affine::generator().to_jacobian();
        let d = g.double().to_affine();
        let a = g.add_jacobian(&g).to_affine(); // triggers the u1==u2 branch
        assert_eq!(d, a);
        assert_eq!(d, Affine::generator().mul(&scalar(2)));
    }

    #[test]
    fn point_plus_negation_is_infinity() {
        let p = Affine::generator().mul(&scalar(7));
        assert!(p.add(&p.neg()).is_infinity());
    }

    #[test]
    fn infinity_is_identity() {
        let p = Affine::generator().mul(&scalar(5));
        assert_eq!(p.add(&Affine::Infinity), p);
        assert_eq!(Affine::Infinity.add(&p), p);
        assert!(Affine::Infinity.is_on_curve());
    }

    #[test]
    fn n_times_g_is_infinity() {
        use super::super::scalar::N;
        use crate::u256::U256;
        // (n-1)·G + G = n·G = O
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        let p = Affine::generator().mul(&n_minus_1);
        assert!(p.add(&Affine::generator()).is_infinity());
        // and (n-1)·G == -G
        assert_eq!(p, Affine::generator().neg());
    }

    #[test]
    fn shamir_matches_separate_muls() {
        let g = Affine::generator().to_jacobian();
        let q = g.mul(&scalar(77));
        for (a, b) in [(1u64, 1u64), (2, 3), (0, 9), (9, 0), (12345, 67890)] {
            let (a, b) = (scalar(a), scalar(b));
            let expected = g.mul(&a).add_jacobian(&q.mul(&b)).to_affine();
            let got = g.shamir_mul(&a, &q, &b).to_affine();
            assert_eq!(got, expected);
        }
        // Degenerate: both zero.
        assert!(g.shamir_mul(&Scalar::ZERO, &q, &Scalar::ZERO).is_infinity());
    }

    #[test]
    fn mul_distributes_over_add() {
        let g = Affine::generator();
        let a = g.mul(&scalar(11));
        let b = g.mul(&scalar(31));
        assert_eq!(a.add(&b), g.mul(&scalar(42)));
    }

    #[test]
    fn mul_by_zero_and_one() {
        let g = Affine::generator();
        assert!(g.mul(&Scalar::ZERO).is_infinity());
        assert_eq!(g.mul(&Scalar::ONE), g);
    }

    #[test]
    fn lift_x_round_trip() {
        let p = Affine::generator().mul(&scalar(9));
        let (x, y) = p.coords().unwrap();
        let lifted = Affine::lift_x(x, y.is_odd()).unwrap();
        assert_eq!(lifted, p);
        let flipped = Affine::lift_x(x, !y.is_odd()).unwrap();
        assert_eq!(flipped, p.neg());
    }

    #[test]
    fn lift_x_rejects_off_curve() {
        // x = 5: 5³+7 = 132 — check via the API rather than asserting QR-ness
        // by hand; if it lifts it must be on the curve.
        for v in 1u64..20 {
            if let Some(p) = Affine::lift_x(Fe::from_u64(v), false) {
                assert!(p.is_on_curve());
            }
        }
    }

    #[test]
    fn fast_dbl_matches_reference_double() {
        let mut p = Affine::G.to_jacobian();
        for _ in 0..16 {
            assert_eq!(p.dbl().to_affine(), p.double().to_affine());
            p = p.add_jacobian(&p.mul(&scalar(3)));
        }
        assert!(Jacobian::infinity().dbl().is_infinity());
        // y = 0 never occurs on secp256k1, but negation pairs exercise the
        // cancellation path via add_mixed below.
    }

    #[test]
    fn add_mixed_matches_reference_add() {
        let g = Affine::G.to_jacobian();
        for (a, b) in [(1u64, 2u64), (5, 9), (7, 7), (100, 1)] {
            let p = g.mul(&scalar(a));
            let q = g.mul(&scalar(b)).to_affine();
            let expected = p.add_jacobian(&q.to_jacobian()).to_affine();
            assert_eq!(p.add_mixed(&q).to_affine(), expected, "({a}, {b})");
        }
        // Identity cases.
        let q = g.mul(&scalar(11)).to_affine();
        assert_eq!(Jacobian::infinity().add_mixed(&q).to_affine(), q);
        assert_eq!(g.add_mixed(&Affine::Infinity).to_affine(), Affine::G);
        // Doubling and cancellation branches (u2 == x1).
        let p = g.mul(&scalar(21));
        let pa = p.to_affine();
        assert_eq!(p.add_mixed(&pa).to_affine(), p.double().to_affine());
        assert!(p.add_mixed(&pa.neg()).is_infinity());
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let g = Affine::G.to_jacobian();
        let mut pts = vec![Jacobian::infinity()];
        for v in [1u64, 2, 3, 999, 0xffff_ffff] {
            pts.push(g.mul(&scalar(v)));
        }
        pts.push(Jacobian::infinity());
        let batch = Jacobian::batch_to_affine(&pts);
        assert_eq!(batch.len(), pts.len());
        for (b, p) in batch.iter().zip(&pts) {
            assert_eq!(*b, p.to_affine());
        }
        assert!(Jacobian::batch_to_affine(&[]).is_empty());
        let all_inf = Jacobian::batch_to_affine(&[Jacobian::infinity(); 3]);
        assert!(all_inf.iter().all(|p| p.is_infinity()));
    }

    #[test]
    fn mul_gen_matches_reference_ladder() {
        use super::super::scalar::N;
        use crate::u256::U256;
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        for k in [scalar(1), scalar(2), scalar(0xdead_beef), n_minus_1] {
            assert_eq!(Affine::mul_gen(&k).to_affine(), Affine::G.mul(&k));
        }
        assert!(Affine::mul_gen(&Scalar::ZERO).is_infinity());
    }

    #[test]
    fn lincomb_gen_matches_shamir() {
        let g = Affine::G.to_jacobian();
        let q = g.mul(&scalar(77));
        let qa = q.to_affine();
        let table = PointTable::new(&qa);
        for (a, b) in [(1u64, 1u64), (2, 3), (0, 9), (9, 0), (12345, 67890)] {
            let (a, b) = (scalar(a), scalar(b));
            let expected = g.shamir_mul(&a, &q, &b).to_affine();
            assert_eq!(lincomb_gen(&a, &table, &b).to_affine(), expected);
        }
        assert!(lincomb_gen(&Scalar::ZERO, &table, &Scalar::ZERO).is_infinity());
    }

    #[test]
    fn batch_new_matches_individual_tables() {
        let g = Affine::G.to_jacobian();
        let points: Vec<Affine> = vec![
            Affine::G,
            g.mul(&scalar(7)).to_affine(),
            Affine::Infinity,
            g.mul(&scalar(0xdead_beef)).to_affine(),
        ];
        let tables = PointTable::batch_new(&points);
        assert_eq!(tables.len(), points.len());
        for (t, p) in tables.iter().zip(&points) {
            assert_eq!(t.entries, PointTable::new(p).entries);
        }
        assert!(PointTable::batch_new(&[]).is_empty());
    }

    #[test]
    fn multi_scalar_mul_matches_reference_sum() {
        use super::super::scalar::N;
        use crate::u256::U256;
        let g = Affine::G.to_jacobian();
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        let points: Vec<Affine> = [3u64, 77, 1_000_003]
            .iter()
            .map(|&v| g.mul(&scalar(v)).to_affine())
            .collect();
        let tables: Vec<PointTable> = points.iter().map(PointTable::new).collect();
        // Mix short (unsplit) and full-width (GLV-split) scalars, plus
        // negated terms, and check against the reference ladder sum.
        let cases: Vec<(Scalar, Vec<(Scalar, bool)>)> = vec![
            (scalar(5), vec![(scalar(7), false)]),
            (Scalar::ZERO, vec![(n_minus_1, false), (scalar(123), true)]),
            (
                n_minus_1,
                vec![
                    (scalar(1), true),
                    (Scalar::from_be_bytes_reduced(&[0xab; 32]), false),
                    (Scalar::ZERO, false),
                ],
            ),
        ];
        for (gen_k, term_ks) in cases {
            let terms: Vec<MsmTerm<'_>> = term_ks
                .iter()
                .zip(&tables)
                .map(|(&(scalar, negate), table)| MsmTerm {
                    scalar,
                    table,
                    negate,
                })
                .collect();
            let mut expected = g.mul(&gen_k);
            for ((k, negate), p) in term_ks.iter().zip(&points) {
                let mut part = p.to_jacobian().mul(k).to_affine();
                if *negate {
                    part = part.neg();
                }
                expected = expected.add_jacobian(&part.to_jacobian());
            }
            assert_eq!(
                multi_scalar_mul(&gen_k, &terms).to_affine(),
                expected.to_affine()
            );
        }
        // Degenerate: no terms, zero generator scalar.
        assert!(multi_scalar_mul(&Scalar::ZERO, &[]).is_infinity());
    }

    #[test]
    fn multi_scalar_mul_cancels_to_infinity() {
        // k·G − k·G via a negated term must land exactly on infinity — the
        // batch verifier's accept condition.
        let k = Scalar::from_be_bytes_reduced(&[0x5a; 32]);
        let p = Affine::mul_gen(&k).to_affine();
        let table = PointTable::new(&p);
        let terms = [MsmTerm {
            scalar: Scalar::ONE,
            table: &table,
            negate: true,
        }];
        assert!(multi_scalar_mul(&k, &terms).is_infinity());
    }

    #[test]
    fn stream_digits_are_the_reference_wnaf() {
        use super::super::scalar::N;
        let table = [Affine::G; GEN_WNAF_ENTRIES];
        let mut values = vec![U256::ZERO, U256::ONE, U256::from_u64(u64::MAX)];
        for k in [63usize, 64, 65, 127, 128, 129, 131] {
            let mut limbs = [0u64; 4];
            limbs[k / 64] = 1 << (k % 64);
            let p = U256 { limbs };
            values.push(p);
            values.push(p.overflowing_sub(&U256::ONE).0);
            values.push(p.overflowing_add(&U256::ONE).0);
        }
        let mut state = crate::hash::sha256(b"stream recoding");
        for _ in 0..64 {
            // Random 132-bit values: the widest a full-depth stream takes.
            let mut v = U256::from_be_bytes(&state);
            v.limbs[2] &= 0xf;
            v.limbs[3] = 0;
            values.push(v);
            state = crate::hash::sha256(&state);
        }
        for v in &values {
            assert!(*v < N);
            for w in 2..=GEN_WNAF_W {
                let reference = Scalar(*v).wnaf(w);
                let entries = &table[..1 << (w - 2)];
                for neg in [false, true] {
                    let s = Stream::<FULL_DEPTH_DIGITS>::new(v, neg, entries);
                    assert_eq!(s.len, reference.len(), "{v:?} at width {w}");
                    for (i, &d) in s.digits.iter().enumerate() {
                        let r = reference.get(i).copied().unwrap_or(0);
                        assert_eq!(i32::from(d), if neg { -r } else { r });
                    }
                }
            }
        }
    }

    #[test]
    fn point_table_of_infinity_is_infinity() {
        let table = PointTable::new(&Affine::Infinity);
        assert!(table.entries.iter().all(|p| p.is_infinity()));
    }

    #[test]
    fn x_equals_scalar_without_inversion() {
        let g = Affine::G.to_jacobian();
        for v in [1u64, 7, 12345] {
            let p = g.mul(&scalar(v));
            let (x, _) = p.to_affine().coords().unwrap();
            let r = Scalar::from_be_bytes_reduced(&x.to_be_bytes());
            assert!(p.x_equals_scalar_mod_n(&r), "v = {v}");
            assert!(!p.x_equals_scalar_mod_n(&r.add(&Scalar::ONE)));
        }
        assert!(!Jacobian::infinity().x_equals_scalar_mod_n(&Scalar::ONE));
    }
}
