//! Block-wide batch ECDSA verification.
//!
//! A valid ECDSA signature `(r, s)` on digest `z` under key `Q` satisfies
//! `R = u·G + v·Q` with `u = z·s⁻¹`, `v = r·s⁻¹`, where `R` is the nonce
//! point and `r = R.x mod n`. Instead of checking each input's equation
//! with its own scalar ladder, the batch verifier recovers every `Rᵢ` from
//! its `rᵢ` (x-candidate lift; see [`recover_r`]) and checks the single
//! random linear combination
//!
//! ```text
//!     Σ aᵢ·(uᵢ·G + vᵢ·Qᵢ − Rᵢ) = O
//! ```
//!
//! evaluated as **one** shared GLV-split interleaved-wNAF ladder
//! ([`multi_scalar_mul`]). Per-item work drops from a full ~130-deep
//! ladder to a few scalar multiplications, one short wNAF stream for
//! `Rᵢ`, and a shared-inversion table build; terms under a repeated key
//! `Q` collapse into a single GLV-split stream with coefficient
//! `Σ aᵢ·vᵢ`, which is where block workloads (heavy key reuse) win big.
//!
//! The coefficients `aᵢ` are [`COEFF_BITS`]-bit outputs of a
//! domain-separated SHA-256 PRF seeded by a transcript of the whole batch
//! (digest, `r`, `s`, and key bytes of every item), so an adversary cannot
//! choose signatures *after* seeing the coefficients: for any fixed set of
//! defective items, the combination vanishes with probability ≤ 2⁻⁶⁴ (a
//! forged item would need its defect `Dᵢ ≠ O` to satisfy `Σ aᵢ·Dᵢ = O` for
//! coefficients it cannot predict). This is the standard small-exponent
//! test: 64-bit coefficients halve the per-`Rᵢ` ladder work relative to
//! 128-bit ones, and grinding transcripts until a fixed defect pair
//! cancels costs an expected 2⁶⁴ hash-and-check attempts *per forged
//! batch* — far beyond any per-block budget. Raise `COEFF_BITS` (≤ 128)
//! if a deployment wants the stricter bound back. Sub-batches re-derive
//! coefficients under their own range tag, so bisection never reuses a
//! combination an adversary has already seen fail.
//!
//! **Recovering `R` needs its y-parity**, which plain ECDSA signatures do
//! not carry — worse, low-S normalization flips the effective nonce point
//! exactly when `s` was high, scrambling the parity. This codebase's
//! signer grinds nonces until the *normalized* signature's effective `R`
//! has even y ([`super::ecdsa::sign_even_r`]; two expected attempts, the
//! same trick as Bitcoin Core's low-R grinding), so the verifier lifts
//! every candidate at even parity. Signatures that break the convention
//! (odd-parity `R`, or an `rᵢ` that does not lift) are still *valid
//! signatures*: the equation simply fails for them, and the deterministic
//! bisection walks down to [`PreparedPublicKey::verify`], whose verdict is
//! parity-agnostic. Batching is a pure performance layer — the
//! accept/reject decision per item is always exactly the individual
//! verifier's.

use std::collections::HashMap;

use super::ecdsa::Signature;
use super::field::{Fe, P};
use super::keys::PreparedPublicKey;
use super::point::{multi_scalar_mul, Affine, MsmTerm, PointTable};
use super::scalar::{Scalar, N};
use crate::hash::Sha256;

/// Domain tags for the coefficient PRF; versioned so a future change to
/// the transcript layout cannot silently alias the old one.
const TRANSCRIPT_TAG: &[u8] = b"ebv/batch-verify/v1/transcript";
const COEFF_TAG: &[u8] = b"ebv/batch-verify/v1/coeff";

/// Coefficient width of the small-exponent test (soundness 2^-COEFF_BITS;
/// see the module docs for the cost/soundness tradeoff). Must be a
/// multiple of 8, at most 128.
pub const COEFF_BITS: usize = 64;

/// One queued `(digest, signature, key)` triple.
struct Item {
    digest: [u8; 32],
    sig: Signature,
    /// Index into the deduplicated key list.
    key: usize,
}

/// Per-item precomputation for the batch equation; `None` marks items the
/// equation cannot express (zero `s`, or an `r` with no even-parity lift),
/// which resolve individually instead.
struct Prepared {
    /// `z·s⁻¹` — the item's contribution to the generator coefficient.
    u: Scalar,
    /// `r·s⁻¹` — the item's contribution to its key's coefficient.
    v: Scalar,
    /// Odd-multiples table of the recovered nonce point `R`.
    r_table: PointTable,
}

/// Work counters from one [`BatchVerifier::verify`] run, for telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Random-linear-combination evaluations (1 for an all-valid batch;
    /// bisection adds more).
    pub equation_checks: usize,
    /// Items resolved by the per-signature verifier (bisection leaves and
    /// non-batchable items).
    pub individual_checks: usize,
}

/// The result of verifying a batch: a per-item verdict vector (index ==
/// push order) plus aggregate stats.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    pub verdicts: Vec<bool>,
    pub all_valid: bool,
    pub stats: BatchStats,
}

/// Accumulates `(digest, signature, key)` triples and verifies them in one
/// randomized linear combination, bisecting deterministically on failure.
///
/// Verdicts are guaranteed identical to calling
/// [`PreparedPublicKey::verify`] per item — batching can never flip an
/// accept/reject decision, only the work done to reach it.
#[derive(Default)]
pub struct BatchVerifier<'a> {
    items: Vec<Item>,
    /// Distinct prepared keys, in first-seen order; items reference them
    /// by index so repeated signers share one ladder stream.
    keys: Vec<&'a PreparedPublicKey>,
    key_index: HashMap<[u8; 33], usize>,
}

impl<'a> BatchVerifier<'a> {
    pub fn new() -> BatchVerifier<'a> {
        BatchVerifier::default()
    }

    /// Queue one triple for verification.
    pub fn push(&mut self, digest: [u8; 32], sig: Signature, key: &'a PreparedPublicKey) {
        let encoded = key.public_key().to_compressed();
        let keys = &mut self.keys;
        let idx = *self.key_index.entry(encoded).or_insert_with(|| {
            keys.push(key);
            keys.len() - 1
        });
        self.items.push(Item {
            digest,
            sig,
            key: idx,
        });
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Verify every queued item. A single equation check clears an
    /// all-valid batch; otherwise the failing range is bisected (with
    /// fresh domain-separated coefficients per sub-range) down to
    /// per-item verification, so each verdict is individually grounded.
    pub fn verify(&self) -> BatchOutcome {
        let mut stats = BatchStats::default();
        let mut verdicts = vec![false; self.items.len()];
        if self.items.len() <= 1 {
            // Nothing to share a ladder with: one item goes straight to
            // the individual verifier, skipping the s-inversion, R's lift
            // and R's table that the equation would need.
            if !self.items.is_empty() {
                stats.individual_checks = 1;
                verdicts[0] = self.verify_one(0);
            }
            return BatchOutcome {
                all_valid: verdicts.iter().all(|&v| v),
                verdicts,
                stats,
            };
        }

        // s-inverses via Montgomery batch inversion: one inversion for
        // the whole batch instead of one per item.
        let s_values: Vec<Scalar> = self.items.iter().map(|i| i.sig.s).collect();
        let s_inverses = batch_invert(&s_values);

        // Recover nonce points, then build all their tables with one
        // shared field inversion.
        let r_points: Vec<Option<Affine>> =
            self.items.iter().map(|i| recover_r(&i.sig.r)).collect();
        let r_tables = PointTable::batch_new(
            &r_points
                .iter()
                .map(|p| p.unwrap_or(Affine::Infinity))
                .collect::<Vec<_>>(),
        );

        let mut prepared: Vec<Option<Prepared>> = Vec::with_capacity(self.items.len());
        let mut batchable: Vec<usize> = Vec::with_capacity(self.items.len());
        for (i, item) in self.items.iter().enumerate() {
            let entry = match (&s_inverses[i], &r_points[i]) {
                (Some(s_inv), Some(_)) if !item.sig.r.is_zero() => Some(Prepared {
                    u: Scalar::from_be_bytes_reduced(&item.digest).mul(s_inv),
                    v: item.sig.r.mul(s_inv),
                    r_table: r_tables[i].clone(),
                }),
                _ => None,
            };
            if entry.is_some() {
                batchable.push(i);
            } else {
                // Zero components or an unliftable r: fall straight back
                // to the oracle (a zero component can only reach here via
                // a hand-built `Signature`; `from_compact` rejects them).
                stats.individual_checks += 1;
                verdicts[i] = self.verify_one(i);
            }
            prepared.push(entry);
        }

        let seed = self.transcript_seed();
        self.resolve(&prepared, &seed, &batchable, &mut verdicts, &mut stats);

        let all_valid = verdicts.iter().all(|&v| v);
        BatchOutcome {
            verdicts,
            all_valid,
            stats,
        }
    }

    /// Individual (oracle) verification of item `i`, through its key's
    /// single-signature verify (half-depth from the key's second on).
    fn verify_one(&self, i: usize) -> bool {
        let item = &self.items[i];
        if item.sig.r.is_zero() || item.sig.s.is_zero() {
            return false;
        }
        self.keys[item.key].verify(&item.digest, &item.sig)
    }

    /// SHA-256 over the full batch transcript; binds the coefficients to
    /// every digest, signature and key before any coefficient is drawn.
    fn transcript_seed(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(TRANSCRIPT_TAG);
        for item in &self.items {
            h.update(&item.digest);
            h.update(&item.sig.r.to_be_bytes());
            h.update(&item.sig.s.to_be_bytes());
            h.update(&self.keys[item.key].public_key().to_compressed());
        }
        h.finalize()
    }

    /// Deterministic bisection: clear `ids` with one equation check, or
    /// split in half and recurse; single items go to the oracle. The
    /// recursion order is fixed (left before right), so the work done —
    /// and therefore every observable verdict — is reproducible.
    fn resolve(
        &self,
        prepared: &[Option<Prepared>],
        seed: &[u8; 32],
        ids: &[usize],
        verdicts: &mut [bool],
        stats: &mut BatchStats,
    ) {
        match ids {
            [] => {}
            [i] => {
                stats.individual_checks += 1;
                verdicts[*i] = self.verify_one(*i);
            }
            _ => {
                stats.equation_checks += 1;
                if self.check_equation(prepared, seed, ids) {
                    for &i in ids {
                        verdicts[i] = true;
                    }
                    return;
                }
                let (left, right) = ids.split_at(ids.len() / 2);
                self.resolve(prepared, seed, left, verdicts, stats);
                self.resolve(prepared, seed, right, verdicts, stats);
            }
        }
    }

    /// Evaluate `Σ aᵢ·(uᵢ·G + vᵢ·Qᵢ − Rᵢ) = O` over `ids` as one ladder:
    /// a single generator term with coefficient `Σ aᵢ·uᵢ`, one GLV-split
    /// term per *distinct* key with coefficient `Σ aᵢ·vᵢ`, and one short
    /// (unsplit, the `aᵢ` are short) negated term per nonce point.
    fn check_equation(
        &self,
        prepared: &[Option<Prepared>],
        seed: &[u8; 32],
        ids: &[usize],
    ) -> bool {
        let mut gen_scalar = Scalar::ZERO;
        let mut key_scalars: Vec<Scalar> = vec![Scalar::ZERO; self.keys.len()];
        let mut key_seen: Vec<bool> = vec![false; self.keys.len()];
        let mut terms: Vec<MsmTerm<'_>> = Vec::with_capacity(ids.len() + self.keys.len());
        for (j, &i) in ids.iter().enumerate() {
            let p = prepared[i].as_ref().expect("ids hold batchable items");
            let a = coefficient(seed, ids[0] as u64, ids.len() as u64, j as u64);
            gen_scalar = gen_scalar.add(&a.mul(&p.u));
            let k = self.items[i].key;
            key_scalars[k] = key_scalars[k].add(&a.mul(&p.v));
            key_seen[k] = true;
            terms.push(MsmTerm {
                scalar: a,
                table: &p.r_table,
                negate: true,
            });
        }
        for (k, seen) in key_seen.iter().enumerate() {
            if *seen && !key_scalars[k].is_zero() {
                terms.push(MsmTerm {
                    scalar: key_scalars[k],
                    table: self.keys[k].table(),
                    negate: false,
                });
            }
        }
        multi_scalar_mul(&gen_scalar, &terms).is_infinity()
    }
}

/// Lift the nonce point from `r = R.x mod n`, at even y-parity (the
/// signer's convention; see the module docs). `R.x` itself is either `r`
/// or `r + n` — `n < p`, so exactly one extra candidate can exist below
/// `p`. Preferring the `r` candidate when both lift is safe: a wrong pick
/// only fails the equation and falls back to the oracle.
fn recover_r(r: &Scalar) -> Option<Affine> {
    if r.is_zero() {
        return None;
    }
    if let Some(point) = Affine::lift_x(Fe(r.0), false) {
        return Some(point);
    }
    let (rn, carry) = r.0.overflowing_add(&N);
    if !carry && rn < P {
        return Affine::lift_x(Fe(rn), false);
    }
    None
}

/// Draw coefficient `aᵢ` for position `j` of the sub-batch starting at
/// item `first` with `count` items: [`COEFF_BITS`] bits of
/// `SHA-256(tag ‖ seed ‖ first ‖ count ‖ j)`, forced nonzero. The
/// `(first, count)` range tag domain-separates bisection sub-batches from
/// each other and from the full batch.
fn coefficient(seed: &[u8; 32], first: u64, count: u64, j: u64) -> Scalar {
    let mut h = Sha256::new();
    h.update(COEFF_TAG);
    h.update(seed);
    h.update(&first.to_be_bytes());
    h.update(&count.to_be_bytes());
    h.update(&j.to_be_bytes());
    let digest = h.finalize();
    let mut bytes = [0u8; 32];
    bytes[32 - COEFF_BITS / 8..].copy_from_slice(&digest[..COEFF_BITS / 8]);
    let a = Scalar::from_be_bytes(&bytes).expect("a short value is below n");
    if a.is_zero() {
        Scalar::ONE
    } else {
        a
    }
}

/// Montgomery batch inversion over scalars: one inversion plus `3(k-1)`
/// multiplications for `k` nonzero inputs. Zero inputs yield `None` and
/// are skipped in the product chain (mirrors
/// [`super::point::Jacobian::batch_to_affine`]).
fn batch_invert(values: &[Scalar]) -> Vec<Option<Scalar>> {
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = Scalar::ONE;
    for v in values {
        prefix.push(acc);
        if !v.is_zero() {
            acc = acc.mul(v);
        }
    }
    let mut inv = acc.invert().expect("product of nonzero scalars is nonzero");
    let mut out = vec![None; values.len()];
    for (i, v) in values.iter().enumerate().rev() {
        if v.is_zero() {
            continue;
        }
        out[i] = Some(inv.mul(&prefix[i]));
        inv = inv.mul(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec::keys::PrivateKey;
    use crate::hash::sha256;

    fn signed_items(count: usize, key_seeds: &[u64]) -> Vec<([u8; 32], Signature, PrivateKey)> {
        (0..count)
            .map(|i| {
                let sk = PrivateKey::from_seed(key_seeds[i % key_seeds.len()]);
                let z = sha256(format!("batch item {i}").as_bytes());
                let sig = sk.sign(&z);
                (z, sig, sk)
            })
            .collect()
    }

    #[test]
    fn all_valid_batch_needs_one_equation() {
        let items = signed_items(12, &[1, 2, 3]);
        let prepared: Vec<_> = items
            .iter()
            .map(|(_, _, sk)| sk.public_key().prepare())
            .collect();
        let mut batch = BatchVerifier::new();
        for ((z, sig, _), key) in items.iter().zip(&prepared) {
            batch.push(*z, *sig, key);
        }
        let out = batch.verify();
        assert!(out.all_valid);
        assert!(out.verdicts.iter().all(|&v| v));
        assert_eq!(out.stats.equation_checks, 1);
        assert_eq!(out.stats.individual_checks, 0);
    }

    #[test]
    fn single_invalid_item_is_pinpointed() {
        let items = signed_items(9, &[5, 6]);
        let prepared: Vec<_> = items
            .iter()
            .map(|(_, _, sk)| sk.public_key().prepare())
            .collect();
        let mut batch = BatchVerifier::new();
        for (i, ((z, sig, _), key)) in items.iter().zip(&prepared).enumerate() {
            let mut sig = *sig;
            if i == 4 {
                // Tamper s rather than r: the item stays batchable (R
                // recovery depends only on r), so the defect must be found
                // by equation bisection, not the non-batchable early-out.
                sig.s = sig.s.add(&Scalar::ONE);
            }
            batch.push(*z, sig, key);
        }
        let out = batch.verify();
        assert!(!out.all_valid);
        for (i, &v) in out.verdicts.iter().enumerate() {
            assert_eq!(v, i != 4, "item {i}");
        }
        // Bisection must have reached at least one oracle leaf.
        assert!(out.stats.individual_checks >= 1);
        assert!(out.stats.equation_checks >= 2);
    }

    #[test]
    fn one_item_batch_is_verified_individually() {
        let sk = PrivateKey::from_seed(41);
        let key = sk.public_key().prepare();
        let z = sha256(b"alone");
        let good = sk.sign(&z);
        let tampered = Signature {
            r: good.r,
            s: good.s.add(&Scalar::ONE),
        };
        for (sig, valid) in [(good, true), (tampered, false)] {
            let mut batch = BatchVerifier::new();
            batch.push(z, sig, &key);
            let out = batch.verify();
            assert_eq!(out.verdicts, vec![valid]);
            assert_eq!(out.all_valid, valid);
            let individual = BatchStats {
                equation_checks: 0,
                individual_checks: 1,
            };
            assert_eq!(out.stats, individual);
        }
    }

    #[test]
    fn equation_checks_build_no_shifted_tables() {
        // Four signatures per key: verified one by one, each key would
        // build its shifted table on its second verify.
        let items = signed_items(12, &[1, 2, 3]);
        let prepared: Vec<_> = [1, 2, 3]
            .iter()
            .map(|&seed| PrivateKey::from_seed(seed).public_key().prepare())
            .collect();
        let mut batch = BatchVerifier::new();
        for (i, (z, sig, _)) in items.iter().enumerate() {
            batch.push(*z, *sig, &prepared[i % 3]);
        }
        let out = batch.verify();
        assert!(out.all_valid);
        assert_eq!(out.stats.individual_checks, 0);
        assert!(prepared.iter().all(|k| k.shifted_table().is_none()));
    }

    #[test]
    fn empty_batch_is_valid() {
        let out = BatchVerifier::new().verify();
        assert!(out.all_valid);
        assert!(out.verdicts.is_empty());
        assert_eq!(out.stats, BatchStats::default());
    }

    #[test]
    fn verify_is_deterministic() {
        let items = signed_items(7, &[9]);
        let prepared: Vec<_> = items
            .iter()
            .map(|(_, _, sk)| sk.public_key().prepare())
            .collect();
        let run = || {
            let mut batch = BatchVerifier::new();
            for (i, ((z, sig, _), key)) in items.iter().zip(&prepared).enumerate() {
                let mut sig = *sig;
                if i % 3 == 0 {
                    sig.s = sig.s.add(&Scalar::ONE).normalize_s();
                }
                batch.push(*z, sig, key);
            }
            let out = batch.verify();
            (out.verdicts, out.stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_component_items_resolve_individually_as_invalid() {
        let sk = PrivateKey::from_seed(31);
        let key = sk.public_key().prepare();
        let z = sha256(b"zero components");
        let good = sk.sign(&z);
        let mut batch = BatchVerifier::new();
        batch.push(z, good, &key);
        batch.push(
            z,
            Signature {
                r: Scalar::ZERO,
                s: good.s,
            },
            &key,
        );
        batch.push(
            z,
            Signature {
                r: good.r,
                s: Scalar::ZERO,
            },
            &key,
        );
        let out = batch.verify();
        assert_eq!(out.verdicts, vec![true, false, false]);
        assert!(out.stats.individual_checks >= 2);
    }
}
