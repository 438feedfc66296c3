//! Signature checking shared by the two validators.
//!
//! Both validators run the same script engine (SV is unchanged in EBV);
//! the only difference is where the locking script and the spent-output
//! coordinates come from — the database in the baseline, the input proof
//! in EBV.
//!
//! Beyond the strict per-input path ([`DigestChecker`]) this module hosts
//! the batched SV pipeline: [`sv_chunk_batched`] runs a chunk of script
//! jobs with an optimistic [`CollectingChecker`] that defers ECDSA checks
//! into one [`BatchVerifier`] equation, then strictly re-runs any job the
//! batch could not certify. The final verdict for every job is byte-
//! identical to what [`DigestChecker`] would have produced, so callers can
//! keep their error-selection logic unchanged.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, RwLock, TryLockError};

use ebv_primitives::ec::{BatchVerifier, PreparedPublicKey, PublicKey, Signature};
use ebv_primitives::hash::Hash256;
use ebv_script::{verify_spend, Script, ScriptError, SignatureChecker};

/// Length of a signature push: 64-byte compact signature + 1 sighash-type
/// byte.
pub const SIG_PUSH_LEN: usize = 65;

/// Maximum number of script jobs fed to one [`sv_chunk_batched`] call.
///
/// Bounds both the bisection depth on a failed batch and the size of the
/// shared multi-scalar ladder (whose stream count grows linearly with the
/// batch). 64 keeps the ladder's working set in cache while amortizing the
/// per-batch fixed costs (transcript hashing, Montgomery inversions) well.
pub const SV_BATCH_MAX: usize = 64;

/// Upper bound on [`PubkeyCache`] entries: 4096 signer keys, ≈5.3 MiB at
/// worst. Each costs up to ~1.3 KiB: a 1,240-byte [`PreparedPublicKey`]
/// (the key, its eight affine odd multiples, and room for the eight of
/// `2^64·Q` that its second single-signature verify builds), a 16-byte
/// `Arc` header, and a 48-byte map slot at most half full once a
/// generation's table has grown.
const PUBKEY_CACHE_CAPACITY: usize = 1 << 12;

/// Number of shards in [`PubkeyCache`]; must be a power of two.
const PUBKEY_CACHE_SHARDS: usize = 16;

/// Entries one generation of one shard holds before it ages.
const PUBKEY_GENERATION: usize = PUBKEY_CACHE_CAPACITY / PUBKEY_CACHE_SHARDS / 2;

/// A node's cache of parsed-and-prepared public keys, keyed by the 33-byte
/// SEC compressed encoding, kept for the node's whole life.
///
/// Workloads reuse signer keys heavily across inputs and blocks, so
/// without a cache every input re-parses its pubkey (a field `sqrt` for
/// `lift_x`) and rebuilds the odd-multiples table. `None` entries memoize
/// parse *failures* so malformed keys are also rejected at HashMap speed on
/// repeat sightings. An entry is a pure function of its key bytes and
/// never a verdict, so what the cache holds cannot change any result.
///
/// The map is sharded [`PUBKEY_CACHE_SHARDS`] ways by an FNV-1a hash of the
/// key bytes, each shard behind its own `RwLock`, so parallel SV workers
/// hitting distinct keys never serialize on one lock. Lock acquisition
/// first tries the non-blocking path and counts a
/// `cache.pubkey.shard_contention` event before falling back to the
/// blocking one, making contention observable instead of silent. A miss
/// prepares the key under its shard's write lock after looking again, so
/// workers racing on one new key prepare it once: a key costs one
/// preparation for as long as it stays cached.
///
/// Each shard is bounded in two generations: inserts go to `young`; once
/// it holds `PUBKEY_GENERATION` entries it becomes `old` and the previous
/// `old` is dropped, so the cache never holds more than
/// `PUBKEY_CACHE_CAPACITY` keys, each shard keeps at least its newest
/// `PUBKEY_GENERATION`, and eviction is O(1) per insert.
pub struct PubkeyCache {
    shards: [RwLock<PubkeyShard>; PUBKEY_CACHE_SHARDS],
}

/// Compressed key bytes → prepared key, or `None` for a memoized parse
/// failure.
type KeyMap = HashMap<[u8; 33], Option<Arc<PreparedPublicKey>>>;

/// One shard's two generations.
#[derive(Default)]
struct PubkeyShard {
    young: KeyMap,
    old: KeyMap,
}

impl PubkeyShard {
    fn get(&self, key: &[u8; 33]) -> Option<&Option<Arc<PreparedPublicKey>>> {
        self.young.get(key).or_else(|| self.old.get(key))
    }

    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// Cache `value` under `key`, which is absent. Returns how many entries
    /// aged out.
    fn insert(&mut self, key: [u8; 33], value: Option<Arc<PreparedPublicKey>>) -> usize {
        let mut evicted = 0;
        if self.young.len() == PUBKEY_GENERATION {
            // The young map becomes old; the old one is cleared and reused
            // as the new young map, keeping its allocation.
            std::mem::swap(&mut self.young, &mut self.old);
            evicted = self.young.len();
            self.young.clear();
        }
        self.young.insert(key, value);
        evicted
    }
}

impl Default for PubkeyCache {
    fn default() -> PubkeyCache {
        PubkeyCache {
            shards: std::array::from_fn(|_| RwLock::default()),
        }
    }
}

/// FNV-1a over the 33 key bytes, folded to a shard index. The compressed
/// encoding starts with a near-constant parity byte, so the hash has to mix
/// the whole encoding rather than sample a prefix.
fn shard_of(key: &[u8; 33]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((h ^ (h >> 32)) as usize) & (PUBKEY_CACHE_SHARDS - 1)
}

/// Take `lock` through `try_lock` first, counting a contended acquisition
/// before blocking.
fn contended<G>(
    try_lock: impl FnOnce() -> std::sync::TryLockResult<G>,
    lock: impl FnOnce() -> std::sync::LockResult<G>,
) -> G {
    match try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::WouldBlock) => {
            ebv_telemetry::counter!("cache.pubkey.shard_contention").inc();
            lock().expect("cache lock")
        }
        Err(TryLockError::Poisoned(e)) => panic!("cache lock poisoned: {e}"),
    }
}

impl PubkeyCache {
    pub fn new() -> PubkeyCache {
        PubkeyCache::default()
    }

    /// Parse and prepare `pubkey`, consulting the cache first. Returns
    /// `None` for keys that fail SEC decoding (wrong length/prefix or not
    /// on the curve).
    pub fn get_or_prepare(&self, pubkey: &[u8]) -> Option<Arc<PreparedPublicKey>> {
        let key: [u8; 33] = pubkey.try_into().ok()?;
        let shard = &self.shards[shard_of(&key)];
        let hit = |cached: &Option<Arc<PreparedPublicKey>>| {
            ebv_telemetry::counter!("ebv.pubkey_cache.hits").inc();
            cached.clone()
        };
        if let Some(cached) = contended(|| shard.try_read(), || shard.read()).get(&key) {
            return hit(cached);
        }
        let mut guard = contended(|| shard.try_write(), || shard.write());
        if let Some(cached) = guard.get(&key) {
            return hit(cached);
        }
        ebv_telemetry::counter!("ebv.pubkey_cache.misses").inc();
        let prepared = PublicKey::from_compressed(&key)
            .ok()
            .map(|pk| Arc::new(pk.prepare()));
        let evicted = guard.insert(key, prepared.clone());
        drop(guard);
        ebv_telemetry::counter!("ebv.pubkey_cache.evictions").add(evicted as u64);
        if ebv_telemetry::enabled() {
            ebv_telemetry::gauge!("ebv.pubkey_cache.entries").set(self.len() as u64);
        }
        prepared
    }

    /// Number of pubkey encodings held (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.shard_sizes().iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard entry counts, for balance diagnostics.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache lock").len())
            .collect()
    }
}

/// A [`SignatureChecker`] bound to one spend digest (and, for
/// `OP_CHECKLOCKTIMEVERIFY`, the spending transaction's lock time),
/// preparing keys through a node's [`PubkeyCache`] — or, built with
/// [`DigestChecker::new`], through none: the uncached reference.
pub struct DigestChecker<'a> {
    digest: [u8; 32],
    lock_time: u32,
    cache: Option<&'a PubkeyCache>,
}

impl<'a> DigestChecker<'a> {
    /// Checker with no lock-time context (CLTV scripts fail closed).
    pub fn new(digest: Hash256) -> DigestChecker<'a> {
        DigestChecker {
            digest: *digest.as_bytes(),
            lock_time: 0,
            cache: None,
        }
    }

    /// Checker carrying lock time and a node's shared pubkey cache.
    pub fn with_context(
        digest: Hash256,
        lock_time: u32,
        cache: &'a PubkeyCache,
    ) -> DigestChecker<'a> {
        DigestChecker {
            digest: *digest.as_bytes(),
            lock_time,
            cache: Some(cache),
        }
    }
}

impl SignatureChecker for DigestChecker<'_> {
    fn check_sig(&self, sig: &[u8], pubkey: &[u8]) -> bool {
        if sig.len() != SIG_PUSH_LEN || sig[SIG_PUSH_LEN - 1] != ebv_chain::SIGHASH_ALL {
            return false;
        }
        if let Some(cache) = self.cache {
            let Some(prepared) = cache.get_or_prepare(pubkey) else {
                return false;
            };
            return prepared
                .verify_compact(&self.digest, &sig[..64])
                .unwrap_or(false);
        }
        let Ok(pk) = PublicKey::from_compressed(pubkey) else {
            return false;
        };
        pk.verify_compact(&self.digest, &sig[..64]).unwrap_or(false)
    }

    fn check_lock_time(&self, required: i64) -> bool {
        required >= 0 && required <= self.lock_time as i64
    }
}

/// One ECDSA check deferred by a [`CollectingChecker`] for batch
/// settlement.
struct DeferredSig {
    digest: [u8; 32],
    sig: Signature,
    key: Arc<PreparedPublicKey>,
}

/// A [`SignatureChecker`] that *defers* ECDSA instead of evaluating it.
///
/// Structural checks (push length, sighash-type byte, pubkey decoding,
/// signature component ranges) run inline and fail exactly where the strict
/// [`DigestChecker`] would fail. Only when everything parses does the
/// checker record the (digest, signature, key) triple and answer `true`
/// optimistically.
///
/// The optimistic `true` can steer script control flow differently from the
/// strict run (e.g. `OP_CHECKSIG OP_NOT` branches), so a deferring run is
/// *never* authoritative on its own: [`sv_chunk_batched`] only trusts it
/// when the batch later certifies every deferred check, and strictly
/// re-runs the job otherwise.
struct CollectingChecker<'a> {
    digest: [u8; 32],
    lock_time: u32,
    cache: &'a PubkeyCache,
    deferred: RefCell<Vec<DeferredSig>>,
}

impl<'a> CollectingChecker<'a> {
    fn new(digest: Hash256, lock_time: u32, cache: &'a PubkeyCache) -> CollectingChecker<'a> {
        CollectingChecker {
            digest: *digest.as_bytes(),
            lock_time,
            cache,
            deferred: RefCell::new(Vec::new()),
        }
    }

    fn into_deferred(self) -> Vec<DeferredSig> {
        self.deferred.into_inner()
    }
}

impl SignatureChecker for CollectingChecker<'_> {
    fn check_sig(&self, sig: &[u8], pubkey: &[u8]) -> bool {
        if sig.len() != SIG_PUSH_LEN || sig[SIG_PUSH_LEN - 1] != ebv_chain::SIGHASH_ALL {
            return false;
        }
        let Some(key) = self.cache.get_or_prepare(pubkey) else {
            return false;
        };
        let compact: &[u8; 64] = sig[..64].try_into().expect("length checked");
        let Ok(parsed) = Signature::from_compact(compact) else {
            return false;
        };
        self.deferred.borrow_mut().push(DeferredSig {
            digest: self.digest,
            sig: parsed,
            key,
        });
        true
    }

    fn check_lock_time(&self, required: i64) -> bool {
        required >= 0 && required <= self.lock_time as i64
    }
}

/// One script-verification job: everything [`sv_chunk_batched`] needs to
/// run a spend through the engine.
pub struct SvJob<'b> {
    pub digest: Hash256,
    pub lock_time: u32,
    pub unlocking: &'b Script,
    pub locking: &'b Script,
}

/// Run a chunk of SV jobs, settling their ECDSA checks through one batch
/// equation, and return each job's verdict — guaranteed identical to what a
/// per-job strict run with [`DigestChecker::with_context`] returns.
///
/// Three passes:
///
/// 1. **Optimistic collect.** Each job runs with a [`CollectingChecker`].
///    A job that deferred nothing got a fully authoritative run (no ECDSA
///    was reached, so optimism never fired) and its result is final.
/// 2. **Batch settle.** All signatures deferred by jobs that *passed* the
///    optimistic run go into one [`BatchVerifier`]. A job whose deferred
///    checks all certify keeps its `Ok`: the optimistic `true`s were the
///    truth, so control flow matched the strict run.
/// 3. **Strict rerun.** Jobs that failed optimistically, or had any
///    deferred check rejected by the batch, re-run with the strict
///    [`DigestChecker`] for their authoritative verdict (the rerun also
///    regenerates the exact [`ScriptError`] the strict path reports).
pub fn sv_chunk_batched(jobs: &[SvJob<'_>], cache: &PubkeyCache) -> Vec<Result<(), ScriptError>> {
    // Pass 1: optimistic run, collecting deferred ECDSA checks per job.
    let mut optimistic: Vec<Result<(), ScriptError>> = Vec::with_capacity(jobs.len());
    let mut deferred: Vec<Vec<DeferredSig>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let checker = CollectingChecker::new(job.digest, job.lock_time, cache);
        let result = verify_spend(job.unlocking, job.locking, &checker);
        optimistic.push(result);
        deferred.push(checker.into_deferred());
    }

    // Pass 2: one batch over every signature deferred by optimistically-Ok
    // jobs. Failed jobs rerun strictly regardless, so batching their
    // signatures would only waste equation work.
    let mut batch = BatchVerifier::new();
    let mut spans: Vec<std::ops::Range<usize>> = Vec::with_capacity(jobs.len());
    for (result, sigs) in optimistic.iter().zip(&deferred) {
        let start = batch.len();
        if result.is_ok() {
            for d in sigs {
                batch.push(d.digest, d.sig, &d.key);
            }
        }
        spans.push(start..batch.len());
    }
    let verdicts = if batch.is_empty() {
        Vec::new()
    } else {
        ebv_telemetry::counter!("sv.batch.batches").inc();
        ebv_telemetry::counter!("sv.batch.sigs").add(batch.len() as u64);
        let outcome = batch.verify();
        ebv_telemetry::counter!("sv.batch.equation_checks")
            .add(outcome.stats.equation_checks as u64);
        ebv_telemetry::counter!("sv.batch.individual_fallbacks")
            .add(outcome.stats.individual_checks as u64);
        outcome.verdicts
    };

    // Pass 3: strict rerun for jobs the batch could not certify.
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let certified = optimistic[i].is_ok() && verdicts[spans[i].clone()].iter().all(|&v| v);
            if certified {
                Ok(())
            } else if optimistic[i].is_err() && deferred[i].is_empty() {
                // No ECDSA was deferred, so the optimistic run *was* the
                // strict run; its error is authoritative.
                optimistic[i]
            } else {
                ebv_telemetry::counter!("sv.batch.strict_reruns").inc();
                let checker = DigestChecker::with_context(job.digest, job.lock_time, cache);
                verify_spend(job.unlocking, job.locking, &checker)
            }
        })
        .collect()
}

/// Build the signature push for `digest` with private key `sk`.
pub fn sign_input(sk: &ebv_primitives::ec::PrivateKey, digest: &Hash256) -> Vec<u8> {
    let mut out = sk.sign(digest.as_bytes()).to_compact().to_vec();
    out.push(ebv_chain::SIGHASH_ALL);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_primitives::ec::PrivateKey;
    use ebv_primitives::hash::sha256d;
    use ebv_script::Builder;

    #[test]
    fn sign_then_check() {
        let sk = PrivateKey::from_seed(11);
        let digest = sha256d(b"spend");
        let sig = sign_input(&sk, &digest);
        let checker = DigestChecker::new(digest);
        assert!(checker.check_sig(&sig, &sk.public_key().to_compressed()));
    }

    #[test]
    fn rejects_wrong_digest_key_or_format() {
        let sk = PrivateKey::from_seed(11);
        let digest = sha256d(b"spend");
        let sig = sign_input(&sk, &digest);

        let wrong_digest = DigestChecker::new(sha256d(b"other"));
        assert!(!wrong_digest.check_sig(&sig, &sk.public_key().to_compressed()));

        let checker = DigestChecker::new(digest);
        let other = PrivateKey::from_seed(12).public_key();
        assert!(!checker.check_sig(&sig, &other.to_compressed()));

        // Truncated signature and bad sighash byte.
        assert!(!checker.check_sig(&sig[..64], &sk.public_key().to_compressed()));
        let mut bad_type = sig.clone();
        bad_type[64] = 0x03;
        assert!(!checker.check_sig(&bad_type, &sk.public_key().to_compressed()));
        // Garbage pubkey.
        assert!(!checker.check_sig(&sig, &[0u8; 33]));
    }

    #[test]
    fn cached_checker_matches_uncached() {
        let sk = PrivateKey::from_seed(11);
        let digest = sha256d(b"spend");
        let sig = sign_input(&sk, &digest);
        let pk = sk.public_key().to_compressed();

        let cache = PubkeyCache::new();
        let cached = DigestChecker::with_context(digest, 0, &cache);
        assert!(cached.check_sig(&sig, &pk));
        // Second check hits the cache; still one distinct key.
        assert!(cached.check_sig(&sig, &pk));
        assert_eq!(cache.len(), 1);

        // Wrong key still rejected through the cache.
        let other = PrivateKey::from_seed(12).public_key().to_compressed();
        assert!(!cached.check_sig(&sig, &other));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_memoizes_parse_failures() {
        let cache = PubkeyCache::new();
        // Bad prefix byte: parse fails, and the failure is cached.
        assert!(cache.get_or_prepare(&[0u8; 33]).is_none());
        assert!(cache.get_or_prepare(&[0u8; 33]).is_none());
        assert_eq!(cache.len(), 1);
        // Wrong length never enters the cache.
        assert!(cache.get_or_prepare(&[2u8; 10]).is_none());
        assert_eq!(cache.len(), 1);
        // A good key round-trips.
        let pk = PrivateKey::from_seed(3).public_key();
        let prepared = cache.get_or_prepare(&pk.to_compressed()).unwrap();
        assert_eq!(prepared.public_key(), &pk);
    }

    #[test]
    fn cache_shards_spread_keys() {
        let cache = PubkeyCache::new();
        for seed in 0..64u64 {
            let pk = PrivateKey::from_seed(seed).public_key();
            assert!(cache.get_or_prepare(&pk.to_compressed()).is_some());
        }
        assert_eq!(cache.len(), 64);
        let sizes = cache.shard_sizes();
        assert_eq!(sizes.len(), PUBKEY_CACHE_SHARDS);
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        // FNV-1a should touch well more than a couple of shards with 64
        // distinct keys (probability of ≤ 4 occupied is negligible).
        assert!(sizes.iter().filter(|&&s| s > 0).count() > 4);
    }

    #[test]
    fn pubkey_cache_stays_within_capacity() {
        // Valid keys, each followed every third time by a malformed
        // encoding whose parse failure is memoized like a key.
        let keys: Vec<[u8; 33]> = (0..2 * PUBKEY_CACHE_CAPACITY as u64 + 7)
            .flat_map(|i| {
                let valid = PrivateKey::from_seed(i).public_key().to_compressed();
                let mut malformed = [0u8; 33];
                malformed[1..9].copy_from_slice(&i.to_le_bytes());
                std::iter::once(valid).chain((i % 3 == 0).then_some(malformed))
            })
            .collect();
        let cache = PubkeyCache::new();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(cache.get_or_prepare(key).is_some(), key[0] != 0);
            assert!(cache.len() <= PUBKEY_CACHE_CAPACITY, "after {i} keys");
        }
        // Each shard keeps at least its newest generation; the oldest
        // entries went first.
        let held = |key: &[u8; 33]| {
            let shard = cache.shards[shard_of(key)].read().expect("cache lock");
            shard.get(key).is_some()
        };
        for s in 0..PUBKEY_CACHE_SHARDS {
            let newest = keys.iter().rev().filter(|k| shard_of(k) == s);
            assert!(newest.take(PUBKEY_GENERATION).all(held), "shard {s}");
        }
        assert!(!held(&keys[0]));
    }

    #[test]
    fn cltv_respects_lock_time() {
        let digest = sha256d(b"cltv");
        let cache = PubkeyCache::new();
        let checker = DigestChecker::with_context(digest, 500, &cache);
        assert!(checker.check_lock_time(500));
        assert!(!checker.check_lock_time(501));
        assert!(!checker.check_lock_time(-1));
    }

    /// A standard P2PKH-style spend pair for `sk` over `digest`.
    fn spend_pair(sk: &PrivateKey, digest: Hash256, tamper: bool) -> (Script, Script) {
        let pk = sk.public_key();
        let mut sig = sign_input(sk, &digest);
        if tamper {
            sig[5] ^= 0x40;
        }
        let unlocking = ebv_script::standard::p2pkh_unlock(&sig, &pk.to_compressed());
        let locking = ebv_script::standard::p2pkh_lock(&pk.address_hash());
        (unlocking, locking)
    }

    #[test]
    fn batched_chunk_matches_strict_per_job() {
        let cache = PubkeyCache::new();
        let mut scripts = Vec::new();
        for i in 0..12u64 {
            let sk = PrivateKey::from_seed(i % 3);
            let digest = sha256d(format!("job {i}").as_bytes());
            // Tamper jobs 4 and 9.
            let pair = spend_pair(&sk, digest, i == 4 || i == 9);
            scripts.push((digest, pair));
        }
        let jobs: Vec<SvJob<'_>> = scripts
            .iter()
            .map(|(digest, (unlocking, locking))| SvJob {
                digest: *digest,
                lock_time: 0,
                unlocking,
                locking,
            })
            .collect();
        let batched = sv_chunk_batched(&jobs, &cache);

        let strict_cache = PubkeyCache::new();
        for (i, job) in jobs.iter().enumerate() {
            let checker = DigestChecker::with_context(job.digest, job.lock_time, &strict_cache);
            let strict = verify_spend(job.unlocking, job.locking, &checker);
            assert_eq!(batched[i], strict, "job {i}");
            assert_eq!(batched[i].is_ok(), i != 4 && i != 9, "job {i}");
        }
    }

    #[test]
    fn batched_chunk_handles_structural_failures() {
        let cache = PubkeyCache::new();
        let sk = PrivateKey::from_seed(1);
        let digest = sha256d(b"structural");
        let (unlocking, locking) = spend_pair(&sk, digest, false);
        // A job that fails before any ECDSA is reached: empty unlocking
        // script leaves the stack short.
        let empty = Builder::new().into_script();
        let jobs = [
            SvJob {
                digest,
                lock_time: 0,
                unlocking: &unlocking,
                locking: &locking,
            },
            SvJob {
                digest,
                lock_time: 0,
                unlocking: &empty,
                locking: &locking,
            },
        ];
        let batched = sv_chunk_batched(&jobs, &cache);
        assert!(batched[0].is_ok());
        let strict = verify_spend(
            &empty,
            &locking,
            &DigestChecker::with_context(digest, 0, &cache),
        );
        assert_eq!(batched[1], strict);
        assert!(batched[1].is_err());
    }
}
