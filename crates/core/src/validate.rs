//! One block-validation pipeline over two input states.
//!
//! Bitcoin (paper §II-B) and EBV (§IV) differ only in where an input's
//! value, locking script and coordinates come from: a Fetch / Delete /
//! Insert cycle on the UTXO set, or EV + UV against the input proof and the
//! bit vectors. [`Node`] runs every other phase once, whatever its
//! [`InputState`]: the tip and structure checks, the state's `resolve` of
//! each input into a [`Spend`], value + sighash midstates per transaction,
//! the coinbase bound, SV, and the state's commit. SV settles its ECDSA
//! checks in batches ([`sv_chunk_batched`]) on the config's `workers`, and
//! is the only phase that fans out: every other phase runs inline. SV
//! reports the failure with the minimum `(tx, input)` — the error a strict
//! sequential scan hits first — so every worker count returns identical
//! results.
//!
//! The shared phases record into the handles of the state's [`Probes`],
//! resolved in the state's own non-generic code: a `span!` call site here
//! would cache one handle in a `static` shared by every node type.
//!
//! SV runs once per script: the mempool records each input it admitted in
//! the node's script-execution cache ([`script_key`]), and the block that
//! confirms the transaction skips SV for exactly those inputs. Every SV
//! that does run — a block's on either node type, and the mempool's —
//! prepares signer keys through the node's one bounded [`PubkeyCache`].

use crate::metrics::Breakdown;
use crate::par::{try_par_map, worker_count};
use crate::sighash::{sv_chunk_batched, PubkeyCache, SvJob, SV_BATCH_MAX};
use ebv_chain::transaction::{SpendSighashMidstate, TxOut};
use ebv_chain::{BlockHeader, BLOCK_SUBSIDY};
use ebv_primitives::encode::Decodable;
use ebv_primitives::hash::{Hash256, Sha256};
use ebv_script::{Script, ScriptError};
use ebv_telemetry::context::SpanGuard;
use ebv_telemetry::{counter, Counter, Histogram, Span};
use std::collections::HashSet;
use std::sync::Mutex;

/// A block rejection raised by a shared phase. Both node types' error
/// types carry each of these as a variant of the same name.
#[derive(Debug)]
pub enum Rejection {
    /// `prev_block_hash` does not extend the tip.
    NotOnTip,
    /// Inputs are worth less than outputs.
    ValueImbalance { tx: usize },
    /// Coinbase claims more than subsidy + fees.
    ExcessiveCoinbase,
    /// Script Validation failed.
    SvFailed {
        tx: usize,
        input: usize,
        err: ScriptError,
    },
}

/// One non-coinbase input with what it spends resolved: the unit of work
/// of the value and SV phases. Resolvers emit spends in `(tx, input)`
/// lexicographic order, so "lowest index" and "minimum `(tx, input)`"
/// coincide.
pub struct Spend<'b> {
    pub tx: usize,
    pub input: usize,
    /// The input's unlocking script.
    pub unlocking: &'b Script,
    /// Value of the spent output.
    pub value: u64,
    /// Locking script of the spent output.
    pub locking: &'b Script,
    /// `(creation height, absolute position)` of the spent output: what the
    /// spend digest commits to.
    pub coord: (u32, u32),
}

/// What the spend digest commits to in a transaction besides the spent
/// coordinates.
#[derive(Clone, Copy)]
pub struct TxFields<'b> {
    pub version: u32,
    pub outputs: &'b [TxOut],
    pub lock_time: u32,
}

/// Telemetry handles of one node type's shared phases.
#[derive(Clone, Copy)]
pub struct Probes {
    /// Name of the per-block trace span (keyed by height).
    pub block: &'static str,
    /// Tip + structure checks, value + midstates, SV, and the whole block.
    pub structure: &'static Histogram,
    pub value: &'static Histogram,
    pub sv: &'static Histogram,
    pub block_total: &'static Histogram,
    pub blocks_connected: &'static Counter,
}

/// Where a node's inputs come from, and how a connected block changes it.
///
/// Implemented by the bit-vector set (EBV) and the UTXO set (baseline).
/// A state owns its structure checks, input resolution, commit/undo and
/// disconnect; [`Node`] owns every other phase.
pub trait InputState: Sized {
    /// The block format this state validates.
    type Block: Decodable + Sync;
    /// Rejection reasons; the shared phases' [`Rejection`]s convert in.
    type Error: From<Rejection> + std::fmt::Debug + Send;
    /// Tuning knobs.
    type Config: Copy;
    /// What `resolve` found that `commit` applies.
    type Resolved: Default;
    /// Everything needed to disconnect a connected block again.
    type Undo;

    /// The shared phases' telemetry handles, resolved here in the state's
    /// own (non-generic) code.
    fn probes() -> Probes;
    fn header(block: &Self::Block) -> &BlockHeader;
    /// Every transaction's digest fields, coinbase first.
    fn tx_fields(block: &Self::Block) -> Vec<TxFields<'_>>;
    /// SV's worker-thread override; `None` uses every available core.
    fn workers(config: &Self::Config) -> Option<usize>;
    /// Whether `err` is the shared tip check's rejection.
    fn is_not_on_tip(err: &Self::Error) -> bool;

    /// Context-free checks, after the tip check.
    fn check_structure(block: &Self::Block, config: &Self::Config) -> Result<(), Self::Error>;
    /// Resolve every non-coinbase input of `block` (at the height after
    /// `headers`) into a [`Spend`], in `(tx, input)` order, recording
    /// what the commit will need in `resolved`. Times itself into
    /// `breakdown`.
    fn resolve<'b>(
        &mut self,
        headers: &[BlockHeader],
        block: &'b Self::Block,
        resolved: &'b mut Self::Resolved,
        breakdown: &mut Breakdown,
    ) -> Result<Vec<Spend<'b>>, Self::Error>;
    /// Apply a fully validated `block` at `height`. Times itself into
    /// `breakdown`.
    fn commit(
        &mut self,
        block: &Self::Block,
        height: u32,
        resolved: Self::Resolved,
        breakdown: &mut Breakdown,
    ) -> Result<Self::Undo, Self::Error>;
    /// Telemetry after `block` connected at `height`.
    fn connected(&self, height: u32, block: &Self::Block);
    /// Undo the block at `height`, the tip being disconnected.
    fn disconnect(&mut self, height: u32, undo: Self::Undo) -> Result<(), Self::Error>;
    /// The state's own consistency checks at `tip`.
    fn check_invariants(&self, tip: u32) -> Result<(), String>;
}

/// A validating node: the header chain, the undo stack and one input
/// state, driven through the shared pipeline.
pub struct Node<S: InputState> {
    headers: Vec<BlockHeader>,
    state: S,
    config: S::Config,
    /// Undo records, one per connected block above `base_height`.
    undo_stack: Vec<S::Undo>,
    /// Height this node booted at: 0 for a genesis boot, the checkpoint
    /// height for a snapshot boot. Blocks at or below it carry no undo
    /// records and cannot be disconnected.
    base_height: u32,
    /// Prepared signer keys for every SV this node runs, kept for its
    /// whole life within `PUBKEY_CACHE_CAPACITY`.
    pubkey_cache: PubkeyCache,
    /// Inputs whose scripts passed SV at admission. Behind a lock because
    /// the mempool fills it through a shared `&Node`.
    script_cache: Mutex<ScriptCache>,
    /// Cumulative validation-time breakdown across all processed blocks.
    cumulative: Breakdown,
    probes: Probes,
}

impl<S: InputState> Node<S> {
    /// A node whose chain is `headers`, tip state `state`.
    pub(crate) fn boot(
        headers: Vec<BlockHeader>,
        state: S,
        config: S::Config,
        base_height: u32,
    ) -> Node<S> {
        Node {
            headers,
            state,
            config,
            undo_stack: Vec::new(),
            base_height,
            pubkey_cache: PubkeyCache::new(),
            script_cache: Mutex::default(),
            cumulative: Breakdown::default(),
            probes: S::probes(),
        }
    }

    pub(crate) fn state(&self) -> &S {
        &self.state
    }

    pub(crate) fn headers(&self) -> &[BlockHeader] {
        &self.headers
    }

    /// Height this node booted at (0 unless booted from a snapshot).
    pub fn base_height(&self) -> u32 {
        self.base_height
    }

    /// Height of the best block.
    pub fn tip_height(&self) -> u32 {
        (self.headers.len() - 1) as u32
    }

    /// Hash of the best block's header.
    pub fn tip_hash(&self) -> Hash256 {
        self.headers.last().expect("genesis present").hash()
    }

    /// The stored header at `height`, if within the chain.
    pub fn header_at(&self, height: u32) -> Option<&BlockHeader> {
        self.headers.get(height as usize)
    }

    /// Total validation time spent, by phase, since boot.
    pub fn cumulative_breakdown(&self) -> Breakdown {
        self.cumulative
    }

    /// The pubkey cache every SV entry point of this node reads.
    pub(crate) fn pubkey_cache(&self) -> &PubkeyCache {
        &self.pubkey_cache
    }

    /// Record that the inputs behind `keys` ([`script_key`]) passed SV, so
    /// the block that spends them skips their scripts.
    pub(crate) fn remember_passed_scripts(&self, keys: impl IntoIterator<Item = Hash256>) {
        let mut cache = self.script_cache.lock().expect("script cache lock");
        for key in keys {
            cache.insert(key);
        }
    }

    /// Validate `block` and, if valid, append it (storing the header and
    /// committing it to the state). Returns the per-phase timing. A
    /// rejected block leaves the node untouched; a store-level I/O error
    /// mid-commit is fatal (as in real nodes).
    pub fn process_block(&mut self, block: &S::Block) -> Result<Breakdown, S::Error> {
        let mut breakdown = Breakdown::default();
        let height = self.headers.len() as u32;
        let probes = self.probes;
        // Per-block trace span, keyed by height: inert (one thread-local
        // peek) unless a caller entered a trace context.
        let _block_span = SpanGuard::enter(probes.block, u64::from(height));

        // ---- "others": tip and structure checks -------------------------
        let structure = Span::new(probes.structure, Some(&mut breakdown.others));
        if S::header(block).prev_block_hash != self.tip_hash() {
            return Err(Rejection::NotOnTip.into());
        }
        S::check_structure(block, &self.config)?;
        drop(structure);

        // ---- resolve: EV + UV, or the DBO fetch -------------------------
        let mut resolved = S::Resolved::default();
        let spends = self
            .state
            .resolve(&self.headers, block, &mut resolved, &mut breakdown)?;

        // ---- "others": value conservation + sighash midstates -----------
        // One pass per transaction: sum input/output values and hash the
        // sighash prefix every input of that transaction shares, so SV
        // below never re-serializes the outputs once per input.
        let value = Span::new(probes.value, Some(&mut breakdown.others));
        let txs = S::tx_fields(block);
        let digests = tx_runs(&spends, txs.len())
            .into_iter()
            .map(|(tx, run)| tx_digest(&txs[tx], run).ok_or(Rejection::ValueImbalance { tx }))
            .collect::<Result<Vec<_>, _>>()?;
        let fees = digests
            .iter()
            .fold(0u64, |acc, (_, fee)| acc.saturating_add(*fee));
        if total_value(txs[0].outputs) > BLOCK_SUBSIDY.saturating_add(fees) {
            return Err(Rejection::ExcessiveCoinbase.into());
        }
        drop(value);

        // ---- SV -----------------------------------------------------------
        let sv = Span::new(probes.sv, Some(&mut breakdown.sv));
        // Inputs whose exact digest and scripts passed SV at admission
        // skip it; the rest run in order, so the first failure is still
        // the minimum `(tx, input)`. Their entries go once the block
        // connects.
        let script_cache = self.script_cache.get_mut().expect("script cache lock");
        let (pending, passed) = unverified(script_cache, &spends, &digests, &txs);
        // Inputs signed by a key this node has seen before, in this block
        // or any earlier one, reuse its parse + odd-multiples table.
        let cache = &self.pubkey_cache;
        // Settle each chunk's ECDSA through one batch equation and report
        // the chunk's first failure. Chunks partition the ordered spends,
        // so the lowest failing chunk holds the minimum `(tx, input)` — the
        // strict path's error.
        let workers = worker_count(S::workers(&self.config));
        try_par_map(&sv_chunks(&pending, workers), workers, |chunk| {
            let jobs: Vec<SvJob<'_>> = chunk.iter().map(|s| sv_job(s, &digests, &txs)).collect();
            sv_chunk_batched(&jobs, cache)
                .into_iter()
                .zip(*chunk)
                .try_for_each(|(result, s)| {
                    result.map_err(|err| Rejection::SvFailed {
                        tx: s.tx,
                        input: s.input,
                        err,
                    })
                })
        })?;
        drop(sv);

        // ---- commit: the state, then the header and the undo record -------
        let undo = self.state.commit(block, height, resolved, &mut breakdown)?;
        self.headers.push(*S::header(block));
        self.undo_stack.push(undo);
        let script_cache = self.script_cache.get_mut().expect("script cache lock");
        for key in &passed {
            script_cache.remove(key);
        }

        probes.blocks_connected.inc();
        probes
            .block_total
            .record(breakdown.total().as_nanos() as u64);
        self.state.connected(height, block);

        self.cumulative += breakdown;
        Ok(breakdown)
    }

    /// Disconnect the tip block, restoring the previous state (the reorg
    /// primitive, driven by `sync::reorg`). Returns the new tip height,
    /// `Ok(None)` if the tip is already the boot height (genesis, or the
    /// checkpoint for a snapshot-booted node), or a typed error if the undo
    /// data does not mirror the state (corrupt state, store I/O).
    pub fn disconnect_tip(&mut self) -> Result<Option<u32>, S::Error> {
        let Some(undo) = self.undo_stack.pop() else {
            return Ok(None);
        };
        let height = self.tip_height();
        self.headers.pop();
        self.state.disconnect(height, undo)?;
        Ok(Some(self.tip_height()))
    }

    /// Cheap internal-consistency check, asserted by the reorg engine after
    /// every unwind step: the undo stack must pair one record per block
    /// above the boot height, and the state must pass its own checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.headers.is_empty() {
            return Err("header chain is empty (genesis missing)".to_string());
        }
        let tip = self.tip_height();
        if tip < self.base_height {
            return Err(format!(
                "tip {tip} fell below the boot height {}",
                self.base_height
            ));
        }
        if self.undo_stack.len() as u32 != tip - self.base_height {
            return Err(format!(
                "undo stack holds {} records but {} blocks sit above the boot height",
                self.undo_stack.len(),
                tip - self.base_height
            ));
        }
        self.state.check_invariants(tip)
    }
}

/// Each spending transaction with its spends. Spends are in `(tx, input)`
/// order, so each transaction's spends are one contiguous run — empty for a
/// transaction without inputs, which must still face the value check.
fn tx_runs<'s, 'b>(spends: &'s [Spend<'b>], tx_count: usize) -> Vec<(usize, &'s [Spend<'b>])> {
    let mut rest = spends;
    (1..tx_count)
        .map(|tx| {
            let (run, tail) = rest.split_at(rest.iter().take_while(|s| s.tx == tx).count());
            rest = tail;
            (tx, run)
        })
        .collect()
}

/// The SV job of `spend`, its digest finished from its transaction's
/// midstate. Spending transactions start at index 1; `digests` are dense
/// from 0.
fn sv_job<'b>(
    spend: &Spend<'b>,
    digests: &[(SpendSighashMidstate, u64)],
    txs: &[TxFields<'_>],
) -> SvJob<'b> {
    SvJob {
        digest: digests[spend.tx - 1].0.input_digest(spend.input as u32),
        lock_time: txs[spend.tx].lock_time,
        unlocking: spend.unlocking,
        locking: spend.locking,
    }
}

/// Cut `items` into batch chunks in order: as few as `SV_BATCH_MAX`
/// allows, rounded up to a multiple of `workers` so that `try_par_map`
/// hands every worker the same number of chunks, with chunk sizes differing
/// by at most one.
fn sv_chunks<T>(items: &[T], workers: usize) -> Vec<&[T]> {
    let parts = items
        .len()
        .div_ceil(SV_BATCH_MAX)
        .next_multiple_of(workers)
        .min(items.len());
    let mut rest = items;
    (0..parts)
        .map(|i| {
            let (chunk, tail) = rest.split_at(rest.len().div_ceil(parts - i));
            rest = tail;
            chunk
        })
        .collect()
}

/// Upper bound on the script-execution cache's entries (2 MiB of keys): a
/// block's inputs many times over, for admitted transactions that wait a
/// few blocks to be mined or are never mined at all.
const SCRIPT_CACHE_CAPACITY: usize = 1 << 16;

/// The inputs that passed SV outside a block, by [`script_key`].
///
/// Bounded in two generations: inserts go to `young`; once it holds half
/// the capacity it becomes `old` and the previous `old` is dropped, so the
/// oldest entries go first, at O(1) per operation.
#[derive(Default)]
struct ScriptCache {
    young: HashSet<Hash256>,
    old: HashSet<Hash256>,
}

impl ScriptCache {
    fn is_empty(&self) -> bool {
        self.young.is_empty() && self.old.is_empty()
    }

    fn contains(&self, key: &Hash256) -> bool {
        self.young.contains(key) || self.old.contains(key)
    }

    fn insert(&mut self, key: Hash256) {
        if self.young.len() == SCRIPT_CACHE_CAPACITY / 2 {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(key);
    }

    fn remove(&mut self, key: &Hash256) {
        self.young.remove(key);
        self.old.remove(key);
    }
}

/// The script-execution cache key of an SV job: SHA-256 over exactly what
/// `verify_spend` reads — the spend digest, the lock time (for
/// `OP_CHECKLOCKTIMEVERIFY`) and the length-prefixed unlocking and locking
/// scripts. SV's verdict is a pure function of these bytes, so a job whose
/// key passed once passes again. The digest commits to the spent
/// coordinates, the outputs and the input index but not to the stake
/// position, so a miner's re-stamp keeps the key.
pub(crate) fn script_key(job: &SvJob<'_>) -> Hash256 {
    let mut h = Sha256::new();
    h.update(job.digest.as_bytes())
        .update(&job.lock_time.to_le_bytes());
    for script in [job.unlocking, job.locking] {
        h.update(&(script.len() as u64).to_le_bytes())
            .update(script.as_bytes());
    }
    Hash256(h.finalize())
}

/// Split `spends` into those SV must run, in order, and the keys of those
/// that `cache` says already passed. Looks nothing up in an empty cache,
/// which is every node without a mempool.
fn unverified<'s, 'b>(
    cache: &ScriptCache,
    spends: &'s [Spend<'b>],
    digests: &[(SpendSighashMidstate, u64)],
    txs: &[TxFields<'_>],
) -> (Vec<&'s Spend<'b>>, Vec<Hash256>) {
    if cache.is_empty() {
        return (spends.iter().collect(), Vec::new());
    }
    let mut pending = Vec::new();
    let mut passed = Vec::new();
    for s in spends {
        let key = script_key(&sv_job(s, digests, txs));
        if cache.contains(&key) {
            passed.push(key);
        } else {
            pending.push(s);
        }
    }
    counter!("sv.script_cache.hits").add(passed.len() as u64);
    counter!("sv.script_cache.misses").add(pending.len() as u64);
    (pending, passed)
}

/// Total value of `outputs`, saturating so an (invalid) overflowing total
/// fails the value checks safely.
fn total_value(outputs: &[TxOut]) -> u64 {
    outputs
        .iter()
        .fold(0u64, |acc, o| acc.saturating_add(o.value))
}

/// The per-transaction phase: value conservation and the sighash midstate.
/// `None` if `spends` are worth less than the outputs; otherwise the
/// midstate every input's digest finishes from, and the fee.
pub(crate) fn tx_digest(
    tx: &TxFields<'_>,
    spends: &[Spend<'_>],
) -> Option<(SpendSighashMidstate, u64)> {
    let in_value = spends
        .iter()
        .fold(0u64, |acc, s| acc.saturating_add(s.value));
    let fee = in_value.checked_sub(total_value(tx.outputs))?;
    let coords: Vec<(u32, u32)> = spends.iter().map(|s| s.coord).collect();
    let midstate = SpendSighashMidstate::new(tx.version, &coords, tx.outputs, tx.lock_time);
    Some((midstate, fee))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ebv_node::{EbvConfig, EbvNode};
    use crate::intermediary::Intermediary;
    use crate::mempool::Mempool;
    use crate::pack::{ebv_coinbase, pack_ebv_block};
    use crate::tidy::EbvBlock;
    use ebv_workload::{ChainGenerator, GeneratorParams};

    fn chain(n: u32, seed: u64) -> Vec<EbvBlock> {
        let blocks = ChainGenerator::new(GeneratorParams::tiny(n, seed)).generate();
        Intermediary::new(0)
            .convert_chain(&blocks)
            .expect("generated chains convert")
    }

    fn cached(node: &EbvNode) -> usize {
        let cache = node.script_cache.lock().expect("script cache lock");
        cache.young.len() + cache.old.len()
    }

    #[test]
    fn script_key_covers_every_field_it_reads() {
        let unlocking = Script::from_bytes(vec![1, 2, 3]);
        let locking = Script::from_bytes(vec![4, 5]);
        let job = |digest: u8, lock_time, unlocking, locking| SvJob {
            digest: Hash256([digest; 32]),
            lock_time,
            unlocking,
            locking,
        };
        // The last variant moves a byte across the scripts' boundary: only
        // the length prefixes tell it apart.
        let shifted = (
            Script::from_bytes(vec![1, 2]),
            Script::from_bytes(vec![3, 4, 5]),
        );
        let other = Script::from_bytes(vec![9]);
        let keys = [
            script_key(&job(7, 0, &unlocking, &locking)),
            script_key(&job(8, 0, &unlocking, &locking)),
            script_key(&job(7, 1, &unlocking, &locking)),
            script_key(&job(7, 0, &other, &locking)),
            script_key(&job(7, 0, &unlocking, &other)),
            script_key(&job(7, 0, &shifted.0, &shifted.1)),
        ];
        let distinct: HashSet<Hash256> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:?}");
        assert_eq!(keys[0], script_key(&job(7, 0, &unlocking, &locking)));
    }

    #[test]
    fn script_cache_stays_within_capacity() {
        let key = |i: u64| Hash256(Sha256::digest(&i.to_le_bytes()));
        let mut cache = ScriptCache::default();
        let inserts = 2 * SCRIPT_CACHE_CAPACITY as u64 + 7;
        for i in 0..inserts {
            cache.insert(key(i));
            assert!(cache.young.len() + cache.old.len() <= SCRIPT_CACHE_CAPACITY);
        }
        // The newest half always survives; the oldest entries went first.
        let newest = inserts - SCRIPT_CACHE_CAPACITY as u64 / 2;
        assert!((newest..inserts).all(|i| cache.contains(&key(i))));
        assert!(!cache.contains(&key(0)));
        cache.remove(&key(inserts - 1));
        assert!(!cache.contains(&key(inserts - 1)));
    }

    #[test]
    fn connecting_admitted_transactions_empties_the_cache() {
        let chain = chain(40, 0x5c);
        let mut node = EbvNode::new(&chain[0], EbvConfig::default());
        let mut pool = Mempool::new();
        let mut admitted_inputs = 0;
        for block in &chain[1..] {
            for tx in &block.transactions[1..] {
                pool.accept(&node, tx.clone()).expect("generated tx admits");
            }
            let inputs: usize = block.transactions[1..]
                .iter()
                .map(|tx| tx.bodies.len())
                .sum();
            assert_eq!(cached(&node), inputs);
            admitted_inputs += inputs;
            node.process_block(block).expect("generated block connects");
            assert_eq!(cached(&node), 0, "every admitted input hit");
            pool.remove_confirmed(block);
            assert!(pool.is_empty());
        }
        assert!(admitted_inputs > 40, "too few inputs: {admitted_inputs}");
    }

    #[test]
    fn restamped_transaction_still_hits() {
        let chain = chain(20, 0x57a4e);
        // The first block with two spending transactions, so both need a
        // re-stamp.
        let h = (1..chain.len())
            .find(|&h| chain[h].transactions.len() > 2)
            .expect("a block with two spending transactions");
        let mut node = EbvNode::new(&chain[0], EbvConfig::default());
        for block in &chain[1..h] {
            node.process_block(block).expect("generated block connects");
        }
        // Admit its transactions as a wallet proposes them: stake 0.
        let mut pool = Mempool::new();
        for tx in &chain[h].transactions[1..] {
            let mut tx = tx.clone();
            tx.tidy.stake_position = 0;
            pool.accept(&node, tx).expect("generated tx admits");
        }
        let inputs = cached(&node);
        assert!(inputs > 0);

        // A miner packages them, re-stamping every stake position.
        let mut txs = vec![ebv_coinbase(h as u32, Script::new())];
        txs.extend(pool.take_for_block(usize::MAX));
        let block = pack_ebv_block(node.tip_hash(), txs, h as u32, 0);
        assert!(block.transactions[1..]
            .iter()
            .all(|tx| tx.tidy.stake_position != 0));
        node.process_block(&block).expect("packaged block connects");
        assert_eq!(cached(&node), 0, "all {inputs} inputs hit");
    }

    #[test]
    fn sv_chunks_balance_workers() {
        let sizes = |n: usize, workers| -> Vec<usize> {
            let items: Vec<usize> = (0..n).collect();
            let chunks = sv_chunks(&items, workers);
            assert_eq!(chunks.concat(), items, "{n} items, {workers} workers");
            chunks.iter().map(|c| c.len()).collect()
        };
        // A 70-input block on two workers: one chunk each, not 64 + 6.
        assert_eq!(sizes(70, 2), [35, 35]);
        assert_eq!(sizes(70, 1), [35, 35]);
        assert_eq!(sizes(64, 2), [32, 32]);
        assert_eq!(sizes(130, 2), [33, 33, 32, 32]);
        assert_eq!(sizes(1, 3), [1]);
        assert!(sizes(0, 2).is_empty());
        for n in 1..300 {
            for workers in 1..=4 {
                let s = sizes(n, workers);
                assert!(s.iter().all(|&c| (1..=SV_BATCH_MAX).contains(&c)));
                assert!(s.iter().max().unwrap() - s.iter().min().unwrap() <= 1);
                assert!(s.len() % workers == 0 || s.len() == n, "{s:?}");
            }
        }
    }

    #[test]
    fn total_value_saturates() {
        let outputs = [
            TxOut::new(u64::MAX, Script::new()),
            TxOut::new(5, Script::new()),
        ];
        assert_eq!(total_value(&outputs), u64::MAX);
    }
}
