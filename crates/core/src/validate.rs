//! One block-validation pipeline over two input states.
//!
//! Bitcoin (paper §II-B) and EBV (§IV) differ only in where an input's
//! value, locking script and coordinates come from: a Fetch / Delete /
//! Insert cycle on the UTXO set, or EV + UV against the input proof and the
//! bit vectors. [`Node`] runs every other phase once, whatever its
//! [`InputState`]: the tip and structure checks, the state's `resolve` of
//! each input into a [`Spend`], value + sighash midstates per transaction,
//! the coinbase bound, SV, and the state's commit.
//!
//! Blocks connect in windows ([`Node::connect_blocks`]; `process_block` is
//! a window of one). The calling thread runs every phase but SV on each
//! block in order and commits it optimistically. Meanwhile the window's SV
//! chunks, cut across block boundaries, settle in batches
//! ([`sv_chunk_batched`]) on helper threads ([`feed`]), and on the caller
//! too once staging ends. SV is each block's last check and changes no
//! state, so the window then keeps the blocks below the lowest one with an
//! SV failure and undoes the rest: the result is the block-by-block
//! result, whatever the window size or worker count. Within a block, SV
//! reports the failure with the minimum `(tx, input)` — the error a strict
//! sequential scan hits first.
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
use crate::par::{feed, worker_count};
use crate::sighash::{sv_chunk_batched, PubkeyCache, SvJob, SV_BATCH_MAX};
use ebv_chain::transaction::{SpendSighashMidstate, TxOut};
use ebv_chain::{BlockHeader, BLOCK_SUBSIDY};
use ebv_primitives::encode::Decodable;
use ebv_primitives::hash::{Hash256, Sha256};
use ebv_script::{Script, ScriptError};
use ebv_telemetry::context::SpanGuard;
use ebv_telemetry::{counter, trace_event, Counter, Histogram, Span, Stopwatch};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

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
    /// Tip + structure checks, value + midstates, each window's SV settle
    /// wait, and each connected block.
    pub structure: &'static Histogram,
    pub value: &'static Histogram,
    pub sv: &'static Histogram,
    pub block_total: &'static Histogram,
    pub blocks_connected: &'static Counter,
    /// Blocks handed to each window, and windows that undid blocks they
    /// had committed.
    pub window_blocks: &'static Histogram,
    pub window_rollbacks: &'static Counter,
    /// Trace event and counter of a disconnected tip; a window's rollback
    /// records neither.
    pub block_disconnected: &'static str,
    pub blocks_disconnected: &'static Counter,
}

/// Where a node's inputs come from, and how a connected block changes it.
///
/// Implemented by the bit-vector set (EBV) and the UTXO set (baseline).
/// A state owns its structure checks, input resolution, commit/undo and
/// disconnect; [`Node`] owns every other phase.
pub trait InputState: Sized {
    /// The block format this state validates.
    type Block: Decodable;
    /// Rejection reasons; the shared phases' [`Rejection`]s convert in.
    type Error: From<Rejection> + std::fmt::Debug;
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
    /// Apply `block` at `height`, every check but SV passed. Times itself
    /// into `breakdown`.
    fn commit(
        &mut self,
        block: &Self::Block,
        height: u32,
        resolved: Self::Resolved,
        breakdown: &mut Breakdown,
    ) -> Result<Self::Undo, Self::Error>;
    /// Telemetry once `blocks` stay connected at the heights from `first`
    /// on.
    fn connected(&self, first: u32, blocks: &[Self::Block]);
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
    /// committing it to the state): a window of one block. Returns the
    /// per-phase timing. A rejected block leaves the node as it was; a
    /// store-level I/O error mid-commit is fatal (as in real nodes).
    pub fn process_block(&mut self, block: &S::Block) -> Result<Breakdown, S::Error> {
        let (breakdowns, result) = self.connect_window(std::slice::from_ref(block));
        result.map(|()| breakdowns[0])
    }

    /// Validate `blocks` in order as one window and connect the longest
    /// valid prefix. Returns how many connected and the first rejected
    /// block's error: exactly what `process_block` on each block in turn
    /// returns. The window settles before this returns, so no caller ever
    /// sees a block whose SV is unsettled.
    pub fn connect_blocks(&mut self, blocks: &[S::Block]) -> (usize, Result<(), S::Error>) {
        let (breakdowns, result) = self.connect_window(blocks);
        (breakdowns.len(), result)
    }

    /// The pipeline: stage each block on this thread while the window's SV
    /// chunks settle on helpers, then keep the blocks below the first
    /// rejected one and undo the rest. Returns the kept blocks' breakdowns
    /// and the rejected block's error.
    fn connect_window(&mut self, blocks: &[S::Block]) -> (Vec<Breakdown>, Result<(), S::Error>) {
        // Helper threads borrow the pubkey cache and their own chunks;
        // this thread keeps `&mut` access to the chain, the state and the
        // undo stack.
        let Node {
            headers,
            state,
            config,
            undo_stack,
            base_height: _,
            pubkey_cache,
            script_cache,
            cumulative,
            probes,
        } = self;
        let probes = *probes;
        probes.window_blocks.record(blocks.len() as u64);
        let workers = worker_count(S::workers(config));
        let mut window = Window {
            first: headers.len(),
            headers,
            state,
            config,
            undo_stack,
            script_cache: script_cache.get_mut().expect("script cache lock"),
            probes,
            staged: Vec::with_capacity(blocks.len()),
        };
        let cache: &PubkeyCache = pubkey_cache;
        // The lowest window block an SV failure has been found in: staging
        // stops once there is one, and a chunk that starts past it is
        // skipped, as no failure in it can be the window's verdict. A hint
        // only (hence `Relaxed`): the verdict comes from the failures the
        // drainers return.
        let failed = AtomicUsize::new(usize::MAX);
        let settle_chunk = |chunk: Vec<SvTask>| {
            if chunk[0].block > failed.load(Ordering::Relaxed) {
                return None;
            }
            let failure = settle(&chunk, cache);
            if let Some(f) = &failure {
                failed.fetch_min(f.block, Ordering::Relaxed);
            }
            failure
        };
        let ((rejected, settling), failures) = feed(workers, settle_chunk, |feed| {
            let mut tasks = Vec::new();
            let mut rejected = None;
            for (i, block) in blocks.iter().enumerate() {
                if failed.load(Ordering::Relaxed) != usize::MAX {
                    break;
                }
                if let Err(err) = window.stage(i, block, &mut tasks) {
                    rejected = Some((i, err));
                    break;
                }
                // More blocks follow, so full chunks go out now and the
                // next block's inputs fill the one after.
                if i + 1 < blocks.len() {
                    while tasks.len() >= SV_BATCH_MAX {
                        let rest = tasks.split_off(SV_BATCH_MAX);
                        feed.push(std::mem::replace(&mut tasks, rest));
                    }
                }
            }
            // The tail is cut as a lone block's inputs are, so a window of
            // one block splits its SV across the workers.
            for chunk in sv_chunks(tasks, workers) {
                feed.push(chunk);
            }
            (rejected, Stopwatch::start())
        });
        let settled = settling.elapsed();
        probes.sv.record(settled.as_nanos() as u64);
        window.settle(blocks, failures, rejected, settled, cumulative)
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
        self.probes.blocks_disconnected.inc();
        trace_event!(self.probes.block_disconnected, height = height);
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

/// A window in progress: the parts of its node the calling thread
/// mutates, and what it keeps of each block it staged until SV settles.
struct Window<'n, S: InputState> {
    headers: &'n mut Vec<BlockHeader>,
    state: &'n mut S,
    config: &'n S::Config,
    undo_stack: &'n mut Vec<S::Undo>,
    script_cache: &'n mut ScriptCache,
    probes: Probes,
    /// Height of the window's first block.
    first: usize,
    staged: Vec<Staged>,
}

/// What a window keeps of a staged block until SV settles.
struct Staged {
    breakdown: Breakdown,
    /// Script-cache keys of the inputs that skipped SV: they leave the
    /// cache if the block stays connected.
    passed: Vec<Hash256>,
    /// Inputs the script cache was asked about and lacked.
    misses: usize,
}

impl<S: InputState> Window<'_, S> {
    /// Every phase of `block` but SV, then its optimistic commit. Its SV
    /// tasks go onto `tasks`, tagged with its window `index`, and its
    /// record onto `staged` before the commit, so a failed commit still
    /// leaves its SV to settle first: within a block, SV precedes commit.
    fn stage(
        &mut self,
        index: usize,
        block: &S::Block,
        tasks: &mut Vec<SvTask>,
    ) -> Result<(), S::Error> {
        let probes = self.probes;
        let height = self.headers.len() as u32;
        // Per-block trace span, keyed by height: inert (one thread-local
        // peek) unless a caller entered a trace context.
        let _block_span = SpanGuard::enter(probes.block, u64::from(height));
        let mut breakdown = Breakdown::default();

        // ---- "others": tip and structure checks -------------------------
        let structure = Span::new(probes.structure, Some(&mut breakdown.others));
        let tip = self.headers.last().expect("genesis present").hash();
        if S::header(block).prev_block_hash != tip {
            return Err(Rejection::NotOnTip.into());
        }
        S::check_structure(block, self.config)?;
        drop(structure);

        // ---- resolve: EV + UV, or the DBO fetch -------------------------
        let mut resolved = S::Resolved::default();
        let spends = self
            .state
            .resolve(self.headers, block, &mut resolved, &mut breakdown)?;

        // ---- "others": value conservation + sighash midstates -----------
        // One pass per transaction: sum input/output values and hash the
        // sighash prefix every input of that transaction shares, so SV
        // never re-serializes the outputs once per input.
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

        // ---- SV, queued ---------------------------------------------------
        // Inputs whose exact digest and scripts passed SV at admission
        // skip it; the rest queue in order, each owning its scripts, to
        // settle with the window.
        let queued = Stopwatch::start();
        let leaving = self.staged.iter().map(|s| s.passed.len()).sum();
        let (pending, passed, misses) =
            unverified(self.script_cache, leaving, &spends, &digests, &txs);
        tasks.extend(
            pending
                .into_iter()
                .map(|s| SvTask::new(index, s, &digests, &txs)),
        );
        breakdown.sv += queued.elapsed();
        self.staged.push(Staged {
            breakdown,
            passed,
            misses,
        });

        // ---- commit: the state, then the header and the undo record -------
        let breakdown = &mut self.staged.last_mut().expect("just staged").breakdown;
        let undo = self.state.commit(block, height, resolved, breakdown)?;
        self.headers.push(*S::header(block));
        self.undo_stack.push(undo);
        Ok(())
    }

    /// Judge the window once SV settled. The verdict is the lowest block
    /// with an SV failure, at its minimum `(tx, input)`, or else the block
    /// staging rejected. Blocks from the verdict's on are undone; only the
    /// blocks that stay connected leave side effects: their script-cache
    /// entries go, and they count as connected. Returns the kept blocks'
    /// breakdowns, the last carrying the window's settle wait `settled`.
    fn settle(
        self,
        blocks: &[S::Block],
        failures: Vec<SvFailure>,
        rejected: Option<(usize, S::Error)>,
        settled: Duration,
        cumulative: &mut Breakdown,
    ) -> (Vec<Breakdown>, Result<(), S::Error>) {
        let sv_failure = failures
            .into_iter()
            .min_by_key(|f| (f.block, f.tx, f.input));
        // `looked_up`: the blocks whose script-cache lookups count, as one
        // block at a time would have made them — every block up to the
        // verdict's that reached SV.
        let (kept, looked_up, mut result) = match (sv_failure, rejected) {
            (Some(f), _) => {
                let err = Rejection::SvFailed {
                    tx: f.tx,
                    input: f.input,
                    err: f.err,
                };
                (f.block, f.block + 1, Err(err.into()))
            }
            (None, Some((index, err))) => (index, self.staged.len(), Err(err)),
            (None, None) => (blocks.len(), self.staged.len(), Ok(())),
        };
        let keep = self.first + kept;
        if self.headers.len() > keep {
            self.probes.window_rollbacks.inc();
        }
        while self.headers.len() > keep {
            let undo = self.undo_stack.pop().expect("a committed block's undo");
            self.headers.pop();
            if let Err(err) = self.state.disconnect(self.headers.len() as u32, undo) {
                result = Err(err);
                break;
            }
        }

        let judged = &self.staged[..looked_up];
        counter!("sv.script_cache.hits").add(judged.iter().map(|s| s.passed.len() as u64).sum());
        counter!("sv.script_cache.misses").add(judged.iter().map(|s| s.misses as u64).sum());
        let mut breakdowns = Vec::with_capacity(kept);
        for staged in self.staged.into_iter().take(kept) {
            for key in &staged.passed {
                self.script_cache.remove(key);
            }
            breakdowns.push(staged.breakdown);
        }
        if let Some(last) = breakdowns.last_mut() {
            last.sv += settled;
        }
        for breakdown in &breakdowns {
            self.probes.blocks_connected.inc();
            self.probes
                .block_total
                .record(breakdown.total().as_nanos() as u64);
            *cumulative += *breakdown;
        }
        if kept > 0 {
            self.state.connected(self.first as u32, &blocks[..kept]);
        }
        (breakdowns, result)
    }
}

/// One input's SV job, owning its scripts: it settles after its block's
/// commit has consumed what `resolve` found, the baseline's locking
/// scripts among it.
struct SvTask {
    /// Its block's index in the window.
    block: usize,
    tx: usize,
    input: usize,
    digest: Hash256,
    lock_time: u32,
    unlocking: Script,
    locking: Script,
}

impl SvTask {
    fn new(
        block: usize,
        spend: &Spend<'_>,
        digests: &[(SpendSighashMidstate, u64)],
        txs: &[TxFields<'_>],
    ) -> SvTask {
        let job = sv_job(spend, digests, txs);
        SvTask {
            block,
            tx: spend.tx,
            input: spend.input,
            digest: job.digest,
            lock_time: job.lock_time,
            unlocking: spend.unlocking.clone(),
            locking: spend.locking.clone(),
        }
    }

    fn job(&self) -> SvJob<'_> {
        SvJob {
            digest: self.digest,
            lock_time: self.lock_time,
            unlocking: &self.unlocking,
            locking: &self.locking,
        }
    }
}

/// An SV failure at input `(tx, input)` of window block `block`.
struct SvFailure {
    block: usize,
    tx: usize,
    input: usize,
    err: ScriptError,
}

/// Settle a chunk's ECDSA through one batch equation and return its first
/// failure. Chunks partition the window's tasks in order, so the failure
/// of the lowest failing chunk is the window's minimum `(block, tx,
/// input)`: the strict path's error.
fn settle(chunk: &[SvTask], cache: &PubkeyCache) -> Option<SvFailure> {
    let jobs: Vec<SvJob<'_>> = chunk.iter().map(SvTask::job).collect();
    sv_chunk_batched(&jobs, cache)
        .into_iter()
        .zip(chunk)
        .find_map(|(result, task)| {
            result.err().map(|err| SvFailure {
                block: task.block,
                tx: task.tx,
                input: task.input,
                err,
            })
        })
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
/// allows, rounded up to a multiple of `workers` so that every worker
/// settles the same number of chunks, with chunk sizes differing by at
/// most one.
fn sv_chunks<T>(mut items: Vec<T>, workers: usize) -> Vec<Vec<T>> {
    let parts = items
        .len()
        .div_ceil(SV_BATCH_MAX)
        .next_multiple_of(workers)
        .min(items.len());
    (0..parts)
        .map(|i| {
            let rest = items.split_off(items.len().div_ceil(parts - i));
            std::mem::replace(&mut items, rest)
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
    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    fn contains(&self, key: &Hash256) -> bool {
        self.young.contains(key) || self.old.contains(key)
    }

    /// Insert `key` into the young generation, keeping each key in one
    /// generation only.
    fn insert(&mut self, key: Hash256) {
        self.old.remove(&key);
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
/// that `cache` says already passed, and count the misses. `leaving` keys
/// of the cache were hit by the window's earlier blocks and leave it at
/// settle; one block at a time, they would be gone already. A cache of
/// nothing else looks nothing up: an empty cache is every node without a
/// mempool. No key of an earlier block can hit again, as UV rejects a
/// second spend of its coordinates first.
fn unverified<'s, 'b>(
    cache: &ScriptCache,
    leaving: usize,
    spends: &'s [Spend<'b>],
    digests: &[(SpendSighashMidstate, u64)],
    txs: &[TxFields<'_>],
) -> (Vec<&'s Spend<'b>>, Vec<Hash256>, usize) {
    if cache.len() == leaving {
        return (spends.iter().collect(), Vec::new(), 0);
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
    let misses = pending.len();
    (pending, passed, misses)
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
        node.script_cache.lock().expect("script cache lock").len()
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
            assert!(cache.len() <= SCRIPT_CACHE_CAPACITY);
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
            let chunks = sv_chunks(items.clone(), workers);
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
