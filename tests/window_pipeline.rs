//! Window differential: `connect_blocks` against connecting each block in
//! turn.
//!
//! A window runs every phase but SV on each block in order, commits it
//! optimistically, settles SV in chunks that span blocks on helper threads,
//! and undoes every block from the lowest SV failure on. On both node
//! types, at window sizes 1, 2, 7, 64, 128 and the whole chain and at 1, 2,
//! 3 and the default worker counts, every window must return what a
//! per-block loop returns — `(connected, error)`, an SV error also the
//! strict oracle's — and leave what it leaves: the state (EBV's digest, the
//! baseline UTXO set's count and bytes), the tip, and an undo stack that
//! passes `check_invariants` (one record per block above the boot height,
//! so equal tips mean equal undo depths). Tampered windows put an SV
//! failure before and after EV, value, stake, Merkle, UV and
//! duplicate-spend failures, and SV failures in two blocks of one window,
//! two of them in the lower block. Value sums saturate, so the value
//! tampers include two outputs whose sum passes 2⁶⁴ and a coinbase of
//! `u64::MAX`: both node types must reject them as `ValueImbalance` and
//! `ExcessiveCoinbase`, and admission must refuse such a spend. A warm
//! node, whose mempool admitted the transactions first, must leave the
//! script cache's hit and miss totals where the per-block path leaves them.
//!
//! The callers that connect through windows must return what the same
//! per-block loop returns: `replay_ibd` its periods, failure height, error
//! and state; `parallel_ibd` its state, also past a corrupted checkpoint;
//! `reorg_to` its result and state on a valid branch and on a branch with
//! an SV failure mid-branch, whose old chain it must restore.
//!
//! The baseline runs every comparison twice: on a store whose cache holds
//! the whole set, and on a starved one whose cache holds about eight coins,
//! so that windows, replays and reorgs undo blocks whose coins were
//! evicted, deleted straight to the log and re-inserted. The per-block
//! reference always runs on the roomy store, so a store fault that only
//! shows under eviction cannot hide in both arms.

mod common;

use common::{
    build_chains, corrupt_checkpoint, fork_chain, inflate_baseline_output, inflate_output,
    max_baseline_coinbase, max_coinbase, overflow, overflow_baseline_outputs, overflow_outputs,
    relink, strict_oracle, tamper, tamper_baseline_signature, tamper_signature,
};
use ebv_chain::Block;
use ebv_core::tidy::EbvBlock;
use ebv_core::validate::{InputState, Node};
use ebv_core::{
    build_checkpoints, parallel_ibd, reorg_to, replay_ibd, BaselineConfig, BaselineError,
    BaselineNode, EbvConfig, EbvError, EbvNode, Intermediary, Mempool, MempoolError, ReorgError,
    ValidatingNode,
};
use ebv_primitives::hash::{sha256d, Hash256};
use ebv_script::ScriptError;
use ebv_store::{KvStore, StoreConfig, UtxoSet};
use ebv_workload::{GeneratorParams, Ramp};

/// Window sizes under test; `usize::MAX` takes the whole chain at once.
const WINDOWS: [usize; 6] = [1, 2, 7, 64, 128, usize::MAX];

/// Inline, two and three threads, and the default.
const WORKERS: [Option<usize>; 4] = [Some(1), Some(2), Some(3), None];

/// Tiny chains with ~10 inputs per block, so a 7-block window already
/// fills a 64-input chunk and chunks span blocks.
fn params(blocks: u32, seed: u64) -> GeneratorParams {
    GeneratorParams {
        txs_per_block: Ramp::flat(5.0),
        max_inputs_per_tx: 3,
        ..GeneratorParams::tiny(blocks, seed)
    }
}

#[derive(Clone, Copy, Debug)]
enum Tamper {
    Sv,
    /// Two bad signatures in one block, in different chunks when its
    /// inputs are split: the minimum `(tx, input)` must win.
    SvTwice,
    EvHeight,
    EvForged,
    Value,
    /// Two outputs of one spend set to `u64::MAX` and 1: their sum passes
    /// 2⁶⁴ and saturates.
    ValueOverflow,
    /// A coinbase output of `u64::MAX`.
    CoinbaseMax,
    Stake,
    Merkle,
    Uv,
    Duplicate,
}

use Tamper::*;

const NOT_SV: [Tamper; 9] = [
    EvHeight,
    EvForged,
    Value,
    ValueOverflow,
    CoinbaseMax,
    Stake,
    Merkle,
    Uv,
    Duplicate,
];

/// A value-phase rejection, as both node types report it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ValueRejection {
    Imbalance,
    Coinbase,
}

/// The value-phase rejection `kind` must cause on either node type.
fn value_rejection(kind: Tamper) -> Option<ValueRejection> {
    match kind {
        Value | ValueOverflow => Some(ValueRejection::Imbalance),
        CoinbaseMax => Some(ValueRejection::Coinbase),
        _ => None,
    }
}

/// The tampers of attempt `round` at `len` blocks, as `(offset, tamper)`.
fn plan(round: usize, len: usize) -> Vec<(usize, Tamper)> {
    let (mid, last) = ((round * 5) % len, len - 1);
    let other = NOT_SV[round % NOT_SV.len()];
    let mut plan = match round % 5 {
        // An SV failure, then a later block's other failure: SV wins.
        0 => vec![(mid, Sv), (last, other)],
        // Another failure, then a later SV failure: the earlier wins.
        1 => vec![(mid, other), (last, Sv)],
        // SV failures in two blocks, two in the lower one: the lower
        // block's minimum `(tx, input)` wins.
        2 => vec![(mid, SvTwice), (last, Sv)],
        // An SV failure in the last block only.
        3 => vec![(last, Sv)],
        _ => vec![(mid, other)],
    };
    plan.dedup_by_key(|t| t.0);
    plan
}

/// `chain[height]` with `kind` applied to its first spending input, if it
/// has one (and, for UV, an earlier block has an input to copy).
fn tamper_ebv(chain: &[EbvBlock], height: usize, kind: Tamper) -> Option<EbvBlock> {
    let block = &chain[height];
    let mut b = block.clone();
    let tx = b.transactions.get_mut(1)?;
    match kind {
        Sv => return Some(tamper_signature(block, 1, 0)),
        SvTwice => {
            let once = tamper_signature(block, 1, 0);
            let last = once.transactions.len() - 1;
            let input = once.transactions[last].bodies.len() - 1;
            if (last, input) == (1, 0) {
                return Some(once);
            }
            return Some(tamper_signature(&once, last, input));
        }
        Value => return Some(inflate_output(block, 1)),
        ValueOverflow => return overflow_outputs(block),
        CoinbaseMax => return Some(max_coinbase(block)),
        // `tamper`'s modes: a nonexistent height, a forged `ELs`, a lying
        // stake position, a bogus Merkle root.
        EvHeight => return Some(tamper(block, 0)),
        EvForged => return Some(tamper(block, 1)),
        Stake => return Some(tamper(block, 4)),
        Merkle => return Some(tamper(block, 5)),
        // An input an earlier block spent.
        Uv => tx.bodies.push(
            chain[1..height]
                .iter()
                .rev()
                .find_map(|e| e.transactions.get(1))?
                .bodies[0]
                .clone(),
        ),
        Duplicate => {
            let first = tx.bodies[0].clone();
            tx.bodies.push(first);
        }
    }
    relink(&mut b, 1);
    Some(b)
}

/// The baseline twin of [`tamper_ebv`]. With no proofs and no stake
/// positions, EV becomes an outpoint nobody created and the stake tamper a
/// coinbase that claims more than subsidy plus fees.
fn tamper_baseline(chain: &[Block], height: usize, kind: Tamper) -> Option<Block> {
    let block = &chain[height];
    let mut b = block.clone();
    let tx = b.transactions.get_mut(1)?;
    match kind {
        Sv => return Some(tamper_baseline_signature(block, 1, 0)),
        SvTwice => {
            let once = tamper_baseline_signature(block, 1, 0);
            let last = once.transactions.len() - 1;
            let input = once.transactions[last].inputs.len() - 1;
            if (last, input) == (1, 0) {
                return Some(once);
            }
            return Some(tamper_baseline_signature(&once, last, input));
        }
        Value => return Some(inflate_baseline_output(block, 1)),
        ValueOverflow => return overflow_baseline_outputs(block),
        CoinbaseMax => return Some(max_baseline_coinbase(block)),
        EvHeight | EvForged => tx.inputs[0].prevout.txid = sha256d(b"no such transaction"),
        Stake => b.transactions[0].outputs[0].value = u64::MAX / 2,
        Merkle => {
            b.header.merkle_root = sha256d(b"bogus root");
            return Some(b);
        }
        Uv => tx.inputs.push(
            chain[1..height]
                .iter()
                .rev()
                .find_map(|e| e.transactions.get(1))?
                .inputs[0]
                .clone(),
        ),
        Duplicate => {
            let first = tx.inputs[0].clone();
            tx.inputs.push(first);
        }
    }
    b.header.merkle_root = b.compute_merkle_root();
    Some(b)
}

/// Connect `blocks` one at a time: what a window must reproduce.
fn per_block<N: ValidatingNode>(
    node: &mut N,
    blocks: &[N::Block],
) -> (usize, Result<(), N::Error>) {
    for (connected, block) in blocks.iter().enumerate() {
        if let Err(err) = node.connect_block(block) {
            return (connected, Err(err));
        }
    }
    (blocks.len(), Ok(()))
}

/// `chain[height]` with a tamper applied, if it applies.
type TamperFn<B> = fn(&[B], usize, Tamper) -> Option<B>;

/// `(tx, input, err)` of an SV rejection.
type SvFailure = Option<(usize, usize, ScriptError)>;

/// One node type's view of the differential.
struct Subject<'c, N: ValidatingNode> {
    chain: &'c [N::Block],
    /// A node under test, at the given SV worker count.
    node: Box<dyn Fn(Option<usize>) -> N + 'c>,
    /// A per-block reference node. The baseline's is on a roomy store
    /// whatever the node under test's, so the two share no store fault.
    reference: Box<dyn Fn(Option<usize>) -> N + 'c>,
    tamper: TamperFn<N::Block>,
    /// The state a window must leave, beyond the tip.
    state: fn(&N) -> String,
    sv_failure: fn(&N::Error) -> SvFailure,
    value_rejection: fn(&N::Error) -> Option<ValueRejection>,
    /// Point a block's `prev_block_hash` at the given hash.
    relink: fn(&mut N::Block, Hash256),
}

/// Walk the chain in windows of every size, two tampered attempts and
/// then the honest rest per window, through a node per worker count and a
/// per-block reference. Returns how many attempts were rejected for SV,
/// for anything else, and of those for a value imbalance and an excessive
/// coinbase that a value tamper caused.
fn differential<N>(subject: &Subject<'_, N>, oracle_chain: &[EbvBlock]) -> [usize; 4]
where
    N: ValidatingNode,
    N::Block: Clone,
{
    let chain = subject.chain;
    let mut rejected = [0; 4];
    for window in WINDOWS {
        let mut reference = (subject.reference)(Some(1));
        let mut nodes: Vec<N> = WORKERS.iter().map(|&w| (subject.node)(w)).collect();
        let (mut start, mut round) = (1, 0);
        while start < chain.len() {
            let end = chain.len().min(start.saturating_add(window));
            for attempt in 0..3 {
                let from = reference.tip_height() as usize + 1;
                if from == end {
                    break;
                }
                let mut blocks = chain[from..end].to_vec();
                let (mut first_bad, mut first_kind) = (blocks.len(), None);
                if attempt < 2 {
                    for (offset, tamper) in plan(round, blocks.len()) {
                        if let Some(bad) = (subject.tamper)(chain, from + offset, tamper) {
                            blocks[offset] = bad;
                            if offset < first_bad {
                                (first_bad, first_kind) = (offset, Some(tamper));
                            }
                        }
                    }
                    round += 1;
                }
                let (connected, result) = per_block(&mut reference, &blocks);
                let at = format!("window {window}, blocks {from}..{end}");
                assert_eq!(connected, first_bad, "{at}: {result:?}");
                if let Err(err) = &result {
                    let sv = (subject.sv_failure)(err);
                    rejected[usize::from(sv.is_none())] += 1;
                    if sv.is_some() {
                        let tampered = tamper_signature(&oracle_chain[from + connected], 1, 0);
                        assert_eq!(sv, strict_oracle(&tampered), "{at}");
                    }
                    if let Some(want) = first_kind.and_then(value_rejection) {
                        assert_eq!((subject.value_rejection)(err), Some(want), "{at}: {err:?}");
                        rejected[2 + want as usize] += 1;
                    }
                }
                let want = (connected, format!("{result:?}"));
                for (node, workers) in nodes.iter_mut().zip(WORKERS) {
                    let at = format!("{at}, workers {workers:?}");
                    let (got, result) = node.connect_blocks(&blocks);
                    assert_eq!((got, format!("{result:?}")), want, "{at}");
                    assert_eq!(node.tip_hash(), reference.tip_hash(), "{at}");
                    assert_eq!((subject.state)(node), (subject.state)(&reference), "{at}");
                    node.check_invariants()
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                }
            }
            start = end;
        }
        assert_eq!(reference.tip_height() as usize, chain.len() - 1);
    }
    rejected
}

fn ebv_sv_failure(e: &EbvError) -> SvFailure {
    match *e {
        EbvError::SvFailed { tx, input, err } => Some((tx, input, err)),
        _ => None,
    }
}

fn baseline_sv_failure(e: &BaselineError) -> SvFailure {
    match *e {
        BaselineError::SvFailed { tx, input, err } => Some((tx, input, err)),
        _ => None,
    }
}

fn ebv_value_rejection(e: &EbvError) -> Option<ValueRejection> {
    match e {
        EbvError::ValueImbalance { .. } => Some(ValueRejection::Imbalance),
        EbvError::ExcessiveCoinbase => Some(ValueRejection::Coinbase),
        _ => None,
    }
}

fn baseline_value_rejection(e: &BaselineError) -> Option<ValueRejection> {
    match e {
        BaselineError::ValueImbalance { .. } => Some(ValueRejection::Imbalance),
        BaselineError::ExcessiveCoinbase => Some(ValueRejection::Coinbase),
        _ => None,
    }
}

fn ebv_subject(chain: &[EbvBlock]) -> Subject<'_, EbvNode> {
    Subject {
        chain,
        node: Box::new(|workers| EbvNode::new(&chain[0], EbvConfig { workers })),
        reference: Box::new(|workers| EbvNode::new(&chain[0], EbvConfig { workers })),
        tamper: tamper_ebv,
        state: |node: &EbvNode| format!("{:?}", node.state_digest()),
        sv_failure: ebv_sv_failure,
        value_rejection: ebv_value_rejection,
        relink: |block, prev| block.header.prev_block_hash = prev,
    }
}

/// A store cache that holds every chain's whole UTXO set.
const ROOMY_CACHE: usize = 1 << 20;

/// A store cache of 1 KiB, about eight coins: a third of an honest
/// chain's fetches miss it.
const STARVED_CACHE: usize = 1 << 10;

fn baseline_subject(blocks: &[Block]) -> Subject<'_, BaselineNode> {
    baseline_subject_with_cache(blocks, ROOMY_CACHE)
}

/// A baseline node over a store whose cache holds `cache` bytes.
fn baseline_node(blocks: &[Block], cache: usize, workers: Option<usize>) -> BaselineNode {
    let store = KvStore::open(StoreConfig::with_budget(cache)).expect("temp store opens");
    BaselineNode::new(&blocks[0], UtxoSet::new(store), BaselineConfig { workers }).expect("genesis")
}

/// The baseline over a store whose cache holds `cache` bytes, against a
/// reference on [`ROOMY_CACHE`].
fn baseline_subject_with_cache(blocks: &[Block], cache: usize) -> Subject<'_, BaselineNode> {
    Subject {
        chain: blocks,
        node: Box::new(move |workers| baseline_node(blocks, cache, workers)),
        reference: Box::new(move |workers| baseline_node(blocks, ROOMY_CACHE, workers)),
        tamper: tamper_baseline,
        // A rolled-back window must leave the UTXO set's count and bytes.
        state: |node: &BaselineNode| {
            let size = node.utxos().size();
            format!("{} outputs, {} bytes", size.count, size.bytes)
        },
        sv_failure: baseline_sv_failure,
        value_rejection: baseline_value_rejection,
        relink: |block, prev| block.header.prev_block_hash = prev,
    }
}

#[test]
fn ebv_windows_match_per_block_connects() {
    let (_, chain) = build_chains(params(160, 0x71d0));
    let [sv, other, imbalance, coinbase] = differential(&ebv_subject(&chain), &chain);
    assert!(
        sv >= 20 && other >= 20,
        "too few rejections: {sv} SV, {other} other"
    );
    assert!(
        imbalance >= 4 && coinbase >= 2,
        "too few value rejections: {imbalance} imbalance, {coinbase} coinbase"
    );
}

#[test]
fn baseline_windows_match_per_block_connects() {
    let (blocks, chain) = build_chains(params(160, 0xba5e));
    let [sv, other, imbalance, coinbase] = differential(&baseline_subject(&blocks), &chain);
    assert!(
        sv >= 20 && other >= 20,
        "too few rejections: {sv} SV, {other} other"
    );
    assert!(
        imbalance >= 4 && coinbase >= 2,
        "too few value rejections: {imbalance} imbalance, {coinbase} coinbase"
    );
}

/// The cache misses of a baseline node that connects the subject's honest
/// chain block by block. An honest block fetches only coins that exist,
/// so each miss reads back a coin the cache evicted.
fn honest_cache_misses(subject: &Subject<'_, BaselineNode>) -> u64 {
    let mut node = (subject.node)(None);
    let blocks = &subject.chain[1..];
    assert_eq!(per_block(&mut node, blocks).0, blocks.len());
    node.utxos().stats().cache_misses
}

#[test]
fn starved_baseline_windows_match_per_block_connects() {
    let (blocks, chain) = build_chains(params(160, 0xba5e));
    let subject = baseline_subject_with_cache(&blocks, STARVED_CACHE);
    assert!(honest_cache_misses(&subject) > 0, "the store never misses");
    let [sv, other, imbalance, coinbase] = differential(&subject, &chain);
    assert!(
        sv >= 20 && other >= 20,
        "too few rejections: {sv} SV, {other} other"
    );
    assert!(
        imbalance >= 4 && coinbase >= 2,
        "too few value rejections: {imbalance} imbalance, {coinbase} coinbase"
    );
}

#[test]
fn warm_windows_count_the_script_cache_as_per_block_connects() {
    let (_, chain) = build_chains(params(60, 0x3a7));
    // Only this test fills a script cache, so within this binary it alone
    // moves the cache's counters.
    let hits = ebv_telemetry::counter("sv.script_cache.hits");
    let misses = ebv_telemetry::counter("sv.script_cache.misses");
    ebv_telemetry::set_enabled(true);
    let counts = || (hits.get(), misses.get());
    let since = |before: (u64, u64)| (hits.get() - before.0, misses.get() - before.1);
    let (mut hit_in_rejected, mut round) = (0, 0);
    for workers in WORKERS {
        let config = EbvConfig { workers };
        let mut windowed = EbvNode::new(&chain[0], config);
        let mut reference = EbvNode::new(&chain[0], config);
        for start in (1..chain.len()).step_by(8) {
            let end = chain.len().min(start + 8);
            // Both nodes admit every transaction whose inputs are already
            // on chain; the rest of the window's inputs miss.
            for node in [&windowed, &reference] {
                let mut pool = Mempool::new();
                for tx in chain[start..end].iter().flat_map(|b| &b.transactions[1..]) {
                    let _ = pool.accept(node, tx.clone());
                }
            }
            // A tampered attempt, then the honest rest.
            for attempt in 0..2 {
                let from = reference.tip_height() as usize + 1;
                let mut blocks = chain[from..end].to_vec();
                if attempt == 0 {
                    for (offset, tamper) in plan(round, blocks.len()) {
                        if let Some(bad) = tamper_ebv(&chain, from + offset, tamper) {
                            blocks[offset] = bad;
                        }
                    }
                    round += 1;
                }
                let before = counts();
                let (connected, result) = windowed.connect_blocks(&blocks);
                let window_counts = since(before);
                let before = counts();
                let want = per_block(&mut reference, &blocks);
                let per_block_counts = since(before);
                let at = format!("workers {workers:?}, blocks {from}..{end}");
                assert_eq!((connected, &result), (want.0, &want.1), "{at}");
                assert_eq!(window_counts, per_block_counts, "{at}");
                assert_eq!(windowed.state_digest(), reference.state_digest(), "{at}");
                if result.is_err() {
                    hit_in_rejected += window_counts.0;
                }
            }
        }
    }
    ebv_telemetry::set_enabled(false);
    assert!(
        hit_in_rejected > 40,
        "too few hits in rejected windows: {hit_in_rejected}"
    );
}

/// Admission reads value sums as the block path does: a spend whose two
/// outputs sum past 2⁶⁴ saturates to more than its inputs and is refused
/// with `ValueImbalance`.
#[test]
fn admission_refuses_outputs_that_sum_past_u64() {
    let (_, chain) = build_chains(params(40, 0x0f10));
    let mut node = EbvNode::new(&chain[0], EbvConfig::default());
    let mut refused = 0;
    for block in &chain[1..] {
        for tx in &block.transactions[1..] {
            // Only spends of outputs already on chain are admissible.
            if tx.tidy.outputs.len() < 2 || Mempool::new().accept(&node, tx.clone()).is_err() {
                continue;
            }
            let mut bad = tx.clone();
            overflow(&mut bad.tidy.outputs);
            assert_eq!(
                Mempool::new().accept(&node, bad),
                Err(MempoolError::ValueImbalance)
            );
            refused += 1;
        }
        node.connect_block(block).expect("an honest block connects");
    }
    assert!(refused >= 10, "too few two-output spends: {refused}");
}

/// The subject's chain with each `(height, tamper)` applied, and the blocks
/// above relinked onto it, so they stage and only validation stops them.
fn tampered<N: ValidatingNode>(
    subject: &Subject<'_, N>,
    tampers: &[(usize, Tamper)],
) -> Vec<N::Block>
where
    N::Block: Clone,
{
    let mut chain = subject.chain.to_vec();
    for &(height, kind) in tampers {
        chain[height] = (subject.tamper)(subject.chain, height, kind).expect("a spending block");
    }
    for h in 1..chain.len() {
        let prev = N::block_hash(&chain[h - 1]);
        (subject.relink)(&mut chain[h], prev);
    }
    chain
}

/// The first height from `from` on whose block has a spending transaction.
fn spending_height(chain: &[EbvBlock], from: usize) -> usize {
    (from..chain.len())
        .find(|&h| chain[h].transactions.len() > 1)
        .expect("a block with a spending transaction")
}

/// Blocks per `replay_ibd` period: more than one window, so a period holds
/// a full window and a short one.
const PERIOD: usize = 150;

/// Replay the tampered chain with `replay_ibd` and with a per-block loop cut
/// into the same periods: the periods' heights, the failure height, the
/// error, the tip and the state must agree.
fn replay_matches_per_block<S: InputState>(
    subject: &Subject<'_, Node<S>>,
    tampers: &[(usize, Tamper)],
) where
    S::Block: Clone,
{
    let chain = tampered(subject, tampers);
    let mut reference = (subject.reference)(None);
    let mut want = (Vec::new(), None);
    for period in chain[1..].chunks(PERIOD) {
        let start = reference.tip_height() + 1;
        let (_, result) = per_block(&mut reference, period);
        if reference.tip_height() >= start {
            want.0.push((start, reference.tip_height()));
        }
        if let Err(err) = result {
            want.1 = Some((reference.tip_height() + 1, format!("{err:?}")));
            break;
        }
    }
    let mut windowed = (subject.node)(None);
    let (periods, failure) = match replay_ibd(&mut windowed, &chain[1..], PERIOD) {
        Ok(periods) => (periods, None),
        Err(f) => (f.completed, Some((f.failed_at, format!("{:?}", f.error)))),
    };
    let heights: Vec<_> = periods
        .iter()
        .map(|p| (p.start_height, p.end_height))
        .collect();
    assert_eq!((heights, failure), want, "{tampers:?}");
    assert_eq!(windowed.tip_hash(), reference.tip_hash());
    assert_eq!((subject.state)(&windowed), (subject.state)(&reference));
    windowed.check_invariants().expect("invariants hold");
}

/// The tampers each `replay_ibd` comparison runs under: an SV failure in a
/// period's second window, which undoes the blocks it staged above it; a
/// value failure that stops staging; an SV failure in the last, short
/// period; both of the first two; none.
fn replay_cases(chain: &[EbvBlock]) -> [Vec<(usize, Tamper)>; 5] {
    let (sv, value, late) = (
        spending_height(chain, 140),
        spending_height(chain, 100),
        spending_height(chain, 155),
    );
    [
        vec![(sv, Sv)],
        vec![(value, Value)],
        vec![(late, Sv)],
        vec![(sv, Sv), (value, Value)],
        vec![],
    ]
}

#[test]
fn replay_ibd_matches_per_block_replay() {
    let (blocks, chain) = build_chains(params(160, 0x1bd));
    for tampers in &replay_cases(&chain) {
        replay_matches_per_block(&ebv_subject(&chain), tampers);
        replay_matches_per_block(&baseline_subject(&blocks), tampers);
    }
}

#[test]
fn starved_baseline_replay_ibd_matches_per_block_replay() {
    let (blocks, chain) = build_chains(params(160, 0x1bd));
    let subject = baseline_subject_with_cache(&blocks, STARVED_CACHE);
    assert!(honest_cache_misses(&subject) > 0, "the store never misses");
    for tampers in &replay_cases(&chain) {
        replay_matches_per_block(&subject, tampers);
    }
}

#[test]
fn parallel_ibd_reaches_the_per_block_state() {
    let (_, chain) = build_chains(params(160, 0x9a1));
    let mut reference = EbvNode::new(&chain[0], EbvConfig::default());
    assert_eq!(per_block(&mut reference, &chain[1..]).0, chain.len() - 1);
    let run = |checkpoints: &[_], workers| {
        let run = parallel_ibd(
            &chain[0],
            &chain[1..],
            checkpoints,
            workers,
            EbvConfig::default(),
        )
        .expect("a valid chain replays");
        assert_eq!(run.node.tip_hash(), reference.tip_hash());
        assert_eq!(run.node.state_digest(), reference.state_digest());
        run.stitch_mismatch
    };
    for every in [60, 97] {
        let checkpoints = build_checkpoints(&chain[0], &chain[1..], every).expect("consistent");
        for workers in [1, 2] {
            assert_eq!(
                run(&checkpoints, workers),
                None,
                "K={every}, {workers} workers"
            );
        }
    }
    // Only the stitch can tell a checkpoint that spends an output the chain
    // never spends; the fallback replays the rest through windows.
    let mut checkpoints = build_checkpoints(&chain[0], &chain[1..], 60).expect("consistent");
    checkpoints[1] = corrupt_checkpoint(&checkpoints[1], &reference);
    assert_eq!(run(&checkpoints, 2), Some(1));
}

/// Put a node on `old` above `fork`, then reorg onto `branch` with
/// `reorg_to` and with a per-block reorg: unwind, connect the branch a block
/// at a time and, if a block fails, unwind again and reconnect `old`.
/// Results and states must agree. Returns the failed height and whether
/// the old chain was restored.
fn reorg_matches_per_block<N: ValidatingNode>(
    subject: &Subject<'_, N>,
    fork: usize,
    old: &[N::Block],
    branch: &[N::Block],
) -> Result<u32, (u32, bool)> {
    let [mut windowed, mut reference] = [(subject.node)(None), (subject.reference)(None)];
    for node in [&mut windowed, &mut reference] {
        assert_eq!(per_block(node, &subject.chain[1..=fork]).0, fork);
        assert_eq!(per_block(node, old).0, old.len());
    }
    let got = match reorg_to(&mut windowed, fork as u32, branch, old) {
        Ok(tip) => Ok(tip),
        Err(ReorgError::InvalidBranch {
            height,
            err,
            restored,
        }) => Err((height, format!("{err:?}"), restored)),
        Err(other) => panic!("unexpected reorg failure: {other}"),
    };
    let unwind = |node: &mut N| {
        while node.tip_height() > fork as u32 {
            node.disconnect_tip_block().expect("unwinds");
        }
    };
    unwind(&mut reference);
    let want = match per_block(&mut reference, branch) {
        (_, Ok(())) => Ok(reference.tip_height()),
        (_, Err(err)) => {
            let height = reference.tip_height() + 1;
            unwind(&mut reference);
            Err((
                height,
                format!("{err:?}"),
                per_block(&mut reference, old).1.is_ok(),
            ))
        }
    };
    assert_eq!(got, want);
    assert_eq!(windowed.tip_hash(), reference.tip_hash());
    assert_eq!((subject.state)(&windowed), (subject.state)(&reference));
    windowed.check_invariants().expect("invariants hold");
    got.map_err(|(height, _, restored)| (height, restored))
}

/// The height the reorg comparisons fork at, 20 blocks below the tip.
const FORK: usize = 30;

/// The reorg comparisons' chains: the main chain in both formats and a
/// side branch of 5 empty blocks above [`FORK`].
fn reorg_chains() -> (Vec<Block>, Vec<EbvBlock>, Vec<Block>) {
    let (blocks, chain) = build_chains(params(FORK as u32 + 20, 0x4e0));
    let side = fork_chain(&blocks, FORK as u32, 5, 7_000_000);
    (blocks, chain, side)
}

/// Reorg from `side` onto the subject's chain, whole and with an SV
/// failure mid-branch at `bad`, where the window stages the blocks above
/// it and then undoes them with the branch.
fn reorgs_onto<N: ValidatingNode>(subject: &Subject<'_, N>, side: &[N::Block], bad: usize)
where
    N::Block: Clone,
{
    for tampers in [vec![], vec![(bad, Sv)]] {
        let want = if tampers.is_empty() {
            Ok(subject.chain.len() as u32 - 1)
        } else {
            Err((bad as u32, true))
        };
        let branch = tampered(subject, &tampers);
        assert_eq!(
            reorg_matches_per_block(subject, FORK, &side[FORK + 1..], &branch[FORK + 1..]),
            want
        );
    }
}

#[test]
fn reorgs_match_per_block_reorgs() {
    let (blocks, chain, side) = reorg_chains();
    let side_ebv = Intermediary::new(0).convert_chain(&side).expect("converts");
    let bad = spending_height(&chain, FORK + 10);
    reorgs_onto(&ebv_subject(&chain), &side_ebv, bad);
    reorgs_onto(&baseline_subject(&blocks), &side, bad);
}

#[test]
fn starved_baseline_reorgs_match_per_block_reorgs() {
    let (blocks, chain, side) = reorg_chains();
    let subject = baseline_subject_with_cache(&blocks, STARVED_CACHE);
    assert!(honest_cache_misses(&subject) > 0, "the store never misses");
    reorgs_onto(&subject, &side, spending_height(&chain, FORK + 10));
}
