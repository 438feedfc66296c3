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
//! two of them in the lower block. A warm
//! node, whose mempool admitted the transactions first, must leave the
//! script cache's hit and miss totals where the per-block path leaves them.

mod common;

use common::{
    build_chains, fresh_utxos, inflate_baseline_output, inflate_output, relink, strict_oracle,
    tamper, tamper_baseline_signature, tamper_signature,
};
use ebv_chain::Block;
use ebv_core::tidy::EbvBlock;
use ebv_core::{
    BaselineConfig, BaselineError, BaselineNode, EbvConfig, EbvError, EbvNode, Mempool,
    ValidatingNode,
};
use ebv_primitives::hash::sha256d;
use ebv_script::ScriptError;
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
    Stake,
    Merkle,
    Uv,
    Duplicate,
}

use Tamper::*;

const NOT_SV: [Tamper; 7] = [EvHeight, EvForged, Value, Stake, Merkle, Uv, Duplicate];

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
    node: Box<dyn Fn(Option<usize>) -> N + 'c>,
    tamper: TamperFn<N::Block>,
    /// The state a window must leave, beyond the tip.
    state: fn(&N) -> String,
    sv_failure: fn(&N::Error) -> SvFailure,
}

/// Walk the chain in windows of every size, two tampered attempts and
/// then the honest rest per window, through a node per worker count and a
/// per-block reference. Returns how many attempts were rejected for SV
/// and for anything else.
fn differential<N>(subject: &Subject<'_, N>, oracle_chain: &[EbvBlock]) -> [usize; 2]
where
    N: ValidatingNode,
    N::Block: Clone,
{
    let chain = subject.chain;
    let mut rejected = [0; 2];
    for window in WINDOWS {
        let mut reference = (subject.node)(Some(1));
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
                let mut first_bad = blocks.len();
                if attempt < 2 {
                    for (offset, tamper) in plan(round, blocks.len()) {
                        if let Some(bad) = (subject.tamper)(chain, from + offset, tamper) {
                            blocks[offset] = bad;
                            first_bad = first_bad.min(offset);
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

#[test]
fn ebv_windows_match_per_block_connects() {
    let (_, chain) = build_chains(params(160, 0x71d0));
    let subject = Subject {
        chain: &chain,
        node: Box::new(|workers| {
            EbvNode::new(
                &chain[0],
                EbvConfig {
                    workers,
                    ..EbvConfig::default()
                },
            )
        }),
        tamper: tamper_ebv,
        state: |node: &EbvNode| format!("{:?}", node.state_digest()),
        sv_failure: ebv_sv_failure,
    };
    let [sv, other] = differential(&subject, &chain);
    assert!(
        sv >= 20 && other >= 20,
        "too few rejections: {sv} SV, {other} other"
    );
}

#[test]
fn baseline_windows_match_per_block_connects() {
    let (blocks, chain) = build_chains(params(160, 0xba5e));
    let subject = Subject {
        chain: &blocks,
        node: Box::new(|workers| {
            let config = BaselineConfig {
                workers,
                ..BaselineConfig::default()
            };
            BaselineNode::new(&blocks[0], fresh_utxos(), config).expect("genesis")
        }),
        tamper: tamper_baseline,
        // A rolled-back window must leave the UTXO set's count and bytes.
        state: |node: &BaselineNode| {
            let size = node.utxos().size();
            format!("{} outputs, {} bytes", size.count, size.bytes)
        },
        sv_failure: baseline_sv_failure,
    };
    let [sv, other] = differential(&subject, &chain);
    assert!(
        sv >= 20 && other >= 20,
        "too few rejections: {sv} SV, {other} other"
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
        let config = EbvConfig {
            workers,
            ..EbvConfig::default()
        };
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
