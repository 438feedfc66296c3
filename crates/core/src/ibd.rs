//! Initial Block Download (IBD) drivers.
//!
//! Replays a chain through a validator node, recording per-period phase
//! breakdowns — the measurement loop behind the paper's Figs. 5 and 17 —
//! and the snapshot-parallel out-of-order variant: checkpoints every K
//! blocks ([`build_checkpoints`]), contiguous intervals replayed on worker
//! threads from their starting checkpoint, and a stitcher that accepts the
//! assembled chain only where each interval's final state is byte-identical
//! to its successor's starting snapshot ([`parallel_ibd`]).

use crate::bitvec::{BitVectorSet, BitVectorSnapshot, UvError};
use crate::ebv_node::{EbvConfig, EbvError, EbvNode, SnapshotError};
use crate::metrics::Breakdown;
use crate::par::feed;
use crate::sync::SYNC_BATCH;
use crate::tidy::EbvBlock;
use crate::validate::{InputState, Node};
use ebv_primitives::encode::Encodable;
use ebv_telemetry::{counter, histogram, trace_event, Stopwatch};
use std::time::Duration;

/// A failed IBD run with everything measured before the failure.
///
/// The replay loops used to discard all completed periods on a mid-chunk
/// error, leaving a multi-hour run undiagnosable; now the periods gathered
/// so far (including the partially filled one the failing block fell in)
/// ride along with the error.
#[derive(Clone, Debug)]
pub struct IbdFailure<P, E> {
    /// Periods completed before the failure, the in-progress one last.
    pub completed: Vec<P>,
    /// Height of the block that failed validation.
    pub failed_at: u32,
    /// The underlying validation error.
    pub error: E,
}

impl<P, E: std::fmt::Display> std::fmt::Display for IbdFailure<P, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IBD failed at height {} after {} completed periods: {}",
            self.failed_at,
            self.completed.len(),
            self.error
        )
    }
}

impl<P, E> std::error::Error for IbdFailure<P, E>
where
    P: std::fmt::Debug,
    E: std::error::Error + 'static,
{
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Stats for one IBD period.
#[derive(Clone, Copy, Debug, Default)]
pub struct Period {
    /// First block height in the period (inclusive).
    pub start_height: u32,
    /// Last block height in the period (inclusive).
    pub end_height: u32,
    /// Summed validation breakdown over the period.
    pub breakdown: Breakdown,
    /// Wall-clock time for the period (includes block decode/apply glue).
    pub wall: Duration,
}

/// Replay `blocks` (heights `1..`) into a freshly booted node of either
/// type, reporting one entry per `period_len` blocks. Each period connects
/// in windows of at most [`SYNC_BATCH`] blocks, the batch `sync_multi`
/// validates, and sums the kept blocks' breakdowns. On a validation
/// failure the periods measured so far are returned inside the error, the
/// partial one ending below the rejected block.
pub fn replay_ibd<S: InputState>(
    node: &mut Node<S>,
    blocks: &[S::Block],
    period_len: usize,
) -> Result<Vec<Period>, IbdFailure<Period, S::Error>> {
    assert!(period_len > 0);
    let mut periods = Vec::new();
    for chunk in blocks.chunks(period_len) {
        let start_height = node.tip_height() + 1;
        let wall_start = Stopwatch::start();
        let (breakdown, result) = connect_windows(node, chunk);
        if node.tip_height() >= start_height {
            periods.push(Period {
                start_height,
                end_height: node.tip_height(),
                breakdown,
                wall: wall_start.elapsed(),
            });
        }
        if let Err(error) = result {
            return Err(IbdFailure {
                completed: periods,
                failed_at: node.tip_height() + 1,
                error,
            });
        }
        ebv_telemetry::health::heartbeat("ibd.period.progress");
    }
    Ok(periods)
}

/// Connect `blocks` in windows of at most [`SYNC_BATCH`] blocks, stopping
/// at the first rejected block. Returns the kept blocks' summed breakdown
/// and the rejection.
fn connect_windows<S: InputState>(
    node: &mut Node<S>,
    blocks: &[S::Block],
) -> (Breakdown, Result<(), S::Error>) {
    let mut breakdown = Breakdown::default();
    for window in blocks.chunks(SYNC_BATCH as usize) {
        let (kept, result) = node.connect_window(window);
        kept.into_iter().for_each(|b| breakdown += b);
        if result.is_err() {
            return (breakdown, result);
        }
    }
    (breakdown, Ok(()))
}

// ---------------------------------------------------------------------
// Snapshot-parallel out-of-order IBD
// ---------------------------------------------------------------------

/// Why [`build_checkpoints`] could not walk the chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// A block's output count is outside what a bit vector can hold
    /// (`1..=65536`).
    Malformed { height: u32, outputs: u32 },
    /// A spend coordinate was already spent or out of range — the chain
    /// is not internally consistent even structurally.
    Inconsistent { height: u32, err: UvError },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for CheckpointError {}

/// Walk the chain *structurally* — insert each block's vector, apply each
/// input's claimed spend coordinate — and emit a [`BitVectorSnapshot`]
/// every `every` blocks (at heights `every`, `2*every`, …, excluding the
/// tip, where no interval would start).
///
/// No EV/UV/SV runs here: this is the cheap pass that mirrors what an
/// untrusted snapshot provider (a peer, a cache) would hand us. The
/// checkpoints are *candidate* states; [`parallel_ibd`]'s stitcher is what
/// proves each one equals the fully validated state at that height.
pub fn build_checkpoints(
    genesis: &EbvBlock,
    blocks: &[EbvBlock],
    every: usize,
) -> Result<Vec<BitVectorSnapshot>, CheckpointError> {
    assert!(every > 0);
    let mut set = BitVectorSet::new();
    set.insert_block(0, genesis.output_count());
    let mut checkpoints = Vec::new();
    for (i, block) in blocks.iter().enumerate() {
        let height = i as u32 + 1;
        let outputs = block.output_count();
        if outputs == 0 || outputs > 1 << 16 {
            return Err(CheckpointError::Malformed { height, outputs });
        }
        set.insert_block(height, outputs);
        for tx in &block.transactions {
            for body in &tx.bodies {
                if let Some(proof) = &body.proof {
                    set.spend(proof.height, proof.absolute_position())
                        .map_err(|err| CheckpointError::Inconsistent { height, err })?;
                }
            }
        }
        if (height as usize).is_multiple_of(every) && (i + 1) < blocks.len() {
            checkpoints.push(set.snapshot(height, block.header.hash()));
        }
    }
    Ok(checkpoints)
}

/// Wall-clock accounting for one replayed interval.
#[derive(Clone, Copy, Debug)]
pub struct IntervalStat {
    /// Interval index in checkpoint order (the sequential-fallback tail
    /// after a stitch mismatch appears as one extra entry).
    pub index: usize,
    /// First block height replayed (exclusive of the boot state).
    pub start_height: u32,
    /// Last block height replayed (inclusive).
    pub end_height: u32,
    /// Wall-clock time for boot + replay of this interval.
    pub wall: Duration,
}

/// Result of a snapshot-parallel IBD run.
pub struct ParallelIbd {
    /// The assembled node at the chain tip. Its undo stack covers only the
    /// final interval (blocks at or below its boot height cannot be
    /// disconnected), which IBD never needs.
    pub node: EbvNode,
    /// Per-interval wall-clock stats, in interval order.
    pub intervals: Vec<IntervalStat>,
    /// `Some(i)` if interval `i`'s final state differed from checkpoint
    /// `i` and the run fell back to sequential replay from interval `i`'s
    /// verified end state.
    pub stitch_mismatch: Option<usize>,
    /// Wall-clock time of the whole run (scheduling + stitching included).
    pub wall: Duration,
}

/// Why [`parallel_ibd`] gave up (a stitch mismatch alone is *not* fatal —
/// it degrades to sequential replay and is reported in [`ParallelIbd`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParallelIbdError {
    /// The checkpoint list is unusable: heights not strictly ascending or
    /// outside `1..tip`.
    BadCheckpoints(&'static str),
    /// A checkpoint's header chain failed verification at boot.
    Snapshot {
        interval: usize,
        error: SnapshotError,
    },
    /// A block failed full validation against verified prior state.
    Validation {
        interval: usize,
        height: u32,
        error: EbvError,
    },
}

impl std::fmt::Display for ParallelIbdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ParallelIbdError {}

/// Replay `blocks` (heights `1..`) out of order: `checkpoints` split the
/// chain into contiguous intervals, `workers` threads each boot an
/// [`EbvNode`] from their interval's starting snapshot and replay to the
/// interval end, and the stitcher walks the intervals in order asserting
/// each one's final state is **byte-identical** to its successor's
/// starting snapshot.
///
/// Trust works by induction along that walk: interval 0 boots from the
/// (trusted) genesis block, and once stitches `0..i` have all matched,
/// interval `i`'s boot state — checkpoint `i-1` — is exactly the state a
/// sequential replay would have reached, so its blocks were validated
/// against verified state. A mismatch at stitch `i` therefore convicts
/// checkpoint `i` (interval `i`'s *end* is fully verified); the run falls
/// back to sequential replay from that verified end state, reports the
/// offending interval in `stitch_mismatch`, and still finishes with a
/// correct node. Validation failures inside a verified interval are
/// genuine and abort the run.
pub fn parallel_ibd(
    genesis: &EbvBlock,
    blocks: &[EbvBlock],
    checkpoints: &[BitVectorSnapshot],
    workers: usize,
    config: EbvConfig,
) -> Result<ParallelIbd, ParallelIbdError> {
    let total_wall = Stopwatch::start();
    let tip = blocks.len() as u32;
    // Causal root for the run, seeded by the workload shape so same-input
    // runs produce identical trace trees; interval spans nest under it
    // via an explicit parent handoff (worker threads don't inherit the
    // spawning thread's context stack).
    let _ibd_span =
        ebv_telemetry::context::SpanGuard::enter_root("ibd.parallel", 0x1bd ^ u64::from(tip));
    let parent_ctx = ebv_telemetry::context::current();

    // Interval boundaries: genesis, each checkpoint height, the tip.
    // Interval i replays blocks (bounds[i], bounds[i+1]].
    let mut bounds = Vec::with_capacity(checkpoints.len() + 2);
    bounds.push(0u32);
    for cp in checkpoints {
        let h = cp.height();
        if h == 0 || h >= tip {
            return Err(ParallelIbdError::BadCheckpoints(
                "checkpoint height outside 1..tip",
            ));
        }
        if h <= *bounds.last().expect("non-empty") {
            return Err(ParallelIbdError::BadCheckpoints(
                "checkpoint heights not strictly ascending",
            ));
        }
        bounds.push(h);
    }
    bounds.push(tip);
    let n_intervals = bounds.len() - 1;

    // Full header chain: snapshot boots verify it, EV folds against it.
    let mut headers = Vec::with_capacity(blocks.len() + 1);
    headers.push(genesis.header);
    headers.extend(blocks.iter().map(|b| b.header));

    // Replay blocks `(from, to]` onto `node` through windows, as interval
    // `index`, whose wall clock started at `wall`.
    let replay = |node: &mut EbvNode, index: usize, from: u32, to: u32, wall: Stopwatch| {
        let (_, result) = connect_windows(node, &blocks[from as usize..to as usize]);
        result.map_err(|error| {
            let height = node.tip_height() + 1;
            let interval = bounds.partition_point(|&b| b < height) - 1;
            ParallelIbdError::Validation {
                interval,
                height,
                error,
            }
        })?;
        let stat = IntervalStat {
            index,
            start_height: from + 1,
            end_height: to,
            wall: wall.elapsed(),
        };
        histogram!("ibd.interval.wall").record(stat.wall.as_nanos() as u64);
        Ok::<_, ParallelIbdError>(stat)
    };
    type IntervalOutcome = Result<(EbvNode, IntervalStat), ParallelIbdError>;
    let run_interval = |i: usize| -> IntervalOutcome {
        let _interval_span = match parent_ctx {
            Some(ctx) => {
                ebv_telemetry::context::SpanGuard::enter_under(ctx, "ibd.interval", i as u64)
            }
            None => ebv_telemetry::context::SpanGuard::inert(),
        };
        let wall = Stopwatch::start();
        let mut node = if i == 0 {
            EbvNode::new(genesis, config)
        } else {
            let cp = &checkpoints[i - 1];
            EbvNode::from_snapshot(cp, headers[..=cp.height() as usize].to_vec(), config)
                .map_err(|error| ParallelIbdError::Snapshot { interval: i, error })?
        };
        let stat = replay(&mut node, i, bounds[i], bounds[i + 1], wall)?;
        // Liveness heartbeat: each finished interval proves the fan-out is
        // making progress; the stall watchdog flags a hung worker pool.
        ebv_telemetry::health::heartbeat("ibd.interval.progress");
        Ok((node, stat))
    };

    // Fan the intervals out through one work queue, so a worker that
    // finishes a short interval claims the next; the caller is a worker.
    let (_, mut outcomes) = feed(
        workers.clamp(1, n_intervals),
        |i| Some((i, run_interval(i))),
        |feed| (0..n_intervals).for_each(|i| feed.push(i)),
    );
    outcomes.sort_unstable_by_key(|(i, _)| *i);

    // Stitch in interval order. When this loop reaches interval i, every
    // earlier stitch has matched, so interval i's boot state is verified.
    let mut intervals = Vec::with_capacity(n_intervals);
    let mut stitch_mismatch = None;
    let mut assembled: Option<EbvNode> = None;
    for (i, outcome) in outcomes {
        let (mut node, stat) = outcome?;
        intervals.push(stat);
        if i + 1 < n_intervals && node.snapshot().to_bytes() != checkpoints[i].to_bytes() {
            // Checkpoint i lied. Interval i's end state is the last
            // verified truth; everything booted from checkpoint i on is
            // void. Degrade to sequential replay from here.
            counter!("ibd.interval.stitch_mismatch").inc();
            trace_event!(
                "ibd.interval.stitch_mismatch",
                interval = i,
                boundary_height = bounds[i + 1],
            );
            // A lying checkpoint is exactly what the flight recorder
            // exists for: capture the run's causal chain and the mismatch
            // coordinates before degrading to sequential replay.
            if ebv_telemetry::enabled() {
                ebv_telemetry::flight::dump(
                    "ibd.interval.stitch_mismatch",
                    ebv_telemetry::context::current_trace(),
                    &[(
                        "stitch",
                        format!("{{\"interval\":{i},\"boundary_height\":{}}}", bounds[i + 1]),
                    )],
                );
            }
            stitch_mismatch = Some(i);
            let stat = replay(&mut node, i + 1, bounds[i + 1], tip, Stopwatch::start())?;
            intervals.push(stat);
            assembled = Some(node);
            break;
        }
        assembled = Some(node);
    }

    Ok(ParallelIbd {
        node: assembled.expect("at least one interval"),
        intervals,
        stitch_mismatch,
        wall: total_wall.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_node::{BaselineConfig, BaselineNode};
    use crate::ebv_node::EbvConfig;
    use crate::intermediary::Intermediary;
    use ebv_chain::{build_block, coinbase_tx, genesis_block, Block};
    use ebv_script::Script;
    use ebv_store::{KvStore, StoreConfig, UtxoSet};

    fn empty_chain(n: u32) -> Vec<Block> {
        let mut blocks = vec![genesis_block()];
        for h in 1..=n {
            let prev = blocks[blocks.len() - 1].header.hash();
            let coinbase = coinbase_tx(h, Script::new(), Vec::new());
            blocks.push(build_block(prev, coinbase, Vec::new(), h, 0));
        }
        blocks
    }

    #[test]
    fn baseline_ibd_periods() {
        let chain = empty_chain(10);
        let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(1 << 20)).unwrap());
        let mut node = BaselineNode::new(&chain[0], utxos, BaselineConfig::default()).unwrap();
        let periods = replay_ibd(&mut node, &chain[1..], 4).unwrap();
        assert_eq!(periods.len(), 3); // 4 + 4 + 2
        assert_eq!(periods[0].start_height, 1);
        assert_eq!(periods[0].end_height, 4);
        assert_eq!(periods[2].end_height, 10);
        assert_eq!(node.tip_height(), 10);
    }

    #[test]
    fn ebv_ibd_periods() {
        let chain = empty_chain(6);
        let mut inter = Intermediary::new(0);
        let ebv_chain = inter.convert_chain(&chain).unwrap();
        let mut node = EbvNode::new(&ebv_chain[0], EbvConfig::default());
        let periods = replay_ibd(&mut node, &ebv_chain[1..], 3).unwrap();
        assert_eq!(periods.len(), 2);
        assert_eq!(node.tip_height(), 6);
        let total: Duration = periods.iter().map(|p| p.wall).sum();
        assert!(total > Duration::ZERO);
    }
}
