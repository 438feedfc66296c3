//! Snapshot-parallel IBD: differential and adversarial coverage.
//!
//! * `parallel_ibd` must reach a final state **identical** to sequential
//!   `replay_ibd` — tip hash, total-unspent, every bit vector — across worker
//!   counts {1, 2, 4} and checkpoint intervals including a non-divisor K;
//! * a corrupted checkpoint must be detected at the stitch, attributed to
//!   the offending interval, and degraded to a sequential fallback that
//!   still produces the correct final state;
//! * `replay_ibd` must return the periods completed before a mid-chunk
//!   validation failure, on either node type, instead of discarding them.

use ebv_core::baseline_node::BaselineConfig;
use ebv_core::{
    build_checkpoints, parallel_ibd, replay_ibd, BaselineNode, EbvConfig, EbvNode, Intermediary,
    ParallelIbdError,
};
use ebv_primitives::encode::Encodable;
use ebv_primitives::hash::sha256d;
use ebv_store::{KvStore, StoreConfig, UtxoSet};
use ebv_workload::{ChainGenerator, GeneratorParams};

fn ebv_chain(n: u32, seed: u64) -> Vec<ebv_core::EbvBlock> {
    let blocks = ChainGenerator::new(GeneratorParams::tiny(n, seed)).generate();
    Intermediary::new(0)
        .convert_chain(&blocks)
        .expect("generated chains always convert")
}

/// Replay the whole chain sequentially — the ground truth.
fn sequential_node(chain: &[ebv_core::EbvBlock]) -> EbvNode {
    let mut node = EbvNode::new(&chain[0], EbvConfig::default());
    replay_ibd(&mut node, &chain[1..], 64).expect("generated chain validates");
    node
}

/// Full-state equality: tip, totals, and every bit vector.
fn assert_same_state(got: &EbvNode, want: &EbvNode) {
    assert_eq!(got.tip_height(), want.tip_height());
    assert_eq!(got.tip_hash(), want.tip_hash());
    assert_eq!(got.total_unspent(), want.total_unspent());
    for h in 0..=want.tip_height() {
        assert_eq!(
            got.bitvecs().vector(h),
            want.bitvecs().vector(h),
            "bit vector at height {h}"
        );
    }
    assert_eq!(got.state_digest(), want.state_digest());
}

#[test]
fn parallel_matches_sequential_across_workers_and_intervals() {
    let chain = ebv_chain(240, 0x51ac);
    let tip = chain.len() as u32 - 1;
    let want = sequential_node(&chain);

    // 60 divides the chain evenly; 97 leaves a short tail interval.
    for every in [60usize, 97] {
        let checkpoints =
            build_checkpoints(&chain[0], &chain[1..], every).expect("structurally consistent");
        let expected_cps = (tip as usize - 1) / every;
        assert_eq!(checkpoints.len(), expected_cps, "K={every}");

        // The stitch invariant, directly: each checkpoint must be byte-
        // identical to the fully validated state at its height.
        let mut probe = EbvNode::new(&chain[0], EbvConfig::default());
        for block in &chain[1..=every] {
            probe.process_block(block).expect("valid block");
        }
        assert_eq!(
            probe.snapshot().to_bytes(),
            checkpoints[0].to_bytes(),
            "checkpoint K={every} equals validated state"
        );

        for workers in [1usize, 2, 4] {
            let run = parallel_ibd(
                &chain[0],
                &chain[1..],
                &checkpoints,
                workers,
                EbvConfig::default(),
            )
            .expect("valid chain replays");
            assert_eq!(run.stitch_mismatch, None, "K={every} workers={workers}");
            assert_eq!(run.intervals.len(), checkpoints.len() + 1);
            // Intervals tile the chain contiguously.
            assert_eq!(run.intervals[0].start_height, 1);
            assert_eq!(run.intervals.last().unwrap().end_height, tip);
            for pair in run.intervals.windows(2) {
                assert_eq!(pair[1].start_height, pair[0].end_height + 1);
            }
            assert_same_state(&run.node, &want);
        }
    }

    // No checkpoints at all degenerates to one sequential interval.
    let run = parallel_ibd(&chain[0], &chain[1..], &[], 4, EbvConfig::default())
        .expect("valid chain replays");
    assert_eq!(run.intervals.len(), 1);
    assert_same_state(&run.node, &want);
}

#[test]
fn corrupted_checkpoint_is_caught_at_the_stitch() {
    let chain = ebv_chain(240, 0x51ac);
    let tip = chain.len() as u32 - 1;
    let want = sequential_node(&chain);
    let mut checkpoints =
        build_checkpoints(&chain[0], &chain[1..], 60).expect("structurally consistent");
    assert!(checkpoints.len() >= 2);

    // Corrupt checkpoint 1 *plausibly*: flip one surviving output to spent,
    // picking a coordinate still unspent at the chain tip so every later
    // block still replays cleanly — only the stitch can notice.
    let victim = &checkpoints[1];
    let (h, pos) = (0..=victim.height())
        .find_map(|h| {
            let v = want.bitvecs().vector(h)?;
            (0..v.len())
                .find(|&p| v.is_unspent(p) == Some(true))
                .map(|p| (h, p))
        })
        .expect("some output survives the whole chain");
    let mut set = victim.restore();
    set.spend(h, pos).expect("picked an unspent bit");
    checkpoints[1] = set.snapshot(victim.height(), victim.tip_hash());

    let run = parallel_ibd(
        &chain[0],
        &chain[1..],
        &checkpoints,
        4,
        EbvConfig::default(),
    )
    .expect("mismatch degrades, it does not fail");
    // Interval 1 replayed from the good checkpoint 0, so its end state is
    // the truth and checkpoint 1 is convicted at stitch index 1.
    assert_eq!(run.stitch_mismatch, Some(1));
    // Intervals 0 and 1 committed, then one sequential-fallback tail.
    assert_eq!(run.intervals.len(), 3);
    assert_eq!(run.intervals[2].start_height, 121);
    assert_eq!(run.intervals[2].end_height, tip);
    assert_same_state(&run.node, &want);
}

#[test]
fn unusable_checkpoint_lists_are_rejected() {
    let chain = ebv_chain(60, 0xbeef);
    let checkpoints = build_checkpoints(&chain[0], &chain[1..], 20).expect("consistent");
    assert_eq!(checkpoints.len(), 2);

    let descending: Vec<_> = checkpoints.iter().rev().cloned().collect();
    assert_eq!(
        parallel_ibd(&chain[0], &chain[1..], &descending, 2, EbvConfig::default())
            .err()
            .map(|e| matches!(e, ParallelIbdError::BadCheckpoints(_))),
        Some(true)
    );

    // A checkpoint at the tip height starts an empty interval — rejected.
    let mut node = sequential_node(&chain);
    let at_tip = vec![node.snapshot()];
    assert_eq!(
        parallel_ibd(&chain[0], &chain[1..], &at_tip, 2, EbvConfig::default())
            .err()
            .map(|e| matches!(e, ParallelIbdError::BadCheckpoints(_))),
        Some(true)
    );
    drop(node.disconnect_tip());
}

#[test]
fn ebv_ibd_returns_completed_periods_on_failure() {
    let mut chain = ebv_chain(20, 0x77);
    // Break block 13: bogus Merkle root → MerkleMismatch mid-third-chunk.
    chain[13].header.merkle_root = sha256d(b"bogus root");

    let mut node = EbvNode::new(&chain[0], EbvConfig::default());
    let failure = replay_ibd(&mut node, &chain[1..], 5).expect_err("tampered block rejected");
    assert_eq!(failure.failed_at, 13);
    // Periods 1-5 and 6-10 completed, plus the partial 11-12.
    assert_eq!(failure.completed.len(), 3);
    assert_eq!(failure.completed[0].start_height, 1);
    assert_eq!(failure.completed[0].end_height, 5);
    assert_eq!(failure.completed[2].start_height, 11);
    assert_eq!(failure.completed[2].end_height, 12);
    assert_eq!(node.tip_height(), 12);
}

#[test]
fn baseline_ibd_returns_completed_periods_on_failure() {
    let mut blocks = ChainGenerator::new(GeneratorParams::tiny(20, 0x77)).generate();
    blocks[13].header.merkle_root = sha256d(b"bogus root");

    let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(1 << 20)).unwrap());
    let mut node = BaselineNode::new(&blocks[0], utxos, BaselineConfig::default()).unwrap();
    let failure = replay_ibd(&mut node, &blocks[1..], 5).expect_err("tampered block rejected");
    assert_eq!(failure.failed_at, 13);
    assert_eq!(failure.completed.len(), 3);
    assert_eq!(failure.completed[2].end_height, 12);
    assert_eq!(node.tip_height(), 12);
}
