//! Per-node-type phase telemetry from the one shared pipeline.
//!
//! Both node types run the same generic `process_block`. A metric handle
//! cached in a `static` inside it would be shared by both, sending every
//! block of either type to whichever type's histogram was named first.
//! Connecting blocks on both node types in one process with telemetry on
//! must leave each type's phase histograms counting exactly its own blocks.
//! Both types settle SV in batches: on an honest all-P2PKH chain every
//! input's one signature goes into a batch, and none re-runs strictly.
//! A window that rolls blocks back counts only the blocks it keeps.
//! The tests have their own binary: the telemetry switch and registry are
//! process-global, and the counts must be exact, so they also run one at a
//! time.

mod common;

use common::{build_chains, fresh_utxos, tamper_baseline_signature, tamper_signature};
use ebv::core::{BaselineConfig, BaselineNode, EbvConfig, EbvNode};
use ebv::workload::GeneratorParams;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn phase_histograms_count_each_node_types_blocks() {
    let _serial = serial();
    let (blocks, chain) = build_chains(GeneratorParams::tiny(40, 0x7e1e));
    // Different counts per type, so a swapped or shared handle cannot match.
    let (ebv_blocks, baseline_blocks) = (40, 25);

    ebv::telemetry::global().reset();
    ebv::telemetry::set_enabled(true);
    let mut ebv = EbvNode::new(&chain[0], EbvConfig::default());
    let mut baseline =
        BaselineNode::new(&blocks[0], fresh_utxos(), BaselineConfig::default()).unwrap();
    // Interleaved, baseline first.
    for h in 1..=ebv_blocks {
        if h <= baseline_blocks {
            baseline.process_block(&blocks[h]).expect("valid block");
        }
        ebv.process_block(&chain[h]).expect("valid block");
    }
    ebv::telemetry::set_enabled(false);

    let count = |name: &str| ebv::telemetry::histogram(name).snapshot().count;
    let inputs = |n: usize| -> u64 { blocks[1..=n].iter().map(|b| b.input_count() as u64).sum() };
    let batched = ebv::telemetry::counter("sv.batch.sigs").get();
    assert_eq!(batched, inputs(ebv_blocks) + inputs(baseline_blocks));
    assert_eq!(ebv::telemetry::counter("sv.batch.strict_reruns").get(), 0);
    for (node, connected, phases) in [
        (
            "ebv",
            ebv_blocks,
            &["structure", "ev", "uv", "value_midstate", "sv", "commit"][..],
        ),
        (
            "baseline",
            baseline_blocks,
            &["structure", "dbo_fetch", "value", "sv", "dbo_commit"],
        ),
    ] {
        for phase in phases.iter().chain(&["block_total"]) {
            assert_eq!(
                count(&format!("{node}.{phase}")),
                connected as u64,
                "{node}.{phase}"
            );
        }
        let counter = ebv::telemetry::counter(&format!("{node}.blocks_connected"));
        assert_eq!(counter.get(), connected as u64, "{node}.blocks_connected");
    }
}

#[test]
fn a_rolled_back_window_counts_only_the_blocks_it_keeps() {
    let _serial = serial();
    let (blocks, chain) = build_chains(GeneratorParams::tiny(30, 0x7e1f));
    // A 24-block window whose block `bad` (a window index) carries a bad
    // signature: every block from it on was committed and is undone.
    let window = 1..25;
    let bad = (10..20)
        .find(|&i| blocks[window.start + i].transactions.len() > 1)
        .expect("a block with a spending transaction");
    let mut ebv_window = chain[window.clone()].to_vec();
    ebv_window[bad] = tamper_signature(&ebv_window[bad], 1, 0);
    let mut baseline_window = blocks[window.clone()].to_vec();
    baseline_window[bad] = tamper_baseline_signature(&baseline_window[bad], 1, 0);

    ebv::telemetry::global().reset();
    ebv::telemetry::set_enabled(true);
    let mut ebv = EbvNode::new(&chain[0], EbvConfig::default());
    let mut baseline =
        BaselineNode::new(&blocks[0], fresh_utxos(), BaselineConfig::default()).unwrap();
    let (ebv_kept, ebv_result) = ebv.connect_blocks(&ebv_window);
    let (baseline_kept, baseline_result) = baseline.connect_blocks(&baseline_window);
    ebv::telemetry::set_enabled(false);

    assert_eq!((ebv_kept, baseline_kept), (bad, bad));
    assert!(ebv_result.is_err() && baseline_result.is_err());
    let counter = |name: &str| ebv::telemetry::counter(name).get();
    let histogram = |name: &str| ebv::telemetry::histogram(name).snapshot();
    for node in ["ebv", "baseline"] {
        assert_eq!(
            counter(&format!("{node}.blocks_connected")),
            bad as u64,
            "{node}"
        );
        assert_eq!(
            histogram(&format!("{node}.block_total")).count,
            bad as u64,
            "{node}"
        );
        assert_eq!(counter(&format!("{node}.window_rollbacks")), 1, "{node}");
        // A rollback is no disconnect.
        assert_eq!(counter(&format!("{node}.blocks_disconnected")), 0, "{node}");
        let windows = histogram(&format!("{node}.window_blocks"));
        assert_eq!(
            (windows.count, windows.sum),
            (1, window.len() as u64),
            "{node}"
        );
        // One settle wait per window.
        assert_eq!(histogram(&format!("{node}.sv")).count, 1, "{node}");
    }
}
