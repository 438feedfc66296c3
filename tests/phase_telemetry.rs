//! Per-node-type phase telemetry from the one shared pipeline.
//!
//! Both node types run the same generic `process_block`. A metric handle
//! cached in a `static` inside it would be shared by both, sending every
//! block of either type to whichever type's histogram was named first.
//! Connecting blocks on both node types in one process with telemetry on
//! must leave each type's phase histograms counting exactly its own blocks.
//! Both types settle SV in batches: on an honest all-P2PKH chain every
//! input's one signature goes into a batch, and none re-runs strictly.
//! The test has its own binary: the telemetry switch and registry are
//! process-global, and the counts must be exact.

use ebv::core::{BaselineConfig, BaselineNode, EbvConfig, EbvNode, Intermediary};
use ebv::store::{KvStore, StoreConfig, UtxoSet};
use ebv::workload::{ChainGenerator, GeneratorParams};

#[test]
fn phase_histograms_count_each_node_types_blocks() {
    let blocks = ChainGenerator::new(GeneratorParams::tiny(40, 0x7e1e)).generate();
    let chain = Intermediary::new(0)
        .convert_chain(&blocks)
        .expect("convert");
    // Different counts per type, so a swapped or shared handle cannot match.
    let (ebv_blocks, baseline_blocks) = (40, 25);

    ebv::telemetry::global().reset();
    ebv::telemetry::set_enabled(true);
    let mut ebv = EbvNode::new(&chain[0], EbvConfig::default());
    let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(1 << 20)).expect("store"));
    let mut baseline = BaselineNode::new(&blocks[0], utxos, BaselineConfig::default()).unwrap();
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
