//! Cross-component determinism: every pipeline stage is a pure function
//! of the seed, so experiment runs are exactly reproducible.

mod common;

use ebv::core::{EbvConfig, EbvNode};
use ebv::primitives::encode::Encodable;
use ebv::workload::{ChainGenerator, ChainProfile, GeneratorParams};

#[test]
fn identical_seeds_produce_identical_everything() {
    let run = |seed: u64| {
        let (blocks, ebv_blocks) = common::chain_pair(10, seed);
        let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
        for b in &ebv_blocks[1..] {
            node.process_block(b).expect("valid");
        }
        // Fingerprint: serialized bytes of baseline + ebv chains + final state.
        let mut bytes = Vec::new();
        for b in &blocks {
            b.encode(&mut bytes);
        }
        for b in &ebv_blocks {
            b.encode(&mut bytes);
        }
        (
            ebv::primitives::hash::sha256d(&bytes),
            node.tip_hash(),
            node.total_unspent(),
            node.status_memory(),
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).0, run(43).0);
}

#[test]
fn profile_statistics_are_deterministic() {
    let p1 = ChainProfile::measure(
        &ChainGenerator::new(GeneratorParams::mainnet_like(60, 5)).generate(),
    );
    let p2 = ChainProfile::measure(
        &ChainGenerator::new(GeneratorParams::mainnet_like(60, 5)).generate(),
    );
    assert_eq!(p1.inputs, p2.inputs);
    assert_eq!(p1.outputs, p2.outputs);
}

#[test]
fn netsim_runs_are_seed_deterministic() {
    use ebv::netsim::{GossipSim, SimParams, ValidationModel};
    let sim = GossipSim::new(SimParams {
        validation: ValidationModel::ebv_from_mean_us(5_000),
        ..Default::default()
    });
    assert_eq!(sim.run(7).receive_us, sim.run(7).receive_us);
    assert_ne!(sim.run(7).receive_us, sim.run(8).receive_us);
}
