//! Criterion benches of whole-block validation: baseline vs EBV, and the
//! parallel-vs-sequential SV ablation called out in DESIGN.md §5.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ebv_bench::{CommonArgs, Scenario};
use ebv_core::{replay_ibd, EbvConfig, EbvNode};

fn args() -> CommonArgs {
    CommonArgs {
        blocks: 60,
        seed: 3,
        budget: 64 << 10,
        latency_us: 20,
        runs: 1,
        ..CommonArgs::default()
    }
}

fn bench_block_validation(c: &mut Criterion) {
    let a = args();
    let scenario = Scenario::mainnet_like(&a);
    let last_base = scenario.blocks.last().expect("nonempty").clone();
    let last_ebv = scenario.ebv_blocks.last().expect("nonempty").clone();
    let split = scenario.blocks.len() - 1;

    c.bench_function("validate/baseline_tip_block", |b| {
        b.iter_batched(
            || {
                let mut node = scenario.baseline_node(&a);
                replay_ibd(&mut node, &scenario.blocks[1..split], 1 << 20).expect("warmup");
                node
            },
            |mut node| node.process_block(&last_base).expect("validates"),
            BatchSize::PerIteration,
        )
    });

    c.bench_function("validate/ebv_tip_block", |b| {
        b.iter_batched(
            || {
                let mut node = scenario.ebv_node();
                replay_ibd(&mut node, &scenario.ebv_blocks[1..split], 1 << 20).expect("warmup");
                node
            },
            |mut node| node.process_block(&last_ebv).expect("validates"),
            BatchSize::PerIteration,
        )
    });

    // Ablation: one worker, so SV runs inline like every other phase.
    c.bench_function("validate/ebv_tip_block_sequential", |b| {
        b.iter_batched(
            || {
                let config = EbvConfig {
                    workers: Some(1),
                    ..EbvConfig::default()
                };
                let mut node = EbvNode::new(&scenario.ebv_blocks[0], config);
                replay_ibd(&mut node, &scenario.ebv_blocks[1..split], 1 << 20).expect("warmup");
                node
            },
            |mut node| node.process_block(&last_ebv).expect("validates"),
            BatchSize::PerIteration,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_block_validation
}
criterion_main!(benches);
