//! Fig. 18 — block propagation delay: Bitcoin vs EBV.
//!
//! The paper deploys 20 nodes on AWS across 5 regions, 2 gossip neighbors
//! each, releases a seed block and measures when each node receives it
//! (5 repetitions): EBV cuts full-network propagation by 66.4 % and shows
//! lower variance. Here the deployment is simulated; each system's
//! per-hop validation delay is first *measured* by validating tail blocks
//! of a generated chain on the corresponding node, then plugged into the
//! discrete-event gossip simulator.

use ebv_bench::{table, CommonArgs, Scenario};
use ebv_core::replay_ibd;
use ebv_netsim::{GossipSim, SimParams, SimResult, ValidationModel};

fn main() {
    let args = CommonArgs::parse(CommonArgs {
        blocks: 600,
        ..Default::default()
    });
    println!(
        "# Fig. 18 — propagation delay, 20 nodes / 5 regions / 2 gossip neighbors, {} runs",
        args.runs
    );

    // --- Phase 1: measure per-block validation time on both systems ----
    let scenario = Scenario::mainnet_like(&args);
    let tail = 10usize.min(scenario.blocks.len() - 1);
    let split = scenario.blocks.len() - tail;

    let mut baseline = scenario.baseline_node(&args);
    replay_ibd(&mut baseline, &scenario.blocks[1..split], 1 << 20).expect("warmup");
    let mut base_us: u64 = 0;
    let mut base_inputs: u64 = 0;
    let mut base_bytes: u64 = 0;
    for block in &scenario.blocks[split..] {
        base_inputs += block.input_count() as u64;
        base_bytes += ebv_primitives::encode::Encodable::encoded_len(block) as u64;
        base_us += baseline
            .process_block(block)
            .expect("validates")
            .total()
            .as_micros() as u64;
    }

    let mut ebv = scenario.ebv_node();
    replay_ibd(&mut ebv, &scenario.ebv_blocks[1..split], 1 << 20).expect("warmup");
    let mut ebv_us: u64 = 0;
    let mut ebv_bytes: u64 = 0;
    for block in &scenario.ebv_blocks[split..] {
        ebv_bytes += ebv_primitives::encode::Encodable::encoded_len(block) as u64;
        ebv_us += ebv
            .process_block(block)
            .expect("validates")
            .total()
            .as_micros() as u64;
    }

    // Scale the measured *per-input* costs to the paper's block
    // composition (~5000 inputs at heights 590k), so validation time sits
    // in the same regime relative to the inter-region link latencies as on
    // the paper's testbed — a few seconds per block for Bitcoin (Fig. 4a).
    const MAINNET_INPUTS_PER_BLOCK: u64 = 5000;
    let scale = |v: u64| v * MAINNET_INPUTS_PER_BLOCK / base_inputs.max(1);
    let (base_us, ebv_us) = (scale(base_us), scale(ebv_us));
    // Block sizes scale with the same composition factor; transmission
    // cost penalizes EBV's proof-carrying blocks fairly.
    let (base_block_bytes, ebv_block_bytes) = (scale(base_bytes), scale(ebv_bytes));

    println!(
        "\nscaled to {MAINNET_INPUTS_PER_BLOCK} inputs/block (measured over {} tail inputs):\n\
         \x20 validation: bitcoin {:.0} ms, ebv {:.0} ms\n\
         \x20 block size: bitcoin {:.2} MB, ebv {:.2} MB ({:.2}× — proof overhead)",
        base_inputs,
        base_us as f64 / 1000.0,
        ebv_us as f64 / 1000.0,
        base_block_bytes as f64 / 1e6,
        ebv_block_bytes as f64 / 1e6,
        ebv_block_bytes as f64 / base_block_bytes as f64,
    );

    // --- Phase 2: plug the measured means into the gossip simulator ----
    let bitcoin_sim = GossipSim::new(SimParams {
        validation: ValidationModel::baseline_from_mean_us(base_us),
        block_bytes: base_block_bytes,
        ..Default::default()
    });
    let ebv_sim = GossipSim::new(SimParams {
        validation: ValidationModel::ebv_from_mean_us(ebv_us),
        block_bytes: ebv_block_bytes,
        ..Default::default()
    });

    let b_runs = bitcoin_sim.run_many(args.seed, args.runs);
    let e_runs = ebv_sim.run_many(args.seed, args.runs);

    println!("\n## receive time (ms) of the i-th node, mean [min–max] over runs");
    let cols = [("node", 6), ("bitcoin_ms", 26), ("ebv_ms", 26)];
    table::header(&cols);
    let n_nodes = b_runs[0].receive_us.len();
    for i in 0..n_nodes {
        let b = rank_stats(&b_runs, i);
        let e = rank_stats(&e_runs, i);
        table::row(&[
            (format!("{}", i + 1), 6),
            (format!("{:.0} [{:.0}-{:.0}]", b.0, b.1, b.2), 26),
            (format!("{:.0} [{:.0}-{:.0}]", e.0, e.1, e.2), 26),
        ]);
    }

    let b_last: f64 =
        b_runs.iter().map(SimResult::last_receive_ms).sum::<f64>() / b_runs.len() as f64;
    let e_last: f64 =
        e_runs.iter().map(SimResult::last_receive_ms).sum::<f64>() / e_runs.len() as f64;
    println!(
        "\nfull-propagation time: bitcoin {:.0} ms, ebv {:.0} ms → reduction {}  (paper: 66.4%)",
        b_last,
        e_last,
        table::reduction_pct(b_last, e_last)
    );
    let b_spread = spread(&b_runs);
    let e_spread = spread(&e_runs);
    println!(
        "run-to-run spread of full propagation: bitcoin {b_spread:.0} ms, ebv {e_spread:.0} ms \
         (paper shape: EBV has lower variance)"
    );
}

/// (mean, min, max) of the receive time at sorted rank `i` across runs.
fn rank_stats(runs: &[SimResult], i: usize) -> (f64, f64, f64) {
    let at: Vec<f64> = runs.iter().map(|r| r.sorted_ms()[i]).collect();
    let mean = at.iter().sum::<f64>() / at.len() as f64;
    let min = at.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = at.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (mean, min, max)
}

fn spread(runs: &[SimResult]) -> f64 {
    let last: Vec<f64> = runs.iter().map(SimResult::last_receive_ms).collect();
    let max = last.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = last.iter().cloned().fold(f64::INFINITY, f64::min);
    max - min
}
