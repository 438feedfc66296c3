//! Fig. 15 — EBV: input count vs block-validation time.
//!
//! The paper: with all status data in memory, EBV's validation time
//! tracks the input count (no database-state outliers, unlike Fig. 4b).

use ebv_bench::{table, CommonArgs, Scenario};
use ebv_core::replay_ibd;

fn main() {
    let args = CommonArgs::parse(CommonArgs::default());
    println!(
        "# Fig. 15 — EBV input count vs validation time over the last 10 blocks ({} blocks, seed {})",
        args.blocks, args.seed
    );

    let scenario = Scenario::mainnet_like(&args);
    let mut node = scenario.ebv_node();
    let tail = 10usize.min(scenario.ebv_blocks.len() - 1);
    let split = scenario.ebv_blocks.len() - tail;
    replay_ibd(&mut node, &scenario.ebv_blocks[1..split], 1 << 20).expect("warmup IBD");

    let cols = [("height", 8), ("inputs", 8), ("validation_ms", 14)];
    table::header(&cols);
    let mut rows: Vec<(usize, f64)> = Vec::new();
    for block in &scenario.ebv_blocks[split..] {
        let b = node.process_block(block).expect("tail block validates");
        let total_ms = b.total().as_secs_f64() * 1000.0;
        rows.push((block.input_count(), total_ms));
        table::row(&[
            (format!("{}", node.tip_height()), 8),
            (format!("{}", block.input_count()), 8),
            (format!("{total_ms:.2}"), 14),
        ]);
    }

    // Pearson correlation between inputs and time — the "consistent
    // variation" claim, quantified.
    let n = rows.len() as f64;
    let mean_x = rows.iter().map(|r| r.0 as f64).sum::<f64>() / n;
    let mean_y = rows.iter().map(|r| r.1).sum::<f64>() / n;
    let cov: f64 = rows
        .iter()
        .map(|r| (r.0 as f64 - mean_x) * (r.1 - mean_y))
        .sum::<f64>();
    let var_x: f64 = rows
        .iter()
        .map(|r| (r.0 as f64 - mean_x).powi(2))
        .sum::<f64>();
    let var_y: f64 = rows.iter().map(|r| (r.1 - mean_y).powi(2)).sum::<f64>();
    if var_x > 0.0 && var_y > 0.0 {
        println!(
            "\ncorrelation(inputs, time) = {:.3}  (paper shape: validation time tracks input count)",
            cov / (var_x.sqrt() * var_y.sqrt())
        );
    }
}
