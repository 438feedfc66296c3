//! Fig. 4 — Bitcoin block-validation time and its DBO / SV / others split.
//!
//! The paper validates ten mainnet blocks (590000–590009) on a
//! memory-limited Btcd node: DBO dominates (>83 % on the worst block), and
//! 4(b) shows SV time tracking the input count while DBO time has
//! cache-state outliers. Here: IBD up to the last ten blocks of the
//! generated chain under the configured cache budget + disk latency, then
//! per-block timing of those ten.

use ebv_bench::{table, CommonArgs, Scenario};
use ebv_core::replay_ibd;

fn main() {
    let args = CommonArgs::parse(CommonArgs::default());
    println!(
        "# Fig. 4 — baseline validation breakdown over the last 10 blocks \
         ({} blocks, budget {} KiB, disk latency {} µs, seed {})",
        args.blocks,
        args.budget / 1024,
        args.latency_us,
        args.seed
    );

    let scenario = Scenario::mainnet_like(&args);
    let mut node = scenario.baseline_node(&args);

    let tail = 10usize.min(scenario.blocks.len() - 1);
    let split = scenario.blocks.len() - tail;
    replay_ibd(&mut node, &scenario.blocks[1..split], 1 << 20).expect("warmup IBD validates");

    println!("\n## Fig. 4a/4b rows (one per block)");
    let cols = [
        ("height", 8),
        ("inputs", 8),
        ("dbo_ms", 10),
        ("sv_ms", 10),
        ("others_ms", 10),
        ("total_ms", 10),
        ("dbo_share", 10),
        ("cache_miss", 10),
    ];
    table::header(&cols);
    for block in &scenario.blocks[split..] {
        let misses_before = node.utxos().stats().cache_misses;
        let b = node.process_block(block).expect("tail block validates");
        let misses = node.utxos().stats().cache_misses - misses_before;
        table::row(&[
            (format!("{}", node.tip_height()), 8),
            (format!("{}", block.input_count()), 8),
            (table::ms(b.dbo), 10),
            (table::ms(b.sv), 10),
            (table::ms(b.others), 10),
            (table::ms(b.total()), 10),
            (format!("{:.1}%", b.dbo_ratio() * 100.0), 10),
            (format!("{misses}"), 10),
        ]);
    }
    let st = node.utxos().stats();
    println!(
        "\ncache hit ratio over run: {:.1}%  (fetches {}, misses {})",
        st.hit_ratio() * 100.0,
        st.fetches,
        st.cache_misses
    );
    println!("paper shape: DBO dominates total time; DBO outliers are database-state, not input-count, effects");
}
