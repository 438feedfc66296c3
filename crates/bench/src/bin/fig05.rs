//! Fig. 5 — Bitcoin IBD time by period, split DBO / SV / others.
//!
//! The paper divides IBD of 650k blocks into 13 periods of 50k: DBO time
//! rises with chain age, exceeds 50 % of period time in the last five
//! periods, and dips in the 500k–550k period thanks to UTXO
//! consolidation. The generated chain reproduces this with 13 periods and
//! a consolidation epoch placed in period 11.

use ebv_bench::{table, CommonArgs, Scenario};
use ebv_core::replay_ibd;

fn main() {
    let args = CommonArgs::parse(CommonArgs::default());
    args.enable_telemetry();
    let n_periods = 13usize;
    let period_len = (args.blocks as usize / n_periods).max(1);
    println!(
        "# Fig. 5 — baseline IBD by period ({} blocks, {} per period, budget {} KiB, latency {} µs)",
        args.blocks,
        period_len,
        args.budget / 1024,
        args.latency_us
    );

    let scenario = Scenario::mainnet_like(&args);
    let mut node = scenario.baseline_node(&args);
    let periods =
        replay_ibd(&mut node, &scenario.blocks[1..], period_len).expect("chain validates");

    let cols = [
        ("period", 8),
        ("heights", 12),
        ("dbo_s", 9),
        ("sv_s", 9),
        ("others_s", 9),
        ("total_s", 9),
        ("dbo_ratio", 10),
    ];
    table::header(&cols);
    for (i, p) in periods.iter().enumerate() {
        table::row(&[
            (format!("{}", i + 1), 8),
            (format!("{}-{}", p.start_height, p.end_height), 12),
            (table::secs(p.breakdown.dbo), 9),
            (table::secs(p.breakdown.sv), 9),
            (table::secs(p.breakdown.others), 9),
            (table::secs(p.breakdown.total()), 9),
            (format!("{:.1}%", p.breakdown.dbo_ratio() * 100.0), 10),
        ]);
    }
    println!(
        "\npaper shape: DBO time rises over periods and its ratio exceeds 50% late; the \
         consolidation epoch (period ~11) shrinks the UTXO set, flattening DBO in the periods after it"
    );
    args.write_metrics();
}
