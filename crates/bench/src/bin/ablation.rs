//! Ablation sweeps for the design choices called out in DESIGN.md §5:
//! cache-budget sweep and disk-latency sweep for the baseline (how the
//! DBO bottleneck develops), the sparse-vector optimization's effect over
//! chain age for EBV, and EBV IBD across SV worker counts.

use ebv_bench::apply::StatusTracker;
use ebv_bench::{table, CommonArgs, Scenario};
use ebv_core::{replay_ibd, EbvConfig};
use ebv_store::{KvStore, StoreConfig, UtxoSet};
use ebv_workload::{ChainGenerator, GeneratorParams};

fn main() {
    let args = CommonArgs::parse(CommonArgs {
        blocks: 260,
        latency_us: 200,
        ..Default::default()
    });
    args.enable_telemetry();
    let scenario = Scenario::mainnet_like(&args);

    println!(
        "# Ablation 1 — cache-budget sweep (baseline IBD, latency {} µs)",
        args.latency_us
    );
    let cols = [
        ("budget_kib", 12),
        ("ibd_s", 9),
        ("dbo_s", 9),
        ("hit_ratio", 10),
    ];
    table::header(&cols);
    for shift in [3usize, 4, 5, 6, 8, 10] {
        let budget = 1usize << (shift + 10);
        let run_args = CommonArgs {
            budget,
            ..args.clone()
        };
        let mut node = scenario.baseline_node(&run_args);
        let periods = replay_ibd(&mut node, &scenario.blocks[1..], 1 << 20).expect("ibd");
        let total: f64 = periods.iter().map(|p| p.wall.as_secs_f64()).sum();
        let b = node.cumulative_breakdown();
        table::row(&[
            (format!("{}", budget / 1024), 12),
            (format!("{total:.2}"), 9),
            (table::secs(b.dbo), 9),
            (
                format!("{:.1}%", node.utxos().stats().hit_ratio() * 100.0),
                10,
            ),
        ]);
    }

    println!(
        "\n# Ablation 2 — disk-latency sweep (baseline IBD, budget {} KiB)",
        args.budget / 1024
    );
    let cols = [
        ("latency_us", 12),
        ("ibd_s", 9),
        ("dbo_s", 9),
        ("dbo_ratio", 10),
    ];
    table::header(&cols);
    for latency_us in [0u64, 50, 200, 500, 1000] {
        let run_args = CommonArgs {
            latency_us,
            ..args.clone()
        };
        let mut node = scenario.baseline_node(&run_args);
        let periods = replay_ibd(&mut node, &scenario.blocks[1..], 1 << 20).expect("ibd");
        let total: f64 = periods.iter().map(|p| p.wall.as_secs_f64()).sum();
        let b = node.cumulative_breakdown();
        table::row(&[
            (format!("{latency_us}"), 12),
            (format!("{total:.2}"), 9),
            (table::secs(b.dbo), 9),
            (format!("{:.1}%", b.dbo_ratio() * 100.0), 10),
        ]);
    }

    println!("\n# Ablation 3 — sparse-vector optimization effect by chain age");
    // Status-only application is cheap, so this sweep uses a much longer
    // chain than the IBD sweeps: vectors only go sparse once the old-money
    // spend window (up to 500 blocks) has fully passed over them.
    let sweep3_blocks = args.blocks.max(1300);
    let chain =
        ChainGenerator::new(GeneratorParams::mainnet_like(sweep3_blocks, args.seed)).generate();
    let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(1 << 30)).expect("store"));
    let mut tracker = StatusTracker::new(utxos);
    let cols = [
        ("height", 8),
        ("opt_kib", 10),
        ("noopt_kib", 10),
        ("gain", 8),
    ];
    table::header(&cols);
    let step = (chain.len() / 8).max(1);
    for (i, block) in chain.iter().enumerate() {
        tracker.apply(block);
        if (i + 1) % step == 0 || i + 1 == chain.len() {
            let m = tracker.bitvecs.memory();
            table::row(&[
                (format!("{i}"), 8),
                (format!("{:.1}", m.optimized as f64 / 1024.0), 10),
                (format!("{:.1}", m.unoptimized as f64 / 1024.0), 10),
                (
                    table::reduction_pct(m.unoptimized as f64, m.optimized as f64),
                    8,
                ),
            ]);
        }
    }
    println!("\npaper shape: optimization gain grows with age as old vectors go sparse (42.6% at the tip)");

    println!("\n# Ablation 4 — SV worker count (full EBV IBD)");
    // Every worker count returns byte-identical accept/reject decisions;
    // only the wall time moves. `--sweep-workers` replaces the counts.
    let cols = [
        ("workers", 12),
        ("ibd_s", 9),
        ("ev_s", 9),
        ("sv_s", 9),
        ("commit_s", 9),
        ("others_s", 10),
    ];
    table::header(&cols);
    let counts: Vec<Option<usize>> = match &args.sweep_workers {
        Some(sweep) => sweep.iter().map(|&w| Some(w)).collect(),
        None => vec![Some(1), Some(2), Some(4), None],
    };
    for workers in counts {
        let label = workers.map_or("default".to_string(), |w| w.to_string());
        let config = EbvConfig { workers };
        let mut node = scenario.ebv_node_with(config);
        let periods = replay_ibd(&mut node, &scenario.ebv_blocks[1..], 1 << 20).expect("ibd");
        let total: f64 = periods.iter().map(|p| p.wall.as_secs_f64()).sum();
        let b = node.cumulative_breakdown();
        table::row(&[
            (label, 12),
            (format!("{total:.2}"), 9),
            (table::secs(b.ev), 9),
            (table::secs(b.sv), 9),
            (table::secs(b.commit), 9),
            (table::secs(b.others), 10),
        ]);
    }
    args.write_metrics();
}
