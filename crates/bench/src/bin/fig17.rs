//! Fig. 17 — IBD time: Bitcoin vs EBV, cumulative by period, over
//! multiple runs; plus EBV's per-period EV/UV/SV breakdown.
//!
//! The paper: EBV cuts total IBD time by 38.5 % at block 650k, the gap
//! widening with chain length; run-to-run variation is small; inside EBV,
//! EV+UV are a tiny fraction and SV dominates.

use ebv_bench::{table, CommonArgs, Scenario};
use ebv_core::{build_checkpoints, parallel_ibd, replay_ibd, Breakdown};
use std::time::Duration;

fn main() {
    let args = CommonArgs::parse(CommonArgs::default());
    args.enable_telemetry();
    let n_periods = 13usize;
    let period_len = (args.blocks as usize / n_periods).max(1);
    println!(
        "# Fig. 17 — IBD comparison ({} blocks, {} per period, budget {} KiB, latency {} µs, {} runs)",
        args.blocks,
        period_len,
        args.budget / 1024,
        args.latency_us,
        args.runs
    );

    // Per run: cumulative wall time at each period boundary for both
    // systems. The chain differs per seed (like separate experiment runs).
    let mut base_cum: Vec<Vec<f64>> = Vec::new();
    let mut ebv_cum: Vec<Vec<f64>> = Vec::new();
    let mut ebv_break = Breakdown::default();
    let mut ebv_periods_acc: Vec<Breakdown> = Vec::new();
    let mut inputs_total = 0usize;
    // Snapshot-parallel comparison (`--parallel-ibd N`): per-run
    // (sequential, parallel) wall seconds and the chosen interval length.
    let mut par_runs: Vec<(f64, f64)> = Vec::new();
    let mut par_setup: Option<(usize, usize)> = None;
    let mut timeseries = args.timeseries();

    for run in 0..args.runs {
        let run_args = CommonArgs {
            seed: args.seed + run as u64,
            ..args.clone()
        };
        let scenario = Scenario::mainnet_like(&run_args);

        let mut baseline = scenario.baseline_node(&run_args);
        let periods = replay_ibd(&mut baseline, &scenario.blocks[1..], period_len).expect("ibd");
        base_cum.push(cumulative(periods.iter().map(|p| p.wall)));
        if let Some(ts) = &mut timeseries {
            ts.tick(&format!("run{run}.baseline"));
        }

        let mut ebv = scenario.ebv_node_with(run_args.node_config());
        inputs_total += scenario.ebv_blocks[1..]
            .iter()
            .map(|b| b.input_count())
            .sum::<usize>();
        let periods = replay_ibd(&mut ebv, &scenario.ebv_blocks[1..], period_len).expect("ibd");
        ebv_cum.push(cumulative(periods.iter().map(|p| p.wall)));
        if ebv_periods_acc.is_empty() {
            ebv_periods_acc = vec![Breakdown::default(); periods.len()];
        }
        for (acc, p) in ebv_periods_acc.iter_mut().zip(&periods) {
            *acc += p.breakdown;
        }
        ebv_break += ebv.cumulative_breakdown();
        if let Some(ts) = &mut timeseries {
            ts.tick(&format!("run{run}.ebv"));
        }

        if let Some(workers) = args.parallel_ibd {
            // Two intervals per worker keeps the claim queue busy when
            // interval costs are uneven.
            let every = (run_args.blocks as usize)
                .div_ceil(2 * workers.max(1))
                .max(1);
            let checkpoints =
                build_checkpoints(&scenario.ebv_blocks[0], &scenario.ebv_blocks[1..], every)
                    .expect("generated chains are structurally consistent");
            let par = parallel_ibd(
                &scenario.ebv_blocks[0],
                &scenario.ebv_blocks[1..],
                &checkpoints,
                workers,
                run_args.node_config(),
            )
            .expect("valid chain replays in parallel");
            assert_eq!(par.stitch_mismatch, None, "honest checkpoints must stitch");
            assert_eq!(
                par.node.tip_hash(),
                ebv.tip_hash(),
                "parallel IBD must reach the sequential tip"
            );
            assert_eq!(
                par.node.state_digest(),
                ebv.state_digest(),
                "parallel IBD must reach the sequential state"
            );
            let seq_s = *ebv_cum
                .last()
                .and_then(|r| r.last())
                .expect("at least one period");
            par_runs.push((seq_s, par.wall.as_secs_f64()));
            par_setup = Some((workers, every));
            if let Some(ts) = &mut timeseries {
                ts.tick(&format!("run{run}.parallel"));
            }
        }
    }
    if let Some(ts) = timeseries.take() {
        ts.finish().expect("timeseries");
        println!("wrote {}", args.timeseries_out.as_deref().unwrap_or(""));
    }

    println!(
        "\n## Fig. 17a — cumulative IBD seconds at each period boundary (mean [min–max] over runs)"
    );
    let cols = [
        ("period", 8),
        ("bitcoin_s", 24),
        ("ebv_s", 24),
        ("reduction", 10),
    ];
    table::header(&cols);
    let n_rows = base_cum[0].len();
    let mut final_red = 0.0;
    for i in 0..n_rows {
        let b = stats(base_cum.iter().map(|r| r[i]));
        let e = stats(ebv_cum.iter().map(|r| r[i]));
        final_red = (1.0 - e.0 / b.0) * 100.0;
        table::row(&[
            (format!("{}", i + 1), 8),
            (format!("{:.2} [{:.2}-{:.2}]", b.0, b.1, b.2), 24),
            (format!("{:.2} [{:.2}-{:.2}]", e.0, e.1, e.2), 24),
            (format!("{final_red:.1}%"), 10),
        ]);
    }
    println!("\nfinal IBD reduction: {final_red:.1}%  (paper: 38.5% at block 650k)");

    println!("\n## Fig. 17b — EBV IBD breakdown per period (summed over runs)");
    let cols = [
        ("period", 8),
        ("ev_s", 9),
        ("uv_s", 9),
        ("sv_s", 9),
        ("commit_s", 9),
        ("others_s", 10),
    ];
    table::header(&cols);
    for (i, b) in ebv_periods_acc.iter().enumerate() {
        table::row(&[
            (format!("{}", i + 1), 8),
            (table::secs(b.ev), 9),
            (table::secs(b.uv), 9),
            (table::secs(b.sv), 9),
            (table::secs(b.commit), 9),
            (table::secs(b.others), 10),
        ]);
    }
    let total = ebv_break.total().as_secs_f64();
    if total > 0.0 {
        println!(
            "\nEV+UV share of EBV IBD: {:.1}%  (paper shape: a very small fraction; SV dominates)",
            (ebv_break.ev + ebv_break.uv).as_secs_f64() / total * 100.0
        );
    }

    if let Some((workers, every)) = par_setup {
        println!(
            "\n## Fig. 17c — sequential vs snapshot-parallel EBV IBD \
             ({workers} workers, checkpoint every {every} blocks)"
        );
        let cols = [
            ("run", 6),
            ("seq_s", 10),
            ("parallel_s", 11),
            ("speedup", 9),
        ];
        table::header(&cols);
        for (i, (seq_s, par_s)) in par_runs.iter().enumerate() {
            table::row(&[
                (format!("{}", i + 1), 6),
                (format!("{seq_s:.2}"), 10),
                (format!("{par_s:.2}"), 11),
                (format!("{:.2}x", seq_s / par_s), 9),
            ]);
        }
        let (seq_mean, par_mean) = (
            stats(par_runs.iter().map(|r| r.0)).0,
            stats(par_runs.iter().map(|r| r.1)).0,
        );
        println!(
            "\nmean speedup: {:.2}x  (every interval's final state stitched \
             byte-identical to its successor's checkpoint)",
            seq_mean / par_mean
        );
    }

    if let Some(path) = &args.json {
        // Machine-readable SV record: per-period phase times (summed over
        // runs) in nanoseconds plus aggregate verification throughput.
        let mut periods = String::new();
        for (i, b) in ebv_periods_acc.iter().enumerate() {
            if !periods.is_empty() {
                periods.push(',');
            }
            periods.push_str(&format!(
                "\n    {{\"period\": {}, \"ev_ns\": {}, \"uv_ns\": {}, \"sv_ns\": {}, \
                 \"commit_ns\": {}, \"others_ns\": {}}}",
                i + 1,
                b.ev.as_nanos(),
                b.uv.as_nanos(),
                b.sv.as_nanos(),
                b.commit.as_nanos(),
                b.others.as_nanos(),
            ));
        }
        let sv_ns_total = ebv_break.sv.as_nanos();
        let verifies_per_sec = if sv_ns_total > 0 {
            inputs_total as f64 / (sv_ns_total as f64 / 1e9)
        } else {
            0.0
        };
        let parallel = match par_setup {
            Some((workers, every)) => {
                let runs: Vec<String> = par_runs
                    .iter()
                    .enumerate()
                    .map(|(i, (seq_s, par_s))| {
                        format!(
                            "\n      {{\"run\": {}, \"seq_wall_s\": {seq_s:.4}, \
                             \"parallel_wall_s\": {par_s:.4}}}",
                            i + 1
                        )
                    })
                    .collect();
                let seq_mean = stats(par_runs.iter().map(|r| r.0)).0;
                let par_mean = stats(par_runs.iter().map(|r| r.1)).0;
                format!(
                    ",\n  \"parallel_ibd\": {{\n    \"workers\": {workers}, \
                     \"checkpoint_every\": {every},\n    \"seq_wall_s_mean\": {seq_mean:.4}, \
                     \"parallel_wall_s_mean\": {par_mean:.4}, \
                     \"speedup\": {:.4},\n    \"runs\": [{}\n    ]\n  }}",
                    seq_mean / par_mean,
                    runs.join(",")
                )
            }
            None => String::new(),
        };
        let telemetry = ebv_telemetry::json_snapshot(&ebv_telemetry::global().snapshot());
        let json = format!(
            "{{\n  \"figure\": \"fig17\",\n  \"runs\": {},\n  \"periods\": [{periods}\n  ],\n  \
             \"sv_ns_total\": {sv_ns_total},\n  \"inputs_total\": {inputs_total},\n  \
             \"verifies_per_sec\": {verifies_per_sec:.1}{parallel},\n  \"telemetry\": {telemetry}\n}}\n",
            args.runs
        );
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
    args.write_metrics();
}

fn cumulative(walls: impl Iterator<Item = Duration>) -> Vec<f64> {
    let mut acc = 0.0;
    walls
        .map(|w| {
            acc += w.as_secs_f64();
            acc
        })
        .collect()
}

/// (mean, min, max)
fn stats(values: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    let v: Vec<f64> = values.collect();
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (mean, min, max)
}
