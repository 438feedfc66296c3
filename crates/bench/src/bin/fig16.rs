//! Fig. 16 — block-validation time: Bitcoin vs EBV, and EBV's EV/UV/SV
//! breakdown.
//!
//! The paper: under the same memory limit, EBV cuts per-block validation
//! by up to 93.5 % (block 590004); inside EBV, EV and UV are negligible
//! and SV dominates. This binary additionally reports the sequential
//! pipeline next to the parallel one (Fig. 16c), exposing what the
//! `parallel_ev`/`parallel_sv` knobs buy.

use std::time::Duration;

use ebv_bench::{table, CommonArgs, Scenario};
use ebv_core::{replay_ibd, EbvConfig, EbvNode};

fn main() {
    let args = CommonArgs::parse(CommonArgs::default());
    args.enable_telemetry();
    println!(
        "# Fig. 16 — validation time comparison over the last 10 blocks \
         ({} blocks, budget {} KiB, latency {} µs, seed {}, ebv {:?})",
        args.blocks,
        args.budget / 1024,
        args.latency_us,
        args.seed,
        args.ebv_config()
    );

    let scenario = Scenario::mainnet_like(&args);
    let tail = 10usize.min(scenario.blocks.len() - 1);
    let split = scenario.blocks.len() - tail;

    // Baseline node, warmed to the split point.
    let mut baseline = scenario.baseline_node(&args);
    replay_ibd(&mut baseline, &scenario.blocks[1..split], 1 << 20).expect("warmup");
    // EBV node with the configured pipeline, warmed identically; plus a
    // fully sequential twin for the Fig. 16c comparison.
    let mut ebv = scenario.ebv_node_with(args.ebv_config());
    replay_ibd(&mut ebv, &scenario.ebv_blocks[1..split], 1 << 20).expect("warmup");
    let mut ebv_seq = scenario.ebv_node_with(EbvConfig::sequential());
    replay_ibd(&mut ebv_seq, &scenario.ebv_blocks[1..split], 1 << 20).expect("warmup");
    // Snapshot the warmed state once; the Fig. 16d configurations below
    // each boot from it instead of replaying the warmup chain again.
    let snapshot = ebv.snapshot();
    let snap_headers: Vec<_> = (0..=ebv.tip_height())
        .map(|h| *ebv.header_at(h).expect("warmed chain"))
        .collect();

    println!("\n## Fig. 16a — per-block totals");
    let cols = [
        ("height", 8),
        ("inputs", 8),
        ("bitcoin_ms", 11),
        ("ebv_ms", 9),
        ("reduction", 10),
    ];
    table::header(&cols);
    let mut worst = (0.0f64, 0.0f64, 0.0f64); // (reduction, bitcoin, ebv)
    let mut ebv_breakdowns = Vec::new();
    let mut seq_breakdowns = Vec::new();
    let mut baseline_totals = Vec::new();
    for (base_block, ebv_block) in scenario.blocks[split..]
        .iter()
        .zip(&scenario.ebv_blocks[split..])
    {
        let bb = baseline
            .process_block(base_block)
            .expect("baseline validates");
        let eb = ebv.process_block(ebv_block).expect("ebv validates");
        let sb = ebv_seq
            .process_block(ebv_block)
            .expect("sequential ebv validates");
        ebv_breakdowns.push((ebv.tip_height(), ebv_block.input_count(), eb));
        seq_breakdowns.push(sb);
        baseline_totals.push(bb.total());
        let b_ms = bb.total().as_secs_f64() * 1000.0;
        let e_ms = eb.total().as_secs_f64() * 1000.0;
        let red = (1.0 - e_ms / b_ms) * 100.0;
        if red > worst.0 {
            worst = (red, b_ms, e_ms);
        }
        table::row(&[
            (format!("{}", baseline.tip_height()), 8),
            (format!("{}", base_block.input_count()), 8),
            (format!("{b_ms:.1}"), 11),
            (format!("{e_ms:.1}"), 9),
            (format!("{red:.1}%"), 10),
        ]);
    }
    println!(
        "\nbest per-block reduction: {:.1}% ({:.1} ms → {:.1} ms); paper: 93.5% on its worst block",
        worst.0, worst.1, worst.2
    );

    println!("\n## Fig. 16b — EBV validation-time breakdown");
    let cols = [
        ("height", 8),
        ("inputs", 8),
        ("ev_ms", 9),
        ("uv_ms", 9),
        ("sv_ms", 9),
        ("commit_ms", 10),
        ("others_ms", 10),
    ];
    table::header(&cols);
    for (height, inputs, b) in &ebv_breakdowns {
        table::row(&[
            (format!("{height}"), 8),
            (format!("{inputs}"), 8),
            (table::ms(b.ev), 9),
            (table::ms(b.uv), 9),
            (table::ms(b.sv), 9),
            (table::ms(b.commit), 10),
            (table::ms(b.others), 10),
        ]);
    }
    println!("\npaper shape: EV and UV take little time; SV dominates EBV validation");

    println!("\n## Fig. 16c — parallel vs sequential EBV pipeline");
    let cols = [
        ("height", 8),
        ("par_ms", 9),
        ("seq_ms", 9),
        ("par_ev_ms", 10),
        ("seq_ev_ms", 10),
        ("par_sv_ms", 10),
        ("seq_sv_ms", 10),
    ];
    table::header(&cols);
    for ((height, _, pb), sb) in ebv_breakdowns.iter().zip(&seq_breakdowns) {
        table::row(&[
            (format!("{height}"), 8),
            (table::ms(pb.total()), 9),
            (table::ms(sb.total()), 9),
            (table::ms(pb.ev), 10),
            (table::ms(sb.ev), 10),
            (table::ms(pb.sv), 10),
            (table::ms(sb.sv), 10),
        ]);
    }
    println!(
        "\nboth pipelines return identical accept/reject decisions; only the wall time differs"
    );

    // ---- Fig. 16d — batched vs individual ECDSA settlement -------------
    // Each configuration boots a fresh node from the warmed snapshot and
    // replays the same tail, so the only variable is the SV settlement
    // strategy (and, when sweeping, the worker count).
    println!("\n## Fig. 16d — batched vs individual ECDSA settlement over the tail");
    let replay_tail = |batch: bool, workers: Option<usize>| -> Vec<(Duration, Duration)> {
        let config = EbvConfig {
            batch_verify: batch,
            workers,
            parallel_ev: args.parallel_ev,
            parallel_sv: args.parallel_sv,
            ..EbvConfig::default()
        };
        let mut node = EbvNode::from_snapshot(&snapshot, snap_headers.clone(), config)
            .expect("snapshot boots");
        scenario.ebv_blocks[split..]
            .iter()
            .map(|block| {
                let b = node.process_block(block).expect("tail validates");
                (b.sv, b.total())
            })
            .collect::<Vec<_>>()
    };
    // Interleave the two arms and keep each arm's per-block minima: CPU
    // steal on a shared single-core host spikes on sub-second timescales,
    // so back-to-back arm runs measure the drift, not the settlement
    // strategy. The per-block minimum over interleaved repetitions is the
    // standard noise-floor estimator for a deterministic workload.
    const TAIL_REPS: usize = 5;
    let run_pair = |workers: Option<usize>| -> ((Duration, Duration), (Duration, Duration)) {
        let floor = |acc: &mut Vec<(Duration, Duration)>, rep: Vec<(Duration, Duration)>| {
            if acc.is_empty() {
                *acc = rep;
            } else {
                for (a, r) in acc.iter_mut().zip(rep) {
                    a.0 = a.0.min(r.0);
                    a.1 = a.1.min(r.1);
                }
            }
        };
        let sum = |acc: &[(Duration, Duration)]| -> (Duration, Duration) {
            acc.iter()
                .fold((Duration::ZERO, Duration::ZERO), |(sv, total), b| {
                    (sv + b.0, total + b.1)
                })
        };
        let mut off = Vec::new();
        let mut on = Vec::new();
        for _ in 0..TAIL_REPS {
            floor(&mut off, replay_tail(false, workers));
            floor(&mut on, replay_tail(true, workers));
        }
        (sum(&off), sum(&on))
    };
    let mut worker_settings: Vec<Option<usize>> = vec![args.workers];
    if let Some(sweep) = &args.sweep_workers {
        worker_settings.extend(sweep.iter().map(|&w| Some(w)));
    }
    let cols = [
        ("workers", 8),
        ("indiv_sv_ms", 12),
        ("batch_sv_ms", 12),
        ("sv_speedup", 11),
        ("indiv_tot_ms", 13),
        ("batch_tot_ms", 13),
    ];
    table::header(&cols);
    let mut batch_rows = Vec::new();
    for &workers in &worker_settings {
        let ((off_sv, off_total), (on_sv, on_total)) = run_pair(workers);
        let speedup = off_sv.as_secs_f64() / on_sv.as_secs_f64().max(1e-12);
        table::row(&[
            (workers.map_or("default".to_string(), |w| w.to_string()), 8),
            (table::ms(off_sv), 12),
            (table::ms(on_sv), 12),
            (format!("{speedup:.2}x"), 11),
            (table::ms(off_total), 13),
            (table::ms(on_total), 13),
        ]);
        batch_rows.push((workers, off_sv, on_sv, speedup, off_total, on_total));
    }
    println!(
        "\nbatch settlement certifies a whole chunk's signatures with one shared \
         multi-scalar ladder; verdicts are identical either way"
    );

    if let Some(path) = &args.json {
        // Machine-readable SV record: per-block phase times in nanoseconds
        // plus the aggregate signature-verification throughput (the tail
        // blocks are single-input-per-tx P2PKH spends, so inputs ≈
        // signature checks).
        let mut blocks = String::new();
        let mut sv_ns_total = 0u128;
        let mut inputs_total = 0usize;
        for (((height, inputs, b), sb), base_total) in ebv_breakdowns
            .iter()
            .zip(&seq_breakdowns)
            .zip(&baseline_totals)
        {
            sv_ns_total += b.sv.as_nanos();
            inputs_total += inputs;
            if !blocks.is_empty() {
                blocks.push(',');
            }
            blocks.push_str(&format!(
                "\n    {{\"height\": {height}, \"inputs\": {inputs}, \
                 \"ev_ns\": {}, \"uv_ns\": {}, \"sv_ns\": {}, \
                 \"commit_ns\": {}, \"others_ns\": {}, \"total_ns\": {}, \
                 \"seq_total_ns\": {}, \"baseline_total_ns\": {}}}",
                b.ev.as_nanos(),
                b.uv.as_nanos(),
                b.sv.as_nanos(),
                b.commit.as_nanos(),
                b.others.as_nanos(),
                b.total().as_nanos(),
                sb.total().as_nanos(),
                base_total.as_nanos(),
            ));
        }
        let verifies_per_sec = if sv_ns_total > 0 {
            inputs_total as f64 / (sv_ns_total as f64 / 1e9)
        } else {
            0.0
        };
        let mut batch_json = String::new();
        for (workers, off_sv, on_sv, speedup, off_total, on_total) in &batch_rows {
            if !batch_json.is_empty() {
                batch_json.push(',');
            }
            batch_json.push_str(&format!(
                "\n    {{\"workers\": {}, \"individual_sv_ns\": {}, \"batch_sv_ns\": {}, \
                 \"sv_speedup\": {speedup:.3}, \"individual_total_ns\": {}, \
                 \"batch_total_ns\": {}}}",
                workers.map_or("null".to_string(), |w| w.to_string()),
                off_sv.as_nanos(),
                on_sv.as_nanos(),
                off_total.as_nanos(),
                on_total.as_nanos(),
            ));
        }
        // The first row is always the default-workers configuration: the
        // acceptance gate for the batched path reads this field.
        let default_speedup = batch_rows[0].3;
        let telemetry = ebv_telemetry::json_snapshot(&ebv_telemetry::global().snapshot());
        let json = format!(
            "{{\n  \"figure\": \"fig16\",\n  \"seed\": {},\n  \"blocks\": [{blocks}\n  ],\n  \
             \"sv_ns_total\": {sv_ns_total},\n  \"inputs_total\": {inputs_total},\n  \
             \"verifies_per_sec\": {verifies_per_sec:.1},\n  \
             \"batch\": [{batch_json}\n  ],\n  \
             \"batch_sv_speedup_default_workers\": {default_speedup:.3},\n  \
             \"telemetry\": {telemetry}\n}}\n",
            args.seed
        );
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
    args.write_metrics();
}
