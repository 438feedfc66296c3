//! Fig. 16 — block-validation time: Bitcoin vs EBV, and EBV's EV/UV/SV
//! breakdown.
//!
//! The paper: under the same memory limit, EBV cuts per-block validation
//! by up to 93.5 % (block 590004); inside EBV, EV and UV are negligible
//! and SV dominates. This binary additionally reports one SV worker next
//! to the configured count (Fig. 16c) and sweeps SV's worker count over the
//! tail (Fig. 16d), exposing what SV's parallelism buys.

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
        args.node_config()
    );

    let scenario = Scenario::mainnet_like(&args);
    let tail = 10usize.min(scenario.blocks.len() - 1);
    let split = scenario.blocks.len() - tail;

    // Baseline node, warmed to the split point.
    let mut baseline = scenario.baseline_node(&args);
    replay_ibd(&mut baseline, &scenario.blocks[1..split], 1 << 20).expect("warmup");
    // EBV node with the configured worker count, warmed identically; plus
    // a one-worker twin for the Fig. 16c comparison.
    let mut ebv = scenario.ebv_node_with(args.node_config());
    replay_ibd(&mut ebv, &scenario.ebv_blocks[1..split], 1 << 20).expect("warmup");
    let mut ebv_one = scenario.ebv_node_with(EbvConfig { workers: Some(1) });
    replay_ibd(&mut ebv_one, &scenario.ebv_blocks[1..split], 1 << 20).expect("warmup");
    // Snapshot the warmed state once; the Fig. 16d worker counts below
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
    let mut one_breakdowns = Vec::new();
    let mut baseline_totals = Vec::new();
    for (base_block, ebv_block) in scenario.blocks[split..]
        .iter()
        .zip(&scenario.ebv_blocks[split..])
    {
        let bb = baseline
            .process_block(base_block)
            .expect("baseline validates");
        let eb = ebv.process_block(ebv_block).expect("ebv validates");
        let ob = ebv_one
            .process_block(ebv_block)
            .expect("one-worker ebv validates");
        ebv_breakdowns.push((ebv.tip_height(), ebv_block.input_count(), eb));
        one_breakdowns.push(ob);
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

    println!("\n## Fig. 16c — one SV worker vs the configured count (default: every core)");
    let cols = [
        ("height", 8),
        ("cfg_ms", 9),
        ("one_ms", 9),
        ("cfg_sv_ms", 10),
        ("one_sv_ms", 10),
    ];
    table::header(&cols);
    for ((height, _, cb), ob) in ebv_breakdowns.iter().zip(&one_breakdowns) {
        table::row(&[
            (format!("{height}"), 8),
            (table::ms(cb.total()), 9),
            (table::ms(ob.total()), 9),
            (table::ms(cb.sv), 10),
            (table::ms(ob.sv), 10),
        ]);
    }
    println!("\nevery worker count returns identical accept/reject decisions; only the wall time differs");

    // ---- Fig. 16d — SV worker sweep -------------------------------------
    // Each worker count boots a fresh node from the warmed snapshot and
    // replays the same tail, so the only variable is the worker count.
    // One worker is always measured: it is the speedup reference.
    let mut worker_settings: Vec<Option<usize>> = vec![Some(1)];
    for workers in
        std::iter::once(args.workers).chain(args.sweep_workers.iter().flatten().map(|&w| Some(w)))
    {
        if !worker_settings.contains(&workers) {
            worker_settings.push(workers);
        }
    }
    let replay_tail = |workers: Option<usize>| -> Vec<(Duration, Duration)> {
        let mut node =
            EbvNode::from_snapshot(&snapshot, snap_headers.clone(), EbvConfig { workers })
                .expect("snapshot boots");
        scenario.ebv_blocks[split..]
            .iter()
            .map(|block| {
                let b = node.process_block(block).expect("tail validates");
                (b.sv, b.total())
            })
            .collect()
    };
    // Interleave the worker counts and keep each one's per-block minima:
    // CPU steal on a shared host spikes on sub-second timescales, so
    // back-to-back runs of one count measure the drift, not the count. The
    // per-block minimum over interleaved repetitions is the standard
    // noise-floor estimator for a deterministic workload.
    const TAIL_REPS: usize = 5;
    let mut floors = vec![vec![(Duration::MAX, Duration::MAX); tail]; worker_settings.len()];
    for _ in 0..TAIL_REPS {
        for (floor, &workers) in floors.iter_mut().zip(&worker_settings) {
            for (f, r) in floor.iter_mut().zip(replay_tail(workers)) {
                *f = (f.0.min(r.0), f.1.min(r.1));
            }
        }
    }
    let sums: Vec<(Duration, Duration)> = floors
        .iter()
        .map(|f| (f.iter().map(|b| b.0).sum(), f.iter().map(|b| b.1).sum()))
        .collect();
    println!("\n## Fig. 16d — SV worker sweep over the tail (batched settlement)");
    let cols = [
        ("workers", 8),
        ("sv_ms", 9),
        ("total_ms", 9),
        ("sv_speedup", 11),
    ];
    table::header(&cols);
    let one_sv = sums[0].0.as_secs_f64();
    let mut sweep_rows = Vec::new();
    for (&workers, &(sv, total)) in worker_settings.iter().zip(&sums) {
        let speedup = one_sv / sv.as_secs_f64().max(1e-12);
        table::row(&[
            (workers.map_or("default".to_string(), |w| w.to_string()), 8),
            (table::ms(sv), 9),
            (table::ms(total), 9),
            (format!("{speedup:.2}x"), 11),
        ]);
        sweep_rows.push((workers, sv, total, speedup));
    }
    println!(
        "\nsv_speedup is against one worker; each chunk's signatures settle through one \
         shared multi-scalar ladder. The batch-vs-individual settlement ratio is the \
         criterion pair ecdsa/verify_64_individual / ecdsa/verify_64_batch \
         (cargo bench -p ebv-bench --bench primitives)"
    );

    if let Some(path) = &args.json {
        // Machine-readable SV record: per-block phase times in nanoseconds
        // plus the aggregate signature-verification throughput (the tail
        // blocks are single-input-per-tx P2PKH spends, so inputs ≈
        // signature checks).
        let mut blocks = String::new();
        let mut sv_ns_total = 0u128;
        let mut inputs_total = 0usize;
        for (((height, inputs, b), ob), base_total) in ebv_breakdowns
            .iter()
            .zip(&one_breakdowns)
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
                 \"one_worker_total_ns\": {}, \"baseline_total_ns\": {}}}",
                b.ev.as_nanos(),
                b.uv.as_nanos(),
                b.sv.as_nanos(),
                b.commit.as_nanos(),
                b.others.as_nanos(),
                b.total().as_nanos(),
                ob.total().as_nanos(),
                base_total.as_nanos(),
            ));
        }
        let verifies_per_sec = if sv_ns_total > 0 {
            inputs_total as f64 / (sv_ns_total as f64 / 1e9)
        } else {
            0.0
        };
        let mut batch_json = String::new();
        for (workers, sv, total, speedup) in &sweep_rows {
            if !batch_json.is_empty() {
                batch_json.push(',');
            }
            batch_json.push_str(&format!(
                "\n    {{\"workers\": {}, \"batch_sv_ns\": {}, \"batch_total_ns\": {}, \
                 \"sv_speedup_vs_one_worker\": {speedup:.3}}}",
                workers.map_or("null".to_string(), |w| w.to_string()),
                sv.as_nanos(),
                total.as_nanos(),
            ));
        }
        let telemetry = ebv_telemetry::json_snapshot(&ebv_telemetry::global().snapshot());
        let json = format!(
            "{{\n  \"figure\": \"fig16\",\n  \"seed\": {},\n  \"blocks\": [{blocks}\n  ],\n  \
             \"sv_ns_total\": {sv_ns_total},\n  \"inputs_total\": {inputs_total},\n  \
             \"verifies_per_sec\": {verifies_per_sec:.1},\n  \
             \"batch\": [{batch_json}\n  ],\n  \
             \"telemetry\": {telemetry}\n}}\n",
            args.seed
        );
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
    args.write_metrics();
}
