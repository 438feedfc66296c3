//! `ebvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (with sample counts and host diagnostics),
//! then, as the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when an output check fails (no timings are reported then) and
//! 2 on bad arguments.

use ebvbench::chain::{Ledger, BLOCKS};
use ebvbench::workloads::Workload;
use ebvbench::{default_work_dir, run, Settings};
use std::process::exit;

const USAGE: &str = "usage: ebvbench --workload <ibd-ebv|ibd-baseline|relay-ebv> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let bad = |msg: &str| -> ! {
        eprintln!("{msg}\n{USAGE}");
        exit(2)
    };
    let workload = flag("--workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| bad("missing or unknown --workload"));
    let seed: u64 = flag("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| bad("missing or bad --seed"));
    let seconds: f64 = flag("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .unwrap_or_else(|| bad("missing or bad --seconds"));
    let trace = match flag("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => bad("--trace takes 0 or 1"),
    };

    let work = default_work_dir();
    // The baseline store keeps its log under the temp directory; point that
    // inside the work directory, so a run writes nowhere else.
    let tmp = work.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("work dir {}: {e}", tmp.display());
        exit(1)
    }
    std::env::set_var("TMPDIR", &tmp);
    let ledger = Ledger::cached(&work.join("chains"), BLOCKS, seed).unwrap_or_else(|e| {
        eprintln!("ledger cache under {}: {e}", work.display());
        exit(1)
    });
    let settings = Settings { seconds, trace };
    let outcome = run(workload, &ledger, &settings);
    println!(
        "# {} seed {seed}: {} blocks, {} inputs, {} outputs; trace {}",
        workload.name(),
        ledger.tip_height(),
        ledger.inputs,
        ledger.outputs,
        u8::from(trace)
    );
    for line in &outcome.notes {
        println!("# {line}");
    }
    if !outcome.spans.is_empty() {
        let dir = work.join("traces");
        let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| ebvbench::trace::write_jsonl(&path, &outcome.spans));
        match written {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => eprintln!("writing spans to {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        exit(1);
    }
}
