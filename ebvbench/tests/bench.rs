//! Tests of the benchmark itself: every workload passes its checks on a
//! tiny ledger, a corrupted signature shows as a failed operation rather
//! than a faster run, and what a run prints matches `BENCHMARK.json`.

use ebv_telemetry::json::{self, Value};
use ebvbench::chain::Ledger;
use ebvbench::workloads::Workload;
use ebvbench::{Outcome, Settings, END_TO_END, PER_LAYER};
use std::sync::Mutex;

/// One run at a time: the telemetry registry and the span recorder are
/// process-wide, and a traced round reads them as its own.
fn run(workload: Workload, ledger: &Ledger, settings: &Settings) -> Outcome {
    static ALONE: Mutex<()> = Mutex::new(());
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    ebvbench::run(workload, ledger, settings)
}

fn settings(trace: bool) -> Settings {
    Settings {
        seconds: 0.0,
        trace,
    }
}

fn tiny() -> Ledger {
    Ledger::mainnet_like(24, 11)
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not printed"))
        .value
}

fn names(outcome: &Outcome) -> Vec<(&str, &str)> {
    outcome.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn every_workload_passes_its_checks_on_a_tiny_chain() {
    let ledger = tiny();
    for workload in Workload::ALL {
        let plain = run(workload, &ledger, &settings(false));
        assert!(plain.correct, "{}: {:?}", workload.name(), plain.notes);
        assert_eq!(plain.failed, 0, "{}", workload.name());
        assert_eq!(names(&plain), END_TO_END.to_vec(), "{}", workload.name());
        for m in &plain.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }

        let traced = run(workload, &ledger, &settings(true));
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.notes);
        assert_eq!(names(&traced), PER_LAYER.to_vec(), "{}", workload.name());
        assert!(!traced.spans.is_empty());
        let inputs = ledger.inputs as f64;
        let blocks = f64::from(ledger.tip_height());
        // Counters the program keeps (`store.*`, `sync.frames`,
        // `*.blocks`) and counts of the benchmark's own spans: a layer a
        // workload bypasses must read zero on both.
        let zeros: &[&str] = match workload {
            Workload::IbdEbv => {
                assert_eq!(value(&traced, "ebv_node.inputs"), inputs);
                assert_eq!(value(&traced, "ebv_node.blocks"), blocks);
                assert!(value(&traced, "sync.requests") >= 2.0);
                assert!(value(&traced, "sync.frames") > value(&traced, "sync.requests"));
                &[
                    "store.fetches",
                    "store.disk_writes",
                    "baseline_node.blocks",
                    "mempool.txs",
                ]
            }
            Workload::IbdBaseline => {
                assert_eq!(value(&traced, "store.fetches"), inputs);
                assert_eq!(value(&traced, "baseline_node.blocks"), blocks);
                assert!(value(&traced, "baseline_node.dbo_ms") > 0.0);
                assert!(value(&traced, "sync.frames") > value(&traced, "sync.requests"));
                &[
                    "ebv_node.connect_ms",
                    "ebv_node.blocks",
                    "ebv_node.inputs",
                    "mempool.accept_ms",
                    "mempool.txs",
                ]
            }
            Workload::RelayEbv => {
                assert_eq!(
                    value(&traced, "mempool.inputs"),
                    value(&traced, "ebv_node.inputs")
                );
                assert!(value(&traced, "mempool.txs") > 0.0);
                assert!(value(&traced, "ebv_node.blocks") >= 20.0);
                assert!(value(&traced, "relay.blocks") >= 20.0);
                &[
                    "sync.request_ms",
                    "sync.requests",
                    "sync.frames",
                    "store.fetches",
                    "store.disk_reads",
                    "store.disk_writes",
                    "baseline_node.blocks",
                ]
            }
        };
        for zero in zeros {
            assert_eq!(value(&traced, zero), 0.0, "{}: {zero}", workload.name());
        }
    }
}

#[test]
fn a_corrupted_signature_is_a_failed_operation_not_a_faster_run() {
    let mut blocks = tiny().blocks;
    let last = blocks.last_mut().expect("a ledger has blocks");
    let spend = &mut last.transactions[1];
    // Inside the pushed signature, past its length byte.
    spend.inputs[0].unlocking_script.0[8] ^= 0x55;
    last.header.merkle_root = last.compute_merkle_root();
    let ledger = Ledger::from_blocks(blocks);
    for workload in Workload::ALL {
        let outcome = run(workload, &ledger, &settings(false));
        assert!(!outcome.correct, "{}", workload.name());
        assert!(outcome.failed >= 1, "{}", workload.name());
        assert!(
            outcome.metrics.is_empty(),
            "a failing run reports no timings"
        );
        let json = json::parse(&outcome.json()).expect("the result line is JSON");
        assert_eq!(json.get("correct"), Some(&Value::Bool(false)));
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("no {key} array");
        };
        items
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let catalog = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), catalog(END_TO_END));
    assert_eq!(listed("per_layer"), catalog(PER_LAYER));
    let Some(Value::Array(workloads)) = doc.get("workloads") else {
        panic!("no workloads array");
    };
    let workload_names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workload_names, ours);

    // The result line carries each metric with its unit.
    let outcome = run(Workload::IbdEbv, &tiny(), &settings(false));
    let line = json::parse(&outcome.json()).expect("the result line is JSON");
    for (name, unit) in END_TO_END {
        let metric = line
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{name} missing from {}", outcome.json()));
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some(*unit));
        assert!(metric.get("value").and_then(Value::as_f64).is_some());
    }
}
