//! The repository benchmark: localhost-TCP IBD into each node type, and a
//! relay of transactions then blocks into an EBV node, with a traced
//! per-layer ledger. See `README.md` for the workloads, the metrics and
//! how the layers map onto them.

pub mod chain;
pub mod host;
pub mod trace;
pub mod workloads;

use chain::Ledger;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::LayerLedger;
use workloads::{Mode, Round, SetupTimes, Workload};

/// End-to-end metrics, `(name, unit)`: what a run with `--trace 0` prints.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("inputs_per_s", "1/s"),
    ("status_bytes", "bytes"),
    ("wire_bytes_per_block", "bytes"),
];

/// Per-layer metrics, `(name, unit)`: what a run with `--trace 1` prints.
/// Every `_ms` of a span layer is self time, so with `sync.driver_ms` (or
/// the relay's harness share, `100 - trace.coverage_pct`) they add up to
/// `trace.wall_ms`; `*.connect_ms` is the call's wall, which its phases
/// and `unattributed_ms` split. Every workload computes every one of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sync.request_ms", "ms"),
    ("sync.serve_ms", "ms"),
    ("sync.driver_ms", "ms"),
    ("sync.requests", "count"),
    ("sync.failed_requests", "count"),
    ("sync.frames", "count"),
    ("decode.ms", "ms"),
    ("decode.bytes", "bytes"),
    ("ebv_node.connect_ms", "ms"),
    ("ebv_node.others_ms", "ms"),
    ("ebv_node.ev_ms", "ms"),
    ("ebv_node.uv_ms", "ms"),
    ("ebv_node.sv_ms", "ms"),
    ("ebv_node.commit_ms", "ms"),
    ("ebv_node.unattributed_ms", "ms"),
    ("ebv_node.inputs", "count"),
    ("ebv_node.blocks", "count"),
    ("sighash.pubkey_hits", "count"),
    ("sighash.pubkey_misses", "count"),
    ("sighash.pubkey_hit_ratio", "ratio"),
    ("bitvec.resident_bytes", "bytes"),
    ("bitvec.vectors", "count"),
    ("bitvec.sparse_vectors", "count"),
    ("mempool.accept_ms", "ms"),
    ("mempool.remove_ms", "ms"),
    ("mempool.txs", "count"),
    ("mempool.inputs", "count"),
    ("baseline_node.connect_ms", "ms"),
    ("baseline_node.dbo_ms", "ms"),
    ("baseline_node.sv_ms", "ms"),
    ("baseline_node.others_ms", "ms"),
    ("baseline_node.unattributed_ms", "ms"),
    ("baseline_node.blocks", "count"),
    ("store.fetches", "count"),
    ("store.cache_hits", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.disk_reads", "count"),
    ("store.disk_writes", "count"),
    ("store.dbo_ms", "ms"),
    ("store.utxo_bytes", "bytes"),
    ("intermediary.convert_ms", "ms"),
    ("encode.ms", "ms"),
    ("ibd.checkpoint_ms", "ms"),
    ("ebv_node.snapshot_boot_ms", "ms"),
    ("relay.block_ms_p50", "ms"),
    ("relay.block_ms_p99", "ms"),
    ("relay.blocks", "count"),
    ("relay.tx_ms_p50", "ms"),
    ("relay.tx_ms_p99", "ms"),
    ("relay.txs", "count"),
    ("process.cpu_util", "cpu_s/s"),
    ("host.steal_pct", "%"),
    ("host.ref_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// No new round starts once a run has used this much wall, so a run on a
/// slow host still ends well inside its time limit.
const RUN_BUDGET: Duration = Duration::from_secs(120);

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Timed rounds repeat until their walls sum to at least this.
    pub seconds: f64,
    /// Follow the untraced rounds with one traced round and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

/// One metric as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Empty when a check failed: a failing run reports no timings.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: metrics with sample counts, host diagnostics,
    /// failed checks.
    pub notes: Vec<String>,
    /// Spans of the traced round, for writing out.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// A run whose outputs failed a check: it reports no timings.
    fn failed(attempted: u64, failed: u64, failures: Vec<String>) -> Outcome {
        let mut notes: Vec<String> = failures.iter().map(|f| format!("FAILED: {f}")).collect();
        notes.push(format!("{failed} of {attempted} operations failed"));
        Outcome {
            correct: false,
            attempted,
            failed,
            metrics: Vec::new(),
            notes,
            spans: Vec::new(),
        }
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `workload` on `ledger`: time [`Workload::setups`] set-ups, then
/// time rounds on the last set-up's output until `settings.seconds` of
/// timed wall, and, when tracing, one traced round after them.
pub fn run(workload: Workload, ledger: &Ledger, settings: &Settings) -> Outcome {
    let started = Instant::now();
    // All set-ups come first, so every run times them in the same state
    // of the process.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut prepared = None;
    for _ in 0..workload.setups() {
        match workloads::setup(workload, ledger) {
            Ok((times, p)) => {
                setups.push(times);
                prepared = Some(p);
            }
            Err(e) => return Outcome::failed(1, 1, vec![e]),
        }
    }
    let prepared = prepared.expect("a workload sets up at least once");
    let mut rounds: Vec<Round> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut timed = 0.0;
    let mut reference_ms: Vec<f64> = Vec::new();
    let mut absorb = |result: Result<Round, String>, failures: &mut Vec<String>| match result {
        Err(e) => {
            attempted += 1;
            failed += 1;
            failures.push(e);
            None
        }
        Ok(round) => {
            attempted += round.attempted;
            failed += round.failed;
            failures.extend(round.failures.iter().cloned());
            Some(round)
        }
    };
    while failures.is_empty() {
        let last_round = rounds.last().map_or(0.0, |r| r.wall.as_secs_f64());
        let over_budget =
            started.elapsed().as_secs_f64() + 2.0 * last_round > RUN_BUDGET.as_secs_f64();
        if !rounds.is_empty() && (timed >= settings.seconds || over_budget) {
            break;
        }
        reference_ms.push(host::reference_ms());
        let result = workloads::round(workload, ledger, &prepared, Mode::Untraced);
        if let Some(round) = absorb(result, &mut failures) {
            timed += round.wall.as_secs_f64();
            rounds.push(round);
        }
    }
    let mut traced = None;
    if settings.trace && failures.is_empty() {
        let result = workloads::round(workload, ledger, &prepared, Mode::Traced);
        traced = absorb(result, &mut failures);
    }
    if !failures.is_empty() {
        return Outcome::failed(attempted, failed, failures);
    }

    let reference_ms = median(reference_ms.into_iter());
    let fastest_setup = *setups
        .iter()
        .min_by_key(|s| s.total)
        .expect("a workload sets up at least once");
    let (catalog, values, spans) = match traced {
        Some(traced) => {
            let mut values = per_layer(&rounds, &fastest_setup, &traced);
            values.push(("host.ref_ms", reference_ms));
            (PER_LAYER, values, traced.spans)
        }
        None => (END_TO_END, end_to_end(&rounds, &fastest_setup), Vec::new()),
    };
    let metrics = in_catalog_order(catalog, &values);
    let mut notes = diagnostics(&rounds, &setups, reference_ms);
    notes.extend(
        metrics
            .iter()
            .map(|m| format!("{:<32} {:>16.4} {}", m.name, m.value, m.unit)),
    );
    Outcome {
        correct: true,
        attempted,
        failed,
        metrics,
        notes,
        spans,
    }
}

/// The computed `values` as metrics, in `catalog` order. A catalog metric
/// with no computed value, a value computed twice, or one the catalog does
/// not list is a defect of the benchmark, never a silent zero.
fn in_catalog_order(
    catalog: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            catalog.iter().any(|(c, _)| c == name),
            "{name} is not a catalog metric"
        );
    }
    catalog
        .iter()
        .map(|&(name, unit)| {
            let mut found = values.iter().filter(|(n, _)| *n == name);
            let value = found
                .next()
                .unwrap_or_else(|| panic!("no value computed for {name}"))
                .1;
            assert!(found.next().is_none(), "{name} computed twice");
            Metric { name, value, unit }
        })
        .collect()
}

fn end_to_end(rounds: &[Round], setup: &SetupTimes) -> Vec<(&'static str, f64)> {
    let last = rounds.last().expect("a correct run has a timed round");
    vec![
        // The fastest set-up and the fastest round: interference on a
        // shared host only ever slows one down, so the best of N is the
        // steadier estimate (the min-of-N wall the figure binaries use).
        ("setup_s", setup.total.as_secs_f64()),
        (
            "inputs_per_s",
            rounds
                .iter()
                .map(|r| r.inputs as f64 / r.wall.as_secs_f64())
                .fold(0.0, f64::max),
        ),
        ("status_bytes", last.status_bytes as f64),
        (
            "wire_bytes_per_block",
            last.wire_bytes as f64 / last.blocks as f64,
        ),
    ]
}

fn per_layer(rounds: &[Round], setup: &SetupTimes, traced: &Round) -> Vec<(&'static str, f64)> {
    let l = LayerLedger::of(&traced.spans);
    let wall_ms = traced.wall.as_secs_f64() * 1e3;
    // The harness's own spans: the `sync_multi` call, or one relayed unit. What
    // they cover themselves is time no named layer accounts for.
    let harness_self = l.self_ms("relay.tx") + l.self_ms("relay.block");
    let uncovered = harness_self + l.self_ms("sync.driver");
    let untraced_wall = median(rounds.iter().map(|r| r.wall.as_secs_f64() * 1e3));
    let ebv_phases =
        ["others", "ev", "uv", "sv", "commit"].map(|p| l.phase_ms("ebv_node.connect", p));
    let base_phases = ["dbo", "sv", "others"].map(|p| l.phase_ms("baseline_node.connect", p));
    let ebv_connect = l.total_ms("ebv_node.connect");
    let base_connect = l.total_ms("baseline_node.connect");
    let mut values = vec![
        ("sync.request_ms", l.self_ms("sync.request")),
        ("sync.serve_ms", l.self_ms("sync.serve")),
        ("sync.driver_ms", l.self_ms("sync.driver")),
        ("sync.requests", l.count("sync.request")),
        ("decode.ms", l.self_ms("decode")),
        ("decode.bytes", l.amount("decode")),
        ("ebv_node.connect_ms", ebv_connect),
        ("ebv_node.others_ms", ebv_phases[0]),
        ("ebv_node.ev_ms", ebv_phases[1]),
        ("ebv_node.uv_ms", ebv_phases[2]),
        ("ebv_node.sv_ms", ebv_phases[3]),
        ("ebv_node.commit_ms", ebv_phases[4]),
        (
            "ebv_node.unattributed_ms",
            ebv_connect - ebv_phases.iter().sum::<f64>(),
        ),
        ("ebv_node.inputs", l.amount("ebv_node.connect")),
        ("mempool.accept_ms", l.self_ms("mempool.accept")),
        ("mempool.remove_ms", l.self_ms("mempool.remove")),
        ("mempool.txs", l.count("mempool.accept")),
        ("mempool.inputs", l.amount("mempool.accept")),
        ("baseline_node.connect_ms", base_connect),
        ("baseline_node.dbo_ms", base_phases[0]),
        ("baseline_node.sv_ms", base_phases[1]),
        ("baseline_node.others_ms", base_phases[2]),
        (
            "baseline_node.unattributed_ms",
            base_connect - base_phases.iter().sum::<f64>(),
        ),
        // The split of the set-up `setup_s` reports.
        ("intermediary.convert_ms", setup.convert.as_secs_f64() * 1e3),
        ("encode.ms", setup.encode.as_secs_f64() * 1e3),
        ("ibd.checkpoint_ms", setup.checkpoint.as_secs_f64() * 1e3),
        (
            "ebv_node.snapshot_boot_ms",
            setup.snapshot_boot.as_secs_f64() * 1e3,
        ),
        (
            "process.cpu_util",
            median(rounds.iter().map(|r| r.host.cpu_util)),
        ),
        ("host.steal_pct", steal_pct(rounds)),
        ("trace.wall_ms", wall_ms),
        ("trace.coverage_pct", 100.0 * (1.0 - uncovered / wall_ms)),
        (
            "trace.overhead_pct",
            100.0 * (wall_ms - untraced_wall) / untraced_wall,
        ),
    ];
    values.extend(relay_latency(rounds));
    values.extend(traced.counts.iter().copied());
    values
}

/// The relay's per-unit latency percentiles over all untraced rounds, with
/// their sample counts.
fn relay_latency(rounds: &[Round]) -> [(&'static str, f64); 6] {
    let all = |unit: fn(&Round) -> &[f64]| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| unit(r).iter().copied())
            .collect()
    };
    let blocks = all(|r| &r.block_ms);
    let txs = all(|r| &r.tx_ms);
    [
        ("relay.block_ms_p50", percentile(&blocks, 0.50)),
        ("relay.block_ms_p99", percentile(&blocks, 0.99)),
        ("relay.blocks", blocks.len() as f64),
        ("relay.tx_ms_p50", percentile(&txs, 0.50)),
        ("relay.tx_ms_p99", percentile(&txs, 0.99)),
        ("relay.txs", txs.len() as f64),
    ]
}

/// Lines printed beside the metrics in every run: what was repeated, and
/// what the host did over the timed phases.
fn diagnostics(rounds: &[Round], setups: &[SetupTimes], reference_ms: f64) -> Vec<String> {
    let mut lines = vec![
        format!(
            "timed rounds (s): {}; {} set-ups (ms): fastest {:.4}, median {:.4}, first ten {}",
            list(rounds.iter().map(|r| r.wall.as_secs_f64())),
            setups.len(),
            ms(setups.iter().map(|s| s.total).min().unwrap_or_default()),
            median(setups.iter().map(|s| ms(s.total))),
            list(setups.iter().take(10).map(|s| ms(s.total))),
        ),
        format!(
            "host: steal {:.2}% of CPU time, process CPU {:.2} cpu_s/s over the timed phases \
             ({} cores), reference loop {reference_ms:.2} ms",
            steal_pct(rounds),
            median(rounds.iter().map(|r| r.host.cpu_util)),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
    ];
    let [b50, b99, blocks, t50, t99, txs] = relay_latency(rounds).map(|(_, v)| v);
    if blocks > 0.0 {
        lines.push(format!(
            "relay latency: block p50 {b50:.3} ms p99 {b99:.3} ms (n={blocks}), \
             tx p50 {t50:.3} ms p99 {t99:.3} ms (n={txs})"
        ));
    }
    lines
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn list(values: impl Iterator<Item = f64>) -> String {
    values
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Steal share over all timed phases together, weighted by their walls.
fn steal_pct(rounds: &[Round]) -> f64 {
    let wall: f64 = rounds.iter().map(|r| r.host.wall_s).sum();
    if wall == 0.0 {
        return 0.0;
    }
    rounds
        .iter()
        .map(|r| r.host.steal_pct * r.host.wall_s)
        .sum::<f64>()
        / wall
}

pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    percentile(&v, 0.5)
}

/// Nearest-rank percentile (0 for no samples); the median of an even
/// count averages the two middle samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if q == 0.5 && n.is_multiple_of(2) {
        return (v[n / 2 - 1] + v[n / 2]) / 2.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    v[rank - 1]
}

/// The work directory beside the build: `<target dir>/ebvbench-work`,
/// derived from where the running executable lives so a run only ever
/// writes inside the checkout it was built in.
pub fn default_work_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("ebvbench-work")))
        .unwrap_or_else(|| Path::new("ebvbench-work").to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no value computed for b")]
    fn a_catalog_metric_without_a_value_is_an_error() {
        in_catalog_order(&[("a", "ms"), ("b", "ms")], &[("a", 1.0)]);
    }

    #[test]
    #[should_panic(expected = "not a catalog metric")]
    fn a_value_outside_the_catalog_is_an_error() {
        in_catalog_order(&[("a", "ms")], &[("a", 1.0), ("typo", 0.0)]);
    }
}
