//! Observability-layer integration: deterministic trace trees, flight-
//! recorder post-mortems at every failure class, and the health watchdog.
//!
//! Telemetry state (trace ring, flight rings, registry, heartbeats) is
//! process-global, so every test here serializes on one lock and clears
//! the rings it reads before producing events.

mod common;

use common::ebv_chain;
use ebv::core::{
    build_checkpoints, parallel_ibd, sync_multi, EbvBlock, EbvConfig, EbvNode, Fault,
    FaultSchedule, FaultyPeer, PeerHandle, SyncConfig,
};
use ebv::telemetry::json::{parse, Value};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Take the global-telemetry lock, enable telemetry, and clear the trace
/// and flight rings so the test reads only its own events.
fn telemetry_session() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ebv::telemetry::set_enabled(true);
    ebv::telemetry::trace_clear();
    ebv::telemetry::flight::clear();
    guard
}

/// One peer that corrupts every batch: three 40-point penalties, a ban,
/// then `AllPeersFailed` — the canonical failing session.
fn run_ban_scenario(chain: &[EbvBlock], driver_seed: u64) {
    let cfg = SyncConfig {
        seed: driver_seed,
        ..SyncConfig::fast_test()
    };
    let corrupt = FaultyPeer::new(chain.to_vec(), FaultSchedule::cycle(vec![Fault::Corrupt]));
    let peers = vec![PeerHandle::spawn(4242, corrupt)];
    let mut node = EbvNode::new(&chain[0], EbvConfig::default());
    sync_multi(&mut node, peers, &cfg).expect_err("no honest peer to finish the sync");
}

/// The identity of every span in the trace ring: (trace, span, parent,
/// name), sorted. Wall times and ring order are timing-dependent; the id
/// tuples are what the seeded-determinism claim is about.
fn span_tuples() -> Vec<(String, String, String, String)> {
    let mut out = Vec::new();
    for line in ebv::telemetry::trace_snapshot() {
        let Ok(v) = parse(&line) else { continue };
        if v.get("event").and_then(Value::as_str) != Some("span.begin") {
            continue;
        }
        let field = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        out.push((
            field("trace"),
            field("span"),
            field("parent"),
            field("name"),
        ));
    }
    out.sort();
    out
}

#[test]
fn same_seed_sync_runs_yield_identical_span_trees() {
    let _guard = telemetry_session();
    let chain = ebv_chain(12, 0xabc1);

    run_ban_scenario(&chain, 0xd0d0);
    let first = span_tuples();
    assert!(
        first.iter().any(|t| t.3 == "sync.session"),
        "the session root span must appear"
    );
    assert!(
        first.iter().any(|t| t.3 == "sync.request"),
        "per-request spans must appear"
    );

    ebv::telemetry::trace_clear();
    ebv::telemetry::flight::clear();
    run_ban_scenario(&chain, 0xd0d0);
    let second = span_tuples();

    assert_eq!(
        first, second,
        "same seed must derive byte-identical trace/span/parent ids"
    );

    // A different seed roots a different trace entirely.
    ebv::telemetry::trace_clear();
    ebv::telemetry::flight::clear();
    run_ban_scenario(&chain, 0xd0d1);
    let third = span_tuples();
    assert_ne!(first[0].0, third[0].0, "distinct seeds, distinct trace ids");
}

#[test]
fn same_seed_parallel_ibd_yields_identical_span_trees() {
    let _guard = telemetry_session();
    let chain = ebv_chain(120, 0x51ac);
    let checkpoints = build_checkpoints(&chain[0], &chain[1..], 30).expect("consistent");

    let mut runs = Vec::new();
    for _ in 0..2 {
        ebv::telemetry::trace_clear();
        let run = parallel_ibd(
            &chain[0],
            &chain[1..],
            &checkpoints,
            2,
            EbvConfig::default(),
        )
        .expect("valid chain replays in parallel");
        assert_eq!(run.stitch_mismatch, None);
        runs.push(span_tuples());
    }
    assert!(
        runs[0].iter().any(|t| t.3 == "ibd.parallel"),
        "the IBD root span must appear"
    );
    assert!(
        runs[0].iter().filter(|t| t.3 == "ibd.interval").count() >= 2,
        "interval spans must appear under the root"
    );
    assert_eq!(
        runs[0], runs[1],
        "worker scheduling must not leak into span identity"
    );
}

#[test]
fn stitch_mismatch_dumps_a_causal_bundle() {
    let _guard = telemetry_session();
    let chain = ebv_chain(120, 0x51ac);
    let tip = chain.len() as u32 - 1;
    let mut checkpoints = build_checkpoints(&chain[0], &chain[1..], 30).expect("consistent");
    assert!(checkpoints.len() >= 2);

    // Corrupt checkpoint 1 plausibly (flip one output that survives to the
    // chain tip to spent) so only the stitch can notice — same conviction
    // path the parallel-IBD suite exercises.
    let mut truth = EbvNode::new(&chain[0], EbvConfig::default());
    for block in &chain[1..] {
        truth.process_block(block).expect("valid block");
    }
    let victim = &checkpoints[1];
    let (h, pos) = (0..=victim.height())
        .find_map(|h| {
            let v = truth.bitvecs().vector(h)?;
            (0..v.len())
                .find(|&p| v.is_unspent(p) == Some(true))
                .map(|p| (h, p))
        })
        .expect("some output survives the whole chain");
    let mut set = victim.restore();
    set.spend(h, pos).expect("picked an unspent bit");
    checkpoints[1] = set.snapshot(victim.height(), victim.tip_hash());

    let run = parallel_ibd(
        &chain[0],
        &chain[1..],
        &checkpoints,
        2,
        EbvConfig::default(),
    )
    .expect("mismatch degrades, it does not fail");
    assert_eq!(run.stitch_mismatch, Some(1));
    assert_eq!(run.node.tip_height(), tip);

    let bundle = ebv::telemetry::flight::recent_bundles()
        .into_iter()
        .find(|b| b.contains("\"trigger\":\"ibd.interval.stitch_mismatch\""))
        .expect("the stitch mismatch must dump a bundle");
    let v = parse(&bundle).expect("bundle is valid JSON");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("ebv.postmortem.v1")
    );
    let trace = v
        .get("trace")
        .and_then(Value::as_str)
        .expect("the stitch happens under the IBD root span");
    let Some(Value::Array(events)) = v.get("events") else {
        panic!("bundle has no events array");
    };
    assert!(!events.is_empty());
    for ev in events {
        assert_eq!(
            ev.get("trace").and_then(Value::as_str),
            Some(trace),
            "bundle must be reconstructible from the trace id alone: {ev:?}"
        );
    }
    // The convicted interval rides along as trigger context.
    let stitch = v.get("stitch").expect("stitch context embedded");
    assert_eq!(stitch.get("interval").and_then(Value::as_f64), Some(1.0));
}

#[test]
fn snapshot_rejection_dumps_a_bundle() {
    let _guard = telemetry_session();
    let chain = ebv_chain(4, 0x5a9);
    let mut node = EbvNode::new(&chain[0], EbvConfig::default());
    node.process_block(&chain[1]).expect("valid block");
    let snap = node.snapshot();
    let h0 = *node.header_at(0).expect("genesis header");

    // Too few headers for the snapshot height: rejected, and the rejection
    // leaves a post-mortem bundle naming the reason.
    assert!(
        EbvNode::from_snapshot(&snap, vec![h0], EbvConfig::default()).is_err(),
        "header count mismatch must be rejected"
    );
    let bundle = ebv::telemetry::flight::recent_bundles()
        .into_iter()
        .find(|b| b.contains("\"trigger\":\"ebv.snapshot_rejected\""))
        .expect("the rejection must dump a bundle");
    let v = parse(&bundle).expect("bundle is valid JSON");
    let snapshot_ctx = v.get("snapshot").expect("snapshot context embedded");
    assert_eq!(
        snapshot_ctx.get("height").and_then(Value::as_f64),
        Some(1.0)
    );
    assert!(
        snapshot_ctx
            .get("reason")
            .and_then(Value::as_str)
            .is_some_and(|r| r.contains("HeaderCount")),
        "bundle names the rejection reason"
    );
}

#[test]
fn postmortem_bundles_are_written_to_disk() {
    let _guard = telemetry_session();
    let dir = std::env::temp_dir().join(format!("ebv-obs-postmortem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create postmortem dir");
    ebv::telemetry::flight::set_postmortem_dir(Some(dir.clone()));

    let chain = ebv_chain(12, 0xabc1);
    run_ban_scenario(&chain, 0xf11e);
    ebv::telemetry::flight::set_postmortem_dir(None);

    let mut bundles: Vec<_> = std::fs::read_dir(&dir)
        .expect("read postmortem dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("postmortem-") && n.ends_with(".json"))
        })
        .collect();
    bundles.sort();
    assert!(
        !bundles.is_empty(),
        "the ban and the session failure must write bundles"
    );
    for path in &bundles {
        let text = std::fs::read_to_string(path).expect("read bundle");
        let v = parse(&text).unwrap_or_else(|e| panic!("{}: bad JSON: {e}", path.display()));
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("ebv.postmortem.v1"),
            "{}",
            path.display()
        );
        assert!(matches!(v.get("events"), Some(Value::Array(_))));
        assert!(v.get("metrics").is_some(), "registry snapshot embedded");
    }
    let names: Vec<String> = bundles
        .iter()
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
        .collect();
    assert!(
        names.iter().any(|n| n.contains("sync_peer_banned")),
        "ban bundle on disk, got {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_flags_a_stalled_heartbeat_and_rearms() {
    let _guard = telemetry_session();
    ebv::telemetry::health::reset();
    let stalls = ebv::telemetry::counter("health.stalls");
    let before = stalls.get();

    ebv::telemetry::heartbeat("obs.stall.probe");
    let watchdog =
        ebv::telemetry::Watchdog::spawn(Duration::from_millis(60), Duration::from_millis(15));
    // Generous window: the beat goes stale well past the deadline.
    std::thread::sleep(Duration::from_millis(400));
    let flagged = stalls.get();
    assert!(
        flagged > before,
        "a silent heartbeat must be flagged as stalled"
    );
    // One stall is one flag — no re-firing while the task stays silent.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(stalls.get(), flagged, "no duplicate flags for one stall");

    // A fresh beat re-arms the detector; a second silence flags again.
    ebv::telemetry::heartbeat("obs.stall.probe");
    std::thread::sleep(Duration::from_millis(400));
    drop(watchdog);
    assert!(
        stalls.get() > flagged,
        "a new stall after recovery must be flagged again"
    );
    ebv::telemetry::health::reset();
}
