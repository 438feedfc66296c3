//! Telemetry for the EBV reproduction.
//!
//! The paper's argument is a measurement claim, so measurement is core
//! infrastructure here, not an afterthought. This crate provides — with no
//! external dependencies, matching the `shims/` convention —
//!
//! * a process-global, sharded [`Registry`] of named [`Counter`]s,
//!   [`Gauge`]s and log-linear-bucket [`Histogram`]s whose update paths are
//!   single atomic RMWs, cheap enough for the per-input SV loop;
//! * a [`span!`] macro producing a RAII [`Span`] guard that times a scope,
//!   feeds an optional `&mut Duration` accumulator (the existing
//!   `Breakdown`/`DboStats` fields, so the figure binaries' output is
//!   unchanged) and records the elapsed nanoseconds into a histogram;
//! * a structured event trace ([`trace_event!`]): a bounded ring buffer of
//!   timestamped JSONL lines that can tee to a file ([`trace_tee_to_file`]);
//! * causal identity ([`context`]): seeded, deterministic 64-bit
//!   trace/span ids with parent links that every trace line carries while
//!   a [`child_span!`] guard is live;
//! * a flight recorder ([`flight`]): per-subsystem evidence rings dumped
//!   as self-contained post-mortem bundles at failure time;
//! * health ([`health`]): progress heartbeats, a stall [`Watchdog`], and
//!   an SLO evaluator for CI gating;
//! * a time-series recorder ([`timeseries`]): periodic delta snapshots to
//!   JSONL for long-run trajectories;
//! * exporters: Prometheus text format ([`export::prometheus_text`]) and a
//!   JSON snapshot ([`export::json_snapshot`]).
//!
//! Everything is gated on a process-global runtime switch ([`set_enabled`]):
//! when disabled, spans skip the clock reads entirely (except when an
//! accumulator needs the duration) and counters/histograms are single
//! predictable branches. The overhead guard test in the root crate holds
//! this to < 5% on a 1k-block validation run.
//!
//! Metric naming scheme: `ebv.*` for the EBV validator, `baseline.*` for the
//! comparator, `store.*` for the status database, `sync.*` for the peer
//! driver, `netsim.*` for the gossip simulator. Labels ride in the name as
//! `name{key=value,...}`; exporters split them back out.

pub mod context;
pub mod export;
pub mod flight;
pub mod health;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use context::{SpanGuard, TraceCtx};
pub use export::{json_snapshot, prometheus_text, write_metrics_files, Snapshot};
pub use health::{evaluate_slo, heartbeat, SloViolation, Watchdog};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{counter, gauge, global, histogram, Registry};
pub use span::Span;
pub use timeseries::TimeseriesRecorder;
pub use trace::{
    trace_clear, trace_event, trace_snapshot, trace_tee_to_file, trace_untee, TraceValue,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Process-global telemetry switch. Off by default: library users opt in.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry recording enabled?
///
/// Instrumentation call sites use this to skip work that is more than one
/// atomic update (e.g. walking the bit-vector set to refresh gauges).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn telemetry recording on or off process-wide.
///
/// This is a runtime switch rather than a cargo feature so a single test
/// process can compare enabled-vs-disabled wall clock (the overhead guard).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A thin `Instant` wrapper for legitimate wall-clock measurement outside
/// the telemetry crate (figure binaries, IBD period walls).
///
/// CI greps the workspace for bare `Instant::now()` outside this crate and
/// `crates/bench` to keep instrumentation centralized; code that genuinely
/// needs a wall clock uses `Stopwatch` instead.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start the clock.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed time since `start()`.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}
