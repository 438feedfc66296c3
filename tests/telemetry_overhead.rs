//! Overhead guard: telemetry must be cheap enough to leave instrumented
//! code paths in place. The same 1k-block chain is validated with the
//! process-global switch off and on; the enabled run may cost at most 5%
//! more wall clock (plus a small absolute allowance for scheduler noise).
//!
//! This test lives in its own integration-test binary on purpose: the
//! switch is process-global, and toggling it here must not race tests
//! that rely on telemetry staying enabled.

mod common;

use ebv::core::{EbvBlock, EbvConfig, EbvNode};
use ebv::telemetry::Stopwatch;
use std::time::Duration;

/// Validate the whole chain on a fresh node and return the wall time.
/// One worker: single-threaded runs time far more reproducibly than
/// parallel SV, and they execute the identical span instrumentation.
fn validate_run(chain: &[EbvBlock]) -> Duration {
    let sw = Stopwatch::start();
    // With telemetry on, this roots a trace so every per-block span carries
    // ids and feeds the flight-recorder rings — the full causal-tracing
    // cost is inside the guarded window. Inert when disabled.
    let _root = ebv::telemetry::SpanGuard::enter_root("overhead.run", 0xd1ff);
    let config = EbvConfig { workers: Some(1) };
    let mut node = EbvNode::new(&chain[0], config);
    for block in &chain[1..] {
        node.process_block(block).expect("chain is valid");
    }
    sw.elapsed()
}

#[test]
fn telemetry_overhead_is_under_five_percent() {
    let chain = common::ebv_chain(1000, 0xd1ff);

    // One warm-up run populates caches and the page tables.
    ebv::telemetry::set_enabled(false);
    validate_run(&chain);

    // Min-of-three interleaved runs on each side: the minimum is the run
    // least disturbed by the scheduler, which is the cost we are guarding.
    let mut disabled = Duration::MAX;
    let mut enabled = Duration::MAX;
    for _ in 0..3 {
        ebv::telemetry::set_enabled(false);
        disabled = disabled.min(validate_run(&chain));
        ebv::telemetry::set_enabled(true);
        enabled = enabled.min(validate_run(&chain));
    }
    ebv::telemetry::set_enabled(false);

    let limit = disabled.mul_f64(1.05) + Duration::from_millis(100);
    assert!(
        enabled <= limit,
        "telemetry overhead too high: disabled {:?}, enabled {:?} (limit {:?})",
        disabled,
        enabled,
        limit
    );
}
