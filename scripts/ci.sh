#!/usr/bin/env bash
# Tier-1 CI gate. Run from the repository root:
#
#   scripts/ci.sh
#
# The CI workflow (.github/workflows/ci.yml) installs the toolchain, restores
# the cargo cache and runs this script: it is the one list of gate steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no build artifacts in the index"
if [ -n "$(git ls-files target)" ]; then
    echo "error: target/ build artifacts are committed; run 'git rm -r --cached target'" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The whole workspace: the smoke steps below run bench binaries (fig16,
# fig17, syncbench, netsimbench) that live outside the root package.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

# Every test in the workspace: the root package's integration suites plus
# each crate's unit tests (the validation pipeline, the parallel helper,
# the shims).
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The fault matrix is part of 'cargo test' above, but run it by name too so
# a failure is attributed unambiguously. Seeds are fixed inside the tests —
# every run exercises the identical fault schedule.
echo "==> cargo test --test fault_sync (deterministic fault matrix)"
cargo test -q --test fault_sync

# The TCP fault matrix re-runs the content-fault differential over real
# localhost sockets and adds the byte-level adversaries (slow-loris,
# oversized frames, mid-frame disconnects, garbage, truncation, checksum
# corruption, churn). A hang here is a framing-deadline bug, so the suite
# runs under a hard wall-clock cap rather than waiting for CI's global
# timeout to attribute it.
echo "==> cargo test --test wire_sync (TCP fault matrix, 120s cap)"
timeout 120 cargo test -q --test wire_sync

# The wire-codec suite structurally fuzzes the frame format (every
# truncation boundary, every header bit) alongside the §V attack tests.
echo "==> cargo test --test security (attacks + wire codec, 120s cap)"
timeout 120 cargo test -q --test security

# Snapshot-parallel IBD must reach a final state byte-identical to the
# sequential replay, and a corrupted checkpoint must be caught at the
# stitch; run the suite by name so a regression is attributed directly.
echo "==> cargo test --test parallel_ibd (differential + stitch tamper)"
cargo test -q --test parallel_ibd

# Causal tracing, flight-recorder post-mortems, and the health watchdog:
# same-seed determinism, a bundle at every failure class, bundles written
# to disk. The suite clears process-global telemetry state between tests,
# so a hang is a lock bug — cap it.
echo "==> cargo test --test observability (trace trees + post-mortems, 120s cap)"
timeout 120 cargo test -q --test observability

# Exercise the fig17 --parallel-ibd path end to end, with the time-series
# recorder on. Writes under target/ so a small smoke run never clobbers
# the committed BENCH_fig17.json / BENCH_trace.json (which come from
# full-scale runs).
echo "==> fig17 parallel-IBD smoke"
./target/release/fig17 --blocks 130 --runs 1 --parallel-ibd 2 \
    --timeseries-out target/trace_smoke.jsonl \
    --json target/BENCH_fig17_smoke.json > /dev/null

# fig16/fig17 --json embed a telemetry snapshot of the run. A snapshot
# taken with recording off is all zeros, so a smoke run that connected
# blocks must report a nonzero ebv.blocks_connected. Block SV settles in
# batches at every worker count, so it must also report a nonzero
# sv.batch.batches.
require_live_telemetry() {
    if ! grep -Eq '"ebv\.blocks_connected": ?[1-9]' "$1"; then
        echo "error: $1 reports ebv.blocks_connected = 0 (empty telemetry section)" >&2
        exit 1
    fi
    if ! grep -Eq '"sv\.batch\.batches": ?[1-9]' "$1"; then
        echo "error: $1 reports sv.batch.batches = 0 (block SV did not settle in batches)" >&2
        exit 1
    fi
}
require_live_telemetry target/BENCH_fig17_smoke.json

# Health gate smoke: validate a generated chain with telemetry on and
# evaluate the committed SLO document against the resulting snapshot.
# Proves `ebv-cli health --gate` is usable as a CI quality gate.
echo "==> ebv-cli health gate smoke (committed slo.json)"
./target/release/ebv-cli generate --blocks 60 --seed 7 \
    --out target/slo_smoke.bin > /dev/null
./target/release/ebv-cli convert --in target/slo_smoke.bin \
    --out target/slo_smoke.ebv > /dev/null
./target/release/ebv-cli health --slo slo.json --in target/slo_smoke.ebv --gate

# Sync-under-faults bench smoke: wall time plus time-to-ban per adversary
# class over real TCP. Small size into target/ — the committed
# BENCH_sync.json comes from the full-scale run (--blocks 40 --runs 3).
# --gate regresses the current time-to-ban against the committed figures:
# every committed adversary class must still ban, with the same slug, no
# slower than 10x the committed mean.
echo "==> syncbench smoke + time-to-ban gate (180s cap)"
timeout 180 ./target/release/syncbench --blocks 16 --runs 1 \
    --gate BENCH_sync.json \
    --json target/BENCH_sync_smoke.json > /dev/null

# Eclipse resistance: the adversary must win a majority of seeds against
# a naive address manager and none against the hardened PeerManager, and
# a hardened victim must still reach the honest tip through its
# post-campaign tables. Campaigns are seeded and deterministic; the cap
# catches a campaign that stops terminating.
echo "==> cargo test --test eclipse (eclipse campaigns, 120s cap)"
timeout 120 cargo test -q --release --test eclipse

# Partition recovery: 500 netsim nodes must converge onto the heavier
# branch after the heal through the real reorg engine, EBV and baseline
# models must reach identical post-heal state, and a fork deeper than
# max_reorg_depth must fail closed on both node types.
echo "==> cargo test --test partition_heal (partition recovery, 120s cap)"
timeout 120 cargo test -q --release --test partition_heal

# Netsim bench smoke: propagation percentiles, eclipse probability per
# defense arm, and the partition-heal differential at reduced scale.
# Writes under target/ — the committed BENCH_netsim.json comes from the
# full-scale run (defaults: 1000-node propagation, 24 eclipse seeds,
# 500-node partition).
echo "==> netsimbench smoke (eclipse + partition + propagation, 180s cap)"
timeout 180 ./target/release/netsimbench --prop-nodes 200 --prop-runs 1 \
    --nodes 60 --seeds 4 \
    --json target/BENCH_netsim_smoke.json > /dev/null

# Batch ECDSA verification must be a pure performance layer: the
# crypto-level differential suite (edge scalars, mixed batches,
# odd-parity fallback, cancellation-attack probe) and the node-level
# tamper differential (every SV worker count on both node types returns
# the strict per-input oracle's error) both run by name.
echo "==> cargo test -p ebv-primitives --test batch_verify (batch ECDSA differential)"
cargo test -q -p ebv-primitives --test batch_verify

# The single-signature verify runs on two stream decompositions: four
# ~130-digit streams on a key's first verify, eight ≤67-digit streams on
# the half-depth ladder from its second on. Both must return the reference
# ladder's verdicts (edge pieces, seeded mutants, shifted tables, racing
# second verifies); run by name so a regression is attributed directly.
echo "==> cargo test -p ebv-primitives --test ec_differential (full- and half-depth verify vs reference)"
cargo test -q -p ebv-primitives --test ec_differential

echo "==> cargo test --test batch_pipeline (worker-count tamper differential vs strict oracle)"
cargo test -q --test batch_pipeline

# The sync driver connects each batch as one window: blocks commit before
# their SV settles on helper threads, and a window undoes every block from
# its lowest SV failure on. Every window size and worker count on both
# node types must return a per-block loop's result and leave its state; the
# baseline runs each comparison on a roomy and on a starved store cache. A
# hang here is a queue or join bug, so the suite runs under a cap.
echo "==> cargo test --test window_pipeline (window vs per-block differential, 120s cap)"
timeout 120 cargo test -q --test window_pipeline

# The status database against a HashMap model: seeded put/get/delete/flush/
# reopen/compact sequences at cache budgets from one entry up must read as
# the model does, and a delete must write a record exactly when the log
# holds the key. Run by name so a store regression is attributed directly.
echo "==> cargo test -p ebv-store --test store_model (store vs HashMap model)"
cargo test -q -p ebv-store --test store_model

# Exercise fig16's worker comparison and sweep end to end. Small smoke
# into target/ — the committed BENCH_fig16.json comes from the full-scale
# run (--sweep-workers 1,2,4).
echo "==> fig16 smoke"
./target/release/fig16 --blocks 120 \
    --json target/BENCH_fig16_smoke.json > /dev/null
require_live_telemetry target/BENCH_fig16_smoke.json

# Telemetry guards. The overhead test proves instrumentation is cheap
# enough to leave on; the exporter tests pin the Prometheus/JSON formats
# to their golden files.
echo "==> cargo test --test telemetry_overhead (telemetry overhead < 5%)"
cargo test -q --test telemetry_overhead

echo "==> cargo test -p ebv-telemetry --test export_format (exporter golden files)"
cargo test -q -p ebv-telemetry --test export_format

echo "==> cargo test -p ebv-telemetry --test postmortem_schema (bundle golden file)"
cargo test -q -p ebv-telemetry --test postmortem_schema

# Bare Instant::now() is reserved for crates/telemetry (span!/Stopwatch)
# and crates/bench; scheduling/simulation call sites are allowlisted in
# scripts/instant_allowlist.txt. Everything else must go through the
# telemetry crate so measurement stays centralized, and every allowlisted
# file must still need its entry.
echo "==> bare Instant::now() guard"
violations=$(grep -rln 'Instant::now()' --include='*.rs' crates src tests shims \
    | grep -v '^crates/telemetry/' \
    | grep -v '^crates/bench/' \
    | grep -v -F -x -f scripts/instant_allowlist.txt || true)
if [ -n "$violations" ]; then
    echo "error: bare Instant::now() outside the telemetry crate (use span!/Stopwatch" >&2
    echo "or add the file to scripts/instant_allowlist.txt with a justification):" >&2
    echo "$violations" >&2
    exit 1
fi
# An allowlisted file that no longer calls bare Instant::now() is a stale
# entry: drop it, so the list names exactly the files that need it.
stale=$(grep -v -e '^#' -e '^$' scripts/instant_allowlist.txt | while read -r f; do
    grep -q 'Instant::now()' "$f" 2>/dev/null || echo "$f"
done)
if [ -n "$stale" ]; then
    echo "error: scripts/instant_allowlist.txt lists files that no longer call bare" >&2
    echo "Instant::now(); remove them:" >&2
    echo "$stale" >&2
    exit 1
fi

echo "CI gate passed."
