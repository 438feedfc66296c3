//! The multi-peer sync driver.
//!
//! One generic implementation over [`ValidatingNode`] drives any node to
//! the best tip its peers can serve, surviving peer faults:
//!
//! * per-request timeouts — a stalled peer costs one timeout, not the
//!   whole sync; its late reply is discarded by request id;
//! * capped exponential backoff with deterministic seeded jitter — a
//!   failing peer is retried, but at a falling rate;
//! * per-peer scoring — decode failures score worse than validation
//!   failures, which score worse than stalls — with automatic ban once a
//!   peer's score crosses the threshold, and failover to the next-best
//!   peer on every failure;
//! * fork handling — a batch that does not attach triggers fork
//!   resolution: walk the peer's chain back to the common ancestor and,
//!   if the candidate branch is longer, reorg onto it via
//!   [`reorg_to`](super::reorg::reorg_to).
//!
//! Sync completes when every live peer reports exhaustion at the current
//! tip; it fails only when no usable peer remains — so it succeeds as
//! long as one honest peer survives.

use super::fault::splitmix64;
use super::node::ValidatingNode;
use super::peer::{RequestOutcome, Transport};
use super::reorg::{reorg_to, ReorgError};
use super::wire::WireError;
use super::SyncError;
use ebv_telemetry::{counter, histogram, trace_event};
use std::time::{Duration, Instant};

/// Batch size used by the sync drivers (Bitcoin uses 500-block locators;
/// 128 keeps per-batch memory modest at our block sizes).
pub const SYNC_BATCH: u32 = 128;

/// Score added for a batch that fails to decode (the strongest sign of a
/// broken or malicious peer).
const DECODE_PENALTY: u32 = 40;
/// Score added for a batch whose blocks fail validation.
const VALIDATION_PENALTY: u32 = 25;
/// Score added for a rejected fork (stale or equivocating tip).
const FORK_PENALTY: u32 = 25;
/// Score added for a request timeout (could be honest congestion).
const STALL_PENALTY: u32 = 12;
/// Score subtracted after a successfully connected batch.
const SUCCESS_REWARD: u32 = 10;

/// Map a byte-level wire violation to a score penalty. Malformed bytes
/// (bad magic, oversized claims, checksum mismatches, truncation) are as
/// damning as a batch that fails to decode — three strikes and out.
/// Slowness and handshake failure could be honest congestion, so they
/// score like validation failures; plain socket errors like stalls.
fn wire_penalty(err: &WireError) -> u32 {
    match err {
        WireError::SlowRead | WireError::HandshakeTimeout => VALIDATION_PENALTY,
        WireError::Io(_) => STALL_PENALTY,
        _ => DECODE_PENALTY,
    }
}

/// Tuning knobs for the multi-peer driver.
#[derive(Clone, Copy, Debug)]
pub struct SyncConfig {
    /// Blocks per `GetBlocks` request.
    pub batch: u32,
    /// How long to wait for a peer's response before declaring a stall.
    pub request_timeout: Duration,
    /// First backoff step after a failure; doubles per consecutive
    /// failure.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Ban a peer once its score reaches this value.
    pub ban_score: u32,
    /// Deepest fork the driver will walk back looking for a common
    /// ancestor.
    pub max_reorg_depth: u32,
    /// Hard cap on driver rounds — a termination backstop against
    /// adversarial peer sets.
    pub max_rounds: u32,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            batch: SYNC_BATCH,
            request_timeout: Duration::from_secs(1),
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(500),
            ban_score: 100,
            max_reorg_depth: 64,
            max_rounds: 100_000,
            seed: 0xebb,
        }
    }
}

impl SyncConfig {
    /// Tight timings for unit tests: sub-millisecond backoff and a
    /// 50 ms request timeout, so injected stalls resolve quickly.
    pub fn fast_test() -> SyncConfig {
        SyncConfig {
            request_timeout: Duration::from_millis(50),
            base_backoff: Duration::from_micros(300),
            max_backoff: Duration::from_millis(5),
            ..SyncConfig::default()
        }
    }
}

/// Per-peer outcome counters, reported in [`SyncReport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PeerStats {
    pub id: usize,
    pub batches: u32,
    pub blocks_accepted: u32,
    pub decode_failures: u32,
    pub validation_failures: u32,
    pub stalls: u32,
    pub fork_rejects: u32,
    /// Byte-level wire-protocol violations (TCP transport only).
    pub wire_errors: u32,
    pub reorgs: u32,
    pub score: u32,
    pub banned: bool,
    /// Microseconds from driver start to this peer's ban, if banned —
    /// the time-to-ban the fault matrix and `BENCH_sync.json` assert on.
    pub banned_at_us: Option<u64>,
}

/// What a completed sync did.
#[derive(Clone, Debug, Default)]
pub struct SyncReport {
    /// Blocks connected (including blocks connected during reorgs).
    pub blocks_connected: u32,
    /// Blocks disconnected by reorgs.
    pub blocks_disconnected: u32,
    /// Successful chain-tip switches.
    pub reorgs: u32,
    /// Driver rounds consumed.
    pub rounds: u32,
    /// Per-peer statistics, in peer order.
    pub peers: Vec<PeerStats>,
}

/// Driver-side state for one peer.
struct PeerCtl<T: Transport> {
    handle: T,
    /// When this driver run started — the zero point for `banned_at_us`.
    started: Instant,
    score: u32,
    /// Consecutive failures — drives the exponential backoff.
    failures: u32,
    /// Lifetime request count against this peer — the trace-span key for
    /// `sync.request` spans. Deterministic per peer where driver *rounds*
    /// are not (the all-backing-off sleep path consumes rounds at a
    /// timing-dependent rate).
    requests: u64,
    banned: bool,
    closed: bool,
    ready_at: Instant,
    /// `Some(tip)` once the peer reported exhaustion while our tip was
    /// `tip`; cleared whenever the tip moves or the peer serves blocks.
    exhausted_at: Option<u32>,
    stats: PeerStats,
}

impl<T: Transport> PeerCtl<T> {
    fn new(handle: T) -> PeerCtl<T> {
        let id = handle.id();
        PeerCtl {
            handle,
            started: Instant::now(),
            score: 0,
            failures: 0,
            requests: 0,
            banned: false,
            closed: false,
            ready_at: Instant::now(),
            exhausted_at: None,
            stats: PeerStats {
                id,
                ..PeerStats::default()
            },
        }
    }

    fn usable(&self) -> bool {
        !self.banned && !self.closed
    }

    /// Record a failure of weight `penalty`: bump the score, extend the
    /// backoff (capped exponential with deterministic jitter), and ban if
    /// over threshold. Returns the consecutive-failure count.
    ///
    /// `reason` is a short slug ("decode", "validation", "stall", ...)
    /// attached to the score-change trace event — the score total alone
    /// cannot explain *why* a peer ended up banned.
    fn penalize(&mut self, penalty: u32, reason: &str, cfg: &SyncConfig) -> u32 {
        self.score = self.score.saturating_add(penalty);
        self.failures = self.failures.saturating_add(1);
        let exp = self.failures.saturating_sub(1).min(16);
        let raw = cfg
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(cfg.max_backoff);
        // Jitter in [0.75, 1.25), deterministic per (seed, peer, failure).
        let mix =
            splitmix64(cfg.seed ^ ((self.handle.id() as u64) << 32) ^ u64::from(self.failures));
        let jitter = 0.75 + (mix % 512) as f64 / 1024.0;
        let backoff = raw.mul_f64(jitter);
        self.ready_at = Instant::now() + backoff;
        peer_counter("sync.peer.retries", self.handle.id());
        trace_event!(
            "sync.peer_score",
            peer = self.handle.id(),
            delta = penalty as i64,
            score = self.score,
            reason = reason,
            failures = self.failures,
        );
        trace_event!(
            "sync.backoff",
            peer = self.handle.id(),
            failures = self.failures,
            backoff_us = backoff.as_micros() as u64,
        );
        if self.score >= cfg.ban_score && !self.banned {
            self.banned = true;
            self.stats.banned = true;
            let banned_after_us = self.started.elapsed().as_micros() as u64;
            self.stats.banned_at_us = Some(banned_after_us);
            counter!("sync.peer.bans").inc();
            peer_counter("sync.peer.bans", self.handle.id());
            // Export the time-to-ban per peer: the containment bound the
            // fault matrix asserts on becomes scrapeable.
            if ebv_telemetry::enabled() {
                ebv_telemetry::registry::gauge(&format!(
                    "sync.peer.banned_at_us{{peer={}}}",
                    self.handle.id()
                ))
                .set(banned_after_us);
            }
            trace_event!(
                "sync.peer_banned",
                peer = self.handle.id(),
                score = self.score,
                last_reason = reason,
                banned_after_us = banned_after_us,
                decode_failures = self.stats.decode_failures,
                validation_failures = self.stats.validation_failures,
                stalls = self.stats.stalls,
                fork_rejects = self.stats.fork_rejects,
                wire_errors = self.stats.wire_errors,
            );
            // Failure-time evidence: the ban's causal chain (every scored
            // event under this session's trace id) plus the banned peer's
            // final stats, bundled while the ring still holds them.
            if ebv_telemetry::enabled() {
                ebv_telemetry::flight::dump(
                    "sync.peer_banned",
                    ebv_telemetry::context::current_trace(),
                    &[("peer", peer_stats_json(&self.stats, self.score))],
                );
            }
            self.handle.finish();
        }
        self.failures
    }

    /// Record a success: clear the failure streak and decay the score.
    fn reward(&mut self) {
        self.failures = 0;
        self.score = self.score.saturating_sub(SUCCESS_REWARD);
        trace_event!(
            "sync.peer_score",
            peer = self.handle.id(),
            delta = -(SUCCESS_REWARD as i64),
            score = self.score,
            reason = "batch_connected",
        );
    }
}

/// How fork resolution against one peer ended.
enum ForkOutcome {
    /// The node switched to the peer's branch.
    Reorged { connected: u32, disconnected: u32 },
    /// The fork was rejected or could not be resolved; penalize the peer
    /// with `penalty` and remember `error` as the last failure.
    Rejected { penalty: u32, reason: String },
    /// The peer served an invalid branch — ban-worthy.
    InvalidBranch { reason: String },
    /// Node state is suspect (unwind failure); abort the sync.
    Fatal(String),
    /// Generic per-request failure during resolution.
    RequestFailed { penalty: u32, reason: String },
}

/// Synchronize `node` against `peers` until every live peer is exhausted
/// at the tip. Returns what was done, or the reason no progress is
/// possible. See the module docs for the failure-handling policy.
pub fn sync_multi<N: ValidatingNode, T: Transport>(
    node: &mut N,
    peers: Vec<T>,
    cfg: &SyncConfig,
) -> Result<SyncReport, SyncError<N::Error>> {
    let total = peers.len();
    // The session's causal root: a new trace when the caller has none, a
    // child span under `sync_managed`'s trace when it does. Seeded, so
    // same-seed runs produce identical trace trees.
    let _session_span = ebv_telemetry::context::SpanGuard::enter_root("sync.session", cfg.seed);
    // The newest connected blocks, `store[k]` at height `floor + 1 + k`,
    // kept so a failed reorg can restore the old branch. Forks below
    // `floor` are refused: it starts at the session's first tip (we never
    // saw the blocks below it) and rises as `trim_store` drops blocks too
    // deep for any accepted fork.
    let mut floor = node.tip_height();
    let mut store: Vec<N::Block> = Vec::new();
    let mut ctls: Vec<PeerCtl<T>> = peers.into_iter().map(PeerCtl::new).collect();
    let mut report = SyncReport::default();
    let mut last_failure: Option<SyncError<N::Error>> = None;

    loop {
        report.rounds += 1;
        trim_store(&mut store, &mut floor, cfg.max_reorg_depth);
        // Liveness heartbeat: the stall watchdog distinguishes a slow
        // session (beating every round) from a hung one (silent).
        ebv_telemetry::health::heartbeat("sync.session.progress");
        if report.rounds > cfg.max_rounds {
            sync_failure_dump("round_limit", &ctls);
            finish_all(&mut ctls);
            return Err(SyncError::RoundLimit {
                height: node.tip_height(),
                rounds: report.rounds,
            });
        }
        let tip = node.tip_height();
        let live: Vec<usize> = (0..ctls.len()).filter(|&i| ctls[i].usable()).collect();
        if live.is_empty() {
            let banned = ctls.iter().filter(|c| c.banned).count();
            sync_failure_dump("all_peers_failed", &ctls);
            finish_all(&mut ctls);
            return Err(SyncError::AllPeersFailed {
                total,
                banned,
                height: tip,
                rounds: report.rounds,
                last: last_failure.map(Box::new),
            });
        }
        // `tip == u32::MAX` means the u32 height space is full: there is no
        // height left to request, so the chain is as synced as it can get.
        // Without this guard `tip + 1` below would wrap to height 0.
        if tip == u32::MAX || live.iter().all(|&i| ctls[i].exhausted_at == Some(tip)) {
            finish_all(&mut ctls);
            report.peers = ctls.iter().map(|c| c.stats).collect();
            for (c, s) in ctls.iter().zip(report.peers.iter_mut()) {
                s.score = c.score;
            }
            return Ok(report);
        }

        // Pick the best ready peer: lowest score, ties to lowest id.
        let now = Instant::now();
        let mut pick: Option<usize> = None;
        for &i in &live {
            if ctls[i].exhausted_at == Some(tip) || ctls[i].ready_at > now {
                continue;
            }
            let better = match pick {
                None => true,
                Some(j) => {
                    (ctls[i].score, ctls[i].handle.id()) < (ctls[j].score, ctls[j].handle.id())
                }
            };
            if better {
                pick = Some(i);
            }
        }
        let Some(i) = pick else {
            // Every candidate is backing off; sleep until the earliest
            // becomes ready.
            let wake = live
                .iter()
                .filter(|&&i| ctls[i].exhausted_at != Some(tip))
                .map(|&i| ctls[i].ready_at)
                .min();
            if let Some(w) = wake {
                let now = Instant::now();
                if w > now {
                    std::thread::sleep((w - now).min(cfg.max_backoff));
                }
            }
            continue;
        };

        let peer_id = ctls[i].handle.id();
        let start = tip + 1;
        // One span per request, keyed (peer, per-peer request number) so
        // ids are reproducible even though peer interleaving is
        // timing-dependent.
        ctls[i].requests += 1;
        let _req_span =
            ebv_telemetry::child_span!("sync.request", ((peer_id as u64) << 32) | ctls[i].requests);
        peer_counter("sync.peer.requests", peer_id);
        match ctls[i]
            .handle
            .request(start, cfg.batch, cfg.request_timeout)
        {
            RequestOutcome::Closed => {
                ctls[i].closed = true;
                last_failure = Some(SyncError::SourceClosed {
                    peer: peer_id,
                    height: start,
                });
            }
            RequestOutcome::TimedOut => {
                ctls[i].stats.stalls += 1;
                peer_counter("sync.peer.timeouts", peer_id);
                let attempts = ctls[i].penalize(STALL_PENALTY, "stall", cfg);
                last_failure = Some(SyncError::Stalled {
                    peer: peer_id,
                    height: start,
                    attempts,
                });
            }
            RequestOutcome::Wire(err) => {
                ctls[i].stats.wire_errors += 1;
                peer_counter("sync.peer.wire_errors", peer_id);
                wire_class_counter(peer_id, err.slug());
                // The wire error's slug is the score reason, so a ban
                // trace names the byte-level violation that earned it.
                let attempts = ctls[i].penalize(wire_penalty(&err), err.slug(), cfg);
                last_failure = Some(SyncError::Wire {
                    peer: peer_id,
                    height: start,
                    attempts,
                    err,
                });
            }
            RequestOutcome::Exhausted => {
                ctls[i].exhausted_at = Some(tip);
                ctls[i].failures = 0;
            }
            RequestOutcome::Blocks(batch_bytes) => {
                ctls[i].stats.batches += 1;
                ctls[i].exhausted_at = None;
                let mut blocks: Vec<N::Block> = Vec::with_capacity(batch_bytes.len());
                let mut decode_err = None;
                for (k, bytes) in batch_bytes.iter().enumerate() {
                    match N::decode_block(bytes) {
                        Ok(b) => blocks.push(b),
                        Err(e) => {
                            decode_err = Some((k, e));
                            break;
                        }
                    }
                }
                if let Some((k, err)) = decode_err {
                    ctls[i].stats.decode_failures += 1;
                    let attempts = ctls[i].penalize(DECODE_PENALTY, "decode", cfg);
                    last_failure = Some(SyncError::Decode {
                        peer: peer_id,
                        // Report-only coordinate; saturate rather than wrap
                        // if a near-MAX start plus the batch offset overflows.
                        height: start.saturating_add(k as u32),
                        attempts,
                        err,
                    });
                } else if blocks.is_empty() {
                    ctls[i].exhausted_at = Some(tip);
                } else if N::block_prev_hash(&blocks[0]) != node.tip_hash() {
                    match resolve_fork(node, &mut ctls[i], &mut store, floor, blocks, cfg) {
                        ForkOutcome::Reorged {
                            connected,
                            disconnected,
                        } => {
                            report.reorgs += 1;
                            report.blocks_connected += connected;
                            report.blocks_disconnected += disconnected;
                            ctls[i].stats.reorgs += 1;
                            ctls[i].stats.blocks_accepted += connected;
                            ctls[i].reward();
                        }
                        ForkOutcome::Rejected { penalty, reason } => {
                            ctls[i].stats.fork_rejects += 1;
                            let attempts = ctls[i].penalize(penalty, "fork_rejected", cfg);
                            last_failure = Some(SyncError::ForkRejected {
                                peer: peer_id,
                                height: start,
                                attempts,
                                reason,
                            });
                        }
                        ForkOutcome::InvalidBranch { reason } => {
                            ctls[i].stats.validation_failures += 1;
                            let attempts = ctls[i].penalize(cfg.ban_score, "invalid_branch", cfg);
                            last_failure = Some(SyncError::ForkRejected {
                                peer: peer_id,
                                height: start,
                                attempts,
                                reason,
                            });
                        }
                        ForkOutcome::RequestFailed { penalty, reason } => {
                            let attempts = ctls[i].penalize(penalty, "fork_request_failed", cfg);
                            last_failure = Some(SyncError::ForkRejected {
                                peer: peer_id,
                                height: start,
                                attempts,
                                reason,
                            });
                        }
                        ForkOutcome::Fatal(msg) => {
                            sync_failure_dump("internal", &ctls);
                            finish_all(&mut ctls);
                            return Err(SyncError::Internal(msg));
                        }
                    }
                } else {
                    // The batch is one validation window: it settles, and
                    // keeps exactly the blocks a block-by-block connect
                    // would, before the driver sees the result.
                    let (connected, result) = node.connect_blocks(&blocks);
                    store.extend(blocks.into_iter().take(connected));
                    report.blocks_connected += connected as u32;
                    ctls[i].stats.blocks_accepted += connected as u32;
                    if let Err(err) = result {
                        ctls[i].stats.validation_failures += 1;
                        let attempts = ctls[i].penalize(VALIDATION_PENALTY, "validation", cfg);
                        last_failure = Some(SyncError::Validation {
                            peer: peer_id,
                            height: node.tip_height() + 1,
                            attempts,
                            err,
                        });
                    } else {
                        ctls[i].reward();
                    }
                }
            }
        }
    }
}

/// Bump the per-peer labeled counter `name{peer=N}`. The label makes the
/// metric name dynamic, so the per-call-site caching macro does not apply;
/// gate the format on `enabled()` instead.
fn peer_counter(name: &str, peer: usize) {
    if ebv_telemetry::enabled() {
        ebv_telemetry::registry::counter(&format!("{name}{{peer={peer}}}")).inc();
    }
}

/// Bump `sync.peer.wire_errors{peer=N,class=<slug>}` — the per-peer,
/// per-violation-class breakdown the metrics snapshot exports alongside
/// the plain per-peer total.
fn wire_class_counter(peer: usize, class: &str) {
    if ebv_telemetry::enabled() {
        ebv_telemetry::registry::counter(&format!(
            "sync.peer.wire_errors{{peer={peer},class={class}}}"
        ))
        .inc();
    }
}

fn finish_all<T: Transport>(ctls: &mut [PeerCtl<T>]) {
    for c in ctls {
        c.handle.finish();
    }
}

/// One peer's stats as a raw JSON object — the flight recorder embeds
/// these verbatim in post-mortem bundles. Hand-formatted like the rest
/// of the telemetry crate (no serde under the shims constraint).
fn peer_stats_json(stats: &PeerStats, score: u32) -> String {
    format!(
        "{{\"id\":{},\"batches\":{},\"blocks_accepted\":{},\"decode_failures\":{},\
         \"validation_failures\":{},\"stalls\":{},\"fork_rejects\":{},\"wire_errors\":{},\
         \"reorgs\":{},\"score\":{},\"banned\":{},\"banned_at_us\":{}}}",
        stats.id,
        stats.batches,
        stats.blocks_accepted,
        stats.decode_failures,
        stats.validation_failures,
        stats.stalls,
        stats.fork_rejects,
        stats.wire_errors,
        stats.reorgs,
        score,
        stats.banned,
        stats
            .banned_at_us
            .map_or_else(|| "null".to_string(), |v| v.to_string()),
    )
}

fn peers_stats_json<T: Transport>(ctls: &[PeerCtl<T>]) -> String {
    let mut out = String::from("[");
    for (i, c) in ctls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&peer_stats_json(&c.stats, c.score));
    }
    out.push(']');
    out
}

/// Capture a post-mortem bundle as a sync session dies: the session's
/// causal chain (filtered by its trace id) plus every peer's final
/// stats. `kind` names the `SyncError` variant about to be returned.
fn sync_failure_dump<T: Transport>(kind: &str, ctls: &[PeerCtl<T>]) {
    if !ebv_telemetry::enabled() {
        return;
    }
    trace_event!("sync.session_failed", kind = kind);
    ebv_telemetry::flight::dump(
        "sync.session_failed",
        ebv_telemetry::context::current_trace(),
        &[
            ("kind", format!("\"{kind}\"")),
            ("peers", peers_stats_json(ctls)),
        ],
    );
}

/// Drop the oldest blocks of `store` once it holds `2 × depth`, keeping
/// the newest `depth` and raising `floor` past the dropped ones. No fork
/// `depth` or more blocks deep is accepted, so no reorg can need them;
/// trimming in batches keeps the shift amortized O(1) per block.
fn trim_store<B>(store: &mut Vec<B>, floor: &mut u32, depth: u32) {
    let keep = depth as usize;
    if store.len() >= 2 * keep {
        let dropped = store.len() - keep;
        store.drain(..dropped);
        *floor += dropped as u32;
    }
}

/// A batch from `ctl` did not attach to the tip: walk its chain back to
/// the common ancestor, fetch its candidate branch to exhaustion, and
/// reorg if the branch is strictly longer.
fn resolve_fork<N: ValidatingNode, T: Transport>(
    node: &mut N,
    ctl: &mut PeerCtl<T>,
    store: &mut Vec<N::Block>,
    floor: u32,
    batch: Vec<N::Block>,
    cfg: &SyncConfig,
) -> ForkOutcome {
    let tip = node.tip_height();
    // Phase 1: walk down from the tip until the peer's block hash matches
    // ours — the fork point. Blocks collected on the way are the lower
    // part of the candidate branch.
    let mut below: Vec<N::Block> = Vec::new(); // heights tip, tip-1, ...
    let mut h = tip;
    let fork = loop {
        if tip - h >= cfg.max_reorg_depth {
            return ForkOutcome::Rejected {
                penalty: FORK_PENALTY,
                reason: format!(
                    "no common ancestor within {} blocks of the tip",
                    cfg.max_reorg_depth
                ),
            };
        }
        if h < floor {
            return ForkOutcome::Rejected {
                penalty: FORK_PENALTY,
                reason: format!("fork point below the reorg floor (height {floor})"),
            };
        }
        match ctl.handle.request(h, 1, cfg.request_timeout) {
            RequestOutcome::Blocks(bytes) => {
                let Some(first) = bytes.first() else {
                    return ForkOutcome::RequestFailed {
                        penalty: STALL_PENALTY,
                        reason: format!("empty response for single block at height {h}"),
                    };
                };
                let block = match N::decode_block(first) {
                    Ok(b) => b,
                    Err(e) => {
                        return ForkOutcome::RequestFailed {
                            penalty: DECODE_PENALTY,
                            reason: format!(
                                "block at height {h} failed to decode during fork walk: {e:?}"
                            ),
                        }
                    }
                };
                if node.header_hash_at(h) == Some(N::block_hash(&block)) {
                    break h;
                }
                below.push(block);
                if h == 0 {
                    return ForkOutcome::Rejected {
                        penalty: DECODE_PENALTY,
                        reason: "peer shares no common ancestor (different genesis)".to_string(),
                    };
                }
                h -= 1;
            }
            RequestOutcome::Exhausted => {
                return ForkOutcome::Rejected {
                    penalty: FORK_PENALTY,
                    reason: format!("peer claims exhaustion at height {h} during fork walk"),
                }
            }
            RequestOutcome::TimedOut => {
                ctl.stats.stalls += 1;
                return ForkOutcome::RequestFailed {
                    penalty: STALL_PENALTY,
                    reason: format!("timeout fetching height {h} during fork walk"),
                };
            }
            RequestOutcome::Closed => {
                ctl.closed = true;
                return ForkOutcome::RequestFailed {
                    penalty: 0,
                    reason: "peer channel closed during fork walk".to_string(),
                };
            }
            RequestOutcome::Wire(err) => {
                ctl.stats.wire_errors += 1;
                wire_class_counter(ctl.handle.id(), err.slug());
                return ForkOutcome::RequestFailed {
                    penalty: wire_penalty(&err),
                    reason: format!("wire violation fetching height {h} during fork walk: {err}"),
                };
            }
        }
    };

    // Phase 2: assemble the candidate branch — walked blocks (ascending)
    // plus the original batch — then extend it to the peer's tip.
    below.reverse();
    let mut branch = below; // heights fork+1 ..= tip
    branch.extend(batch); // heights tip+1 ..
    let mut fetch_rounds = 0u32;
    loop {
        fetch_rounds += 1;
        if fetch_rounds > 256 {
            break; // adversarially long advertisement; judge what we have
        }
        // A peer can keep feeding branch blocks until `fork + 1 + len`
        // leaves the u32 height space; checked math turns that into a
        // scored rejection instead of a wrapping request for height ~0.
        let Some(next) = fork
            .checked_add(1)
            .and_then(|h| h.checked_add(branch.len() as u32))
        else {
            return ForkOutcome::RequestFailed {
                penalty: FORK_PENALTY,
                reason: "candidate branch overflows the u32 height space".to_string(),
            };
        };
        match ctl.handle.request(next, cfg.batch, cfg.request_timeout) {
            RequestOutcome::Exhausted => break,
            RequestOutcome::Blocks(bytes) => {
                for b in &bytes {
                    match N::decode_block(b) {
                        Ok(block) => branch.push(block),
                        Err(e) => {
                            return ForkOutcome::RequestFailed {
                                penalty: DECODE_PENALTY,
                                reason: format!(
                                "candidate branch block failed to decode near height {next}: {e:?}"
                            ),
                            }
                        }
                    }
                }
            }
            RequestOutcome::TimedOut => {
                ctl.stats.stalls += 1;
                return ForkOutcome::RequestFailed {
                    penalty: STALL_PENALTY,
                    reason: format!("timeout extending candidate branch at height {next}"),
                };
            }
            RequestOutcome::Closed => {
                ctl.closed = true;
                return ForkOutcome::RequestFailed {
                    penalty: 0,
                    reason: "peer channel closed while extending candidate branch".to_string(),
                };
            }
            RequestOutcome::Wire(err) => {
                ctl.stats.wire_errors += 1;
                wire_class_counter(ctl.handle.id(), err.slug());
                return ForkOutcome::RequestFailed {
                    penalty: wire_penalty(&err),
                    reason: format!(
                        "wire violation extending candidate branch at height {next}: {err}"
                    ),
                };
            }
        }
    }

    // Phase 3: longest-chain rule, then the actual reorg.
    let old_from = (fork - floor) as usize;
    let disconnected = tip - fork;
    let connected = branch.len() as u32;
    trace_event!(
        "sync.reorg_begin",
        peer = ctl.handle.id(),
        fork = fork,
        depth = disconnected,
        candidate_len = connected,
    );
    match reorg_to(node, fork, &branch, &store[old_from..]) {
        Ok(_) => {
            store.truncate(old_from);
            store.extend(branch);
            counter!("sync.reorgs").inc();
            histogram!("sync.reorg_depth").record(u64::from(disconnected));
            trace_event!(
                "sync.reorg_end",
                peer = ctl.handle.id(),
                fork = fork,
                connected = connected,
                disconnected = disconnected,
            );
            // A reorg rewrites history — rare enough to always keep the
            // full evidence trail that led to it.
            if ebv_telemetry::enabled() {
                ebv_telemetry::flight::dump(
                    "sync.reorg_end",
                    ebv_telemetry::context::current_trace(),
                    &[(
                        "reorg",
                        format!(
                            "{{\"peer\":{},\"fork\":{fork},\"connected\":{connected},\
                             \"disconnected\":{disconnected}}}",
                            ctl.handle.id()
                        ),
                    )],
                );
            }
            ForkOutcome::Reorged {
                connected,
                disconnected,
            }
        }
        Err(ReorgError::NotBetter {
            current_len,
            candidate_len,
        }) => ForkOutcome::Rejected {
            penalty: FORK_PENALTY,
            reason: format!(
                "stale or equivocating tip: candidate branch {candidate_len} blocks vs current {current_len}"
            ),
        },
        Err(ReorgError::BranchDetached { offset }) => ForkOutcome::Rejected {
            penalty: DECODE_PENALTY,
            reason: format!("candidate branch link broken at offset {offset}"),
        },
        Err(ReorgError::ForkAboveTip { fork, tip }) => ForkOutcome::Rejected {
            penalty: FORK_PENALTY,
            reason: format!("fork point {fork} above tip {tip}"),
        },
        Err(ReorgError::InvalidBranch {
            height,
            err,
            restored,
        }) => {
            if !restored {
                // The node sits at the fork point; drop our record of the
                // old branch so the store still mirrors the chain. Honest
                // peers will re-serve the missing blocks.
                store.truncate(old_from);
            }
            ForkOutcome::InvalidBranch {
                reason: format!(
                    "candidate branch invalid at height {height}: {err:?} (old chain restored: {restored})"
                ),
            }
        }
        Err(ReorgError::Unwind(msg)) => ForkOutcome::Fatal(msg),
    }
}
