//! The three workloads. [`setup`] performs and times the program's set-up;
//! [`round`] boots a fresh node on what a set-up prepared and runs one timed
//! round on it.
//!
//! The system under test always runs at its defaults: `EbvConfig`,
//! `BaselineConfig`, `SyncConfig` and the client's `WireConfig`.

use crate::chain::{Ledger, RELAY_BLOCKS};
use crate::host::{HostDelta, HostSample};
use crate::trace::{self, PhasedNode, Span, TracedNode, TracedSource, TracedTransport};
use ebv_core::sync::{
    serve_blocks, sync_multi, BlockSource, SyncConfig, SyncReport, TcpPeer, TcpServer,
    ValidatingNode, WireConfig,
};
use ebv_core::{
    build_checkpoints, BaselineConfig, BaselineNode, BitVectorSnapshot, EbvBlock, EbvConfig,
    EbvNode, EbvTransaction, Intermediary, Mempool,
};
use ebv_primitives::encode::{Decodable, Encodable};
use ebv_primitives::hash::Hash256;
use ebv_store::{KvStore, LatencyModel, StoreConfig, UtxoSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// An EBV node syncs the whole ledger over localhost TCP from one
    /// honest peer.
    IbdEbv,
    /// The same ledger, in baseline form, into a `BaselineNode` whose
    /// store cache is about 1/8 of the final UTXO set.
    IbdBaseline,
    /// An EBV node boots from a checkpoint snapshot; each later block's
    /// transactions are admitted to its mempool, then the block connects.
    RelayEbv,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::IbdEbv, Workload::IbdBaseline, Workload::RelayEbv];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IbdEbv => "ibd-ebv",
            Workload::IbdBaseline => "ibd-baseline",
            Workload::RelayEbv => "relay-ebv",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups a run times before its first round; `setup_s` is the fastest.
    /// An EBV set-up converts the chain (~2 s), a baseline one mostly
    /// encodes the blocks its peer serves (~20 ms), so the cheap one is
    /// repeated more to be as steady.
    pub fn setups(self) -> usize {
        match self {
            Workload::IbdBaseline => 25,
            Workload::IbdEbv | Workload::RelayEbv => 5,
        }
    }
}

/// How a round runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No wrappers, telemetry off.
    Untraced,
    /// The span wrappers installed and telemetry on.
    Traced,
}

/// Baseline store cache: about 1/8 of the final UTXO set of a benchmark
/// ledger (~1.6 MB), the paper's 500 MB against 4.3 GB.
const STORE_CACHE_BYTES: usize = 200 << 10;
/// Scaled-HDD injected latency per random read and per write.
const DISK_READ_US: u64 = 200;
const DISK_WRITE_US: u64 = DISK_READ_US / 4;

/// Wall of the program's set-up, split where the program has separate
/// steps.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total: Duration,
    pub convert: Duration,
    pub encode: Duration,
    pub checkpoint: Duration,
    pub snapshot_boot: Duration,
}

/// What a set-up computed that every round reuses. Conversion, encoding
/// and the checkpoint pass are deterministic, so one result serves all
/// rounds; each round boots its own node and server.
#[derive(Default)]
pub struct Prepared {
    /// The ledger in EBV form (EBV workloads).
    ebv: Vec<EbvBlock>,
    /// The blocks the IBD peer serves, encoded, genesis first.
    served: Arc<Vec<Vec<u8>>>,
    /// The relay's boot point and the units it relays after it.
    snapshot: Option<BitVectorSnapshot>,
    units: Vec<RelayUnit>,
}

/// What one timed round did.
#[derive(Debug, Default)]
pub struct Round {
    /// The timed phase: the `sync_multi` call, or the relay's units summed.
    pub wall: Duration,
    /// Non-coinbase inputs connected.
    pub inputs: u64,
    /// Blocks connected.
    pub blocks: u64,
    /// Operations (blocks, transactions, requests) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; empty when the round is correct.
    pub failures: Vec<String>,
    /// Status data at the tip.
    pub status_bytes: u64,
    /// Serialized bytes the node received for the connected blocks (and,
    /// on the relay, their transactions).
    pub wire_bytes: u64,
    /// Relay only: per-block and per-transaction latency, in ms.
    pub block_ms: Vec<f64>,
    pub tx_ms: Vec<f64>,
    /// Host behaviour over the timed phase.
    pub host: HostDelta,
    /// Per-layer counts: the program's counters (traced rounds) and its
    /// public state after the round.
    pub counts: Vec<(&'static str, f64)>,
    /// Traced rounds only.
    pub spans: Vec<Span>,
}

/// Perform `workload`'s set-up on `ledger` and time it, from the start up
/// to the point where the first timed operation could start: converting
/// the chain, encoding what the peer sends, booting the node and binding
/// the server. Then tear the node and server down and hand back what the
/// rounds reuse.
pub fn setup(workload: Workload, ledger: &Ledger) -> Result<(SetupTimes, Prepared), String> {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let mut prepared = Prepared::default();
    if workload != Workload::IbdBaseline {
        let t = Instant::now();
        prepared.ebv = Intermediary::new(0)
            .convert_chain(&ledger.blocks)
            .map_err(|e| format!("conversion failed: {e}"))?;
        times.convert = t.elapsed();
    }
    match workload {
        Workload::IbdEbv => {
            let t = Instant::now();
            prepared.served = Arc::new(prepared.ebv.iter().map(Encodable::to_bytes).collect());
            times.encode = t.elapsed();
            let node = EbvNode::new(&prepared.ebv[0], EbvConfig::default());
            let server = serve(
                &prepared.served,
                prepared.ebv[0].header.hash(),
                Mode::Untraced,
            )?;
            times.total = started.elapsed();
            server.shutdown();
            drop(node);
        }
        Workload::IbdBaseline => {
            let t = Instant::now();
            prepared.served = Arc::new(ledger.blocks.iter().map(Encodable::to_bytes).collect());
            times.encode = t.elapsed();
            let node = boot_baseline(ledger)?;
            let server = serve(
                &prepared.served,
                ledger.blocks[0].header.hash(),
                Mode::Untraced,
            )?;
            times.total = started.elapsed();
            server.shutdown();
            drop(node);
        }
        Workload::RelayEbv => {
            let t = Instant::now();
            let snapshot_height = ledger.tip_height().saturating_sub(RELAY_BLOCKS).max(1);
            let checkpoints = build_checkpoints(
                &prepared.ebv[0],
                &prepared.ebv[1..],
                snapshot_height as usize,
            )
            .map_err(|e| format!("checkpoint pass failed: {e}"))?;
            prepared.snapshot = Some(
                checkpoints
                    .into_iter()
                    .next()
                    .ok_or("the checkpoint pass produced no snapshot")?,
            );
            times.checkpoint = t.elapsed();
            let t = Instant::now();
            prepared.units = relay_units(&prepared.ebv, snapshot_height);
            times.encode = t.elapsed();
            let t = Instant::now();
            let node = boot_relay(&prepared)?;
            times.snapshot_boot = t.elapsed();
            times.total = started.elapsed();
            drop(node);
        }
    }
    Ok((times, prepared))
}

/// Boot a fresh node on `prepared` and run one timed round. `Err` means
/// the boot itself failed.
pub fn round(
    workload: Workload,
    ledger: &Ledger,
    prepared: &Prepared,
    mode: Mode,
) -> Result<Round, String> {
    match workload {
        Workload::IbdEbv => ibd_ebv(ledger, prepared, mode),
        Workload::IbdBaseline => ibd_baseline(ledger, prepared, mode),
        Workload::RelayEbv => relay_ebv(ledger, prepared, mode),
    }
}

/// Serialized bytes the node receives for the blocks after genesis.
fn wire_bytes(served: &[Vec<u8>]) -> u64 {
    served.iter().skip(1).map(|b| b.len() as u64).sum()
}

/// The baseline node and its store. The store keeps its log at a fresh
/// temporary path and removes it when dropped.
fn boot_baseline(ledger: &Ledger) -> Result<BaselineNode, String> {
    let store = KvStore::open(StoreConfig {
        cache_budget: STORE_CACHE_BYTES,
        latency: LatencyModel::scaled_hdd(DISK_READ_US, DISK_WRITE_US),
        path: None,
    })
    .map_err(|e| format!("store open failed: {e}"))?;
    BaselineNode::new(
        &ledger.blocks[0],
        UtxoSet::new(store),
        BaselineConfig::default(),
    )
    .map_err(|e| format!("baseline boot failed: {e}"))
}

/// The relay's node, booted from the snapshot with the headers up to it.
fn boot_relay(prepared: &Prepared) -> Result<EbvNode, String> {
    let snapshot = prepared
        .snapshot
        .as_ref()
        .ok_or("the relay's set-up took no snapshot")?;
    let headers = prepared.ebv[..=snapshot.height() as usize]
        .iter()
        .map(|b| b.header)
        .collect();
    EbvNode::from_snapshot(snapshot, headers, EbvConfig::default())
        .map_err(|e| format!("snapshot boot failed: {e}"))
}

fn ibd_ebv(ledger: &Ledger, prepared: &Prepared, mode: Mode) -> Result<Round, String> {
    let ebv = &prepared.ebv;
    let network = ebv[0].header.hash();
    let node = EbvNode::new(&ebv[0], EbvConfig::default());
    let server = serve(&prepared.served, network, mode)?;
    let (node, mut round) = ibd(node, server, network, ledger, mode);
    let expected_tip = ebv.last().expect("a ledger has a genesis").header.hash();
    check_tip(
        &mut round,
        &node,
        ledger,
        expected_tip,
        node.total_unspent(),
    );
    round.wire_bytes = wire_bytes(&prepared.served);
    round.status_bytes = node.status_memory().optimized;
    round.counts.extend(bitvec_counts(&node));
    round
        .counts
        .extend(absent(&["store.dbo_ms", "store.utxo_bytes"]));
    Ok(round)
}

fn ibd_baseline(ledger: &Ledger, prepared: &Prepared, mode: Mode) -> Result<Round, String> {
    let network = ledger.blocks[0].header.hash();
    let node = boot_baseline(ledger)?;
    let server = serve(&prepared.served, network, mode)?;
    let (node, mut round) = ibd(node, server, network, ledger, mode);
    let utxos = node.utxos();
    check_tip(
        &mut round,
        &node,
        ledger,
        ledger.tip_hash(),
        utxos.size().count,
    );
    round.wire_bytes = wire_bytes(&prepared.served);
    round.status_bytes = utxos.size().bytes;
    round.counts.extend([
        ("store.dbo_ms", utxos.stats().time.as_secs_f64() * 1e3),
        ("store.utxo_bytes", utxos.size().bytes as f64),
    ]);
    round.counts.extend(absent(&[
        "bitvec.resident_bytes",
        "bitvec.vectors",
        "bitvec.sparse_vectors",
    ]));
    Ok(round)
}

/// Metrics of an object the workload never creates (bit vectors without an
/// EBV node, a UTXO store without a baseline node, a sync report without a
/// sync session): zero by construction, and set here so that every printed
/// value is one some workload computed on purpose.
fn absent(names: &[&'static str]) -> Vec<(&'static str, f64)> {
    names.iter().map(|&name| (name, 0.0)).collect()
}

/// The harness's serving peer: pre-encoded blocks, as a peer serves them
/// from disk.
struct ServedChain(Arc<Vec<Vec<u8>>>);

impl BlockSource for ServedChain {
    fn serve(&mut self, start_height: u32, count: u32) -> Vec<Vec<u8>> {
        self.0
            .iter()
            .skip(start_height as usize)
            .take(count as usize)
            .cloned()
            .collect()
    }
}

/// Bind the serving peer. It belongs to the load generator, not to the
/// system under test, so it is configured not to cause failures: a
/// per-write budget no host stall exhausts (the default 500 ms can expire
/// on a multi-MB frame and get the only peer banned), and a long idle read
/// window (a request that starts arriving as a short window ends is held
/// to the expired deadline and refused as a slow read, which drops the
/// connection). The client keeps the defaults.
fn serve(blocks: &Arc<Vec<Vec<u8>>>, network: Hash256, mode: Mode) -> Result<TcpServer, String> {
    let wire = WireConfig {
        io_timeout: Duration::from_secs(60),
        idle_step: Duration::from_secs(10),
        ..WireConfig::default()
    };
    let served = ServedChain(Arc::clone(blocks));
    let server = if mode == Mode::Traced {
        serve_blocks(TracedSource(served), network, wire)
    } else {
        serve_blocks(served, network, wire)
    };
    server.map_err(|e| format!("server bind failed: {e}"))
}

/// Telemetry and the span recorder run only inside a traced round.
fn begin_trace(mode: Mode) {
    if mode == Mode::Traced {
        ebv_telemetry::global().reset();
        ebv_telemetry::set_enabled(true);
        trace::start();
    }
}

/// Stop recording and read the program's own counters. They are read on
/// every workload, so a layer a workload bypasses reads a measured zero.
fn end_trace(mode: Mode, round: &mut Round) {
    if mode != Mode::Traced {
        return;
    }
    round.spans = trace::finish();
    ebv_telemetry::set_enabled(false);
    let counter = |name: &str| ebv_telemetry::registry::counter(name).get() as f64;
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let hits = counter("ebv.pubkey_cache.hits");
    let misses = counter("ebv.pubkey_cache.misses");
    let fetches = counter("store.fetches");
    let cache_hits = counter("store.cache.hits");
    round.counts.extend([
        ("sync.frames", counter("net.frame.rx")),
        ("ebv_node.blocks", counter("ebv.blocks_connected")),
        ("baseline_node.blocks", counter("baseline.blocks_connected")),
        ("sighash.pubkey_hits", hits),
        ("sighash.pubkey_misses", misses),
        ("sighash.pubkey_hit_ratio", ratio(hits, hits + misses)),
        ("store.fetches", fetches),
        ("store.cache_hits", cache_hits),
        ("store.hit_ratio", ratio(cache_hits, fetches)),
        ("store.disk_reads", counter("store.disk.reads")),
        ("store.disk_writes", counter("store.disk.writes")),
    ]);
}

/// Sync `node` from `server` over localhost TCP: one connection, the sync
/// driver pulling `SyncConfig::batch`-block batches in a closed loop.
fn ibd<N: PhasedNode>(
    node: N,
    server: TcpServer,
    network: Hash256,
    ledger: &Ledger,
    mode: Mode,
) -> (N, Round) {
    let peer = TcpPeer::new(0, server.addr(), network, WireConfig::default());
    let cfg = SyncConfig::default();
    let mut round = Round::default();
    begin_trace(mode);
    let before = HostSample::now();
    let (node, result) = if mode == Mode::Traced {
        let mut node = TracedNode(node);
        let root = trace::open("sync.driver", 0);
        let t = Instant::now();
        let result = sync_multi(&mut node, vec![TracedTransport(peer)], &cfg);
        round.wall = t.elapsed();
        root.close();
        (node.0, result.map_err(|e| e.to_string()))
    } else {
        let mut node = node;
        let t = Instant::now();
        let result = sync_multi(&mut node, vec![peer], &cfg);
        round.wall = t.elapsed();
        (node, result.map_err(|e| e.to_string()))
    };
    round.host = HostSample::now().since(&before);
    end_trace(mode, &mut round);
    server.shutdown();

    let tip = node.tip_height() as usize;
    let connected = &ledger.blocks[1..=tip.min(ledger.blocks.len() - 1)];
    round.blocks = connected.len() as u64;
    round.inputs = connected.iter().map(|b| b.input_count() as u64).sum();
    let chain_blocks = ledger.blocks.len() as u64 - 1;
    round.attempted = chain_blocks;
    round.failed = chain_blocks - round.blocks;
    let (requests, failed_requests) = match &result {
        Ok(report) => request_counts(report),
        Err(e) => {
            round.failures.push(format!("sync failed: {e}"));
            (1, 1)
        }
    };
    round.attempted += requests;
    round.failed += failed_requests;
    round
        .counts
        .push(("sync.failed_requests", failed_requests as f64));
    (node, round)
}

/// `(attempted, failed)` requests from the sync driver's report. Every request
/// ends as a batch, a stall or a wire error, plus the final one the peer
/// answers "exhausted"; decode and validation failures, fork rejections
/// and wire errors (each of which drops the connection, so the next
/// request reconnects) all count as failed.
fn request_counts(report: &SyncReport) -> (u64, u64) {
    report.peers.iter().fold((0, 0), |(a, f), p| {
        let failed = p.stalls
            + p.wire_errors
            + p.decode_failures
            + p.validation_failures
            + p.fork_rejects
            + u32::from(p.banned);
        (
            a + u64::from(p.batches + p.stalls + p.wire_errors + 1),
            f + u64::from(failed),
        )
    })
}

fn check_tip<N: ValidatingNode>(
    round: &mut Round,
    node: &N,
    ledger: &Ledger,
    expected_tip: Hash256,
    unspent: u64,
) {
    if node.tip_height() != ledger.tip_height() {
        round.failures.push(format!(
            "tip height {} != chain tip {}",
            node.tip_height(),
            ledger.tip_height()
        ));
    }
    if node.tip_hash() != expected_tip {
        round
            .failures
            .push("tip hash differs from the chain's".into());
    }
    if unspent != ledger.unspent() {
        round.failures.push(format!(
            "{unspent} unspent outputs != chain's outputs minus inputs {}",
            ledger.unspent()
        ));
    }
}

fn bitvec_counts(node: &EbvNode) -> [(&'static str, f64); 3] {
    let size = node.status_memory();
    [
        ("bitvec.resident_bytes", size.optimized as f64),
        ("bitvec.vectors", size.vectors as f64),
        ("bitvec.sparse_vectors", size.sparse_vectors as f64),
    ]
}

/// One relayed block: its transactions' bytes, then its own.
struct RelayUnit {
    height: u32,
    txs: Vec<Vec<u8>>,
    block: Vec<u8>,
}

/// Every block after `snapshot_height`, encoded as the relay sends it.
fn relay_units(ebv: &[EbvBlock], snapshot_height: u32) -> Vec<RelayUnit> {
    (snapshot_height + 1..ebv.len() as u32)
        .map(|height| {
            let block = &ebv[height as usize];
            RelayUnit {
                height,
                txs: block.transactions[1..]
                    .iter()
                    .map(Encodable::to_bytes)
                    .collect(),
                block: block.to_bytes(),
            }
        })
        .collect()
}

fn relay_ebv(ledger: &Ledger, prepared: &Prepared, mode: Mode) -> Result<Round, String> {
    let ebv = &prepared.ebv;
    let units = &prepared.units;
    let mut node = boot_relay(prepared)?;
    let traced = mode == Mode::Traced;
    let mut pool = Mempool::new();
    let mut round = Round::default();
    begin_trace(mode);
    let before = HostSample::now();
    for unit in units {
        let key = u64::from(unit.height);
        for tx in &unit.txs {
            round.attempted += 1;
            round.wire_bytes += tx.len() as u64;
            let t = Instant::now();
            let admission = if traced {
                let span = trace::open("relay.tx", key);
                let r = admit_traced(&mut pool, &node, tx, key);
                span.close();
                r
            } else {
                admit(&mut pool, &node, tx)
            };
            let d = t.elapsed();
            round.wall += d;
            round.tx_ms.push(d.as_secs_f64() * 1e3);
            if let Err(e) = admission {
                round.failed += 1;
                round.failures.push(format!(
                    "transaction at height {} refused: {e}",
                    unit.height
                ));
            }
        }
        round.attempted += 1;
        round.wire_bytes += unit.block.len() as u64;
        let t = Instant::now();
        let connected = if traced {
            let span = trace::open("relay.block", key);
            let r = connect_traced(&mut node, &mut pool, &unit.block, key);
            span.close();
            r
        } else {
            connect(&mut node, &mut pool, &unit.block)
        };
        let d = t.elapsed();
        round.wall += d;
        round.block_ms.push(d.as_secs_f64() * 1e3);
        if let Err(e) = connected {
            round.failed += 1;
            round
                .failures
                .push(format!("block at height {} refused: {e}", unit.height));
            break;
        }
        round.blocks += 1;
        round.inputs += ledger.blocks[unit.height as usize].input_count() as u64;
        if !pool.is_empty() {
            round.failures.push(format!(
                "{} transactions left in the pool after block {}",
                pool.len(),
                unit.height
            ));
            break;
        }
    }
    round.host = HostSample::now().since(&before);
    end_trace(mode, &mut round);

    let expected_tip = ebv.last().expect("a ledger has a genesis").header.hash();
    check_tip(
        &mut round,
        &node,
        ledger,
        expected_tip,
        node.total_unspent(),
    );
    round.status_bytes = node.status_memory().optimized;
    round.counts.extend(bitvec_counts(&node));
    round.counts.extend(absent(&[
        "sync.failed_requests",
        "store.dbo_ms",
        "store.utxo_bytes",
    ]));
    Ok(round)
}

/// Decode a relayed transaction and admit it.
fn admit(pool: &mut Mempool, node: &EbvNode, bytes: &[u8]) -> Result<(), String> {
    let tx = EbvTransaction::from_bytes(bytes).map_err(|e| format!("decode: {e}"))?;
    pool.accept(node, tx).map_err(|e| e.to_string())?;
    Ok(())
}

fn admit_traced(pool: &mut Mempool, node: &EbvNode, bytes: &[u8], key: u64) -> Result<(), String> {
    let tx = trace::decode(key, bytes, EbvTransaction::from_bytes)
        .map_err(|e| format!("decode: {e}"))?;
    let inputs = tx.bodies.len() as u64;
    let span = trace::open("mempool.accept", key);
    let admitted = pool.accept(node, tx);
    span.close_with(if admitted.is_ok() { inputs } else { 0 }, &[]);
    admitted.map_err(|e| e.to_string())?;
    Ok(())
}

/// Decode a relayed block, connect it, and clear its transactions from
/// the pool.
fn connect(node: &mut EbvNode, pool: &mut Mempool, bytes: &[u8]) -> Result<(), String> {
    let block = EbvBlock::from_bytes(bytes).map_err(|e| format!("decode: {e}"))?;
    node.process_block(&block).map_err(|e| e.to_string())?;
    pool.remove_confirmed(&block);
    Ok(())
}

fn connect_traced(
    node: &mut EbvNode,
    pool: &mut Mempool,
    bytes: &[u8],
    key: u64,
) -> Result<(), String> {
    let block =
        trace::decode(key, bytes, EbvBlock::from_bytes).map_err(|e| format!("decode: {e}"))?;
    trace::connect(node, &block).map_err(|e| e.to_string())?;
    let span = trace::open("mempool.remove", key);
    pool.remove_confirmed(&block);
    span.close();
    Ok(())
}
