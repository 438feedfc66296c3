//! Differential fault matrix over real localhost TCP.
//!
//! The in-process suite (`tests/fault_sync.rs`) proves the driver survives
//! *content* faults; this suite re-runs that matrix with every peer behind
//! a real TCP connection — length-prefixed, checksummed frames, handshake,
//! per-read deadlines — and then adds the *byte-level* adversaries the
//! in-process transport cannot express: slow-loris drip-feeding, oversized
//! frame headers, mid-frame disconnects, post-handshake garbage,
//! frame-boundary truncation, checksum corruption, and connection churn.
//!
//! The deliverable under test is graceful degradation: one honest TCP peer
//! out of four suffices under every fault class, every adversary is banned
//! within a bounded time and score budget, and the converged state is
//! identical to the in-process run's.

mod common;

use common::{chain_pair, fresh_baseline};
use ebv::core::sync::wire::{decode_frame, encode_frame};
use ebv::core::sync::{WireError, WireMessage, DEFAULT_MAX_FRAME};
use ebv::core::{
    serve_adversary, serve_blocks, sync_multi, BlockSource, EbvBlock, EbvConfig, EbvNode, Fault,
    FaultSchedule, FaultyPeer, Intermediary, PeerHandle, SyncConfig, TcpPeer, TcpServer,
    WireAdversary, WireConfig,
};
use ebv::primitives::hash::Hash256;
use ebv::workload::{ChainGenerator, GeneratorParams};
use ebv_chain::Block;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Three content-faulty TCP servers + one honest, mirroring the in-process
/// `peer_lineup`: the servers speak the wire protocol perfectly but their
/// `BlockSource` injects the fault, so the bytes on the wire carry the
/// same corruption the channel transport would.
fn tcp_lineup<S: Clone + BlockSource + 'static>(
    chain: S,
    network: Hash256,
    fault: Fault,
) -> (Vec<TcpServer>, Vec<TcpPeer>) {
    let wire = WireConfig::fast_test();
    let mut servers = Vec::new();
    let mut peers = Vec::new();
    for p in 0..3usize {
        let mut pattern = vec![fault; p + 1];
        pattern.push(Fault::None);
        let faulty = FaultyPeer::new(chain.clone(), FaultSchedule::cycle(pattern))
            .with_stall(Duration::from_millis(120));
        let server = serve_blocks(faulty, network, wire).expect("bind faulty server");
        peers.push(TcpPeer::new(p, server.addr(), network, wire));
        servers.push(server);
    }
    let server = serve_blocks(chain, network, wire).expect("bind honest server");
    peers.push(TcpPeer::new(3, server.addr(), network, wire));
    servers.push(server);
    (servers, peers)
}

/// Sync an EBV node and a baseline node through the same faulty TCP
/// line-up and assert they converge to the same logical state — the exact
/// invariant `tests/fault_sync.rs` asserts for the in-process transport.
fn assert_differential_sync_tcp(fault: Fault, seed: u64) {
    let (blocks, ebv_blocks) = chain_pair(16, seed);
    let tip = blocks.len() as u32 - 1;
    let baseline_tip_hash = blocks[tip as usize].header.hash();
    let ebv_tip_hash = ebv_blocks[tip as usize].header.hash();
    let cfg = SyncConfig::fast_test();

    let ebv_network = ebv_blocks[0].header.hash();
    let mut ebv_node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let (_servers, peers) = tcp_lineup(ebv_blocks, ebv_network, fault);
    sync_multi(&mut ebv_node, peers, &cfg)
        .unwrap_or_else(|e| panic!("ebv TCP sync under {fault:?} (seed {seed}): {e}"));

    let baseline_network = blocks[0].header.hash();
    let mut baseline_node = fresh_baseline(&blocks[0]);
    let (_servers, peers) = tcp_lineup(blocks, baseline_network, fault);
    sync_multi(&mut baseline_node, peers, &cfg)
        .unwrap_or_else(|e| panic!("baseline TCP sync under {fault:?} (seed {seed}): {e}"));

    assert_eq!(ebv_node.tip_height(), tip, "{fault:?}: ebv tip");
    assert_eq!(baseline_node.tip_height(), tip, "{fault:?}: baseline tip");
    assert_eq!(ebv_node.tip_hash(), ebv_tip_hash, "{fault:?}: ebv tip hash");
    assert_eq!(
        baseline_node.tip_hash(),
        baseline_tip_hash,
        "{fault:?}: baseline tip hash"
    );
    assert_eq!(
        ebv_node.total_unspent(),
        baseline_node.utxos().size().count,
        "{fault:?}: unspent-set size must agree across systems"
    );
}

#[test]
fn tcp_survives_corrupt_peers() {
    assert_differential_sync_tcp(Fault::Corrupt, 101);
}

#[test]
fn tcp_survives_truncating_peers() {
    assert_differential_sync_tcp(Fault::Truncate, 201);
}

#[test]
fn tcp_survives_stalling_peers() {
    assert_differential_sync_tcp(Fault::Stall, 301);
}

#[test]
fn tcp_survives_wrong_height_peers() {
    assert_differential_sync_tcp(Fault::WrongHeight { offset: 3 }, 401);
}

#[test]
fn tcp_survives_stale_tip_peers() {
    assert_differential_sync_tcp(Fault::StaleTip, 501);
}

#[test]
fn tcp_equivocating_peers_cannot_displace_a_longer_chain() {
    // Equivocation over the wire: three TCP servers whose sources serve a
    // shorter fork on every other request; the reorg attempts must all be
    // rejected as not-better, exactly as in-process.
    let (blocks, ebv_blocks) = chain_pair(16, 701);
    let tip = blocks.len() as u32 - 1;
    let mut short_fork: Vec<Block> = blocks[..=(tip - 5) as usize].to_vec();
    for k in 0..2u32 {
        let h = tip - 5 + 1 + k;
        let prev = short_fork.last().expect("prefix").header.hash();
        short_fork.push(ebv::chain::build_block(
            prev,
            ebv::chain::coinbase_tx(h, ebv::script::Script::new(), Vec::new()),
            Vec::new(),
            777,
            0,
        ));
    }
    let ebv_short_fork = Intermediary::new(0)
        .convert_chain(&short_fork)
        .expect("fork conversion");
    let network = ebv_blocks[0].header.hash();
    let wire = WireConfig::fast_test();
    let cfg = SyncConfig::fast_test();

    let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let mut servers = Vec::new();
    let mut peers = Vec::new();
    for p in 0..3usize {
        let faulty = FaultyPeer::new(
            ebv_blocks.clone(),
            FaultSchedule::cycle(vec![Fault::Equivocate, Fault::None]),
        )
        .with_fork(ebv_short_fork.clone());
        let server = serve_blocks(faulty, network, wire).expect("bind equivocator");
        peers.push(TcpPeer::new(p, server.addr(), network, wire));
        servers.push(server);
    }
    let server = serve_blocks(ebv_blocks.clone(), network, wire).expect("bind honest");
    peers.push(TcpPeer::new(3, server.addr(), network, wire));
    servers.push(server);

    sync_multi(&mut node, peers, &cfg).expect("sync completes over TCP");
    assert_eq!(node.tip_height(), tip);
    assert_eq!(node.tip_hash(), ebv_blocks[tip as usize].header.hash());
}

#[test]
fn tcp_run_converges_to_the_same_state_as_in_process() {
    // Same chain, same fault class, both transports: the `Transport`
    // abstraction must be invisible in the converged state.
    let (_, ebv_blocks) = chain_pair(16, 1601);
    let tip = ebv_blocks.len() as u32 - 1;
    let cfg = SyncConfig::fast_test();

    let mut in_process = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let mut peers = Vec::new();
    for p in 0..3usize {
        let mut pattern = vec![Fault::Corrupt; p + 1];
        pattern.push(Fault::None);
        let faulty = FaultyPeer::new(ebv_blocks.clone(), FaultSchedule::cycle(pattern))
            .with_stall(Duration::from_millis(120));
        peers.push(PeerHandle::spawn(p, faulty));
    }
    peers.push(PeerHandle::spawn(3, ebv_blocks.clone()));
    sync_multi(&mut in_process, peers, &cfg).expect("in-process sync");

    let network = ebv_blocks[0].header.hash();
    let mut over_tcp = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let (_servers, peers) = tcp_lineup(ebv_blocks, network, Fault::Corrupt);
    sync_multi(&mut over_tcp, peers, &cfg).expect("TCP sync");

    assert_eq!(in_process.tip_height(), tip);
    assert_eq!(over_tcp.tip_height(), in_process.tip_height());
    assert_eq!(over_tcp.tip_hash(), in_process.tip_hash());
    assert_eq!(over_tcp.total_unspent(), in_process.total_unspent());
}

/// Three byte-level adversaries of one class + one honest peer. Asserts
/// graceful degradation: the node reaches the tip, every adversary is
/// banned inside a bounded time and score budget, the honest peer is not.
///
/// `id_base` keeps each class's peer ids unique so the process-global
/// telemetry trace stays attributable under parallel test execution.
fn assert_adversary_class_contained(adversary: WireAdversary, id_base: usize) {
    let (_, ebv_blocks) = chain_pair(12, 2000 + id_base as u64);
    let tip = ebv_blocks.len() as u32 - 1;
    let network = ebv_blocks[0].header.hash();
    let wire = WireConfig::fast_test();
    let cfg = SyncConfig::fast_test();

    let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let mut adv_servers = Vec::new();
    let mut peers = Vec::new();
    for p in 0..3usize {
        let server =
            serve_adversary(ebv_blocks.clone(), network, adversary, wire).expect("bind adversary");
        peers.push(TcpPeer::new(id_base + p, server.addr(), network, wire));
        adv_servers.push(server);
    }
    let honest = serve_blocks(ebv_blocks.clone(), network, wire).expect("bind honest");
    peers.push(TcpPeer::new(id_base + 3, honest.addr(), network, wire));

    let report = sync_multi(&mut node, peers, &cfg).unwrap_or_else(|e| {
        panic!(
            "{}: one honest peer must carry the sync: {e}",
            adversary.label()
        )
    });

    assert_eq!(node.tip_height(), tip, "{}: tip", adversary.label());
    assert_eq!(
        node.tip_hash(),
        ebv_blocks[tip as usize].header.hash(),
        "{}: tip hash",
        adversary.label()
    );
    for stats in &report.peers[..3] {
        assert!(
            stats.banned,
            "{}: adversary peer {} not banned (score {}, wire errors {}, stalls {})",
            adversary.label(),
            stats.id,
            stats.score,
            stats.wire_errors,
            stats.stalls
        );
        assert!(
            stats.score >= 100,
            "{}: ban without a full score ({})",
            adversary.label(),
            stats.score
        );
        // Strikes to a 100-point ban: at most 40 points per violation, so
        // at least 3 byte-level violations (or deadline stalls, for the
        // slow classes) must have been recorded.
        assert!(
            stats.wire_errors + stats.stalls >= 3,
            "{}: ban not backed by recorded violations (wire {}, stalls {})",
            adversary.label(),
            stats.wire_errors,
            stats.stalls
        );
        // Bounded time-to-ban: worst case is 4 strikes behind per-request
        // deadlines plus capped backoff; 5 seconds is an order of
        // magnitude of headroom over the observed worst class.
        let banned_at = stats
            .banned_at_us
            .unwrap_or_else(|| panic!("{}: banned without a ban time", adversary.label()));
        assert!(
            banned_at <= 5_000_000,
            "{}: time-to-ban {banned_at}us exceeds the 5s budget",
            adversary.label()
        );
    }
    assert!(
        !report.peers[3].banned,
        "{}: honest peer banned",
        adversary.label()
    );
}

#[test]
fn tcp_contains_slow_loris_peers() {
    assert_adversary_class_contained(
        WireAdversary::SlowLoris {
            interval: Duration::from_millis(5),
        },
        9200,
    );
}

#[test]
fn tcp_contains_oversized_frame_peers() {
    assert_adversary_class_contained(WireAdversary::OversizedFrame, 9210);
}

#[test]
fn tcp_contains_mid_frame_disconnect_peers() {
    assert_adversary_class_contained(WireAdversary::MidFrameDisconnect, 9220);
}

#[test]
fn tcp_contains_garbage_after_handshake_peers() {
    assert_adversary_class_contained(WireAdversary::GarbageAfterHandshake, 9230);
}

#[test]
fn tcp_contains_frame_truncation_peers() {
    assert_adversary_class_contained(WireAdversary::FrameTruncation, 9240);
}

#[test]
fn tcp_contains_bad_checksum_peers() {
    assert_adversary_class_contained(WireAdversary::BadChecksum, 9250);
}

#[test]
fn tcp_contains_connection_churn_peers() {
    assert_adversary_class_contained(WireAdversary::Churn, 9260);
}

#[test]
fn ban_trace_names_the_byte_level_violation() {
    // The ban verdict must carry byte-level evidence: a checksum-corrupting
    // peer's score events name "checksum-mismatch" and the ban event
    // carries a time-to-ban. Unique peer id 9300 keeps this attributable
    // in the process-global trace.
    ebv::telemetry::set_enabled(true);
    let (_, ebv_blocks) = chain_pair(10, 3001);
    let network = ebv_blocks[0].header.hash();
    let wire = WireConfig::fast_test();
    let cfg = SyncConfig::fast_test();

    let server = serve_adversary(
        ebv_blocks.clone(),
        network,
        WireAdversary::BadChecksum,
        wire,
    )
    .expect("bind adversary");
    let peers = vec![TcpPeer::new(9300, server.addr(), network, wire)];
    let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let err = sync_multi(&mut node, peers, &cfg).expect_err("no honest peer to finish");
    match err {
        ebv::core::SyncError::AllPeersFailed { total, banned, .. } => {
            assert_eq!(total, 1);
            assert_eq!(banned, 1, "the checksum corruptor must be banned");
        }
        other => panic!("expected AllPeersFailed, got {other:?}"),
    }

    let trace = ebv::telemetry::trace_snapshot();
    let penalties = trace
        .iter()
        .filter(|l| {
            l.contains("\"event\":\"sync.peer_score\"")
                && l.contains("\"peer\":9300")
                && l.contains("\"reason\":\"checksum-mismatch\"")
        })
        .count();
    assert!(
        penalties >= 3,
        "a 100-point ban from 40-point checksum penalties needs at least 3 \
         score events, saw {penalties}"
    );
    let bans: Vec<&String> = trace
        .iter()
        .filter(|l| l.contains("\"event\":\"sync.peer_banned\"") && l.contains("\"peer\":9300"))
        .collect();
    assert_eq!(bans.len(), 1, "exactly one ban event for peer 9300");
    assert!(
        bans[0].contains("\"banned_after_us\":"),
        "ban event must carry the time-to-ban: {}",
        bans[0]
    );
}

#[test]
fn tcp_failover_when_a_peer_exhausts_mid_chain() {
    // Partition-shaped failover: peer 0 serves only the first half of the
    // chain and answers Exhausted beyond it; peer 1 has the whole chain.
    // The driver must finish on peer 1 without banning the stale peer.
    let (_, ebv_blocks) = chain_pair(16, 4001);
    let tip = ebv_blocks.len() as u32 - 1;
    let network = ebv_blocks[0].header.hash();
    let wire = WireConfig::fast_test();
    let cfg = SyncConfig::fast_test();

    let half: Vec<EbvBlock> = ebv_blocks[..ebv_blocks.len() / 2].to_vec();
    let stale = serve_blocks(half, network, wire).expect("bind stale server");
    let full = serve_blocks(ebv_blocks.clone(), network, wire).expect("bind full server");
    let peers = vec![
        TcpPeer::new(0, stale.addr(), network, wire),
        TcpPeer::new(1, full.addr(), network, wire),
    ];
    let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let report = sync_multi(&mut node, peers, &cfg).expect("full peer carries the sync");
    assert_eq!(node.tip_height(), tip);
    assert!(!report.peers[1].banned, "the full peer must not be banned");
}

#[test]
fn tcp_failover_when_a_server_goes_down() {
    // Peer 0's server is shut down before the sync starts (the listener is
    // gone, dials fail); peer 1 is live. The driver must close peer 0
    // after its dial budget and finish on peer 1 alone.
    let (_, ebv_blocks) = chain_pair(12, 4101);
    let tip = ebv_blocks.len() as u32 - 1;
    let network = ebv_blocks[0].header.hash();
    let wire = WireConfig::fast_test();
    let cfg = SyncConfig::fast_test();

    let dead = serve_blocks(ebv_blocks.clone(), network, wire).expect("bind doomed server");
    let dead_addr = dead.addr();
    dead.shutdown();
    let live = serve_blocks(ebv_blocks.clone(), network, wire).expect("bind live server");
    let peers = vec![
        TcpPeer::new(0, dead_addr, network, wire),
        TcpPeer::new(1, live.addr(), network, wire),
    ];
    let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let report = sync_multi(&mut node, peers, &cfg).expect("live peer carries the sync");
    assert_eq!(node.tip_height(), tip);
    assert_eq!(
        report.peers[0].blocks_accepted, 0,
        "dead peer served nothing"
    );
    assert!(!report.peers[1].banned, "live peer must not be banned");
}

#[test]
fn tcp_scales_to_dozens_of_mixed_adversaries() {
    // The netsim-scale scenario: 4 honest TCP servers against two full
    // cohorts of every adversary class (14 adversarial peers, 18 total).
    // The model node validates structurally, so this exercises connection
    // handling and scoring at scale rather than validation cost.
    let blocks = ChainGenerator::new(GeneratorParams::tiny(20, 4201)).generate();
    let tip = blocks.len() as u32 - 1;
    let mut adversaries = WireAdversary::all(Duration::from_millis(5));
    adversaries.extend(WireAdversary::all(Duration::from_millis(3)));
    let n_advs = adversaries.len();
    let result = ebv::netsim::sync_under_wire_faults(
        &blocks,
        ebv::netsim::ValidationModel::Constant(10),
        4,
        &adversaries,
        7,
    )
    .expect("honest cohort must carry the sync");
    assert_eq!(result.tip_height, tip);
    let banned = result.report.peers[..n_advs]
        .iter()
        .filter(|s| s.banned)
        .count();
    assert_eq!(banned, n_advs, "every adversary banned ({banned}/{n_advs})");
    for stats in &result.report.peers[n_advs..] {
        assert!(!stats.banned, "honest peer {} banned", stats.id);
    }
}

/// Read one frame off a raw socket; `None` once the peer closes it.
fn read_frame(stream: &mut TcpStream) -> Option<WireMessage> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match decode_frame(&buf, DEFAULT_MAX_FRAME) {
            Ok((msg, _)) => return Some(msg),
            Err(WireError::TruncatedFrame) => {}
            Err(e) => panic!("malformed frame from the server: {e:?}"),
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

#[test]
fn server_answers_a_request_that_starts_late_in_an_idle_window() {
    // The server waits for requests in `idle_step` windows. A request whose
    // first byte lands at the end of one must get `io_timeout` for the rest
    // of its frame, not the end of that window: a pause of three windows,
    // far inside `io_timeout`, is no slow read.
    let (_, chain) = chain_pair(8, 0x1a7e);
    let network = chain[0].header.hash();
    let wire = WireConfig::default();
    let pause = 3 * wire.idle_step;
    assert!(pause * 3 < wire.io_timeout);
    let server = serve_blocks(chain, network, wire).expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let hello = WireMessage::Hello {
        network,
        start_height: 0,
    };
    stream.write_all(&encode_frame(&hello)).expect("send hello");
    assert!(matches!(
        read_frame(&mut stream),
        Some(WireMessage::Hello { .. })
    ));

    let request = encode_frame(&WireMessage::GetBlocks {
        id: 7,
        start_height: 1,
        count: 2,
    });
    stream.write_all(&request[..1]).expect("send first byte");
    std::thread::sleep(pause);
    stream.write_all(&request[1..]).expect("send the rest");
    match read_frame(&mut stream) {
        Some(WireMessage::Blocks { id: 7, blocks }) => assert_eq!(blocks.len(), 2),
        other => panic!("expected Blocks for request 7, got {other:?}"),
    }
    server.shutdown();
}
