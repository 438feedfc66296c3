//! Differential fault-injection suite for the multi-peer sync subsystem.
//!
//! For every fault class the harness can inject, an EBV node and a
//! baseline node sync the same logical chain through the same peer
//! line-up (three faulty peers, one honest) with deterministic, seeded
//! fault schedules — and must converge to the same place: identical tip
//! height, identical total-unspent count, and each node's tip hash equal
//! to its own format's expected tip. (The intermediary re-mines headers
//! when converting baseline blocks to EBV format, so the two formats'
//! hashes differ by construction; height + unspent-set equality is the
//! cross-format invariant, own-format tip hash the per-node one.)
//!
//! Also here: the forced 3-block reorg mid-IBD, the reorg restore path,
//! reorgs at the deepest accepted fork once the driver has trimmed its
//! store of connected blocks, and the disconnect-to-genesis round trip
//! driven through the `ValidatingNode` interface with invariants checked
//! at every step.

use ebv::chain::{build_block, coinbase_tx, Block};
use ebv::core::sync::node::ValidatingNode;
use ebv::core::{
    reorg_to, sync_multi, BaselineConfig, BaselineNode, EbvBlock, EbvConfig, EbvNode, Fault,
    FaultSchedule, FaultyPeer, Intermediary, PeerHandle, ReorgError, SyncConfig,
};
use ebv::script::Script;
use ebv::store::{KvStore, StoreConfig, UtxoSet};
use ebv::workload::{ChainGenerator, GeneratorParams};
use std::time::Duration;

/// A baseline chain and its EBV conversion.
fn chain_pair(n: u32, seed: u64) -> (Vec<Block>, Vec<EbvBlock>) {
    let blocks = ChainGenerator::new(GeneratorParams::tiny(n, seed)).generate();
    let ebv = Intermediary::new(0)
        .convert_chain(&blocks)
        .expect("conversion");
    (blocks, ebv)
}

/// `base[..=fork]` plus `ext` fresh empty blocks (distinct `time` keeps the
/// branch's hashes off the main chain).
fn fork_chain(base: &[Block], fork: u32, ext: usize, time: u32) -> Vec<Block> {
    let mut chain: Vec<Block> = base[..=fork as usize].to_vec();
    for k in 0..ext {
        let h = fork + 1 + k as u32;
        let prev = chain.last().expect("prefix nonempty").header.hash();
        chain.push(build_block(
            prev,
            coinbase_tx(h, Script::new(), Vec::new()),
            Vec::new(),
            time,
            0,
        ));
    }
    chain
}

fn fresh_baseline(genesis: &Block) -> BaselineNode {
    let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(8 << 20)).expect("store"));
    BaselineNode::new(genesis, utxos, BaselineConfig::default()).expect("boot")
}

/// Three faulty peers + one honest peer, all serving `chain`, faults from
/// a deterministic cyclic schedule (fault on every other request).
fn peer_lineup<S: Clone + ebv::core::BlockSource + 'static>(
    chain: S,
    fault: Fault,
) -> Vec<PeerHandle> {
    let mut peers = Vec::new();
    for p in 0..3usize {
        // Offset each peer's cycle so the lineup is not in lockstep.
        let mut pattern = vec![fault; p + 1];
        pattern.push(Fault::None);
        let faulty = FaultyPeer::new(chain.clone(), FaultSchedule::cycle(pattern))
            .with_stall(Duration::from_millis(120));
        peers.push(PeerHandle::spawn(p, faulty));
    }
    peers.push(PeerHandle::spawn(3, chain));
    peers
}

/// Sync an EBV node and a baseline node through the same faulty lineup and
/// assert they converge to the same logical state.
fn assert_differential_sync(fault: Fault, seed: u64) {
    let (blocks, ebv_blocks) = chain_pair(16, seed);
    let tip = blocks.len() as u32 - 1;
    let baseline_tip_hash = blocks[tip as usize].header.hash();
    let ebv_tip_hash = ebv_blocks[tip as usize].header.hash();
    let cfg = SyncConfig::fast_test();

    let mut ebv_node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    sync_multi(&mut ebv_node, peer_lineup(ebv_blocks, fault), &cfg)
        .unwrap_or_else(|e| panic!("ebv sync under {fault:?} (seed {seed}): {e}"));

    let mut baseline_node = fresh_baseline(&blocks[0]);
    sync_multi(&mut baseline_node, peer_lineup(blocks, fault), &cfg)
        .unwrap_or_else(|e| panic!("baseline sync under {fault:?} (seed {seed}): {e}"));

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
fn survives_corrupt_peers() {
    assert_differential_sync(Fault::Corrupt, 101);
    assert_differential_sync(Fault::Corrupt, 102);
}

#[test]
fn survives_truncating_peers() {
    assert_differential_sync(Fault::Truncate, 201);
    assert_differential_sync(Fault::Truncate, 202);
}

#[test]
fn survives_stalling_peers() {
    assert_differential_sync(Fault::Stall, 301);
}

#[test]
fn survives_wrong_height_peers() {
    assert_differential_sync(Fault::WrongHeight { offset: 3 }, 401);
    assert_differential_sync(Fault::WrongHeight { offset: 7 }, 402);
}

#[test]
fn survives_stale_tip_peers() {
    assert_differential_sync(Fault::StaleTip, 501);
    assert_differential_sync(Fault::StaleTip, 502);
}

#[test]
fn survives_seeded_fault_soup() {
    // Every fault class mixed, drawn from a seeded schedule per peer.
    let (blocks, ebv_blocks) = chain_pair(16, 601);
    let tip = blocks.len() as u32 - 1;
    let cfg = SyncConfig::fast_test();
    let all_faults = vec![
        Fault::Corrupt,
        Fault::Truncate,
        Fault::Stall,
        Fault::WrongHeight { offset: 3 },
        Fault::StaleTip,
    ];

    let mut ebv_node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let mut peers = Vec::new();
    for p in 0..3usize {
        let schedule = FaultSchedule::seeded(601 + p as u64, 40, all_faults.clone());
        let faulty =
            FaultyPeer::new(ebv_blocks.clone(), schedule).with_stall(Duration::from_millis(120));
        peers.push(PeerHandle::spawn(p, faulty));
    }
    peers.push(PeerHandle::spawn(3, ebv_blocks));
    let report = sync_multi(&mut ebv_node, peers, &cfg).expect("sync survives the soup");
    assert_eq!(ebv_node.tip_height(), tip);
    assert!(
        !report.peers[3].banned,
        "the honest peer must not be banned"
    );
}

#[test]
fn banned_peer_trace_explains_the_ban() {
    // A ban is a terminal judgment; the event trace must carry the
    // evidence (the per-penalty score changes and their reasons), not just
    // the verdict. The trace is process-global, so a unique peer id keeps
    // this test's lines distinguishable from other tests in this binary.
    ebv::telemetry::set_enabled(true);
    let (_, ebv_blocks) = chain_pair(12, 1101);
    // A unique driver seed gives this session a trace root no other test
    // in the binary shares, so the flight-recorder bundle below can be
    // found by trace id alone.
    let cfg = SyncConfig {
        seed: 0x9100,
        ..SyncConfig::fast_test()
    };

    // The only peer corrupts every batch: each failure costs 40 points
    // (the corrupted blocks decode but do not link, so the driver walks
    // the "fork" and rejects it), so the ban threshold (100) falls on the
    // third failure, after which no usable peer remains and the sync
    // reports failure.
    let always_corrupt = FaultyPeer::new(
        ebv_blocks.clone(),
        FaultSchedule::cycle(vec![Fault::Corrupt]),
    );
    let peers = vec![PeerHandle::spawn(9100, always_corrupt)];
    let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let err = sync_multi(&mut node, peers, &cfg).expect_err("no honest peer to finish the sync");
    match err {
        ebv::core::SyncError::AllPeersFailed { total, banned, .. } => {
            assert_eq!(total, 1);
            assert_eq!(
                banned, 1,
                "the corrupt peer must be banned, not merely failed"
            );
        }
        other => panic!("expected AllPeersFailed, got {other:?}"),
    }

    let trace = ebv::telemetry::trace_snapshot();
    let bans: Vec<&String> = trace
        .iter()
        .filter(|l| l.contains("\"event\":\"sync.peer_banned\"") && l.contains("\"peer\":9100"))
        .collect();
    assert_eq!(bans.len(), 1, "exactly one ban event for peer 9100");
    // The ban names the fault class that tipped the score...
    let reason = bans[0]
        .split("\"last_reason\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("ban event lacks a last_reason: {}", bans[0]));
    // ...and the per-penalty score events corroborate it: at least three
    // 40-point penalties of that same class precede a 100-point ban.
    let matching_penalties = trace
        .iter()
        .filter(|l| {
            l.contains("\"event\":\"sync.peer_score\"")
                && l.contains("\"peer\":9100")
                && l.contains(&format!("\"reason\":\"{reason}\""))
        })
        .count();
    assert!(
        matching_penalties >= 3,
        "a 100-point ban from 40-point {reason:?} penalties needs at least 3 \
         score events, saw {matching_penalties}"
    );

    // The ban also dumps a flight-recorder bundle, and that bundle must be
    // reconstructible from the ban's trace id alone: every captured event
    // carries the same trace, and the causal chain contains both the
    // corroborating score penalties and the ban itself.
    let ban_trace = bans[0]
        .split("\"trace\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("ban event lacks a trace id: {}", bans[0]))
        .to_string();
    let bundle = ebv::telemetry::flight::recent_bundles()
        .into_iter()
        .find(|b| {
            b.contains("\"trigger\":\"sync.peer_banned\"")
                && b.contains(&format!("\"trace\":\"{ban_trace}\""))
        })
        .expect("the ban must dump a post-mortem bundle under its trace id");
    let bundle_json = ebv::telemetry::json::parse(&bundle).expect("bundle is valid JSON");
    let events = match bundle_json.get("events") {
        Some(ebv::telemetry::json::Value::Array(events)) => events,
        other => panic!("bundle events missing: {other:?}"),
    };
    use ebv::telemetry::json::Value;
    let mut scores = 0usize;
    let mut saw_ban = false;
    for ev in events {
        assert_eq!(
            ev.get("trace").and_then(Value::as_str),
            Some(ban_trace.as_str()),
            "bundle event outside the ban's trace: {ev:?}"
        );
        match ev.get("event").and_then(Value::as_str) {
            Some("sync.peer_score") => scores += 1,
            Some("sync.peer_banned") => saw_ban = true,
            _ => {}
        }
    }
    assert!(saw_ban, "bundle must contain the triggering ban event");
    assert!(
        scores >= 3,
        "bundle must carry the causal chain (≥3 score penalties), saw {scores}"
    );
    // The bundle embeds the banned peer's stats as trigger context.
    assert!(
        bundle.contains("\"peer\":") && bundle.contains("\"banned\":true"),
        "bundle must embed the banned peer's stats"
    );
}

#[test]
fn equivocating_peers_cannot_displace_a_longer_chain() {
    // The equivocating peers' fork is shorter than the honest chain, so
    // every reorg attempt must be rejected as not-better.
    let (blocks, ebv_blocks) = chain_pair(16, 701);
    let tip = blocks.len() as u32 - 1;
    let short_fork = fork_chain(&blocks, tip - 5, 2, 777);
    let ebv_short_fork = Intermediary::new(0)
        .convert_chain(&short_fork)
        .expect("fork conversion");
    let cfg = SyncConfig::fast_test();

    let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let mut peers = Vec::new();
    for p in 0..3usize {
        let faulty = FaultyPeer::new(
            ebv_blocks.clone(),
            FaultSchedule::cycle(vec![Fault::Equivocate, Fault::None]),
        )
        .with_fork(ebv_short_fork.clone());
        peers.push(PeerHandle::spawn(p, faulty));
    }
    peers.push(PeerHandle::spawn(3, ebv_blocks.clone()));
    sync_multi(&mut node, peers, &cfg).expect("sync completes");
    assert_eq!(node.tip_height(), tip);
    assert_eq!(node.tip_hash(), ebv_blocks[tip as usize].header.hash());
}

#[test]
fn forced_three_block_reorg_mid_ibd() {
    // Peer 0 serves branch A; peer 1 serves branch B, which forks 3 blocks
    // below A's tip and is 3 blocks longer. The driver syncs A first
    // (lower peer id), discovers B mid-IBD, and must reorg onto it. Both
    // node types end on their own format's B tip with identical logical
    // state.
    let (blocks_a, ebv_a) = chain_pair(12, 801);
    let tip_a = blocks_a.len() as u32 - 1;
    let fork = tip_a - 3;
    let blocks_b = fork_chain(&blocks_a, fork, 6, 888);
    let ebv_b = Intermediary::new(0)
        .convert_chain(&blocks_b)
        .expect("branch B conversion");
    let tip_b = blocks_b.len() as u32 - 1;
    assert_eq!(tip_b, fork + 6);
    let cfg = SyncConfig::fast_test();

    // EBV node.
    let mut ebv_node = EbvNode::new(&ebv_a[0], EbvConfig::default());
    let peers = vec![
        PeerHandle::spawn(0, ebv_a.clone()),
        PeerHandle::spawn(1, ebv_b.clone()),
    ];
    let report = sync_multi(&mut ebv_node, peers, &cfg).expect("ebv sync with reorg");
    assert_eq!(report.reorgs, 1, "exactly one reorg");
    assert_eq!(report.blocks_disconnected, 3, "a 3-block unwind");
    assert_eq!(ebv_node.tip_height(), tip_b);
    assert_eq!(ebv_node.tip_hash(), ebv_b[tip_b as usize].header.hash());

    // Baseline node, same story.
    let mut baseline_node = fresh_baseline(&blocks_a[0]);
    let peers = vec![
        PeerHandle::spawn(0, blocks_a.clone()),
        PeerHandle::spawn(1, blocks_b.clone()),
    ];
    let report = sync_multi(&mut baseline_node, peers, &cfg).expect("baseline sync with reorg");
    assert_eq!(report.reorgs, 1);
    assert_eq!(report.blocks_disconnected, 3);
    assert_eq!(baseline_node.tip_height(), tip_b);
    assert_eq!(
        baseline_node.tip_hash(),
        blocks_b[tip_b as usize].header.hash()
    );

    // Cross-system: after the identical reorg, the unspent sets agree.
    assert_eq!(
        ebv_node.total_unspent(),
        baseline_node.utxos().size().count,
        "post-reorg unspent-set size must agree across systems"
    );
}

#[test]
fn reorg_restores_original_chain_when_branch_is_invalid() {
    let (_, ebv_a) = chain_pair(10, 901);
    let full_tip = ebv_a.len() as u32 - 1;
    let mut node = EbvNode::new(&ebv_a[0], EbvConfig::default());
    for b in &ebv_a[1..] {
        node.process_block(b).expect("valid");
    }
    // Unwind one block so a 3-block branch from the same material is
    // strictly longer than the node's remaining 2 blocks above the fork.
    node.disconnect_tip().expect("undo intact");
    let tip = node.tip_height();
    assert_eq!(tip, full_tip - 1);
    let unspent_before = node.total_unspent();
    let fork = tip - 2;

    // A would-be-better branch whose second block is corrupt: take A's own
    // top blocks (so the header-linkage pre-check passes) and break the
    // middle one's tidy body — validation fails there, mid-connect.
    let b1 = ebv_a[(fork + 1) as usize].clone();
    let mut b2 = ebv_a[(fork + 2) as usize].clone();
    let b3 = ebv_a[(fork + 3) as usize].clone();
    b2.transactions[0].tidy.lock_time += 1; // breaks integrity/merkle
    let branch: Vec<EbvBlock> = vec![b1, b2, b3];
    let old_branch: Vec<EbvBlock> = ebv_a[(fork + 1) as usize..=tip as usize].to_vec();
    match reorg_to(&mut node, fork, &branch, &old_branch) {
        Err(ReorgError::InvalidBranch { restored: true, .. }) => {}
        other => panic!("expected restored invalid-branch failure, got {other:?}"),
    }
    // Original chain is back, bit-for-bit.
    assert_eq!(node.tip_height(), tip);
    assert_eq!(node.tip_hash(), ebv_a[tip as usize].header.hash());
    assert_eq!(node.total_unspent(), unspent_before);
    node.check_invariants()
        .expect("invariants hold after restore");
}

#[test]
fn deepest_fork_reorgs_from_the_trimmed_store() {
    // The driver keeps only the newest `max_reorg_depth` connected blocks
    // (trimmed once it holds twice that). After connecting more than
    // 2 × depth blocks, a fork at depth − 1 still needs every displaced
    // block: a longer valid branch must reorg, and an invalid one must put
    // the old branch back from the store, not from the peer.
    let depth = 8u32;
    let cfg = SyncConfig {
        max_reorg_depth: depth,
        batch: 5,
        ..SyncConfig::fast_test()
    };
    let (blocks_a, ebv_a) = chain_pair(3 * depth, 1201);
    let tip_a = blocks_a.len() as u32 - 1;
    assert!(tip_a > 2 * depth);
    let fork = tip_a - (depth - 1);
    let blocks_b = fork_chain(&blocks_a, fork, depth as usize + 2, 1212);
    let ebv_b = Intermediary::new(0)
        .convert_chain(&blocks_b)
        .expect("branch B conversion");
    let tip_b = blocks_b.len() as u32 - 1;
    // B's block two above the fork, corrupted without touching its header:
    // the linkage pre-check passes and validation fails mid-connect.
    let mut bad_b = ebv_b.clone();
    bad_b[fork as usize + 2].transactions[0].tidy.lock_time += 1;

    let sync = |branch: Vec<EbvBlock>| {
        let mut node = EbvNode::new(&ebv_a[0], EbvConfig::default());
        let peers = vec![
            PeerHandle::spawn(0, ebv_a.clone()),
            PeerHandle::spawn(1, branch),
        ];
        let report = sync_multi(&mut node, peers, &cfg).expect("sync completes");
        node.check_invariants().expect("invariants hold");
        (node, report)
    };

    let (node, report) = sync(ebv_b.clone());
    assert_eq!(report.reorgs, 1);
    assert_eq!(report.blocks_disconnected, depth - 1);
    assert_eq!(node.tip_hash(), ebv_b[tip_b as usize].header.hash());

    let (node, report) = sync(bad_b);
    assert_eq!(report.reorgs, 0);
    assert!(
        report.peers[1].banned,
        "the invalid branch's peer is banned"
    );
    // A's blocks were each connected once: the restore re-downloaded none.
    assert_eq!(report.blocks_connected, tip_a);
    assert_eq!(node.tip_hash(), ebv_a[tip_a as usize].header.hash());
    let mut replayed = EbvNode::new(&ebv_a[0], EbvConfig::default());
    for b in &ebv_a[1..] {
        replayed.process_block(b).expect("valid");
    }
    assert_eq!(node.state_digest(), replayed.state_digest());
}

#[test]
fn disconnect_to_genesis_round_trip_with_sparse_vectors() {
    // A mainnet-like chain long enough that spent-out blocks produce
    // sparse and deleted vectors; unwind it block by block through the
    // ValidatingNode interface (as the reorg engine would), checking
    // invariants at every step, then replay it and compare state.
    let (blocks, ebv_blocks) = chain_pair(40, 1001);
    let mut ebv_node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    for b in &ebv_blocks[1..] {
        ebv_node.process_block(b).expect("valid");
    }
    let tip = ebv_node.tip_height();
    let tip_hash = ebv_node.tip_hash();
    let unspent = ebv_node.total_unspent();
    let memory = ebv_node.status_memory();

    let mut baseline_node = fresh_baseline(&blocks[0]);
    for b in &blocks[1..] {
        baseline_node.process_block(b).expect("valid");
    }
    let baseline_count = baseline_node.utxos().size().count;
    assert_eq!(unspent, baseline_count);

    // Unwind both to genesis.
    for expected in (0..tip).rev() {
        let h = ValidatingNode::disconnect_tip_block(&mut ebv_node)
            .expect("undo intact")
            .expect("not at genesis yet");
        assert_eq!(h, expected);
        ebv_node.check_invariants().expect("ebv invariants");
        let h = ValidatingNode::disconnect_tip_block(&mut baseline_node)
            .expect("undo intact")
            .expect("not at genesis yet");
        assert_eq!(h, expected);
        baseline_node
            .check_invariants()
            .expect("baseline invariants");
    }
    assert_eq!(ebv_node.tip_height(), 0);
    assert_eq!(baseline_node.tip_height(), 0);
    // Genesis cannot be disconnected.
    assert_eq!(
        ValidatingNode::disconnect_tip_block(&mut ebv_node).expect("ok"),
        None
    );
    assert_eq!(
        ValidatingNode::disconnect_tip_block(&mut baseline_node).expect("ok"),
        None
    );

    // Replay to the tip: byte-identical final state.
    for b in &ebv_blocks[1..] {
        ebv_node.process_block(b).expect("replay");
    }
    for b in &blocks[1..] {
        baseline_node.process_block(b).expect("replay");
    }
    assert_eq!(ebv_node.tip_height(), tip);
    assert_eq!(ebv_node.tip_hash(), tip_hash);
    assert_eq!(ebv_node.total_unspent(), unspent);
    assert_eq!(ebv_node.status_memory(), memory);
    assert_eq!(baseline_node.utxos().size().count, baseline_count);
}
