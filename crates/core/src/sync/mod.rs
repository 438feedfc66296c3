//! Fault-tolerant block synchronization — the paper's §VI-A measurement
//! path ("the synchronization process from the intermediary node to a
//! destination node is exactly the one we make measurements"), hardened
//! for hostile peer sets.
//!
//! The module splits into:
//!
//! * [`peer`] — the wire protocol ([`Request`]/[`Response`] with echoed
//!   request ids), the [`BlockSource`] trait, and the threaded
//!   [`PeerHandle`] plumbing;
//! * [`node`] — the [`ValidatingNode`] abstraction `EbvNode` and
//!   `BaselineNode` both implement, so every driver here has exactly one
//!   implementation instead of per-node copy-paste twins;
//! * [`driver`] — the multi-peer [`sync_multi`] driver: timeouts, scoring,
//!   capped exponential backoff with deterministic jitter, bans, failover,
//!   and fork resolution;
//! * [`reorg`] — the invariant-checked unwind/rewind engine ([`reorg_to`]);
//! * [`fault`] — the deterministic fault-injection harness
//!   ([`FaultyPeer`], [`FaultSchedule`]) that makes every failure mode a
//!   reproducible test case;
//! * [`wire`] — the byte-level frame codec (length-prefixed, checksummed,
//!   versioned; untrusted lengths never drive allocation);
//! * [`tcp_peer`] — the localhost-TCP [`Transport`]: framed streams with
//!   per-read deadlines, handshake, reconnect, and the [`serve_blocks`]
//!   server for any [`BlockSource`];
//! * [`netfault`] — byte-level adversary servers (slow-loris, oversized
//!   frames, mid-frame disconnects, garbage, truncation, churn).
//!
//! The driver is generic over [`Transport`], so the same scoring, ban,
//! backoff, and fork machinery runs over in-process channels
//! ([`PeerHandle`]) and real TCP ([`TcpPeer`]) unchanged.
//!
//! The single-peer [`sync_single`] entry point is a thin wrapper over the
//! same driver.
#![deny(clippy::unwrap_used)]

pub mod driver;
pub mod fault;
pub mod managed;
pub mod netfault;
pub mod node;
pub mod peer;
pub mod peer_manager;
pub mod reorg;
pub mod tcp_peer;
pub mod wire;

pub use driver::{sync_multi, PeerStats, SyncConfig, SyncReport, SYNC_BATCH};
pub use fault::{Fault, FaultSchedule, FaultyPeer};
pub use managed::{sync_managed, ManagedConfig, ManagedReport, PeerFactory};
pub use netfault::{serve_adversary, AdversarialServer, WireAdversary};
pub use node::ValidatingNode;
pub use peer::{
    spawn_source, BlockSource, PeerHandle, Request, RequestOutcome, Response, Transport,
};
pub use peer_manager::{
    ConnectedPeer, DefensePolicy, InboundDecision, PeerAddr, PeerManager, PeerManagerConfig,
};
pub use reorg::{reorg_to, ReorgError};
pub use tcp_peer::{serve_blocks, TcpPeer, TcpServer, WireConfig};
pub use wire::{WireError, WireMessage, DEFAULT_MAX_FRAME, MAX_BLOCKS_PER_FRAME};

use crate::validate::{InputState, Node};
use ebv_primitives::encode::DecodeError;

/// Why a sync run gave up. `E` is the destination node's validation error
/// type.
#[derive(Debug)]
pub enum SyncError<E> {
    /// A peer's channel closed mid-request (its thread exited).
    SourceClosed { peer: usize, height: u32 },
    /// A served block failed to decode.
    Decode {
        peer: usize,
        height: u32,
        /// The peer's consecutive-failure count when this happened.
        attempts: u32,
        err: DecodeError,
    },
    /// A served block failed validation.
    Validation {
        peer: usize,
        height: u32,
        attempts: u32,
        err: E,
    },
    /// A request timed out.
    Stalled {
        peer: usize,
        height: u32,
        attempts: u32,
    },
    /// The peer violated the wire protocol at the byte level (TCP
    /// transport only): malformed frames, oversized claims, checksum
    /// mismatches, trickled reads, failed handshakes.
    Wire {
        peer: usize,
        height: u32,
        attempts: u32,
        err: WireError,
    },
    /// A peer served a branch that did not win: stale tip, equivocation,
    /// broken linkage, or an invalid block mid-branch.
    ForkRejected {
        peer: usize,
        height: u32,
        attempts: u32,
        reason: String,
    },
    /// Every peer is banned or closed; sync cannot progress. `last` is
    /// the failure that eliminated the final peer.
    AllPeersFailed {
        total: usize,
        banned: usize,
        height: u32,
        rounds: u32,
        last: Option<Box<SyncError<E>>>,
    },
    /// The driver's round backstop tripped (adversarial peer set).
    RoundLimit { height: u32, rounds: u32 },
    /// Node state became suspect (failed unwind); nothing sane to do.
    Internal(String),
}

impl<E: std::fmt::Debug> std::fmt::Display for SyncError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::SourceClosed { peer, height } => write!(
                f,
                "peer {peer}: channel closed while requesting height {height}"
            ),
            SyncError::Decode {
                peer,
                height,
                attempts,
                err,
            } => write!(
                f,
                "peer {peer}: block at height {height} failed to decode \
                 (failure {attempts} in a row): {err:?}"
            ),
            SyncError::Validation {
                peer,
                height,
                attempts,
                err,
            } => write!(
                f,
                "peer {peer}: block at height {height} failed validation \
                 (failure {attempts} in a row): {err:?}"
            ),
            SyncError::Stalled {
                peer,
                height,
                attempts,
            } => write!(
                f,
                "peer {peer}: request for height {height} timed out \
                 (failure {attempts} in a row)"
            ),
            SyncError::Wire {
                peer,
                height,
                attempts,
                err,
            } => write!(
                f,
                "peer {peer}: wire protocol violation requesting height {height} \
                 (failure {attempts} in a row): {err} [{}]",
                err.slug()
            ),
            SyncError::ForkRejected {
                peer,
                height,
                attempts,
                reason,
            } => write!(
                f,
                "peer {peer}: branch offered near height {height} rejected \
                 (failure {attempts} in a row): {reason}"
            ),
            SyncError::AllPeersFailed {
                total,
                banned,
                height,
                rounds,
                last,
            } => {
                write!(
                    f,
                    "sync stuck at height {height} after {rounds} rounds: all \
                     {total} peer(s) unusable ({banned} banned)"
                )?;
                if let Some(last) = last {
                    write!(f, "; last failure: {last}")?;
                }
                Ok(())
            }
            SyncError::RoundLimit { height, rounds } => write!(
                f,
                "sync aborted at height {height}: round backstop ({rounds} rounds) tripped"
            ),
            SyncError::Internal(msg) => write!(f, "internal sync error: {msg}"),
        }
    }
}

impl<E: std::fmt::Debug> std::error::Error for SyncError<E> {}

/// Sync a node of either type from a single peer with default settings.
/// Returns the number of blocks connected.
pub fn sync_single<S: InputState>(
    node: &mut Node<S>,
    peer: PeerHandle,
) -> Result<u32, SyncError<S::Error>> {
    sync_multi(node, vec![peer], &SyncConfig::default()).map(|r| r.blocks_connected)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::baseline_node::{BaselineConfig, BaselineNode};
    use crate::ebv_node::{EbvConfig, EbvError, EbvNode};
    use crate::intermediary::Intermediary;
    use crate::tidy::EbvBlock;
    use ebv_chain::Block;
    use ebv_store::{KvStore, StoreConfig, UtxoSet};
    use ebv_workload::{ChainGenerator, GeneratorParams};
    use std::time::Duration;

    fn chains() -> (Vec<Block>, Vec<EbvBlock>) {
        let blocks = ChainGenerator::new(GeneratorParams::tiny(10, 77)).generate();
        let ebv = Intermediary::new(0)
            .convert_chain(&blocks)
            .expect("conversion");
        (blocks, ebv)
    }

    fn new_baseline(genesis: &Block) -> BaselineNode {
        let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(4 << 20)).expect("store"));
        BaselineNode::new(genesis, utxos, BaselineConfig::default()).expect("boot")
    }

    #[test]
    fn ebv_node_syncs_from_threaded_source() {
        let (_, ebv_blocks) = chains();
        let genesis = ebv_blocks[0].clone();
        let tip = ebv_blocks.len() as u32 - 1;
        let peer = spawn_source(ebv_blocks);
        let mut node = EbvNode::new(&genesis, EbvConfig::default());
        let synced = sync_single(&mut node, peer).expect("sync completes");
        assert_eq!(synced, tip);
        assert_eq!(node.tip_height(), tip);
    }

    #[test]
    fn baseline_node_syncs_from_threaded_source() {
        let (blocks, _) = chains();
        let genesis = blocks[0].clone();
        let tip = blocks.len() as u32 - 1;
        let peer = spawn_source(blocks);
        let mut node = new_baseline(&genesis);
        let synced = sync_single(&mut node, peer).expect("sync completes");
        assert_eq!(synced, tip);
        assert_eq!(node.tip_height(), tip);
    }

    /// A peer that serves garbage for every request.
    struct Garbage;
    impl BlockSource for Garbage {
        fn serve(&mut self, _start: u32, _count: u32) -> Vec<Vec<u8>> {
            vec![vec![0xff; 10]]
        }
    }

    #[test]
    fn corrupt_single_source_gets_banned() {
        let (_, ebv_blocks) = chains();
        let genesis = ebv_blocks[0].clone();
        let peer = spawn_source(Garbage);
        let mut node = EbvNode::new(&genesis, EbvConfig::default());
        match sync_single(&mut node, peer) {
            Err(SyncError::AllPeersFailed {
                banned: 1, last, ..
            }) => {
                assert!(
                    matches!(last.as_deref(), Some(SyncError::Decode { peer: 0, .. })),
                    "last failure should be a decode error, got {last:?}"
                );
            }
            other => panic!("expected all-peers-failed, got {other:?}"),
        }
    }

    #[test]
    fn invalid_block_bans_peer_but_keeps_valid_prefix() {
        let (_, mut ebv_blocks) = chains();
        let genesis = ebv_blocks[0].clone();
        // Corrupt block 3's merkle root: decodes fine, fails validation.
        ebv_blocks[3].header.merkle_root = ebv_primitives::hash::sha256d(b"evil");
        let peer = spawn_source(ebv_blocks);
        let mut node = EbvNode::new(&genesis, EbvConfig::default());
        match sync_single(&mut node, peer) {
            Err(SyncError::AllPeersFailed { last, .. }) => {
                assert!(
                    matches!(
                        last.as_deref(),
                        Some(SyncError::Validation {
                            peer: 0,
                            height: 3,
                            err: EbvError::MerkleMismatch,
                            ..
                        })
                    ),
                    "unexpected last failure: {last:?}"
                );
            }
            other => panic!("expected all-peers-failed, got {other:?}"),
        }
        assert_eq!(node.tip_height(), 2, "synced up to the corruption");
    }

    #[test]
    fn batching_covers_long_chains() {
        // More blocks than one batch.
        let blocks = ChainGenerator::new(GeneratorParams {
            txs_per_block: ebv_workload::Ramp::flat(0.0),
            ..GeneratorParams::tiny(2 * SYNC_BATCH, 5)
        })
        .generate();
        let ebv_blocks = Intermediary::new(0)
            .convert_chain(&blocks)
            .expect("conversion");
        let genesis = ebv_blocks[0].clone();
        let tip = ebv_blocks.len() as u32 - 1;
        let peer = spawn_source(ebv_blocks);
        let mut node = EbvNode::new(&genesis, EbvConfig::default());
        assert_eq!(sync_single(&mut node, peer).expect("sync"), tip);
    }

    #[test]
    fn honest_minority_carries_sync() {
        // Three garbage peers and one honest peer: the driver must ban the
        // garbage and finish from the honest one.
        let (_, ebv_blocks) = chains();
        let genesis = ebv_blocks[0].clone();
        let tip = ebv_blocks.len() as u32 - 1;
        let peers = vec![
            PeerHandle::spawn(0, Garbage),
            PeerHandle::spawn(1, Garbage),
            PeerHandle::spawn(2, Garbage),
            PeerHandle::spawn(3, ebv_blocks),
        ];
        let mut node = EbvNode::new(&genesis, EbvConfig::default());
        let report = sync_multi(&mut node, peers, &SyncConfig::fast_test()).expect("sync");
        assert_eq!(node.tip_height(), tip);
        assert_eq!(report.blocks_connected, tip);
        assert!(report.peers[0].banned && report.peers[1].banned && report.peers[2].banned);
        assert!(!report.peers[3].banned);
        assert_eq!(report.peers[3].blocks_accepted, tip);
    }

    #[test]
    fn stalled_peer_fails_over_to_honest_one() {
        let (_, ebv_blocks) = chains();
        let genesis = ebv_blocks[0].clone();
        let tip = ebv_blocks.len() as u32 - 1;
        let staller = FaultyPeer::new(ebv_blocks.clone(), FaultSchedule::cycle(vec![Fault::Stall]))
            .with_stall(Duration::from_millis(120));
        let peers = vec![
            PeerHandle::spawn(0, staller),
            PeerHandle::spawn(1, ebv_blocks),
        ];
        let mut node = EbvNode::new(&genesis, EbvConfig::default());
        let report = sync_multi(&mut node, peers, &SyncConfig::fast_test()).expect("sync");
        assert_eq!(node.tip_height(), tip);
        assert!(report.peers[0].stalls >= 1, "the stall must be recorded");
    }

    #[test]
    fn error_messages_name_peer_height_and_attempts() {
        let err: SyncError<EbvError> = SyncError::Stalled {
            peer: 7,
            height: 42,
            attempts: 3,
        };
        let msg = err.to_string();
        assert!(msg.contains("peer 7"), "{msg}");
        assert!(msg.contains("height 42"), "{msg}");
        assert!(msg.contains("failure 3"), "{msg}");

        let outer: SyncError<EbvError> = SyncError::AllPeersFailed {
            total: 4,
            banned: 4,
            height: 10,
            rounds: 55,
            last: Some(Box::new(err)),
        };
        let msg = outer.to_string();
        assert!(msg.contains("all 4 peer(s)"), "{msg}");
        assert!(msg.contains("last failure: peer 7"), "{msg}");
    }

    #[test]
    fn fault_schedules_are_deterministic() {
        let draw = |seed| {
            let mut s = FaultSchedule::seeded(seed, 40, vec![Fault::Corrupt, Fault::Stall]);
            (0..64).map(|_| s.next_fault()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9), "same seed, same schedule");
        assert_ne!(draw(9), draw(10), "different seed, different schedule");
        let faults = draw(9).iter().filter(|f| !matches!(f, Fault::None)).count();
        assert!(
            faults > 10 && faults < 50,
            "rate should be near 40%: {faults}"
        );
    }
}
