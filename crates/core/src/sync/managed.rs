//! Managed sync: peer selection through the [`PeerManager`] instead of a
//! fixed peer list.
//!
//! [`sync_multi`](super::sync_multi) takes whatever peers it is handed and
//! judges them per-connection. [`sync_managed`] closes the loop at the
//! topology layer: each *session* asks the [`PeerManager`] for an outbound
//! set (anchors first, netgroup-diverse, tried/new mix), dials it through
//! a [`PeerFactory`], runs the unchanged driver over the connections, and
//! feeds the per-peer verdicts back into the manager — banned peers are
//! marked failed and disconnected, contributing peers are promoted to
//! `tried` and become anchor candidates. When an entire session fails
//! (every selected peer banned — the eclipse case mid-attack), the
//! manager re-selects and the next session runs against a fresh set, so a
//! single poisoned selection round is survivable as long as the tables
//! still hold an honest address.

use super::driver::{sync_multi, SyncConfig, SyncReport};
use super::node::ValidatingNode;
use super::peer::Transport;
use super::peer_manager::{PeerAddr, PeerManager};
use super::SyncError;
use ebv_telemetry::{counter, trace_event};

/// Dials transports for addresses the [`PeerManager`] selects. The `id`
/// is the driver-facing peer id the transport must report from
/// [`Transport::id`]. Returning `None` means the dial failed (node down,
/// fictitious address from an addr flood) — the manager records the
/// failure.
pub trait PeerFactory {
    type Peer: Transport;
    fn connect(&mut self, addr: PeerAddr, id: usize) -> Option<Self::Peer>;
}

impl<P: Transport, F: FnMut(PeerAddr, usize) -> Option<P>> PeerFactory for F {
    type Peer = P;
    fn connect(&mut self, addr: PeerAddr, id: usize) -> Option<P> {
        self(addr, id)
    }
}

/// Knobs for the managed driver.
#[derive(Clone, Copy, Debug)]
pub struct ManagedConfig {
    /// Per-session driver configuration.
    pub sync: SyncConfig,
    /// How many selection→sync sessions to attempt before giving up.
    pub max_sessions: u32,
}

impl Default for ManagedConfig {
    fn default() -> Self {
        ManagedConfig {
            sync: SyncConfig::default(),
            max_sessions: 4,
        }
    }
}

impl ManagedConfig {
    /// Test timings (sub-millisecond backoff, 50 ms request timeout).
    pub fn fast_test() -> ManagedConfig {
        ManagedConfig {
            sync: SyncConfig::fast_test(),
            ..ManagedConfig::default()
        }
    }
}

/// What a managed sync did, beyond the final session's [`SyncReport`].
#[derive(Clone, Debug)]
pub struct ManagedReport {
    /// The successful session's driver report.
    pub sync: SyncReport,
    /// Sessions attempted (1 = first selection succeeded).
    pub sessions: u32,
    /// Address dialed for each peer id of the final session.
    pub peer_addrs: Vec<PeerAddr>,
    /// Anchor set as of completion — persist with
    /// [`PeerManager::encode_anchors`] and feed to
    /// [`PeerManager::with_anchors`] on restart.
    pub anchors: Vec<PeerAddr>,
}

/// Sync `node` using peers selected by `manager` and dialed by `factory`.
/// `tick` is the manager's logical clock at session start; each session
/// advances it by one.
pub fn sync_managed<N, F>(
    node: &mut N,
    manager: &mut PeerManager,
    factory: &mut F,
    cfg: &ManagedConfig,
    mut tick: u64,
) -> Result<ManagedReport, SyncError<N::Error>>
where
    N: ValidatingNode,
    F: PeerFactory,
{
    // Root of the managed-sync trace: each session (and the sync.session
    // span inside it) nests under this, so a whole multi-session run
    // reads as one tree in `ebv-cli trace-tree`.
    let _root_span = ebv_telemetry::context::SpanGuard::enter_root("sync.managed", cfg.sync.seed);
    let mut last_failure: Option<SyncError<N::Error>> = None;
    for session in 1..=cfg.max_sessions {
        tick += 1;
        let _session_span = ebv_telemetry::child_span!("sync.managed_session", session);
        // Feeler probe: test one gossiped address per session so `tried`
        // keeps filling with addresses that actually answer.
        if let Some(addr) = manager.feeler_candidate(tick) {
            match factory.connect(addr, usize::MAX) {
                Some(mut peer) => {
                    peer.finish();
                    manager.mark_good(addr, tick);
                }
                None => manager.mark_failed(addr),
            }
        }
        // Fill the outbound set for this session.
        let mut peers: Vec<F::Peer> = Vec::new();
        let mut addrs: Vec<PeerAddr> = Vec::new();
        while manager.outbound().len() < manager.config().outbound_slots {
            let Some(addr) = manager.select_outbound() else {
                break;
            };
            match factory.connect(addr, peers.len()) {
                Some(peer) => {
                    manager.connect_outbound(addr, tick);
                    peers.push(peer);
                    addrs.push(addr);
                }
                None => manager.mark_failed(addr),
            }
        }
        if peers.is_empty() {
            counter!("net.peer.slot.select_empty").inc();
            return Err(last_failure.unwrap_or_else(|| {
                SyncError::Internal("peer manager selected no connectable address".to_string())
            }));
        }
        counter!("sync.managed.sessions").inc();
        trace_event!(
            "sync.managed_session",
            session = session,
            peers = addrs.len(),
        );
        let outcome = sync_multi(node, peers, &cfg.sync);
        tick += 1;
        match outcome {
            Ok(sync) => {
                for stats in &sync.peers {
                    let addr = addrs[stats.id];
                    if stats.banned {
                        manager.mark_failed(addr);
                        manager.disconnect(addr);
                    } else if stats.blocks_accepted > 0 {
                        manager.mark_good(addr, tick);
                        manager.mark_useful(addr, tick);
                    }
                }
                return Ok(ManagedReport {
                    sync,
                    sessions: session,
                    peer_addrs: addrs,
                    anchors: manager.anchors(),
                });
            }
            Err(SyncError::AllPeersFailed { last, .. }) => {
                // The whole selection failed; every dialed peer is suspect.
                // Record the failures and let the next session re-select.
                for &addr in &addrs {
                    manager.mark_failed(addr);
                    manager.disconnect(addr);
                }
                counter!("sync.managed.session_failures").inc();
                last_failure = last.map(|b| *b);
            }
            Err(e) => {
                for &addr in &addrs {
                    manager.disconnect(addr);
                }
                return Err(e);
            }
        }
    }
    Err(last_failure
        .unwrap_or_else(|| SyncError::Internal("managed sync exhausted sessions".to_string())))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::super::peer::{BlockSource, PeerHandle};
    use super::super::peer_manager::PeerManagerConfig;
    use super::*;
    use crate::ebv_node::{EbvConfig, EbvNode};
    use crate::intermediary::Intermediary;
    use crate::tidy::EbvBlock;
    use ebv_workload::{ChainGenerator, GeneratorParams};

    fn chain() -> Vec<EbvBlock> {
        let blocks = ChainGenerator::new(GeneratorParams::tiny(10, 77)).generate();
        Intermediary::new(0)
            .convert_chain(&blocks)
            .expect("conversion")
    }

    /// Serves garbage for every request.
    struct Garbage;
    impl BlockSource for Garbage {
        fn serve(&mut self, _start: u32, _count: u32) -> Vec<Vec<u8>> {
            vec![vec![0xff; 10]]
        }
    }

    #[test]
    fn managed_sync_reaches_tip_and_promotes_contributors() {
        let blocks = chain();
        let genesis = blocks[0].clone();
        let tip = blocks.len() as u32 - 1;
        let honest = PeerAddr::synthetic(1, 1);
        let mut manager = PeerManager::new(PeerManagerConfig {
            outbound_slots: 2,
            ..PeerManagerConfig::default()
        });
        manager.add_addr(honest, 1);
        let mut factory = |addr: PeerAddr, id: usize| {
            (addr == honest).then(|| PeerHandle::spawn(id, blocks.clone()))
        };
        let mut node = EbvNode::new(&genesis, EbvConfig::default());
        let report = sync_managed(
            &mut node,
            &mut manager,
            &mut factory,
            &ManagedConfig::fast_test(),
            0,
        )
        .expect("managed sync");
        assert_eq!(node.tip_height(), tip);
        assert_eq!(report.sessions, 1);
        assert_eq!(report.peer_addrs, vec![honest]);
        assert_eq!(manager.tried_count(), 1, "contributor promoted to tried");
        assert_eq!(report.anchors, vec![honest]);
    }

    #[test]
    fn failed_session_reselects_and_recovers() {
        let blocks = chain();
        let genesis = blocks[0].clone();
        let tip = blocks.len() as u32 - 1;
        // One garbage address in `tried` (it "answered" before), one honest
        // address only reachable via the new table. Diversity forces
        // distinct netgroups.
        let bad = PeerAddr::synthetic(10, 1);
        let honest = PeerAddr::synthetic(20, 1);
        let mut manager = PeerManager::new(PeerManagerConfig {
            outbound_slots: 1,
            feeler_interval: u64::MAX, // keep feelers out of this test
            ..PeerManagerConfig::default()
        });
        manager.add_addr(bad, 10);
        manager.mark_good(bad, 0);
        manager.add_addr(honest, 20);
        let blocks2 = blocks.clone();
        let mut factory = move |addr: PeerAddr, id: usize| {
            if addr == honest {
                Some(PeerHandle::spawn(id, blocks2.clone()))
            } else {
                Some(PeerHandle::spawn(id, Garbage))
            }
        };
        let mut node = EbvNode::new(&genesis, EbvConfig::default());
        let report = sync_managed(
            &mut node,
            &mut manager,
            &mut factory,
            &ManagedConfig {
                max_sessions: 8,
                ..ManagedConfig::fast_test()
            },
            0,
        )
        .expect("recovers through re-selection");
        assert_eq!(node.tip_height(), tip);
        assert!(report.sessions >= 1);
        assert_eq!(report.peer_addrs.last(), Some(&honest));
    }

    #[test]
    fn no_connectable_address_is_an_error_not_a_hang() {
        let genesis = chain()[0].clone();
        let mut manager = PeerManager::new(PeerManagerConfig::default());
        let mut factory = |_addr: PeerAddr, _id: usize| -> Option<PeerHandle> { None };
        let mut node = EbvNode::new(&genesis, EbvConfig::default());
        let err = sync_managed(
            &mut node,
            &mut manager,
            &mut factory,
            &ManagedConfig::fast_test(),
            0,
        )
        .expect_err("empty manager cannot sync");
        assert!(matches!(err, SyncError::Internal(_)), "got {err:?}");
    }
}
