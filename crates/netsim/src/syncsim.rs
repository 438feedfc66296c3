//! Sync-under-faults simulation: the real multi-peer driver, modeled
//! validation cost.
//!
//! The gossip simulator ([`crate::sim`]) models *propagation*; this module
//! models *synchronization*. A [`ModelNode`] implements the sync
//! subsystem's `ValidatingNode` with structural checking only, charging
//! each connected block a validation time drawn from a per-system
//! [`ValidationModel`] — so the actual `ebv-core` driver (scoring, backoff,
//! bans, fork resolution) runs unchanged, while validation cost stays a
//! model knob. [`sync_under_faults`] then asks: with the same peers
//! misbehaving the same deterministic way, how much modeled validation
//! time does each system pay to reach the tip?
//!
//! Because the baseline's cache-dependent model has heavy spikes and EBV's
//! is tight, the EBV node pays both less time and less *variance* for the
//! identical fault schedule — the sync-layer analogue of Fig. 18.

use crate::validation::ValidationModel;
use ebv_chain::{Block, BlockHeader};
use ebv_core::sync::{
    serve_adversary, serve_blocks, sync_multi, Fault, FaultSchedule, FaultyPeer, PeerHandle,
    SyncConfig, SyncError, SyncReport, TcpPeer, TcpServer, ValidatingNode, WireAdversary,
    WireConfig,
};
use ebv_primitives::encode::{Decodable, DecodeError};
use ebv_primitives::hash::Hash256;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Why a [`ModelNode`] rejected a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelError {
    /// `prev_block_hash` does not extend the tip.
    NotOnTip,
    /// Context-free structure failure (merkle root, coinbase shape, PoW).
    BadStructure,
}

/// A header-chain node that charges modeled validation time per block
/// instead of running EV/UV/SV for real.
pub struct ModelNode {
    headers: Vec<BlockHeader>,
    model: ValidationModel,
    rng: SmallRng,
    /// Modeled validation time accumulated across connected blocks, µs.
    pub modeled_us: u64,
    /// Blocks accepted (reorg reconnects included).
    pub blocks_validated: u64,
}

impl ModelNode {
    /// Boot from a genesis block; `seed` fixes the validation-time draws.
    pub fn new(genesis: &Block, model: ValidationModel, seed: u64) -> ModelNode {
        ModelNode {
            headers: vec![genesis.header],
            model,
            rng: SmallRng::seed_from_u64(seed),
            modeled_us: 0,
            blocks_validated: 0,
        }
    }
}

impl ValidatingNode for ModelNode {
    type Block = Block;
    type Error = ModelError;

    fn decode_block(bytes: &[u8]) -> Result<Block, DecodeError> {
        Block::from_bytes(bytes)
    }

    fn block_hash(block: &Block) -> Hash256 {
        block.header.hash()
    }

    fn block_prev_hash(block: &Block) -> Hash256 {
        block.header.prev_block_hash
    }

    fn tip_height(&self) -> u32 {
        (self.headers.len() - 1) as u32
    }

    fn tip_hash(&self) -> Hash256 {
        self.headers[self.headers.len() - 1].hash()
    }

    fn header_hash_at(&self, height: u32) -> Option<Hash256> {
        self.headers.get(height as usize).map(BlockHeader::hash)
    }

    fn connect_block(&mut self, block: &Block) -> Result<(), ModelError> {
        if block.header.prev_block_hash != self.tip_hash() {
            return Err(ModelError::NotOnTip);
        }
        if block.check_structure().is_err() {
            return Err(ModelError::BadStructure);
        }
        self.modeled_us += self.model.sample_us(&mut self.rng);
        self.blocks_validated += 1;
        self.headers.push(block.header);
        Ok(())
    }

    fn disconnect_tip_block(&mut self) -> Result<Option<u32>, ModelError> {
        if self.headers.len() <= 1 {
            return Ok(None);
        }
        self.headers.pop();
        Ok(Some(self.tip_height()))
    }

    fn is_not_on_tip(err: &ModelError) -> bool {
        matches!(err, ModelError::NotOnTip)
    }

    fn check_invariants(&self) -> Result<(), String> {
        if self.headers.is_empty() {
            return Err("header chain is empty".to_string());
        }
        Ok(())
    }
}

/// What one modeled sync run cost.
#[derive(Debug)]
pub struct SyncSimResult {
    /// Modeled validation time spent by the destination node, µs.
    pub modeled_validation_us: u64,
    /// Final tip height.
    pub tip_height: u32,
    /// The driver's own accounting (per-peer stats, reorgs, rounds).
    pub report: SyncReport,
}

/// Drive a [`ModelNode`] to the tip of `chain` through one honest peer and
/// `faulty` additional peers, each injecting faults from a seeded schedule
/// (`fault_seed` + peer index; `rate_percent` of requests misbehave).
///
/// Everything that matters is deterministic per seed: the fault schedule,
/// the validation-time draws, and the converged final state.
pub fn sync_under_faults(
    chain: &[Block],
    model: ValidationModel,
    faulty: usize,
    fault_seed: u64,
    rate_percent: u64,
) -> Result<SyncSimResult, SyncError<ModelError>> {
    let mut node = ModelNode::new(&chain[0], model, fault_seed ^ 0x5eed);
    let mut peers = Vec::with_capacity(faulty + 1);
    for p in 0..faulty {
        let schedule = FaultSchedule::seeded(
            fault_seed.wrapping_add(p as u64),
            rate_percent,
            vec![
                Fault::Corrupt,
                Fault::Truncate,
                Fault::WrongHeight { offset: 3 },
                Fault::StaleTip,
            ],
        );
        peers.push(PeerHandle::spawn(
            p,
            FaultyPeer::new(chain.to_vec(), schedule),
        ));
    }
    peers.push(PeerHandle::spawn(faulty, chain.to_vec()));
    let report = sync_multi(&mut node, peers, &SyncConfig::fast_test())?;
    Ok(SyncSimResult {
        modeled_validation_us: node.modeled_us,
        tip_height: node.tip_height(),
        report,
    })
}

/// [`sync_under_faults`], but over real localhost TCP: `honest` honest
/// servers plus one byte-level adversary server per entry in
/// `adversaries`, all driven by `TcpPeer` transports through the same
/// driver. Because a `ModelNode` validates structurally (no EV/UV/SV
/// cost), this scales to dozens-to-hundreds of peers cheaply — the
/// netsim-scale churn/partition scenarios run through here.
///
/// Servers live until the run completes; the result is deterministic in
/// everything but wall-clock (peer choice depends only on scores/ids).
pub fn sync_under_wire_faults(
    chain: &[Block],
    model: ValidationModel,
    honest: usize,
    adversaries: &[WireAdversary],
    seed: u64,
) -> Result<SyncSimResult, SyncError<ModelError>> {
    let network = chain[0].header.hash();
    let wire = WireConfig::fast_test();
    let mut node = ModelNode::new(&chain[0], model, seed ^ 0x5eed);
    let mut adv_servers: Vec<TcpServer> = Vec::with_capacity(adversaries.len());
    let mut servers: Vec<TcpServer> = Vec::with_capacity(honest);
    let mut peers = Vec::with_capacity(adversaries.len() + honest);
    for (p, adv) in adversaries.iter().enumerate() {
        let server = serve_adversary(chain.to_vec(), network, *adv, wire)
            .unwrap_or_else(|e| panic!("bind adversary {}: {e}", adv.label()));
        peers.push(TcpPeer::new(p, server.addr(), network, wire));
        adv_servers.push(server);
    }
    for h in 0..honest {
        let server = serve_blocks(chain.to_vec(), network, wire)
            .unwrap_or_else(|e| panic!("bind honest server {h}: {e}"));
        peers.push(TcpPeer::new(
            adversaries.len() + h,
            server.addr(),
            network,
            wire,
        ));
        servers.push(server);
    }
    let report = sync_multi(&mut node, peers, &SyncConfig::fast_test())?;
    Ok(SyncSimResult {
        modeled_validation_us: node.modeled_us,
        tip_height: node.tip_height(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebv_workload::{ChainGenerator, GeneratorParams};

    fn chain() -> Vec<Block> {
        ChainGenerator::new(GeneratorParams::tiny(20, 11)).generate()
    }

    #[test]
    fn model_node_reaches_tip_through_faulty_peers() {
        let blocks = chain();
        let tip = blocks.len() as u32 - 1;
        let result =
            sync_under_faults(&blocks, ValidationModel::Constant(100), 3, 42, 40).expect("sync");
        assert_eq!(result.tip_height, tip);
        assert_eq!(result.modeled_validation_us, 100 * u64::from(tip));
        assert_eq!(result.report.blocks_connected, tip);
    }

    #[test]
    fn ebv_model_pays_less_than_baseline_for_same_faults() {
        let blocks = chain();
        let ebv = sync_under_faults(&blocks, ValidationModel::ebv_from_mean_us(1_000), 2, 7, 30)
            .expect("ebv sync");
        let baseline = sync_under_faults(
            &blocks,
            ValidationModel::baseline_from_mean_us(100_000),
            2,
            7,
            30,
        )
        .expect("baseline sync");
        assert_eq!(ebv.tip_height, baseline.tip_height);
        assert!(
            ebv.modeled_validation_us < baseline.modeled_validation_us / 10,
            "ebv {} vs baseline {}",
            ebv.modeled_validation_us,
            baseline.modeled_validation_us
        );
    }

    #[test]
    fn model_node_syncs_over_tcp_against_every_wire_adversary() {
        let blocks = chain();
        let tip = blocks.len() as u32 - 1;
        let advs = WireAdversary::all(std::time::Duration::from_millis(5));
        let n_advs = advs.len();
        let result = sync_under_wire_faults(&blocks, ValidationModel::Constant(10), 1, &advs, 3)
            .expect("one honest TCP peer must carry the sync");
        assert_eq!(result.tip_height, tip);
        for (p, adv) in advs.iter().enumerate() {
            let stats = &result.report.peers[p];
            assert!(
                stats.banned,
                "adversary {} (peer {p}) not banned",
                adv.label()
            );
            assert!(
                stats.banned_at_us.is_some(),
                "ban time missing for {}",
                adv.label()
            );
        }
        assert!(!result.report.peers[n_advs].banned, "honest peer banned");
    }

    #[test]
    fn rejects_structurally_bad_block() {
        let blocks = chain();
        let mut node = ModelNode::new(&blocks[0], ValidationModel::Constant(1), 0);
        let mut bad = blocks[1].clone();
        bad.header.merkle_root = Hash256::ZERO;
        assert_eq!(node.connect_block(&bad), Err(ModelError::BadStructure));
        let mut off_tip = blocks[2].clone();
        off_tip.header.prev_block_hash = Hash256::ZERO;
        assert_eq!(node.connect_block(&off_tip), Err(ModelError::NotOnTip));
    }
}
