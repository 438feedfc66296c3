//! Scenario construction: generated chain + converted EBV chain + nodes.

use crate::args::CommonArgs;
use ebv_chain::Block;
use ebv_core::{BaselineNode, EbvBlock, EbvConfig, EbvNode, Intermediary};
use ebv_store::{KvStore, LatencyModel, StoreConfig, UtxoSet};
use ebv_workload::{ChainGenerator, GeneratorParams};

/// A fully materialized experiment input: one logical ledger in both
/// formats.
pub struct Scenario {
    pub blocks: Vec<Block>,
    pub ebv_blocks: Vec<EbvBlock>,
}

impl Scenario {
    /// Generate the chain and convert it through the intermediary.
    pub fn build(params: GeneratorParams) -> Scenario {
        let blocks = ChainGenerator::new(params).generate();
        let mut intermediary = Intermediary::new(0);
        let ebv_blocks = intermediary
            .convert_chain(&blocks)
            .expect("generated chains always convert");
        Scenario { blocks, ebv_blocks }
    }

    /// The default mainnet-like scenario for `args` (consolidation epoch
    /// placed at ~80 % of the chain, mirroring the paper's Fig. 5 dip in
    /// the 500k–550k period of 650k blocks).
    pub fn mainnet_like(args: &CommonArgs) -> Scenario {
        let n = args.blocks;
        let params = GeneratorParams::mainnet_like(n, args.seed)
            .with_consolidation(n * 10 / 13, n * 11 / 13);
        Scenario::build(params)
    }

    /// A freshly booted baseline node over this scenario's genesis with
    /// the given cache budget and injected latency.
    pub fn baseline_node(&self, args: &CommonArgs) -> BaselineNode {
        let store = KvStore::open(StoreConfig {
            cache_budget: args.budget,
            latency: LatencyModel::scaled_hdd(args.latency_us, args.latency_us / 4),
            path: None,
        })
        .expect("temp store opens");
        BaselineNode::new(&self.blocks[0], UtxoSet::new(store), args.node_config())
            .expect("genesis applies")
    }

    /// A freshly booted EBV node over this scenario's genesis.
    pub fn ebv_node(&self) -> EbvNode {
        self.ebv_node_with(EbvConfig::default())
    }

    /// Same, with an explicit validator configuration (SV worker count).
    pub fn ebv_node_with(&self, config: EbvConfig) -> EbvNode {
        EbvNode::new(&self.ebv_blocks[0], config)
    }
}
