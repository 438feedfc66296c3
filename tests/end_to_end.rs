//! End-to-end pipeline: workload generator → baseline node, and through
//! the intermediary → EBV node. Both must accept the chain and agree on
//! the resulting state.

mod common;

use common::{build_chains, chain_pair, ebv_chain};
use ebv::core::{replay_ibd, BaselineConfig, BaselineNode};
use ebv::store::{KvStore, LatencyModel, StoreConfig, UtxoSet};
use ebv::workload::{ChainGenerator, GeneratorParams};
use ebv_core::{EbvConfig, EbvNode};

fn utxo_set(budget: usize) -> UtxoSet {
    UtxoSet::new(KvStore::open(StoreConfig::with_budget(budget)).expect("store"))
}

#[test]
fn generated_chain_validates_on_both_nodes() {
    let (blocks, ebv_blocks) = chain_pair(15, 21);

    let mut baseline =
        BaselineNode::new(&blocks[0], utxo_set(8 << 20), BaselineConfig::default()).expect("boot");
    for b in &blocks[1..] {
        baseline
            .process_block(b)
            .expect("baseline accepts generated block");
    }

    let mut ebv = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    for b in &ebv_blocks[1..] {
        ebv.process_block(b).expect("ebv accepts converted block");
    }

    assert_eq!(baseline.tip_height(), 15);
    assert_eq!(ebv.tip_height(), 15);
    // The fundamental agreement: same unspent outputs in both models.
    assert_eq!(baseline.utxos().size().count, ebv.total_unspent());
    // And EBV's status data is smaller (the paper's headline).
    assert!(ebv.status_memory().optimized < baseline.utxos().size().bytes);
}

#[test]
fn tight_budget_changes_performance_not_results() {
    // Spends reach back far enough that a starved cache must miss.
    let params = GeneratorParams {
        p_old_spend: 0.8,
        old_age_range: (3, 9),
        ..GeneratorParams::tiny(12, 5)
    };
    let blocks = ChainGenerator::new(params).generate();

    // Roomy cache.
    let mut roomy =
        BaselineNode::new(&blocks[0], utxo_set(8 << 20), BaselineConfig::default()).expect("boot");
    // Starved cache with injected latency: every block still validates.
    let store = KvStore::open(StoreConfig {
        cache_budget: 256,
        latency: LatencyModel::scaled_hdd(30, 5),
        path: None,
    })
    .expect("store");
    let mut starved = BaselineNode::new(&blocks[0], UtxoSet::new(store), BaselineConfig::default())
        .expect("boot");

    for b in &blocks[1..] {
        roomy.process_block(b).expect("roomy accepts");
        starved.process_block(b).expect("starved accepts");
    }
    assert_eq!(roomy.utxos().size(), starved.utxos().size());
    // The starved node actually hit the disk.
    assert!(starved.utxos().stats().cache_misses > 0);
    assert_eq!(roomy.utxos().stats().cache_misses, 0);
}

#[test]
fn ibd_drivers_cover_whole_chain() {
    let (blocks, ebv_blocks) = chain_pair(20, 8);

    let mut baseline =
        BaselineNode::new(&blocks[0], utxo_set(8 << 20), BaselineConfig::default()).expect("boot");
    let periods = replay_ibd(&mut baseline, &blocks[1..], 7).expect("ibd");
    assert_eq!(periods.len(), 3); // 7 + 7 + 6
    assert_eq!(periods.last().expect("periods").end_height, 20);

    let mut ebv = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    let periods = replay_ibd(&mut ebv, &ebv_blocks[1..], 7).expect("ibd");
    assert_eq!(periods.len(), 3);
    // EV+UV must be a small share of EBV time (the paper's Fig. 17b shape)
    // — at this scale just assert they are not the dominant term.
    let b = ebv.cumulative_breakdown();
    assert!(b.ev + b.uv < b.total(), "EV+UV must not be the whole cost");
}

#[test]
fn proof_overhead_is_logarithmic_in_block_size() {
    // The EBV proof carries ~32·log2(n_tx) bytes of Merkle branch; check
    // branches in converted blocks have the expected length.
    let (_, ebv_blocks) = build_chains(GeneratorParams::mainnet_like(30, 13));
    for eb in &ebv_blocks {
        let n_tx = eb.transactions.len();
        let max_height = (n_tx as f64).log2().ceil() as usize;
        for tx in eb.transactions.iter().skip(1) {
            for body in &tx.bodies {
                let proof = body.proof.as_ref().expect("spend has proof");
                // The branch was extracted from the *source* block of the
                // spent output, so bound by the largest block seen.
                assert!(
                    proof.mbr.siblings.len() <= 16,
                    "branch unreasonably long: {} (block has {n_tx} txs, max_height {max_height})",
                    proof.mbr.siblings.len()
                );
            }
        }
    }
}

#[test]
fn ebv_blocks_round_trip_through_wire_format() {
    use ebv::primitives::encode::{Decodable, Encodable};
    let ebv_blocks = ebv_chain(6, 2);
    for eb in &ebv_blocks {
        let bytes = eb.to_bytes();
        let decoded = ebv_core::EbvBlock::from_bytes(&bytes).expect("decodes");
        assert_eq!(&decoded, eb);
        // A decoded block still validates its own integrity.
        for tx in &decoded.transactions {
            tx.check_integrity().expect("integrity survives round trip");
        }
    }
}
