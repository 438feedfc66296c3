//! Reorg primitives: connecting then disconnecting blocks must restore
//! state exactly, on both node types, and re-connecting must succeed.

mod common;

use ebv::core::{BaselineConfig, BaselineNode, EbvConfig, EbvNode};
use ebv::store::{KvStore, StoreConfig, UtxoSet};

fn chain_pair() -> (Vec<ebv::chain::Block>, Vec<ebv_core::EbvBlock>) {
    common::chain_pair(12, 31)
}

#[test]
fn ebv_disconnect_restores_state() {
    let (_, ebv_blocks) = chain_pair();
    let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());

    // Connect to height 8, snapshot, connect to 12, roll back to 8.
    for b in &ebv_blocks[1..=8] {
        node.process_block(b).expect("valid");
    }
    let unspent_at_8 = node.total_unspent();
    let memory_at_8 = node.status_memory();
    let tip_at_8 = node.tip_hash();

    for b in &ebv_blocks[9..] {
        node.process_block(b).expect("valid");
    }
    assert_eq!(node.tip_height(), 12);

    for expected in (8..12).rev() {
        assert_eq!(node.disconnect_tip().expect("undo intact"), Some(expected));
    }
    assert_eq!(node.tip_height(), 8);
    assert_eq!(node.tip_hash(), tip_at_8);
    assert_eq!(node.total_unspent(), unspent_at_8);
    assert_eq!(node.status_memory(), memory_at_8);

    // Reconnect the same blocks: must validate again.
    for b in &ebv_blocks[9..] {
        node.process_block(b).expect("reconnect after rollback");
    }
    assert_eq!(node.tip_height(), 12);
}

#[test]
fn ebv_disconnect_to_genesis_then_stop() {
    let (_, ebv_blocks) = chain_pair();
    let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
    for b in &ebv_blocks[1..=3] {
        node.process_block(b).expect("valid");
    }
    assert_eq!(node.disconnect_tip().expect("undo intact"), Some(2));
    assert_eq!(node.disconnect_tip().expect("undo intact"), Some(1));
    assert_eq!(node.disconnect_tip().expect("undo intact"), Some(0));
    // Genesis cannot be disconnected.
    assert_eq!(node.disconnect_tip().expect("undo intact"), None);
    assert_eq!(node.tip_height(), 0);
}

#[test]
fn baseline_disconnect_restores_utxo_set() {
    let (blocks, _) = chain_pair();
    let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(8 << 20)).expect("store"));
    let mut node = BaselineNode::new(&blocks[0], utxos, BaselineConfig::default()).expect("boot");

    for b in &blocks[1..=6] {
        node.process_block(b).expect("valid");
    }
    let size_at_6 = node.utxos().size();
    let tip_at_6 = node.tip_hash();

    for b in &blocks[7..] {
        node.process_block(b).expect("valid");
    }
    for expected in (6..12).rev() {
        assert_eq!(node.disconnect_tip().expect("undo intact"), Some(expected));
    }
    assert_eq!(node.utxos().size(), size_at_6);
    assert_eq!(node.tip_hash(), tip_at_6);

    // Reconnect.
    for b in &blocks[7..] {
        node.process_block(b).expect("reconnect");
    }
    assert_eq!(node.tip_height(), 12);
}

#[test]
fn nodes_agree_after_identical_reorg() {
    let (blocks, ebv_blocks) = chain_pair();
    let utxos = UtxoSet::new(KvStore::open(StoreConfig::with_budget(8 << 20)).expect("store"));
    let mut baseline =
        BaselineNode::new(&blocks[0], utxos, BaselineConfig::default()).expect("boot");
    let mut ebv = EbvNode::new(&ebv_blocks[0], EbvConfig::default());

    for (b, e) in blocks[1..].iter().zip(&ebv_blocks[1..]) {
        baseline.process_block(b).expect("valid");
        ebv.process_block(e).expect("valid");
    }
    baseline.disconnect_tip().expect("rollback");
    baseline.disconnect_tip().expect("rollback");
    ebv.disconnect_tip().expect("rollback");
    ebv.disconnect_tip().expect("rollback");
    assert_eq!(baseline.utxos().size().count, ebv.total_unspent());
    assert_eq!(baseline.tip_height(), ebv.tip_height());
}
