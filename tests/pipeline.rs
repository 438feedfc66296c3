//! End-to-end properties of the EBV validation pipeline:
//!
//! * every SV worker count is observationally identical — same
//!   accept/reject decision and the same `EbvError` on every block, valid
//!   or tampered (in EV, value, SV, stake and Merkle), over a ~1k-block
//!   random chain, with the value tampers (outputs summing past 2⁶⁴
//!   included) rejected as value imbalances and excessive coinbases;
//! * `disconnect_tip` restores the bit-vector set exactly (connect /
//!   disconnect round trip).

mod common;

use common::{build_chains, tamper};
use ebv_core::{BlockBitVector, EbvConfig, EbvError, EbvNode};
use ebv_workload::GeneratorParams;

#[test]
fn sequential_and_parallel_pipelines_agree() {
    let (_, chain) = build_chains(GeneratorParams::tiny(1000, 0xd1ff));
    // One worker (everything inline), two, three, and the default.
    let mut nodes: Vec<EbvNode> = [Some(1), Some(2), Some(3), None]
        .into_iter()
        .map(|workers| {
            let config = EbvConfig {
                workers,
                ..EbvConfig::default()
            };
            EbvNode::new(&chain[0], config)
        })
        .collect();

    // Value imbalances and excessive coinbases that value tampers caused.
    let mut value_rejections = [0; 2];
    for (h, block) in chain.iter().enumerate().skip(1) {
        // Every 7th block, feed all nodes a tampered copy first and
        // require the identical rejection (cycling through corruption
        // targets so every phase's error selection is exercised).
        if h % 7 == 0 {
            let mode = h / 7;
            let bad = tamper(block, mode);
            let errors: Vec<_> = nodes
                .iter_mut()
                .map(|n| n.process_block(&bad).expect_err("tampered block rejected"))
                .collect();
            assert!(
                errors.iter().all(|e| e == &errors[0]),
                "height {h}: {errors:?}"
            );
            // `tamper`'s value modes: an inflated output (2) and outputs
            // summing past 2⁶⁴ (6) are imbalances, a coinbase of u64::MAX
            // (7) is excessive; without a spend to tamper, the Merkle root.
            match (mode % 8, &errors[0]) {
                (2 | 6, EbvError::ValueImbalance { .. }) => value_rejections[0] += 1,
                (7, EbvError::ExcessiveCoinbase) => value_rejections[1] += 1,
                (2 | 6 | 7, e) => assert_eq!(e, &EbvError::MerkleMismatch, "height {h}"),
                _ => {}
            }
        }
        // `Ok` carries wall-clock timings, so compare decisions + errors.
        for (i, node) in nodes.iter_mut().enumerate() {
            let result = node.process_block(block);
            assert!(result.is_ok(), "height {h}, node {i}: {result:?}");
        }
    }

    assert!(
        value_rejections[0] >= 10 && value_rejections[1] >= 5,
        "too few value rejections: {value_rejections:?}"
    );

    // Identical decisions must leave identical state.
    let one = &nodes[0];
    for node in &nodes[1..] {
        assert_eq!(node.tip_hash(), one.tip_hash());
        assert_eq!(node.total_unspent(), one.total_unspent());
        assert_eq!(node.status_memory(), one.status_memory());
        for h in 0..=one.tip_height() {
            assert_eq!(
                node.bitvecs().vector(h),
                one.bitvecs().vector(h),
                "vector at height {h}"
            );
        }
    }
}

#[test]
fn connect_disconnect_round_trip_restores_bitvectors() {
    let (_, chain) = build_chains(GeneratorParams::mainnet_like(120, 0xabc));
    let mut node = EbvNode::new(&chain[0], EbvConfig::default());
    let split = 80usize;
    for block in &chain[1..split] {
        node.process_block(block).expect("valid block");
    }

    // Snapshot the full bit-vector state at the split point.
    let snap_tip = node.tip_hash();
    let snap_unspent = node.total_unspent();
    let snapshot: Vec<Option<BlockBitVector>> = (0..chain.len() as u32)
        .map(|h| node.bitvecs().vector(h).cloned())
        .collect();

    for block in &chain[split..] {
        node.process_block(block).expect("valid block");
    }
    assert_eq!(node.tip_height() as usize, chain.len() - 1);

    while node.tip_height() as usize >= split {
        node.disconnect_tip().expect("undo data present");
    }

    assert_eq!(node.tip_hash(), snap_tip);
    assert_eq!(node.total_unspent(), snap_unspent);
    let restored = (0..chain.len() as u32)
        .filter(|&h| node.bitvecs().vector(h).is_some())
        .count();
    assert_eq!(restored, snapshot.iter().filter(|v| v.is_some()).count());
    for (h, expect) in snapshot.iter().enumerate() {
        assert_eq!(
            node.bitvecs().vector(h as u32),
            expect.as_ref(),
            "bit vector at height {h} must be restored exactly"
        );
    }
}
