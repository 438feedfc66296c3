//! Eclipse-resistance acceptance suite: the adversary cohort from
//! `ebv::netsim::eclipse` must win a majority of seeds against a naive
//! address manager, win nothing against the hardened `PeerManager`
//! defenses, and — the part that matters — a victim that survived a
//! hardened campaign must still reach the honest tip when it syncs
//! through its (partially poisoned) tables via `sync_managed`.

mod common;

use common::ebv_chain;
use ebv::core::{
    sync_managed, DefensePolicy, EbvBlock, EbvConfig, EbvNode, ManagedConfig, PeerAddr, PeerHandle,
};
use ebv::netsim::{eclipse_probability, run_eclipse_campaign, EclipseParams, HONEST_GROUP_BASE};

const SEEDS: u64 = 24;

#[test]
fn defenses_off_adversary_eclipses_majority_of_seeds() {
    let p = eclipse_probability(&EclipseParams::default(), DefensePolicy::naive(), SEEDS);
    assert!(
        p > 0.5,
        "a naive address manager must lose most campaigns; P(eclipse) = {p}"
    );
}

#[test]
fn defenses_on_eclipse_probability_is_zero() {
    let p = eclipse_probability(&EclipseParams::default(), DefensePolicy::hardened(), SEEDS);
    assert_eq!(
        p, 0.0,
        "hardened defenses must win every one of {SEEDS} seeds; P(eclipse) = {p}"
    );
}

#[test]
fn victim_reaches_honest_tip_through_post_campaign_tables() {
    // Survive a full hardened campaign, then restart and sync through the
    // manager the attack left behind: honest addresses serve the real
    // chain, adversary addresses answer but censor (a stale 4-block
    // prefix), anything fabricated does not answer. The sync must still
    // reach the honest tip — the end-to-end claim behind the probability
    // numbers above.
    let params = EclipseParams::default();
    let ebv_blocks = ebv_chain(12, 4242);
    let tip = ebv_blocks.len() as u32 - 1;
    let stale: Vec<EbvBlock> = ebv_blocks[..4].to_vec();

    for seed in 0..3u64 {
        let (outcome, mut manager) = run_eclipse_campaign(&params, DefensePolicy::hardened(), seed);
        assert!(!outcome.eclipsed, "seed {seed}: hardened victim eclipsed");
        assert!(
            outcome.honest_outbound > 0,
            "seed {seed}: no honest outbound survived the campaign"
        );

        // Restart: connections drop, the address tables persist.
        let connected: Vec<PeerAddr> = manager
            .outbound()
            .iter()
            .chain(manager.inbound().iter())
            .map(|c| c.addr)
            .collect();
        for addr in connected {
            manager.disconnect(addr);
        }

        let mut factory = |addr: PeerAddr, id: usize| {
            if addr.netgroup() >= HONEST_GROUP_BASE {
                Some(PeerHandle::spawn(id, ebv_blocks.clone()))
            } else if (1..=params.adversary_groups).contains(&addr.netgroup()) {
                Some(PeerHandle::spawn(id, stale.clone()))
            } else {
                None
            }
        };
        let mut node = EbvNode::new(&ebv_blocks[0], EbvConfig::default());
        let report = sync_managed(
            &mut node,
            &mut manager,
            &mut factory,
            &ManagedConfig::fast_test(),
            10_000,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: managed sync failed: {e}"));
        assert_eq!(node.tip_height(), tip, "seed {seed}: tip not reached");
        assert_eq!(
            node.tip_hash(),
            ebv_blocks[tip as usize].header.hash(),
            "seed {seed}: wrong tip"
        );
        assert!(
            report
                .peer_addrs
                .iter()
                .any(|a| a.netgroup() >= HONEST_GROUP_BASE),
            "seed {seed}: no honest peer in the final session"
        );
    }
}

#[test]
fn campaigns_are_deterministic_across_processes() {
    // The probability figures above are only meaningful if a campaign is
    // a pure function of its seed.
    let params = EclipseParams::default();
    for seed in [0u64, 7, 19] {
        let (a, _) = run_eclipse_campaign(&params, DefensePolicy::hardened(), seed);
        let (b, _) = run_eclipse_campaign(&params, DefensePolicy::hardened(), seed);
        assert_eq!(a.eclipsed, b.eclipsed);
        assert_eq!(a.adversary_outbound, b.adversary_outbound);
        assert_eq!(a.honest_outbound, b.honest_outbound);
        assert!((a.table_poison_fraction - b.table_poison_fraction).abs() < f64::EPSILON);
    }
}
