//! Partition-and-heal: a split gossip graph extends two branches, heals,
//! and every node must converge onto the heavier branch through the real
//! `reorg_to` engine.
//!
//! The graph is two guaranteed-connected random components (each built by
//! [`Topology::random_connected`]) joined by sparse cross links — the
//! edges the partition severs and the heal restores. While the partition
//! holds, each component mines its own branch on the shared prefix — one
//! block per round at a designated miner, spreading one hop per round by
//! neighbor adoption, so at heal time nodes sit at *different* heights
//! depending on their gossip distance from the miner. When the partition
//! heals, the cross links come back and every node that sees a
//! strictly-longer foreign branch reorgs onto it via
//! [`reorg_to`](ebv_core::sync::reorg_to) — the same invariant-checked
//! unwind/rewind the sync driver uses, run on [`ModelNode`]s so the
//! validation cost stays a model knob and the scenario scales to
//! thousands of nodes.
//!
//! Two properties are measured (and asserted in `tests/partition_heal.rs`):
//!
//! * **convergence** — within a bounded number of heal rounds, 100 % of
//!   nodes report the heavier branch's tip hash; rounds-to-convergence
//!   and the reorg-depth distribution are exported via
//!   `partition.heal.*` telemetry;
//! * **fail-closed depth bounds** — a node whose branch is deeper than
//!   `max_reorg_depth` refuses the reorg (counted under
//!   `partition.heal.refused`, slug `reorg_depth_exceeded`) instead of
//!   stalling or wrapping; the outcome reports the refusal so a
//!   too-deep partition is a *visible* liveness failure.

use crate::syncsim::ModelNode;
use crate::topology::Topology;
use crate::validation::ValidationModel;
use ebv_chain::{build_block, coinbase_tx, genesis_block, Block};
use ebv_core::sync::{reorg_to, ReorgError, ValidatingNode};
use ebv_primitives::hash::Hash256;
use ebv_script::Script;
use ebv_telemetry::{counter, histogram, trace_event};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Scenario shape.
#[derive(Clone, Copy, Debug)]
pub struct PartitionParams {
    /// Total nodes (the acceptance run uses ≥ 500).
    pub nodes: usize,
    /// Gossip degree for [`Topology::random_connected`].
    pub degree: usize,
    /// Shared chain prefix length (blocks above genesis).
    pub prefix: u32,
    /// Blocks the minority component mines during the partition.
    pub branch_a: u32,
    /// Blocks the majority component mines (must exceed `branch_a` — the
    /// heavier branch everyone must converge to).
    pub branch_b: u32,
    /// Fraction of nodes in the minority component, in percent.
    pub minority_percent: u32,
    /// Deepest reorg a node will perform (the driver's bound).
    pub max_reorg_depth: u32,
    /// Hard cap on heal rounds (a convergence backstop).
    pub max_heal_rounds: u32,
    /// Seed for topology and validation-time draws.
    pub seed: u64,
}

impl Default for PartitionParams {
    fn default() -> Self {
        PartitionParams {
            nodes: 500,
            degree: 3,
            prefix: 12,
            branch_a: 8,
            branch_b: 9,
            minority_percent: 40,
            max_reorg_depth: 64,
            max_heal_rounds: 200,
            seed: 0x9a27,
        }
    }
}

/// How a partition-and-heal run ended.
#[derive(Clone, Debug)]
pub struct PartitionOutcome {
    /// Every node converged to the heavy branch's tip.
    pub converged: bool,
    /// Nodes on the heavy tip at the end.
    pub converged_nodes: usize,
    /// Total nodes.
    pub nodes: usize,
    /// Heal rounds until convergence (or `max_heal_rounds` if never).
    pub heal_rounds: u32,
    /// Reorg depth per node that switched branches (minority nodes near
    /// the miner reorg deep; stragglers shallow or not at all).
    pub reorg_depths: Vec<u32>,
    /// Nodes that refused a reorg deeper than `max_reorg_depth`.
    pub refused: usize,
    /// The heavy branch's tip hash (what everyone must converge to).
    pub heavy_tip: Hash256,
    /// Modeled validation time summed over all nodes, µs.
    pub total_modeled_us: u64,
    /// The seed that reproduces this run.
    pub seed: u64,
}

/// Which chain a node is currently extending.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OnBranch {
    /// At or below the shared prefix.
    Prefix,
    A,
    B,
}

/// One simulated node: the model node plus its position in branch space.
struct SimPeer {
    node: ModelNode,
    on: OnBranch,
    height: u32,
    refused: bool,
}

/// Mine `ext` empty blocks on top of `base`'s tip; `time_base` keeps the
/// two branches' hashes distinct.
fn extend(base: &[Block], ext: u32, time_base: u32) -> Vec<Block> {
    let mut chain = base.to_vec();
    for k in 0..ext {
        let h = base.len() as u32 + k;
        let prev = chain.last().expect("nonempty base").header.hash();
        chain.push(build_block(
            prev,
            coinbase_tx(h, Script::new(), Vec::new()),
            Vec::new(),
            time_base + h,
            0,
        ));
    }
    chain
}

/// Connect `chain[from+1..=to]` onto `peer`, keeping its position fields
/// in sync.
fn advance(peer: &mut SimPeer, chain: &[Block], to: u32, on: OnBranch, prefix: u32) {
    let (_, result) = peer
        .node
        .connect_blocks(&chain[(peer.height + 1) as usize..=to as usize]);
    result.expect("same-branch extension must connect");
    peer.height = to;
    peer.on = if to > prefix { on } else { OnBranch::Prefix };
}

/// Run one seeded partition-and-heal scenario with validation cost drawn
/// from `model`.
pub fn run_partition_heal(params: &PartitionParams, model: ValidationModel) -> PartitionOutcome {
    assert!(params.nodes >= 8, "need at least eight nodes");
    assert!(
        params.branch_b > params.branch_a,
        "branch B must be the heavier branch"
    );
    counter!("partition.heal.runs").inc();
    // One trace per heal run, keyed by the scenario seed.
    let _heal_span = ebv_telemetry::context::SpanGuard::enter_root("partition.heal", params.seed);

    // The shared prefix and the two branches. Heights are absolute:
    // chain_a[h] and chain_b[h] agree for h ≤ prefix.
    let genesis = genesis_block();
    let prefix_chain = extend(&[genesis], params.prefix, 2_000_000);
    let chain_a = extend(&prefix_chain, params.branch_a, 3_000_000);
    let chain_b = extend(&prefix_chain, params.branch_b, 4_000_000);
    let heavy_tip = chain_b.last().expect("branch B nonempty").header.hash();
    let tip_b = params.prefix + params.branch_b;

    // The partitioned graph: each component is its own guaranteed-
    // connected random graph (a real partition severs the cut edges, it
    // does not disconnect component interiors), joined by a sparse set of
    // cross links — the edges the partition severs and the heal restores.
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let minority = (params.nodes * params.minority_percent as usize / 100).max(3);
    let majority = params.nodes - minority;
    assert!(majority >= 3, "majority component too small");
    let topo_a =
        Topology::random_connected(minority, params.degree.clamp(2, minority - 1), &mut rng);
    let topo_b =
        Topology::random_connected(majority, params.degree.clamp(2, majority - 1), &mut rng);
    let mut neighbors: Vec<Vec<usize>> = topo_a.neighbors.clone();
    for adj in &topo_b.neighbors {
        neighbors.push(adj.iter().map(|&x| x + minority).collect());
    }
    let cross_links = (params.nodes / 10).max(2);
    for _ in 0..cross_links {
        let i = rng.gen_range(0..minority);
        let j = minority + rng.gen_range(0..majority);
        if !neighbors[i].contains(&j) {
            neighbors[i].push(j);
            neighbors[j].push(i);
        }
    }
    let in_a = |i: usize| i < minority;

    // Boot every node at the shared prefix.
    let mut peers: Vec<SimPeer> = (0..params.nodes)
        .map(|i| {
            let mut peer = SimPeer {
                node: ModelNode::new(
                    &prefix_chain[0],
                    model,
                    params.seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15),
                ),
                on: OnBranch::Prefix,
                height: 0,
                refused: false,
            };
            advance(
                &mut peer,
                &prefix_chain,
                params.prefix,
                OnBranch::Prefix,
                params.prefix,
            );
            peer
        })
        .collect();

    // Miners: node 0 mines branch A, the first majority node branch B.
    let miner_a = 0usize;
    let miner_b = minority;

    // One gossip sweep: every node adopts the best *compatible* neighbor
    // chain it can see through active links. Sweeps are synchronous —
    // every node reads the *previous* round's state — so rounds measure
    // real propagation distance instead of collapsing to one pass.
    // Returns whether anything changed. `heal` enables cross-branch
    // reorgs.
    let mut depths: Vec<u32> = Vec::new();
    let mut refused_events = 0usize;
    let mut sweep = |peers: &mut Vec<SimPeer>, heal: bool, depths: &mut Vec<u32>| -> bool {
        let view: Vec<(OnBranch, u32)> = peers.iter().map(|p| (p.on, p.height)).collect();
        let mut changed = false;
        for i in 0..peers.len() {
            let active: Vec<usize> = neighbors[i]
                .iter()
                .copied()
                .filter(|&j| heal || in_a(i) == in_a(j))
                .collect();
            // Best same-branch target and best foreign target visible.
            let mut best_same: Option<(OnBranch, u32)> = None;
            let mut best_foreign: Option<(OnBranch, u32)> = None;
            for &j in &active {
                let (on_j, h_j) = view[j];
                if h_j <= peers[i].height || on_j == OnBranch::Prefix {
                    continue;
                }
                let same = peers[i].on == OnBranch::Prefix || peers[i].on == on_j;
                let slot = if same {
                    &mut best_same
                } else {
                    &mut best_foreign
                };
                if slot.is_none_or(|(_, h)| h_j > h) {
                    *slot = Some((on_j, h_j));
                }
            }
            // Longest-chain rule: the strictly tallest visible target
            // wins, foreign or not; ties stay on the current branch (no
            // gratuitous reorg).
            let foreign_wins = match (best_same, best_foreign) {
                (Some((_, hs)), Some((_, hf))) => hf > hs,
                (None, Some(_)) => true,
                _ => false,
            };
            if !foreign_wins {
                if let Some((on, h)) = best_same {
                    // Same-branch blocks arrive one per hop-round, so a
                    // node's height reflects its gossip distance from the
                    // miner — that in-flight spread is what varies the
                    // reorg depths when the heal wave reaches it.
                    let chain = if on == OnBranch::A {
                        &chain_a
                    } else {
                        &chain_b
                    };
                    let step = (peers[i].height + 1).min(h);
                    advance(&mut peers[i], chain, step, on, params.prefix);
                    changed = true;
                }
            } else if let Some((on, h)) = best_foreign {
                // Cross-branch: only a strictly longer chain wins, and
                // only within the reorg-depth bound.
                if h <= peers[i].height {
                    continue;
                }
                let depth = peers[i].height - params.prefix;
                if depth > params.max_reorg_depth {
                    if !peers[i].refused {
                        peers[i].refused = true;
                        refused_events += 1;
                        counter!("partition.heal.refused").inc();
                        trace_event!(
                            "partition.heal.reorg_refused",
                            node = i,
                            depth = depth,
                            max_depth = params.max_reorg_depth,
                            reason = "reorg_depth_exceeded",
                        );
                        if ebv_telemetry::enabled() {
                            ebv_telemetry::flight::dump(
                                "partition.heal.reorg_refused",
                                ebv_telemetry::context::current_trace(),
                                &[(
                                    "refusal",
                                    format!(
                                        "{{\"node\":{i},\"depth\":{depth},\"max_depth\":{}}}",
                                        params.max_reorg_depth
                                    ),
                                )],
                            );
                        }
                    }
                    continue;
                }
                let (chain, old_chain) = if on == OnBranch::A {
                    (&chain_a, &chain_b)
                } else {
                    (&chain_b, &chain_a)
                };
                let branch = &chain[(params.prefix + 1) as usize..=h as usize];
                let old = &old_chain[(params.prefix + 1) as usize..=peers[i].height as usize];
                match reorg_to(&mut peers[i].node, params.prefix, branch, old) {
                    Ok(_) => {
                        peers[i].height = h;
                        peers[i].on = on;
                        depths.push(depth);
                        counter!("partition.heal.reorgs").inc();
                        histogram!("partition.heal.reorg_depth").record(u64::from(depth));
                        changed = true;
                    }
                    Err(ReorgError::NotBetter { .. }) => {}
                    Err(e) => panic!("node {i}: heal reorg failed: {e:?}"),
                }
            }
        }
        changed
    };

    // Partition phase: each component mines one block per round and
    // gossips it internally. The heal begins the moment mining completes
    // — intra-component propagation is still in flight — so at heal time
    // nodes sit at heights that vary with their gossip distance from the
    // miner, which is what spreads the reorg-depth histogram.
    let mut mined_a = 0u32;
    let mut mined_b = 0u32;
    while mined_a < params.branch_a || mined_b < params.branch_b {
        if mined_a < params.branch_a {
            mined_a += 1;
            let target = params.prefix + mined_a;
            advance(
                &mut peers[miner_a],
                &chain_a,
                target,
                OnBranch::A,
                params.prefix,
            );
        }
        if mined_b < params.branch_b {
            mined_b += 1;
            let target = params.prefix + mined_b;
            advance(
                &mut peers[miner_b],
                &chain_b,
                target,
                OnBranch::B,
                params.prefix,
            );
        }
        sweep(&mut peers, false, &mut depths);
    }
    assert!(depths.is_empty(), "no reorg may happen while partitioned");

    // Heal phase: all links restored; sweep until everyone sits on the
    // heavy tip or the round cap trips.
    let mut heal_rounds = 0u32;
    while heal_rounds < params.max_heal_rounds {
        heal_rounds += 1;
        sweep(&mut peers, true, &mut depths);
        if peers
            .iter()
            .all(|p| p.on == OnBranch::B && p.height == tip_b)
        {
            break;
        }
    }

    let converged_nodes = peers
        .iter()
        .filter(|p| p.node.tip_hash() == heavy_tip)
        .count();
    let converged = converged_nodes == params.nodes;
    let total_modeled_us = peers.iter().map(|p| p.node.modeled_us).sum();
    if ebv_telemetry::enabled() {
        ebv_telemetry::registry::gauge("partition.heal.rounds").set(u64::from(heal_rounds));
    }
    trace_event!(
        "partition.heal.end",
        seed = params.seed,
        nodes = params.nodes,
        converged = converged,
        heal_rounds = heal_rounds,
        reorgs = depths.len(),
        refused = refused_events,
    );
    PartitionOutcome {
        converged,
        converged_nodes,
        nodes: params.nodes,
        heal_rounds,
        reorg_depths: depths,
        refused: refused_events,
        heavy_tip,
        total_modeled_us,
        seed: params.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PartitionParams {
        PartitionParams {
            nodes: 40,
            ..PartitionParams::default()
        }
    }

    #[test]
    fn heals_to_the_heavy_branch() {
        let out = run_partition_heal(&small(), ValidationModel::Constant(10));
        assert!(
            out.converged,
            "{}/{} converged",
            out.converged_nodes, out.nodes
        );
        assert_eq!(out.refused, 0);
        assert!(!out.reorg_depths.is_empty(), "minority must reorg");
        assert!(
            out.reorg_depths.iter().all(|&d| d <= 8),
            "depth cannot exceed branch A: {:?}",
            out.reorg_depths
        );
        assert!(out.heal_rounds <= 40, "took {} rounds", out.heal_rounds);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_partition_heal(&small(), ValidationModel::Constant(10));
        let b = run_partition_heal(&small(), ValidationModel::Constant(10));
        assert_eq!(a.heal_rounds, b.heal_rounds);
        assert_eq!(a.reorg_depths, b.reorg_depths);
        assert_eq!(a.heavy_tip, b.heavy_tip);
    }

    #[test]
    fn too_deep_partition_fails_closed() {
        let params = PartitionParams {
            nodes: 40,
            branch_a: 10,
            branch_b: 16,
            max_reorg_depth: 4,
            max_heal_rounds: 30,
            ..PartitionParams::default()
        };
        let out = run_partition_heal(&params, ValidationModel::Constant(10));
        assert!(!out.converged, "deep minority must refuse the reorg");
        assert!(out.refused > 0, "refusals must be counted, not silent");
        // Every node that did reorg stayed within the bound.
        assert!(out.reorg_depths.iter().all(|&d| d <= 4));
    }
}
