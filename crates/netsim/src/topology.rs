//! Network topology: regions, link latencies and gossip neighbor graphs.

use rand::rngs::SmallRng;
use rand::Rng;

/// The five simulated regions (us-east, us-west, eu-west, ap-southeast,
/// ap-northeast — the dispersion pattern of the paper's AWS deployment).
pub const N_REGIONS: usize = 5;

/// One-way inter-region latencies in milliseconds (≈ half typical AWS
/// RTTs). Symmetric; the diagonal is intra-region.
pub const REGION_RTT_MS: [[f64; N_REGIONS]; N_REGIONS] = [
    [1.0, 32.0, 40.0, 110.0, 80.0], // us-east
    [32.0, 1.0, 70.0, 85.0, 55.0],  // us-west
    [40.0, 70.0, 1.0, 90.0, 120.0], // eu-west
    [110.0, 85.0, 90.0, 1.0, 35.0], // ap-southeast
    [80.0, 55.0, 120.0, 35.0, 1.0], // ap-northeast
];

/// Link-latency model between nodes.
#[derive(Clone, Copy, Debug)]
pub struct LatencyMatrix {
    /// Multiplier over [`REGION_RTT_MS`] (1.0 = calibrated values).
    pub scale: f64,
    /// Max uniform jitter fraction added per message (e.g. 0.2 = ±20 %).
    pub jitter: f64,
}

impl Default for LatencyMatrix {
    fn default() -> Self {
        LatencyMatrix {
            scale: 1.0,
            jitter: 0.2,
        }
    }
}

impl LatencyMatrix {
    /// Sample the one-way delay in microseconds between two regions.
    pub fn sample_us(&self, from: usize, to: usize, rng: &mut SmallRng) -> u64 {
        let base = REGION_RTT_MS[from % N_REGIONS][to % N_REGIONS] * self.scale;
        let jitter = 1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        (base * jitter * 1000.0).max(1.0) as u64
    }
}

/// A static gossip topology.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Region of each node (round-robin assignment).
    pub regions: Vec<usize>,
    /// Gossip neighbors of each node. Connections are bidirectional (they
    /// model persistent P2P links), so a node may end up with more than
    /// `k` neighbors when others selected it.
    pub neighbors: Vec<Vec<usize>>,
}

impl Topology {
    /// Build a random gossip graph over `n` nodes where each node opens
    /// `k` connections (the paper: 20 nodes, 5 regions, 2 neighbors).
    /// Links are bidirectional; if the union graph is disconnected the
    /// components are stitched with one extra link each, so a block always
    /// reaches every node.
    pub fn random(n: usize, k: usize, rng: &mut SmallRng) -> Topology {
        assert!(n >= 2, "need at least two nodes");
        assert!(k >= 1 && k < n, "need 1 ≤ k < n");
        let regions = (0..n).map(|i| i % N_REGIONS).collect();
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let add_edge = |neighbors: &mut Vec<Vec<usize>>, a: usize, b: usize| {
            if a != b && !neighbors[a].contains(&b) {
                neighbors[a].push(b);
                neighbors[b].push(a);
            }
        };
        for i in 0..n {
            let mut opened = 0;
            let mut attempts = 0;
            while opened < k && attempts < 100 {
                attempts += 1;
                let cand = rng.gen_range(0..n);
                if cand != i && !neighbors[i].contains(&cand) {
                    add_edge(&mut neighbors, i, cand);
                    opened += 1;
                }
            }
        }
        // Stitch disconnected components (rare at n=20, k=2).
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        let mut last_seen = 0usize;
        while let Some(v) = stack.pop() {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            last_seen = v;
            stack.extend(neighbors[v].iter().copied());
        }
        for i in 0..n {
            if !seen[i] {
                add_edge(&mut neighbors, last_seen, i);
                // Re-flood from the newly attached node.
                let mut stack = vec![i];
                while let Some(v) = stack.pop() {
                    if seen[v] {
                        continue;
                    }
                    seen[v] = true;
                    last_seen = v;
                    stack.extend(neighbors[v].iter().copied());
                }
            }
        }
        Topology { regions, neighbors }
    }

    /// Build a gossip graph over `n` nodes that is connected **by
    /// construction**, at any scale: a ring over a seeded permutation of
    /// the nodes forms the backbone (connectivity is structural, not
    /// checked after the fact like [`Topology::random`]'s stitch pass),
    /// and each node then opens up to `k.saturating_sub(2)` random chords
    /// for realistic gossip fan-out. Deterministic per `rng` seed; built
    /// for the n ≥ 1000 campaign scenarios where `random`'s
    /// attempt-bounded loop and O(n)-per-miss stitch get slow and had
    /// only ever been exercised at n = 20.
    pub fn random_connected(n: usize, k: usize, rng: &mut SmallRng) -> Topology {
        assert!(n >= 3, "ring backbone needs at least three nodes");
        assert!(k >= 2 && k < n, "need 2 ≤ k < n");
        let regions = (0..n).map(|i| i % N_REGIONS).collect();
        // Seeded Fisher–Yates permutation (the rand shim has no shuffle).
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let add_edge = |neighbors: &mut Vec<Vec<usize>>, a: usize, b: usize| {
            if a != b && !neighbors[a].contains(&b) {
                neighbors[a].push(b);
                neighbors[b].push(a);
            }
        };
        for w in 0..n {
            add_edge(&mut neighbors, perm[w], perm[(w + 1) % n]);
        }
        let chords = k.saturating_sub(2);
        for i in 0..n {
            let mut opened = 0;
            let mut attempts = 0;
            while opened < chords && attempts < 32 {
                attempts += 1;
                let cand = rng.gen_range(0..n);
                if cand != i && !neighbors[i].contains(&cand) {
                    add_edge(&mut neighbors, i, cand);
                    opened += 1;
                }
            }
        }
        Topology { regions, neighbors }
    }

    /// Whether every node is reachable from node 0 (BFS).
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![0usize];
        let mut count = 0usize;
        while let Some(v) = stack.pop() {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            count += 1;
            stack.extend(self.neighbors[v].iter().copied());
        }
        count == self.len()
    }

    pub fn len(&self) -> usize {
        self.regions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn topology_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let t = Topology::random(20, 2, &mut rng);
        assert_eq!(t.len(), 20);
        for (i, neigh) in t.neighbors.iter().enumerate() {
            assert!(neigh.len() >= 2, "node {i} has {} neighbors", neigh.len());
            assert!(!neigh.contains(&i), "no self-loop");
            let set: std::collections::HashSet<_> = neigh.iter().collect();
            assert_eq!(set.len(), neigh.len(), "no duplicate neighbor");
        }
        // Links are bidirectional.
        for (i, neigh) in t.neighbors.iter().enumerate() {
            for &j in neigh {
                assert!(t.neighbors[j].contains(&i), "{i}↔{j} must be mutual");
            }
        }
        // Regions round-robin over 5.
        assert_eq!(t.regions[0], 0);
        assert_eq!(t.regions[7], 2);
    }

    #[test]
    fn topology_always_connected() {
        for seed in 0..50 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = Topology::random(20, 2, &mut rng);
            // BFS from 0 must reach all.
            let mut seen = vec![false; t.len()];
            let mut stack = vec![0usize];
            while let Some(v) = stack.pop() {
                if seen[v] {
                    continue;
                }
                seen[v] = true;
                stack.extend(t.neighbors[v].iter().copied());
            }
            assert!(
                seen.iter().all(|&s| s),
                "seed {seed} gave disconnected topology"
            );
        }
    }

    #[test]
    fn random_connected_holds_at_scale() {
        for &n in &[3usize, 20, 500, 1000, 2000] {
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let t = Topology::random_connected(n, 4.min(n - 1), &mut rng);
            assert_eq!(t.len(), n);
            assert!(t.is_connected(), "n={n} must be connected");
            for (i, neigh) in t.neighbors.iter().enumerate() {
                assert!(neigh.len() >= 2, "node {i} below ring degree");
                assert!(!neigh.contains(&i), "no self-loop");
                let set: std::collections::HashSet<_> = neigh.iter().collect();
                assert_eq!(set.len(), neigh.len(), "no duplicate neighbor");
                for &j in neigh {
                    assert!(t.neighbors[j].contains(&i), "{i}↔{j} must be mutual");
                }
            }
        }
    }

    #[test]
    fn random_connected_is_seed_deterministic() {
        let build = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Topology::random_connected(1000, 4, &mut rng).neighbors
        };
        assert_eq!(build(9), build(9), "same seed, same graph");
        assert_ne!(build(9), build(10), "different seed, different graph");
    }

    #[test]
    fn latency_sampling_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        let m = LatencyMatrix {
            scale: 1.0,
            jitter: 0.2,
        };
        for _ in 0..100 {
            let us = m.sample_us(0, 3, &mut rng);
            // base 110 ms ± 20 %.
            assert!((88_000..=132_000).contains(&us), "got {us}");
        }
        // Intra-region is ~1 ms.
        let us = m.sample_us(2, 2, &mut rng);
        assert!(us <= 1_300);
    }

    #[test]
    fn matrix_is_symmetric() {
        for (i, row) in REGION_RTT_MS.iter().enumerate() {
            for (j, &rtt) in row.iter().enumerate() {
                assert_eq!(rtt, REGION_RTT_MS[j][i]);
            }
        }
    }
}
