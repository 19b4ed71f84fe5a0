//! A Ripple-like credit network topology (§6.1).
//!
//! The paper evaluates on a pruned January-2013 snapshot of the Ripple
//! network: 3774 nodes and 12512 edges after removing degree-1 nodes and
//! unfunded channels. The raw trace is not redistributable, so this module
//! generates a synthetic stand-in with the same node/edge counts and the
//! scale-free degree structure real credit networks exhibit, via
//! preferential attachment with a mixed out-degree (≈ 12512/3774 ≈ 3.3
//! edges per node).
//!
//! [`ripple_topology_scaled`] produces smaller instances with the same
//! density for quick runs and CI.

use crate::generators::barabasi_albert;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spider_core::{Amount, Network, NodeId};

/// Node count of the paper's pruned Ripple snapshot.
pub const RIPPLE_NODES: usize = 3774;
/// Edge count of the paper's pruned Ripple snapshot.
pub const RIPPLE_EDGES: usize = 12512;

/// Generates a Ripple-like topology with `n` nodes and edge density matching
/// the paper's snapshot (|E| ≈ 3.315 |V|).
///
/// Built by preferential attachment with per-node out-degree drawn from
/// {3, 4} in proportions chosen to hit the target edge count, then trimmed
/// or padded with preferential chords to land exactly on the target.
pub fn ripple_topology_scaled(n: usize, capacity: Amount, seed: u64) -> Network {
    assert!(n >= 16, "ripple-like topology needs at least 16 nodes");
    let target_edges = ((n as f64) * (RIPPLE_EDGES as f64 / RIPPLE_NODES as f64)).round() as usize;
    // Base: BA with m = 3 gives slightly fewer edges than target; pad after.
    let base = barabasi_albert(n, 3, capacity, seed);
    let mut g = Network::new(n);
    for ch in base.channels() {
        if g.num_channels() >= target_edges {
            break;
        }
        g.add_channel(ch.a, ch.b, capacity)
            .expect("copying valid channels");
    }
    // Pad with degree-biased chords until we hit the target.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut urn: Vec<usize> = Vec::with_capacity(2 * g.num_channels());
    for ch in g.channels() {
        urn.push(ch.a.index());
        urn.push(ch.b.index());
    }
    let mut guard = 0usize;
    while g.num_channels() < target_edges && guard < 100 * target_edges {
        guard += 1;
        let a = urn[rng.random_range(0..urn.len())];
        let b = rng.random_range(0..n);
        if a != b
            && g.channel_between(NodeId::from(a), NodeId::from(b))
                .is_none()
        {
            g.add_channel(NodeId::from(a), NodeId::from(b), capacity)
                .unwrap();
            urn.push(a);
            urn.push(b);
        }
    }
    debug_assert!(g.is_connected());
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Amount = Amount::from_whole(30_000);

    #[test]
    fn scaled_instance_matches_density() {
        let g = ripple_topology_scaled(400, CAP, 1);
        let target = (400.0 * (RIPPLE_EDGES as f64 / RIPPLE_NODES as f64)).round() as usize;
        assert_eq!(g.num_channels(), target);
        assert!(g.is_connected());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ripple_topology_scaled(200, CAP, 5);
        let b = ripple_topology_scaled(200, CAP, 5);
        assert_eq!(a.num_channels(), b.num_channels());
        for (x, y) in a.channels().iter().zip(b.channels()) {
            assert_eq!((x.a, x.b), (y.a, y.b));
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = ripple_topology_scaled(500, CAP, 2);
        let mean = 2.0 * g.num_channels() as f64 / g.num_nodes() as f64;
        let max = g.nodes().map(|v| g.degree(v)).max().unwrap();
        assert!(
            max as f64 > 4.0 * mean,
            "expected hubs: max degree {max}, mean {mean:.1}"
        );
    }

    #[test]
    #[ignore = "full 3774-node instance; run with --ignored"]
    fn full_size_instance() {
        let g = ripple_topology_scaled(RIPPLE_NODES, CAP, 0);
        assert_eq!(g.num_nodes(), RIPPLE_NODES);
        assert_eq!(g.num_channels(), RIPPLE_EDGES);
        assert!(g.is_connected());
    }
}
