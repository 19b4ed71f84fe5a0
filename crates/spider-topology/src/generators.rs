//! Random-graph generators for payment channel networks.
//!
//! All generators are deterministic given their seed, produce connected
//! graphs (they start from a spanning structure), and split every channel's
//! capacity evenly between its endpoints — the setup used throughout the
//! paper's evaluation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use spider_core::{Amount, Network, NodeId};

/// A ring over `n ≥ 3` nodes.
pub fn ring(n: usize, capacity: Amount) -> Network {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut g = Network::new(n);
    for i in 0..n {
        g.add_channel(NodeId::from(i), NodeId::from((i + 1) % n), capacity)
            .expect("ring edges are valid");
    }
    g
}

/// A line (path graph) over `n ≥ 2` nodes.
pub fn line(n: usize, capacity: Amount) -> Network {
    assert!(n >= 2, "a line needs at least 2 nodes");
    let mut g = Network::new(n);
    for i in 0..n - 1 {
        g.add_channel(NodeId::from(i), NodeId::from(i + 1), capacity)
            .expect("line edges are valid");
    }
    g
}

/// A complete graph on `n` nodes.
pub fn complete(n: usize, capacity: Amount) -> Network {
    assert!(n >= 2);
    let mut g = Network::new(n);
    for i in 0..n {
        for j in i + 1..n {
            g.add_channel(NodeId::from(i), NodeId::from(j), capacity)
                .expect("complete-graph edges are valid");
        }
    }
    g
}

/// A `rows × cols` grid.
pub fn grid(rows: usize, cols: usize, capacity: Amount) -> Network {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2);
    let mut g = Network::new(rows * cols);
    let idx = |r: usize, c: usize| NodeId::from(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_channel(idx(r, c), idx(r, c + 1), capacity).unwrap();
            }
            if r + 1 < rows {
                g.add_channel(idx(r, c), idx(r + 1, c), capacity).unwrap();
            }
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: a random spanning tree
/// is laid down first, then each remaining pair is joined with probability
/// `p`.
pub fn erdos_renyi(n: usize, p: f64, capacity: Amount, seed: u64) -> Network {
    assert!(n >= 2);
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Network::new(n);
    // Random spanning tree: attach each node to a uniformly random earlier
    // node (a random recursive tree).
    for i in 1..n {
        let parent = rng.random_range(0..i);
        g.add_channel(NodeId::from(i), NodeId::from(parent), capacity)
            .unwrap();
    }
    for i in 0..n {
        for j in i + 1..n {
            if g.channel_between(NodeId::from(i), NodeId::from(j))
                .is_none()
                && rng.random_bool(p)
            {
                g.add_channel(NodeId::from(i), NodeId::from(j), capacity)
                    .unwrap();
            }
        }
    }
    g
}

/// Barabási–Albert preferential attachment: starts from a small clique and
/// attaches each new node to `m` distinct existing nodes with probability
/// proportional to degree. Produces the scale-free degree distribution
/// characteristic of real credit networks like Ripple.
pub fn barabasi_albert(n: usize, m: usize, capacity: Amount, seed: u64) -> Network {
    assert!(m >= 1, "m must be at least 1");
    assert!(n > m, "need more nodes than attachment edges");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Network::new(n);
    let m0 = (m + 1).max(2);
    for i in 0..m0 {
        for j in i + 1..m0 {
            g.add_channel(NodeId::from(i), NodeId::from(j), capacity)
                .unwrap();
        }
    }
    // Degree-proportional sampling via a repeated-endpoint urn.
    let mut urn: Vec<usize> = Vec::new();
    for ch in g.channels() {
        urn.push(ch.a.index());
        urn.push(ch.b.index());
    }
    for v in m0..n {
        let mut targets = std::collections::BTreeSet::new();
        // Rejection-sample m distinct targets from the urn.
        let mut guard = 0;
        while targets.len() < m && guard < 10_000 {
            let t = urn[rng.random_range(0..urn.len())];
            targets.insert(t);
            guard += 1;
        }
        // Fallback: fill from low-index nodes if the urn was too concentrated.
        let mut fill = 0usize;
        while targets.len() < m {
            targets.insert(fill);
            fill += 1;
        }
        for &t in &targets {
            g.add_channel(NodeId::from(v), NodeId::from(t), capacity)
                .unwrap();
            urn.push(v);
            urn.push(t);
        }
    }
    g
}

/// Randomly skews every channel's balance split while keeping capacity: one
/// endpoint receives a `fraction ∈ [lo, hi]` share. Useful for studying
/// pre-imbalanced networks.
pub fn with_skewed_balances(network: &Network, lo: f64, hi: f64, seed: u64) -> Network {
    assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi) && lo <= hi);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Network::new(network.num_nodes());
    for ch in network.channels() {
        let f = if lo == hi {
            lo
        } else {
            rng.random_range(lo..hi)
        };
        let cap = ch.capacity();
        let a_side = cap.scale(f);
        let mut order = [true, false];
        order.shuffle(&mut rng);
        let (ba, bb) = if order[0] {
            (a_side, cap - a_side)
        } else {
            (cap - a_side, a_side)
        };
        g.add_channel_with_balances(ch.a, ch.b, ba, bb)
            .expect("copying valid channels");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Amount = Amount::from_whole(100);

    #[test]
    fn ring_structure() {
        let g = ring(5, CAP);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_channels(), 5);
        assert!(g.is_connected());
        for n in g.nodes() {
            assert_eq!(g.degree(n), 2);
        }
    }

    #[test]
    fn line_structure() {
        let l = line(4, CAP);
        assert_eq!(l.num_channels(), 3);
        assert!(l.is_connected());
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6, CAP);
        assert_eq!(g.num_channels(), 15);
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4, CAP);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_channels(), 3 * 3 + 2 * 4);
        assert!(g.is_connected());
    }

    #[test]
    fn erdos_renyi_connected_and_deterministic() {
        let a = erdos_renyi(30, 0.1, CAP, 42);
        let b = erdos_renyi(30, 0.1, CAP, 42);
        assert!(a.is_connected());
        assert_eq!(a.num_channels(), b.num_channels());
        let c = erdos_renyi(30, 0.1, CAP, 43);
        // Overwhelmingly likely to differ.
        assert!(
            a.num_channels() != c.num_channels()
                || a.channels()
                    .iter()
                    .zip(c.channels())
                    .any(|(x, y)| x.a != y.a || x.b != y.b)
        );
    }

    #[test]
    fn erdos_renyi_density_scales_with_p() {
        let sparse = erdos_renyi(40, 0.02, CAP, 7);
        let dense = erdos_renyi(40, 0.5, CAP, 7);
        assert!(dense.num_channels() > sparse.num_channels());
    }

    #[test]
    fn barabasi_albert_connected_and_skewed() {
        let g = barabasi_albert(200, 3, CAP, 11);
        assert!(g.is_connected());
        // Roughly m*(n - m0) + clique edges.
        assert!(g.num_channels() >= 3 * (200 - 4));
        // Scale-free: max degree far above the mean.
        let mean = 2.0 * g.num_channels() as f64 / g.num_nodes() as f64;
        let max = g.nodes().map(|n| g.degree(n)).max().unwrap();
        assert!(
            (max as f64) > 3.0 * mean,
            "max degree {max} should dominate mean {mean:.1}"
        );
    }

    #[test]
    fn skewed_balances_preserve_capacity() {
        let g = ring(6, CAP);
        let g2 = with_skewed_balances(&g, 0.8, 0.95, 9);
        for (a, b) in g.channels().iter().zip(g2.channels()) {
            assert_eq!(a.capacity(), b.capacity());
        }
        // At least one channel is visibly skewed.
        assert!(g2
            .channels()
            .iter()
            .any(|c| c.balance_a.ratio_of(c.capacity()) > 0.75
                || c.balance_b.ratio_of(c.capacity()) > 0.75));
    }

    #[test]
    fn generators_are_deterministic() {
        for seed in [0u64, 1, 99] {
            let a = barabasi_albert(60, 2, CAP, seed);
            let b = barabasi_albert(60, 2, CAP, seed);
            assert_eq!(a.num_channels(), b.num_channels());
            for (x, y) in a.channels().iter().zip(b.channels()) {
                assert_eq!((x.a, x.b), (y.a, y.b));
            }
        }
    }
}
