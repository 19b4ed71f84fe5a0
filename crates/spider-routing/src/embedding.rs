//! SpeedyMurmurs-style embedding-based routing (atomic baseline, \[25\] in
//! the paper).
//!
//! Nodes are assigned coordinates from spanning trees (the coordinate is the
//! path of child indices from the root). A payment is split into one share
//! per tree; each share is forwarded greedily, hop by hop, to any network
//! neighbor that is strictly closer to the destination in tree distance
//! *and* has sufficient balance. Strictly decreasing distance guarantees
//! loop-free termination; the balance check is SpeedyMurmurs'
//! imbalance-unaware weakness the paper highlights.

use crate::scheme::{split_evenly, BalanceOverlay, RoutingScheme, SchemeKind};
use spider_core::{Amount, BalanceView, Network, NodeId, Path};

/// A rooted BFS spanning tree with prefix-embedding coordinates.
#[derive(Clone, Debug)]
pub struct SpanningTree {
    root: NodeId,
    /// coord[v] = sequence of child indices from the root to v.
    coord: Vec<Vec<u32>>,
    reachable: Vec<bool>,
}

impl SpanningTree {
    /// Builds the BFS spanning tree rooted at `root`.
    pub fn new(network: &Network, root: NodeId) -> Self {
        let n = network.num_nodes();
        let mut coord: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut reachable = vec![false; n];
        let mut child_count = vec![0u32; n];
        reachable[root.index()] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in network.neighbors(u) {
                if !reachable[v.index()] {
                    reachable[v.index()] = true;
                    let mut c = coord[u.index()].clone();
                    c.push(child_count[u.index()]);
                    child_count[u.index()] += 1;
                    coord[v.index()] = c;
                    queue.push_back(v);
                }
            }
        }
        SpanningTree {
            root,
            coord,
            reachable,
        }
    }

    /// The tree's root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Tree distance between two nodes via their coordinates, or `None` if
    /// either is outside the tree's component.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<usize> {
        if !self.reachable[u.index()] || !self.reachable[v.index()] {
            return None;
        }
        let a = &self.coord[u.index()];
        let b = &self.coord[v.index()];
        let common = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
        Some(a.len() + b.len() - 2 * common)
    }
}

/// The SpeedyMurmurs-style embedding routing scheme.
#[derive(Clone, Debug)]
pub struct SpeedyMurmursScheme {
    trees: Vec<SpanningTree>,
}

impl SpeedyMurmursScheme {
    /// Builds the scheme with `num_trees` spanning trees rooted at
    /// deterministically pseudo-random distinct nodes (SpeedyMurmurs picks
    /// its landmarks randomly, unlike SilentWhispers' well-connected ones).
    pub fn new(network: &Network, num_trees: usize) -> Self {
        assert!(num_trees >= 1);
        let n = network.num_nodes() as u64;
        assert!(n >= num_trees as u64, "need at least one node per tree");
        let mut roots: Vec<NodeId> = Vec::with_capacity(num_trees);
        // Knuth's MMIX LCG from state 1.
        let mut state = 1u64;
        while roots.len() < num_trees {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let candidate = NodeId((state >> 33) as u32 % n as u32);
            if !roots.contains(&candidate) {
                roots.push(candidate);
            }
        }
        let trees = roots
            .into_iter()
            .map(|root| SpanningTree::new(network, root))
            .collect();
        SpeedyMurmursScheme { trees }
    }

    /// The embedding trees.
    pub fn trees(&self) -> &[SpanningTree] {
        &self.trees
    }

    /// Greedily walks one share from `src` to `dst` under `view`.
    ///
    /// As described in the paper's related-work section, embedding-based
    /// routing "relays each transaction to the neighbor whose embedding is
    /// closest to the destination's embedding": the next hop is chosen by
    /// embedded distance alone (deterministic tie-break), and the share
    /// fails if that hop's channel lacks funds — the imbalance-unawareness
    /// Spider is designed to beat.
    fn greedy_route(
        &self,
        network: &Network,
        view: &BalanceOverlay<'_>,
        tree: &SpanningTree,
        src: NodeId,
        dst: NodeId,
        share: Amount,
    ) -> Option<Path> {
        let mut nodes = vec![src];
        let mut current = src;
        let mut dist = tree.distance(current, dst)?;
        while current != dst {
            // Closest neighbor in embedded space, irrespective of balance;
            // must be strictly closer to guarantee termination.
            let mut best: Option<(usize, NodeId, spider_core::ChannelId)> = None;
            for &(v, c) in network.neighbors(current) {
                let Some(d) = tree.distance(v, dst) else {
                    continue;
                };
                if d >= dist {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bd, bn, _)) => d < bd || (d == bd && v < bn),
                };
                if better {
                    best = Some((d, v, c));
                }
            }
            let (d, v, c) = best?;
            if view.available(c, current) < share {
                return None; // the designated next hop lacks funds
            }
            nodes.push(v);
            current = v;
            dist = d;
        }
        // Strictly decreasing distance yields a simple path; if validation
        // ever disagrees, degrade to "no route" rather than aborting.
        Path::new(network, nodes).ok()
    }
}

impl RoutingScheme for SpeedyMurmursScheme {
    fn name(&self) -> &'static str {
        "speedymurmurs"
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::Atomic
    }

    fn route_payment(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        amount: Amount,
    ) -> Option<Vec<(Path, Amount)>> {
        let shares = split_evenly(amount, self.trees.len());
        let mut overlay = BalanceOverlay::new(balances);
        let mut parts = Vec::with_capacity(self.trees.len());
        for (tree, share) in self.trees.iter().zip(shares) {
            if share.is_zero() {
                continue;
            }
            let path = self.greedy_route(network, &overlay, tree, src, dst, share)?;
            overlay.debit_path(&path, share);
            parts.push((path, share));
        }
        if parts.is_empty() {
            None
        } else {
            Some(parts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring of 6 plus chord 0-3.
    fn ring_with_chord() -> Network {
        let mut g = Network::new(6);
        for i in 0..6u32 {
            g.add_channel(NodeId(i), NodeId((i + 1) % 6), Amount::from_whole(10))
                .unwrap();
        }
        g.add_channel(NodeId(0), NodeId(3), Amount::from_whole(10))
            .unwrap();
        g
    }

    #[test]
    fn tree_distance_properties() {
        let g = ring_with_chord();
        let t = SpanningTree::new(&g, NodeId(0));
        for u in g.nodes() {
            assert_eq!(t.distance(u, u), Some(0));
            for v in g.nodes() {
                assert_eq!(t.distance(u, v), t.distance(v, u));
            }
        }
        // Distance respects tree structure: root to its BFS child is 1.
        assert_eq!(t.distance(NodeId(0), NodeId(1)), Some(1));
    }

    #[test]
    fn unreachable_nodes_have_no_distance() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        let t = SpanningTree::new(&g, NodeId(0));
        assert_eq!(t.distance(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn routes_simple_payment() {
        let g = ring_with_chord();
        let mut s = SpeedyMurmursScheme::new(&g, 1);
        let parts = s
            .route_payment(&g, &g, NodeId(1), NodeId(4), Amount::from_whole(2))
            .expect("routable");
        let total: Amount = parts.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, Amount::from_whole(2));
        for (p, _) in &parts {
            assert_eq!(p.source(), NodeId(1));
            assert_eq!(p.dest(), NodeId(4));
        }
    }

    #[test]
    fn multiple_trees_split_payment() {
        let g = ring_with_chord();
        let mut s = SpeedyMurmursScheme::new(&g, 3);
        assert_eq!(s.trees().len(), 3);
        let parts = s
            .route_payment(&g, &g, NodeId(1), NodeId(4), Amount::from_whole(3))
            .expect("routable");
        let total: Amount = parts.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, Amount::from_whole(3));
    }

    #[test]
    fn fails_when_balances_insufficient() {
        let g = ring_with_chord();
        let mut s = SpeedyMurmursScheme::new(&g, 1);
        // Any single channel has 5 spendable; 50 cannot move.
        assert!(s
            .route_payment(&g, &g, NodeId(1), NodeId(4), Amount::from_whole(50))
            .is_none());
    }

    #[test]
    fn greedy_is_imbalance_unaware() {
        // Drain the tree-preferred channel: SpeedyMurmurs may still find a
        // closer funded neighbor, but when every closer neighbor is drained
        // it must fail — it cannot detour through farther nodes.
        let mut g = Network::new(4);
        // Star around 0 — all routes to 3 pass 0.
        g.add_channel_with_balances(NodeId(1), NodeId(0), Amount::ZERO, Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(2), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(3), Amount::from_whole(10))
            .unwrap();
        let mut s = SpeedyMurmursScheme::new(&g, 1);
        // Node 1 has zero spendable toward 0: payment must fail.
        assert!(s
            .route_payment(&g, &g, NodeId(1), NodeId(3), Amount::ONE)
            .is_none());
    }

    #[test]
    fn deterministic_routing() {
        let g = ring_with_chord();
        let mut s1 = SpeedyMurmursScheme::new(&g, 2);
        let mut s2 = SpeedyMurmursScheme::new(&g, 2);
        let a = s1.route_payment(&g, &g, NodeId(2), NodeId(5), Amount::from_whole(2));
        let b = s2.route_payment(&g, &g, NodeId(2), NodeId(5), Amount::from_whole(2));
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.len(), y.len());
                for ((p1, a1), (p2, a2)) in x.iter().zip(&y) {
                    assert_eq!(p1.nodes(), p2.nodes());
                    assert_eq!(a1, a2);
                }
            }
            (None, None) => {}
            _ => panic!("nondeterministic outcome"),
        }
    }
}
