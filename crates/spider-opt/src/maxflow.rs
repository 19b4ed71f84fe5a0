//! Integer-capacity maximum flow (Edmonds–Karp) with path decomposition.
//!
//! The max-flow routing baseline (§3, §6.1 of the paper) computes, per
//! transaction, a maximum flow between sender and receiver on the graph of
//! current channel balances and — if the flow covers the transaction value —
//! routes the transaction along the decomposed flow paths.
//!
//! Capacities are `i64` (micro-units of currency), so augmentation is exact.
//!
//! # The mirror of a payment channel network
//!
//! [`FlowNetwork::from_channel_balances`] gives channel `k` (position in
//! `Network::channels`, endpoints `a`, `b`) the edges `4k..4k + 4`: `a→b`
//! with `a`'s spendable balance, its zero-capacity reverse, `b→a` with `b`'s
//! balance, its reverse (edge `e`'s partner is `e ^ 1`). An edge joins its
//! tail's adjacency list when it is created, so node `u`'s list visits `u`'s
//! channels in channel order, two entries a channel. **Adjacency order is
//! the search order** — the BFS takes the first augmenting path it meets,
//! the decomposition the first edge with flow — so the parts a payment is
//! split into depend on it, and nothing here may reorder it.
//!
//! The mirror's shape depends on the topology only. [`MaxFlowSolver`] keeps
//! one between queries and re-reads the `2·|E|` balances into it, zeroing
//! every flow and the augmentation count; a network whose node count,
//! channel count or any channel's endpoints differ gets a fresh mirror. The
//! search scratch lives in the network for the same reason.

use spider_core::{Amount, BalanceView, Network, NodeId};

/// A directed edge in a [`FlowNetwork`].
#[derive(Clone, Debug)]
struct FlowEdge {
    to: usize,
    cap: i64,
    flow: i64,
}

/// A directed flow network over dense node indices `0..n`.
///
/// Every [`add_edge`](FlowNetwork::add_edge) also creates the paired reverse
/// edge with zero capacity (standard residual-graph representation).
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    edges: Vec<FlowEdge>,
    adj: Vec<Vec<usize>>,
    augmentations: u64,
    /// BFS scratch: the edge that reached each node, nodes in discovery order.
    parent: Vec<usize>,
    queue: Vec<usize>,
    /// Decomposition scratch: the current walk's edges, and for the head of
    /// each the walk's length on arrival (`usize::MAX` for every other node).
    trail_edges: Vec<usize>,
    on_trail_at: Vec<usize>,
}

impl FlowNetwork {
    /// An empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            ..Default::default()
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Augmenting paths pushed by all [`max_flow`](FlowNetwork::max_flow)
    /// calls on this network so far — the paper's per-transaction overhead
    /// argument (§3), made measurable.
    pub fn augmentations(&self) -> u64 {
        self.augmentations
    }

    /// Adds a directed edge `u -> v` with the given capacity and returns its
    /// index. A zero-capacity reverse edge is created automatically.
    ///
    /// # Panics
    /// Panics if `cap < 0` or an endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64) -> usize {
        assert!(cap >= 0, "negative capacity");
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "node out of range"
        );
        let id = self.edges.len();
        self.edges.push(FlowEdge {
            to: v,
            cap,
            flow: 0,
        });
        self.edges.push(FlowEdge {
            to: u,
            cap: 0,
            flow: 0,
        });
        self.adj[u].push(id);
        self.adj[v].push(id + 1);
        id
    }

    /// Net flow currently assigned to edge `id` (as returned by `add_edge`).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.edges[id].flow
    }

    /// Residual capacity of edge index `e` (including reverse edges).
    fn residual(&self, e: usize) -> i64 {
        self.edges[e].cap - self.edges[e].flow
    }

    /// Builds a flow network mirroring a payment channel network, with one
    /// directed edge per channel direction whose capacity is the spendable
    /// balance in that direction (read through `balances`).
    ///
    /// Node `i` of the flow network is `NodeId(i)`; the returned vector maps
    /// each channel to its `(a->b edge, b->a edge)` indices.
    pub fn from_channel_balances(
        network: &Network,
        balances: &dyn BalanceView,
    ) -> (FlowNetwork, Vec<(usize, usize)>) {
        let mut fnw = FlowNetwork::new(network.num_nodes());
        fnw.edges.reserve(4 * network.num_channels());
        for (u, list) in fnw.adj.iter_mut().enumerate() {
            list.reserve(2 * network.degree(NodeId::from(u)));
        }
        let mut map = Vec::with_capacity(network.num_channels());
        for ch in network.channels() {
            let ab = fnw.add_edge(
                ch.a.index(),
                ch.b.index(),
                balances.available(ch.id, ch.a).micros().max(0),
            );
            let ba = fnw.add_edge(
                ch.b.index(),
                ch.a.index(),
                balances.available(ch.id, ch.b).micros().max(0),
            );
            map.push((ab, ba));
        }
        (fnw, map)
    }

    /// Makes this the flow-free mirror of `network` under `balances`: in
    /// place when it already has `network`'s shape, rebuilt otherwise.
    fn refresh(&mut self, network: &Network, balances: &dyn BalanceView) {
        let channels = network.channels();
        let same_counts =
            self.adj.len() == network.num_nodes() && self.edges.len() == 4 * channels.len();
        let quads = self.edges.chunks_exact_mut(4);
        let refreshed = same_counts
            && channels.iter().zip(quads).all(|(ch, quad)| {
                if quad[0].to != ch.b.index() || quad[1].to != ch.a.index() {
                    return false;
                }
                for edge in quad.iter_mut() {
                    edge.flow = 0;
                }
                quad[0].cap = balances.available(ch.id, ch.a).micros().max(0);
                quad[2].cap = balances.available(ch.id, ch.b).micros().max(0);
                true
            });
        if !refreshed {
            *self = FlowNetwork::from_channel_balances(network, balances).0;
        }
        self.augmentations = 0;
    }

    /// Runs Edmonds–Karp from `s` to `t`, stopping early once `limit` units
    /// of flow have been pushed (`i64::MAX` for the true maximum). Returns
    /// the achieved flow value.
    pub fn max_flow(&mut self, s: usize, t: usize, limit: i64) -> i64 {
        assert!(s < self.adj.len() && t < self.adj.len());
        if s == t || limit <= 0 {
            return 0;
        }
        let mut total = 0i64;
        self.parent.resize(self.adj.len(), usize::MAX);
        while total < limit {
            self.parent.fill(usize::MAX);
            self.queue.clear();
            self.queue.push(s);
            let mut head = 0;
            let mut reached = false;
            'bfs: while let Some(&u) = self.queue.get(head) {
                head += 1;
                for &e in &self.adj[u] {
                    let v = self.edges[e].to;
                    if v != s && self.parent[v] == usize::MAX && self.residual(e) > 0 {
                        self.parent[v] = e;
                        if v == t {
                            reached = true;
                            break 'bfs;
                        }
                        self.queue.push(v);
                    }
                }
            }
            if !reached {
                break;
            }
            // Bottleneck along the augmenting path.
            let mut bottleneck = limit - total;
            let mut v = t;
            while v != s {
                let e = self.parent[v];
                bottleneck = bottleneck.min(self.residual(e));
                v = self.edges[e ^ 1].to;
            }
            // Apply.
            let mut v = t;
            while v != s {
                let e = self.parent[v];
                self.edges[e].flow += bottleneck;
                self.edges[e ^ 1].flow -= bottleneck;
                v = self.edges[e ^ 1].to;
            }
            total += bottleneck;
            self.augmentations += 1;
        }
        total
    }

    /// Decomposes the current flow into `s -> t` paths.
    ///
    /// Returns `(node_path, value)` pairs whose values sum to the net flow
    /// out of `s`. Flow cycles (which carry no `s -> t` value) are cancelled
    /// and discarded.
    pub fn decompose_paths(&mut self, s: usize, t: usize) -> Vec<(Vec<usize>, i64)> {
        let mut paths = Vec::new();
        self.on_trail_at.resize(self.adj.len(), usize::MAX);
        loop {
            // Walk greedily from s along positive-flow edges to t.
            self.clear_trail();
            let mut node = s;
            let mut found = false;
            loop {
                if node == t {
                    found = true;
                    break;
                }
                let next = self.adj[node]
                    .iter()
                    .copied()
                    .find(|&e| e % 2 == 0 && self.edges[e].flow > 0);
                let Some(e) = next else { break };
                let v = self.edges[e].to;
                if v == s || self.on_trail_at[v] != usize::MAX {
                    // Found a cycle: cancel it (it carries no s->t value).
                    let cut = if v == s { 0 } else { self.on_trail_at[v] };
                    let mut cyc_min = self.edges[e].flow;
                    for &ce in &self.trail_edges[cut..] {
                        cyc_min = cyc_min.min(self.edges[ce].flow);
                    }
                    self.edges[e].flow -= cyc_min;
                    self.edges[e ^ 1].flow += cyc_min;
                    for &ce in &self.trail_edges[cut..] {
                        self.edges[ce].flow -= cyc_min;
                        self.edges[ce ^ 1].flow += cyc_min;
                    }
                    // Restart the walk from scratch.
                    self.clear_trail();
                    node = s;
                    continue;
                }
                self.trail_edges.push(e);
                self.on_trail_at[v] = self.trail_edges.len();
                node = v;
            }
            if !found {
                break;
            }
            let Some(bottleneck) = self.trail_edges.iter().map(|&e| self.edges[e].flow).min()
            else {
                // Unreachable: `found` implies a non-empty trail.
                break;
            };
            let mut nodes = vec![s];
            for &e in &self.trail_edges {
                self.edges[e].flow -= bottleneck;
                self.edges[e ^ 1].flow += bottleneck;
                nodes.push(self.edges[e].to);
            }
            paths.push((nodes, bottleneck));
        }
        paths
    }

    /// Empties the decomposition walk, un-marking the nodes it reached.
    fn clear_trail(&mut self) {
        for e in self.trail_edges.drain(..) {
            self.on_trail_at[self.edges[e].to] = usize::MAX;
        }
    }
}

/// Result of a capped max-flow query on a payment channel network.
#[derive(Clone, Debug)]
pub struct ChannelFlow {
    /// Achieved flow value.
    pub value: Amount,
    /// Paths (as node sequences) with the amount routed on each.
    pub paths: Vec<(Vec<NodeId>, Amount)>,
    /// Augmenting paths the Edmonds–Karp search pushed to reach `value`.
    pub augmenting_paths: u64,
}

/// Capped max-flow queries on a payment channel network whose balances
/// change between queries: the residual network and its search scratch are
/// kept from one query to the next (module docs).
#[derive(Clone, Debug, Default)]
pub struct MaxFlowSolver {
    mirror: FlowNetwork,
}

impl MaxFlowSolver {
    /// [`balance_limited_flow`], with the answer a solver built for this
    /// query alone would give.
    pub fn query(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        limit: Amount,
    ) -> ChannelFlow {
        let fnw = &mut self.mirror;
        fnw.refresh(network, balances);
        let value = fnw.max_flow(src.index(), dst.index(), limit.micros());
        let paths = fnw
            .decompose_paths(src.index(), dst.index())
            .into_iter()
            .map(|(nodes, v)| {
                (
                    nodes.into_iter().map(NodeId::from).collect::<Vec<_>>(),
                    Amount::from_micros(v),
                )
            })
            .collect();
        ChannelFlow {
            value: Amount::from_micros(value),
            paths,
            augmenting_paths: fnw.augmentations(),
        }
    }
}

/// Computes a flow of value up to `limit` from `src` to `dst` over the
/// current channel balances, decomposed into node paths.
///
/// This is the paper's max-flow routing primitive: a distributed
/// Ford–Fulkerson stand-in, run centrally for the simulation. One query on
/// a fresh [`MaxFlowSolver`].
pub fn balance_limited_flow(
    network: &Network,
    balances: &dyn BalanceView,
    src: NodeId,
    dst: NodeId,
    limit: Amount,
) -> ChannelFlow {
    MaxFlowSolver::default().query(network, balances, src, dst, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::Amount;

    #[test]
    fn single_edge_flow() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(0, 1, 10);
        assert_eq!(f.max_flow(0, 1, i64::MAX), 10);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two disjoint paths of caps 3 and 5, plus a cross edge.
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 3);
        f.add_edge(0, 2, 5);
        f.add_edge(1, 3, 5);
        f.add_edge(2, 3, 3);
        f.add_edge(2, 1, 3);
        assert_eq!(f.max_flow(0, 3, i64::MAX), 8);
    }

    #[test]
    fn flow_respects_limit() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(0, 1, 100);
        assert_eq!(f.max_flow(0, 1, 30), 30);
    }

    #[test]
    fn zero_when_disconnected() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 5);
        assert_eq!(f.max_flow(0, 2, i64::MAX), 0);
    }

    #[test]
    fn self_flow_is_zero() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(0, 1, 5);
        assert_eq!(f.max_flow(0, 0, i64::MAX), 0);
    }

    #[test]
    fn requires_reverse_residuals() {
        // The "cross" example where a naive greedy needs to undo flow:
        // 0->1 (1), 0->2 (1), 1->3 (1), 2->1... classic: max flow 2 only via
        // rerouting through the cross edge.
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 1);
        f.add_edge(0, 2, 1);
        f.add_edge(1, 2, 1);
        f.add_edge(1, 3, 1);
        f.add_edge(2, 3, 1);
        assert_eq!(f.max_flow(0, 3, i64::MAX), 2);
    }

    #[test]
    fn decomposition_sums_to_flow_value() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 3);
        f.add_edge(0, 2, 5);
        f.add_edge(1, 3, 5);
        f.add_edge(2, 3, 3);
        f.add_edge(2, 1, 3);
        let value = f.max_flow(0, 3, i64::MAX);
        let paths = f.decompose_paths(0, 3);
        let total: i64 = paths.iter().map(|(_, v)| v).sum();
        assert_eq!(total, value);
        for (nodes, v) in &paths {
            assert_eq!(nodes.first(), Some(&0));
            assert_eq!(nodes.last(), Some(&3));
            assert!(*v > 0);
        }
    }

    #[test]
    fn from_channel_balances_uses_directional_balances() {
        let mut g = Network::new(3);
        g.add_channel_with_balances(
            NodeId(0),
            NodeId(1),
            Amount::from_whole(7),
            Amount::from_whole(1),
        )
        .unwrap();
        g.add_channel_with_balances(
            NodeId(1),
            NodeId(2),
            Amount::from_whole(4),
            Amount::from_whole(0),
        )
        .unwrap();
        let flow = balance_limited_flow(&g, &g, NodeId(0), NodeId(2), Amount::from_whole(100));
        // Bottleneck is the 4 spendable by node 1 toward node 2.
        assert_eq!(flow.value, Amount::from_whole(4));
        assert_eq!(flow.paths.len(), 1);
        assert_eq!(flow.paths[0].0, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // Reverse direction is limited by node 2's zero balance.
        let rev = balance_limited_flow(&g, &g, NodeId(2), NodeId(0), Amount::from_whole(100));
        assert_eq!(rev.value, Amount::ZERO);
    }

    #[test]
    fn capped_flow_decomposition() {
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        let flow = balance_limited_flow(&g, &g, NodeId(0), NodeId(1), Amount::from_whole(2));
        assert_eq!(flow.value, Amount::from_whole(2));
        assert_eq!(flow.paths[0].1, Amount::from_whole(2));
    }

    #[test]
    fn augmenting_paths_are_counted() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 3);
        f.add_edge(0, 2, 5);
        f.add_edge(1, 3, 5);
        f.add_edge(2, 3, 3);
        f.add_edge(2, 1, 3);
        assert_eq!(f.augmentations(), 0);
        f.max_flow(0, 3, i64::MAX);
        // Unit-capacity BFS augmentation needs at least one path per
        // decomposed route; exact count is deterministic, bounded by value.
        assert!(f.augmentations() >= 2 && f.augmentations() <= 8);

        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        let flow = balance_limited_flow(&g, &g, NodeId(0), NodeId(1), Amount::from_whole(2));
        assert_eq!(flow.augmenting_paths, 1);
        let dry = balance_limited_flow(&g, &g, NodeId(1), NodeId(0), Amount::ZERO);
        assert_eq!(dry.augmenting_paths, 0);
    }

    #[test]
    fn larger_grid_flow_value() {
        // 3x3 grid, unit capacities, corner to corner: max flow = 2.
        let idx = |r: usize, c: usize| r * 3 + c;
        let mut f = FlowNetwork::new(9);
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    f.add_edge(idx(r, c), idx(r, c + 1), 1);
                    f.add_edge(idx(r, c + 1), idx(r, c), 1);
                }
                if r + 1 < 3 {
                    f.add_edge(idx(r, c), idx(r + 1, c), 1);
                    f.add_edge(idx(r + 1, c), idx(r, c), 1);
                }
            }
        }
        assert_eq!(f.max_flow(0, 8, i64::MAX), 2);
    }
}
