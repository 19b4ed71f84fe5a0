//! The payment channel network graph `G(V, E)`.
//!
//! A [`Network`] is the static description of a PCN: its nodes, its
//! (undirected) payment channels, and each channel's *initial* balance split.
//! The discrete-event simulator keeps live balances separately; routing code
//! reads balances through the [`BalanceView`] trait so it works against
//! either the initial state or a live ledger.

use crate::amount::Amount;
use crate::error::CoreError;
use crate::ids::{ChannelId, Direction, NodeId};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A bidirectional payment channel between nodes `a` and `b`.
///
/// The channel escrows `balance_a + balance_b` in total; `balance_a` is
/// spendable by endpoint `a`, `balance_b` by endpoint `b`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Channel {
    /// This channel's id (also its index in [`Network::channels`]).
    pub id: ChannelId,
    /// First endpoint. By convention `a < b`.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Initial funds spendable by `a`.
    pub balance_a: Amount,
    /// Initial funds spendable by `b`.
    pub balance_b: Amount,
}

impl Channel {
    /// Total escrowed funds (the channel "capacity" `c_e` of the paper).
    #[inline]
    pub fn capacity(&self) -> Amount {
        self.balance_a + self.balance_b
    }

    /// The endpoint opposite to `node`, or
    /// [`CoreError::NotAnEndpoint`] when `node` is neither endpoint.
    #[inline]
    pub fn try_other(&self, node: NodeId) -> Result<NodeId, CoreError> {
        if node == self.a {
            Ok(self.b)
        } else if node == self.b {
            Ok(self.a)
        } else {
            Err(CoreError::NotAnEndpoint {
                node,
                channel: self.id,
            })
        }
    }

    /// The endpoint opposite to `node`.
    ///
    /// # Panics
    /// Panics if `node` is not an endpoint of this channel; library code
    /// should prefer [`try_other`](Self::try_other).
    #[inline]
    pub fn other(&self, node: NodeId) -> NodeId {
        match self.try_other(node) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        }
    }

    /// The direction of this channel when sending *from* `node`, or
    /// [`CoreError::NotAnEndpoint`] when `node` is neither endpoint.
    #[inline]
    pub fn try_direction_from(&self, node: NodeId) -> Result<Direction, CoreError> {
        if node == self.a {
            Ok(Direction::AtoB)
        } else if node == self.b {
            Ok(Direction::BtoA)
        } else {
            Err(CoreError::NotAnEndpoint {
                node,
                channel: self.id,
            })
        }
    }

    /// The initial balance spendable in the given direction.
    #[inline]
    pub fn balance_in(&self, dir: Direction) -> Amount {
        match dir {
            Direction::AtoB => self.balance_a,
            Direction::BtoA => self.balance_b,
        }
    }

    /// The sending endpoint for the given direction.
    #[inline]
    pub fn sender(&self, dir: Direction) -> NodeId {
        match dir {
            Direction::AtoB => self.a,
            Direction::BtoA => self.b,
        }
    }
}

/// Read access to per-direction spendable channel balances.
///
/// Implemented by [`Network`] (initial balances) and by the simulator's live
/// ledger, so routing schemes can be written once against this trait.
pub trait BalanceView {
    /// Funds currently spendable on `channel` when sending from `from`.
    fn available(&self, channel: ChannelId, from: NodeId) -> Amount;

    /// Funds spendable on a hop whose crossing direction is already known —
    /// `(from, dir)` must come from a validated [`crate::Path`] hop. Views
    /// backed by per-side state override this to skip the endpoint lookup
    /// that [`available`](BalanceView::available) needs; the default simply
    /// delegates.
    fn available_dir(&self, channel: ChannelId, from: NodeId, dir: Direction) -> Amount {
        let _ = dir;
        self.available(channel, from)
    }
}

/// Prebuilt CSR (compressed sparse row) adjacency: all `(neighbor, channel)`
/// pairs in one contiguous slab, with per-node offsets. Node `u`'s neighbors
/// are `entries[offsets[u] .. offsets[u + 1]]`, in channel-id order — the
/// same deterministic order incremental insertion used to produce.
#[derive(Clone, Debug, Default)]
struct CsrAdjacency {
    offsets: Vec<u32>,
    entries: Vec<(NodeId, ChannelId)>,
}

impl CsrAdjacency {
    fn build(num_nodes: usize, channels: &[Channel]) -> Self {
        let mut offsets = vec![0u32; num_nodes + 1];
        for c in channels {
            offsets[c.a.index() + 1] += 1;
            offsets[c.b.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Fill in channel-id order; `cursor` tracks each node's next free
        // slot, so per-node neighbor order is channel-id order.
        let mut cursor = offsets.clone();
        let mut entries = vec![(NodeId(0), ChannelId(0)); 2 * channels.len()];
        for c in channels {
            let ia = cursor[c.a.index()] as usize;
            entries[ia] = (c.b, c.id);
            cursor[c.a.index()] += 1;
            let ib = cursor[c.b.index()] as usize;
            entries[ib] = (c.a, c.id);
            cursor[c.b.index()] += 1;
        }
        CsrAdjacency { offsets, entries }
    }

    #[inline]
    fn neighbors(&self, node: NodeId) -> &[(NodeId, ChannelId)] {
        let lo = self.offsets[node.index()] as usize;
        let hi = self.offsets[node.index() + 1] as usize;
        &self.entries[lo..hi]
    }
}

/// The static payment channel network topology.
#[derive(Clone, Debug)]
pub struct Network {
    channels: Vec<Channel>,
    num_nodes: usize,
    /// lookup from a normalized `(min, max)` node pair to the channel id.
    pair_index: HashMap<(NodeId, NodeId), ChannelId>,
    /// Dense adjacency, built lazily on first traversal and dropped on any
    /// mutation; purely derived from `channels`.
    csr: OnceLock<CsrAdjacency>,
}

impl Network {
    /// Creates an empty network with `n` nodes and no channels.
    pub fn new(n: usize) -> Self {
        Network {
            channels: Vec::new(),
            num_nodes: n,
            pair_index: HashMap::new(),
            csr: OnceLock::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The prebuilt CSR adjacency, building it on first use.
    #[inline]
    fn csr(&self) -> &CsrAdjacency {
        self.csr
            .get_or_init(|| CsrAdjacency::build(self.num_nodes, &self.channels))
    }

    /// Number of channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes as u32).map(NodeId)
    }

    /// All channels.
    #[inline]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Opens a channel between `a` and `b` with the total `capacity` split
    /// evenly between the two endpoints (the paper's evaluation setup).
    pub fn add_channel(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: Amount,
    ) -> Result<ChannelId, CoreError> {
        let half = capacity / 2;
        self.add_channel_with_balances(a, b, half, capacity - half)
    }

    /// Opens a channel with an explicit balance on each side.
    pub fn add_channel_with_balances(
        &mut self,
        a: NodeId,
        b: NodeId,
        balance_a: Amount,
        balance_b: Amount,
    ) -> Result<ChannelId, CoreError> {
        if a.index() >= self.num_nodes() {
            return Err(CoreError::UnknownNode(a));
        }
        if b.index() >= self.num_nodes() {
            return Err(CoreError::UnknownNode(b));
        }
        if a == b {
            return Err(CoreError::SelfChannel(a));
        }
        if balance_a.is_negative() || balance_b.is_negative() {
            return Err(CoreError::NegativeAmount);
        }
        let key = normalize(a, b);
        if self.pair_index.contains_key(&key) {
            return Err(CoreError::DuplicateChannel(a, b));
        }
        // Store endpoints in normalized order so (a, balance_a) always refers
        // to the smaller node id regardless of argument order.
        let (lo, hi) = key;
        let (bal_lo, bal_hi) = if a == lo {
            (balance_a, balance_b)
        } else {
            (balance_b, balance_a)
        };
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel {
            id,
            a: lo,
            b: hi,
            balance_a: bal_lo,
            balance_b: bal_hi,
        });
        self.pair_index.insert(key, id);
        self.csr.take();
        Ok(id)
    }

    /// The channel with the given id.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// The channel between `a` and `b`, if one exists.
    pub fn channel_between(&self, a: NodeId, b: NodeId) -> Option<&Channel> {
        self.pair_index
            .get(&normalize(a, b))
            .map(|&id| &self.channels[id.index()])
    }

    /// `(neighbor, channel)` pairs adjacent to `node`, as one contiguous
    /// CSR slice in channel-id order.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, ChannelId)] {
        self.csr().neighbors(node)
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Total funds escrowed across all channels.
    pub fn total_capacity(&self) -> Amount {
        self.channels.iter().map(|c| c.capacity()).sum()
    }

    /// `true` if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Hop distances from `src` to every node via BFS (`u32::MAX` where
    /// unreachable).
    pub fn bfs_distances(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_nodes()];
        dist[src.index()] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in self.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

impl BalanceView for Network {
    fn available(&self, channel: ChannelId, from: NodeId) -> Amount {
        let c = self.channel(channel);
        match c.try_direction_from(from) {
            Ok(dir) => c.balance_in(dir),
            // A non-endpoint can never spend on this channel.
            Err(_) => Amount::ZERO,
        }
    }

    fn available_dir(&self, channel: ChannelId, from: NodeId, dir: Direction) -> Amount {
        let c = self.channel(channel);
        debug_assert_eq!(c.try_direction_from(from), Ok(dir));
        c.balance_in(dir)
    }
}

#[inline]
fn normalize(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Network {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(20))
            .unwrap();
        g.add_channel(NodeId(2), NodeId(0), Amount::from_whole(30))
            .unwrap();
        g
    }

    #[test]
    fn build_and_query() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_channels(), 3);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert!(g.is_connected());
        assert_eq!(g.total_capacity(), Amount::from_whole(60));
    }

    #[test]
    fn channel_balances_split_evenly() {
        let g = triangle();
        let c = g.channel_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(c.balance_a, Amount::from_whole(5));
        assert_eq!(c.balance_b, Amount::from_whole(5));
        assert_eq!(c.capacity(), Amount::from_whole(10));
    }

    #[test]
    fn channel_between_is_order_independent() {
        let g = triangle();
        let c1 = g.channel_between(NodeId(0), NodeId(2)).unwrap();
        let c2 = g.channel_between(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(c1.id, c2.id);
        assert!(g.channel_between(NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn endpoints_normalized() {
        let mut g = Network::new(2);
        // Add with arguments in "reverse" order and uneven balances.
        let id = g
            .add_channel_with_balances(
                NodeId(1),
                NodeId(0),
                Amount::from_whole(7),
                Amount::from_whole(3),
            )
            .unwrap();
        let c = g.channel(id);
        assert_eq!((c.a, c.b), (NodeId(0), NodeId(1)));
        // Node 1 supplied 7, so balance on node-1's side must be 7.
        assert_eq!(
            c.balance_in(c.try_direction_from(NodeId(1)).unwrap()),
            Amount::from_whole(7)
        );
        assert_eq!(
            c.balance_in(c.try_direction_from(NodeId(0)).unwrap()),
            Amount::from_whole(3)
        );
    }

    #[test]
    fn rejects_invalid_channels() {
        let mut g = Network::new(2);
        assert_eq!(
            g.add_channel(NodeId(0), NodeId(0), Amount::ONE),
            Err(CoreError::SelfChannel(NodeId(0)))
        );
        assert_eq!(
            g.add_channel(NodeId(0), NodeId(5), Amount::ONE),
            Err(CoreError::UnknownNode(NodeId(5)))
        );
        g.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        assert_eq!(
            g.add_channel(NodeId(1), NodeId(0), Amount::ONE),
            Err(CoreError::DuplicateChannel(NodeId(1), NodeId(0)))
        );
        assert_eq!(
            g.add_channel_with_balances(NodeId(0), NodeId(1), -Amount::ONE, Amount::ONE),
            Err(CoreError::NegativeAmount)
        );
    }

    #[test]
    fn channel_direction_helpers() {
        let g = triangle();
        let c = g.channel_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(c.other(NodeId(0)), NodeId(1));
        assert_eq!(c.try_direction_from(NodeId(0)), Ok(Direction::AtoB));
        assert_eq!(c.try_direction_from(NodeId(1)), Ok(Direction::BtoA));
        assert_eq!(c.sender(Direction::AtoB), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let g = triangle();
        let c = g.channel_between(NodeId(0), NodeId(1)).unwrap();
        let _ = c.other(NodeId(2));
    }

    #[test]
    fn disconnected_detection() {
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        g.add_channel(NodeId(2), NodeId(3), Amount::ONE).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn bfs_distances_computed() {
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::ONE).unwrap();
        let d = g.bfs_distances(NodeId(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], u32::MAX);
    }

    #[test]
    fn network_implements_balance_view() {
        let g = triangle();
        let c = g.channel_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.available(c.id, NodeId(0)), Amount::from_whole(5));
    }
}
