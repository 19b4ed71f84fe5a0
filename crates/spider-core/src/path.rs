//! Paths ("trails") through the payment channel network.
//!
//! The paper's path sets `P_ij` contain *trails*: walks that never repeat an
//! edge (repeating nodes is permitted). [`Path`] enforces this at
//! construction time against a concrete [`Network`].

use crate::error::CoreError;
use crate::graph::Network;
use crate::ids::{ChannelId, Direction, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated trail through the network: a sequence of at least two nodes
/// where each consecutive pair shares a channel and no channel repeats.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    nodes: Vec<NodeId>,
    /// One `(channel, direction)` per hop; same length as `nodes.len() - 1`.
    hops: Vec<(ChannelId, Direction)>,
}

impl Path {
    /// Validates `nodes` as a trail in `network` and builds the hop list.
    pub fn new(network: &Network, nodes: Vec<NodeId>) -> Result<Path, CoreError> {
        if nodes.len() < 2 {
            return Err(CoreError::InvalidPath(format!(
                "a path needs at least 2 nodes, got {}",
                nodes.len()
            )));
        }
        let mut hops: Vec<(ChannelId, Direction)> = Vec::with_capacity(nodes.len() - 1);
        for w in nodes.windows(2) {
            let (u, v) = (w[0], w[1]);
            let channel = network
                .channel_between(u, v)
                .ok_or(CoreError::NoChannelBetween(u, v))?;
            // Trail check against the hops so far: paths are a handful of
            // hops, while a dense set would be sized by the channel id.
            if hops.iter().any(|&(c, _)| c == channel.id) {
                return Err(CoreError::InvalidPath(format!(
                    "channel {} repeats (paths must be trails)",
                    channel.id
                )));
            }
            hops.push((channel.id, channel.try_direction_from(u)?));
        }
        Ok(Path { nodes, hops })
    }

    /// The node sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The `(channel, direction)` sequence, one entry per hop.
    #[inline]
    pub fn hops(&self) -> &[(ChannelId, Direction)] {
        &self.hops
    }

    /// Source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    #[inline]
    pub fn dest(&self) -> NodeId {
        // A constructed Path always has >= 2 nodes.
        self.nodes[self.nodes.len() - 1]
    }

    /// Number of hops (edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Always `false`: a valid path has at least one hop.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` if the trail uses `channel` (in either direction).
    pub fn uses_channel(&self, channel: ChannelId) -> bool {
        self.hops.iter().any(|&(c, _)| c == channel)
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.nodes.iter().map(|n| n.to_string()).collect();
        write!(f, "Path[{}]", parts.join("->"))
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.nodes.iter().map(|n| n.to_string()).collect();
        write!(f, "{}", parts.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::Amount;

    /// 0 - 1 - 2 - 3 line plus a 1-3 chord.
    fn line_with_chord() -> Network {
        let mut g = Network::new(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 3)] {
            g.add_channel(NodeId(a), NodeId(b), Amount::from_whole(10))
                .unwrap();
        }
        g
    }

    #[test]
    fn valid_path_builds_hops() {
        let g = line_with_chord();
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.dest(), NodeId(3));
        assert!(!p.is_empty());
        for (i, &(c, d)) in p.hops().iter().enumerate() {
            let ch = g.channel(c);
            assert_eq!(ch.sender(d), p.nodes()[i]);
        }
    }

    #[test]
    fn rejects_too_short() {
        let g = line_with_chord();
        assert!(matches!(
            Path::new(&g, vec![NodeId(0)]),
            Err(CoreError::InvalidPath(_))
        ));
        assert!(matches!(
            Path::new(&g, vec![]),
            Err(CoreError::InvalidPath(_))
        ));
    }

    #[test]
    fn rejects_missing_channel() {
        let g = line_with_chord();
        assert_eq!(
            Path::new(&g, vec![NodeId(0), NodeId(3)]),
            Err(CoreError::NoChannelBetween(NodeId(0), NodeId(3)))
        );
    }

    #[test]
    fn rejects_repeated_edge() {
        let g = line_with_chord();
        // 0 -> 1 -> 0 repeats channel (0,1).
        assert!(matches!(
            Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(0)]),
            Err(CoreError::InvalidPath(_))
        ));
    }

    #[test]
    fn allows_repeated_node_with_distinct_edges() {
        let g = line_with_chord();
        // 0 -> 1 -> 2 -> 3 -> 1 revisits node 1 but uses distinct channels.
        let p = Path::new(
            &g,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(1)],
        );
        assert!(p.is_ok(), "trails may repeat nodes: {p:?}");
    }

    #[test]
    fn channel_membership_queries() {
        let g = line_with_chord();
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(3)]).unwrap();
        let c01 = g.channel_between(NodeId(0), NodeId(1)).unwrap().id;
        let c13 = g.channel_between(NodeId(1), NodeId(3)).unwrap().id;
        let c23 = g.channel_between(NodeId(2), NodeId(3)).unwrap().id;
        assert!(p.uses_channel(c01));
        assert!(p.uses_channel(c13));
        assert!(!p.uses_channel(c23));
    }

    #[test]
    fn display_is_readable() {
        let g = line_with_chord();
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(p.to_string(), "n0 -> n1 -> n2");
        assert_eq!(format!("{p:?}"), "Path[n0->n1->n2]");
    }
}
