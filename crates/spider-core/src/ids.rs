//! Identifier newtypes used throughout the workspace.
//!
//! All identifiers are small dense integers so they can index `Vec`-backed
//! tables directly; the newtypes prevent mixing a node index into a channel
//! table and vice versa.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node (router or end-host) in the payment channel network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index, for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An undirected payment channel between two nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The channel's dense index, for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for ChannelId {
    fn from(v: u32) -> Self {
        ChannelId(v)
    }
}

impl From<usize> for ChannelId {
    fn from(v: usize) -> Self {
        ChannelId(v as u32)
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// An application-level payment, possibly split into many transaction units.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PaymentId(pub u64);

impl fmt::Debug for PaymentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pay{}", self.0)
    }
}

impl fmt::Display for PaymentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pay{}", self.0)
    }
}

/// A directed view of a channel: the direction `from -> to`.
///
/// Payment channels are undirected objects with one balance per endpoint; a
/// `Direction` selects which endpoint is sending.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Direction {
    /// From the channel's first endpoint (`a`) to its second (`b`).
    AtoB,
    /// From the channel's second endpoint (`b`) to its first (`a`).
    BtoA,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn reverse(self) -> Direction {
        match self {
            Direction::AtoB => Direction::BtoA,
            Direction::BtoA => Direction::AtoB,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let n: NodeId = 7u32.into();
        assert_eq!(n.index(), 7);
        assert_eq!(format!("{n}"), "n7");
        let m: NodeId = 9usize.into();
        assert_eq!(m, NodeId(9));
    }

    #[test]
    fn channel_id_round_trip() {
        let c: ChannelId = 3u32.into();
        assert_eq!(c.index(), 3);
        assert_eq!(format!("{c:?}"), "ch3");
    }

    #[test]
    fn direction_reverse_is_involution() {
        assert_eq!(Direction::AtoB.reverse(), Direction::BtoA);
        assert_eq!(Direction::AtoB.reverse().reverse(), Direction::AtoB);
    }

    #[test]
    fn ids_order_by_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(PaymentId(10) > PaymentId(9));
    }
}
