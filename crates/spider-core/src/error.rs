//! Error types shared across the workspace.

use crate::ids::{ChannelId, NodeId};
use std::fmt;

/// Errors produced by core graph and path operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// A node id referred to a node that does not exist in the network.
    UnknownNode(NodeId),
    /// No channel exists between the two given nodes.
    NoChannelBetween(NodeId, NodeId),
    /// The two endpoints of a channel must be distinct.
    SelfChannel(NodeId),
    /// A channel between these nodes already exists.
    DuplicateChannel(NodeId, NodeId),
    /// A path failed validation (too short, broken hop, repeated edge, ...).
    InvalidPath(String),
    /// A ledger operation would overdraw a channel balance.
    InsufficientFunds {
        /// The channel that lacks funds.
        channel: ChannelId,
        /// The node attempting to send.
        from: NodeId,
        /// Micro-units available.
        available: i64,
        /// Micro-units requested.
        requested: i64,
    },
    /// An amount was negative where a non-negative amount is required.
    NegativeAmount,
    /// A settle or refund would release more than a channel's recorded
    /// in-flight funds — a double-settle / double-refund in the caller.
    ExcessRelease {
        /// The channel whose in-flight pool would go negative.
        channel: ChannelId,
        /// Micro-units currently in flight.
        inflight: i64,
        /// Micro-units the caller tried to release.
        requested: i64,
    },
    /// A ledger operation named a node that is not an endpoint of the
    /// channel it addressed.
    NotAnEndpoint {
        /// The node that is not an endpoint.
        node: NodeId,
        /// The channel it was used with.
        channel: ChannelId,
    },
    /// An arithmetic operation on channel funds would overflow the
    /// fixed-point micro-token representation.
    Overflow {
        /// The channel whose balance or capacity would overflow.
        channel: ChannelId,
        /// The ledger operation that would overflow.
        op: &'static str,
    },
    /// An internal infrastructure invariant failed (serialization, worker
    /// bookkeeping, ...) — a bug, surfaced as a typed error instead of a
    /// panic.
    Internal(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownNode(n) => write!(f, "unknown node {n}"),
            CoreError::NoChannelBetween(a, b) => {
                write!(f, "no channel between {a} and {b}")
            }
            CoreError::SelfChannel(n) => {
                write!(f, "cannot open a channel from {n} to itself")
            }
            CoreError::DuplicateChannel(a, b) => {
                write!(f, "a channel between {a} and {b} already exists")
            }
            CoreError::InvalidPath(reason) => write!(f, "invalid path: {reason}"),
            CoreError::InsufficientFunds {
                channel,
                from,
                available,
                requested,
            } => write!(
                f,
                "insufficient funds on {channel} from {from}: have {available}µ, need {requested}µ"
            ),
            CoreError::NegativeAmount => write!(f, "amount must be non-negative"),
            CoreError::ExcessRelease {
                channel,
                inflight,
                requested,
            } => write!(
                f,
                "release exceeds inflight on {channel}: have {inflight}µ locked, tried to release {requested}µ"
            ),
            CoreError::NotAnEndpoint { node, channel } => {
                write!(f, "{node} is not an endpoint of {channel}")
            }
            CoreError::Overflow { channel, op } => {
                write!(f, "amount overflow on {channel} during {op}")
            }
            CoreError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::NoChannelBetween(NodeId(1), NodeId(2));
        assert_eq!(e.to_string(), "no channel between n1 and n2");
        let e = CoreError::InsufficientFunds {
            channel: ChannelId(3),
            from: NodeId(0),
            available: 10,
            requested: 20,
        };
        assert!(e.to_string().contains("ch3"));
        assert!(e.to_string().contains("10µ"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&CoreError::NegativeAmount);
    }
}
