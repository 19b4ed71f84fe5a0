//! Plain-text (de)serialization of topologies.
//!
//! Format: one channel per line, `a b balance_a balance_b` (node indices and
//! token balances), `#`-prefixed comments, and a leading `nodes N` header.
//! Designed so topologies can be exported, diffed, and re-imported
//! deterministically.

use spider_core::{Amount, Network, NodeId};
use std::fmt::Write as _;

/// Serializes a network into the edge-list text format.
pub fn to_edge_list(network: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# spider topology: {} nodes, {} channels",
        network.num_nodes(),
        network.num_channels()
    );
    let _ = writeln!(out, "nodes {}", network.num_nodes());
    for ch in network.channels() {
        let _ = writeln!(
            out,
            "{} {} {} {}",
            ch.a.0, ch.b.0, ch.balance_a, ch.balance_b
        );
    }
    out
}

/// Errors from parsing the edge-list format.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// Missing or malformed `nodes N` header.
    MissingHeader,
    /// A line did not have the expected `a b bal_a bal_b` shape.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing `nodes N` header"),
            ParseError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// The largest balance a line may carry, in tokens: amounts are micro-tokens
/// in an `i64`.
const MAX_TOKENS: f64 = (i64::MAX / 1_000_000) as f64;

/// Parses the edge-list text format back into a [`Network`].
pub fn from_edge_list(text: &str) -> Result<Network, ParseError> {
    let mut network: Option<Network> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("nodes ") {
            let n: usize = rest.trim().parse().map_err(|_| ParseError::BadLine {
                line: idx + 1,
                reason: format!("bad node count `{rest}`"),
            })?;
            network = Some(Network::new(n));
            continue;
        }
        let g = network.as_mut().ok_or(ParseError::MissingHeader)?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 4 {
            return Err(ParseError::BadLine {
                line: idx + 1,
                reason: format!("expected 4 fields, got {}", parts.len()),
            });
        }
        let parse_u32 = |s: &str| -> Result<u32, ParseError> {
            s.parse().map_err(|_| ParseError::BadLine {
                line: idx + 1,
                reason: format!("bad node id `{s}`"),
            })
        };
        let parse_amt = |s: &str| -> Result<Amount, ParseError> {
            // `inf`, `NaN` and `1e30` all parse as `f64`; `from_tokens`
            // asserts on every one of them.
            match s.parse::<f64>() {
                Ok(tokens) if tokens.abs() <= MAX_TOKENS => Ok(Amount::from_tokens(tokens)),
                _ => Err(ParseError::BadLine {
                    line: idx + 1,
                    reason: format!("bad amount `{s}`"),
                }),
            }
        };
        let a = NodeId(parse_u32(parts[0])?);
        let b = NodeId(parse_u32(parts[1])?);
        let bal_a = parse_amt(parts[2])?;
        let bal_b = parse_amt(parts[3])?;
        if bal_a.checked_add(bal_b).is_none() {
            return Err(ParseError::BadLine {
                line: idx + 1,
                reason: "channel capacity overflows the amount range".to_string(),
            });
        }
        g.add_channel_with_balances(a, b, bal_a, bal_b)
            .map_err(|e| ParseError::BadLine {
                line: idx + 1,
                reason: e.to_string(),
            })?;
    }
    network.ok_or(ParseError::MissingHeader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::ring;

    #[test]
    fn round_trip() {
        let g = ring(6, Amount::from_whole(50));
        let text = to_edge_list(&g);
        let g2 = from_edge_list(&text).unwrap();
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_channels(), g2.num_channels());
        for (a, b) in g.channels().iter().zip(g2.channels()) {
            assert_eq!(
                (a.a, a.b, a.balance_a, a.balance_b),
                (b.a, b.b, b.balance_a, b.balance_b)
            );
        }
    }

    #[test]
    fn fractional_balances_round_trip() {
        let mut g = Network::new(2);
        g.add_channel_with_balances(
            NodeId(0),
            NodeId(1),
            Amount::from_tokens(1.5),
            Amount::from_tokens(2.25),
        )
        .unwrap();
        let g2 = from_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(g2.channels()[0].balance_a, Amount::from_tokens(1.5));
        assert_eq!(g2.channels()[0].balance_b, Amount::from_tokens(2.25));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\nnodes 2\n# channel below\n0 1 5 5\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.num_channels(), 1);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(
            from_edge_list("0 1 5 5\n").unwrap_err(),
            ParseError::MissingHeader
        );
        assert_eq!(from_edge_list("").unwrap_err(), ParseError::MissingHeader);
    }

    #[test]
    fn bad_lines_reported_with_numbers() {
        let err = from_edge_list("nodes 2\n0 1 5\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line: 2, .. }));
        let err = from_edge_list("nodes 2\n0 x 5 5\n").unwrap_err();
        assert!(err.to_string().contains("bad node id"));
    }

    #[test]
    fn unrepresentable_balances_rejected_not_panicked_on() {
        for balances in ["inf 5", "5 NaN", "1e30 5", "-1e30 5"] {
            let err = from_edge_list(&format!("nodes 2\n0 1 {balances}\n")).unwrap_err();
            assert!(
                matches!(&err, ParseError::BadLine { line: 2, reason } if reason.contains("bad amount")),
                "{balances}: {err}"
            );
        }
        // Each balance fits; the channel's capacity does not.
        let err = from_edge_list("nodes 2\n0 1 9000000000000 9000000000000\n").unwrap_err();
        assert!(
            matches!(&err, ParseError::BadLine { line: 2, reason } if reason.contains("capacity")),
            "{err}"
        );
        // The largest balance that does fit still parses.
        let g = from_edge_list("nodes 2\n0 1 9223372036854 0\n").unwrap();
        assert_eq!(g.channels()[0].balance_a, Amount::from_tokens(MAX_TOKENS));
    }

    /// Text that is mostly noise but often enough has a header, four fields
    /// and a troublesome number.
    fn text_from_bytes(bytes: &[u8]) -> String {
        const VOCAB: [&str; 14] = [
            "nodes ",
            "nodes 4\n",
            "\n",
            " ",
            "0 1 ",
            "2 3 ",
            "5 5\n",
            "inf",
            "NaN",
            "1e30",
            "-",
            "9000000000000 ",
            "1e-9",
            "# ",
        ];
        let mut out = String::new();
        for &b in bytes {
            match b {
                0..=127 => out.push(b as char),
                _ => out.push_str(VOCAB[(b - 128) as usize % VOCAB.len()]),
            }
        }
        out
    }

    proptest::proptest! {
        /// Any string parses to `Ok` or `Err`, never a panic, and what parses
        /// survives a round trip.
        #[test]
        fn prop_from_edge_list_never_panics(
            bytes in proptest::collection::vec(0u8..=255, 0..120),
        ) {
            if let Ok(g) = from_edge_list(&text_from_bytes(&bytes)) {
                let again = from_edge_list(&to_edge_list(&g)).unwrap();
                proptest::prop_assert_eq!(g.num_channels(), again.num_channels());
            }
        }
    }

    #[test]
    fn duplicate_channel_rejected() {
        let err = from_edge_list("nodes 2\n0 1 5 5\n1 0 3 3\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line: 3, .. }));
    }
}
