//! The payment graph `H(V, E_H)` of §5.2.2: who wants to pay whom, at what
//! long-run rate.
//!
//! A [`DemandMatrix`] is independent of the channel topology — it captures
//! only the pattern of payments between participants. Its circulation
//! structure bounds balanced-routing throughput (Proposition 1); the
//! decomposition algorithms live in `spider-opt`.

use crate::ids::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A sparse matrix of desired payment rates `d_{i,j}` (tokens per second).
///
/// Keys are ordered so iteration is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DemandMatrix {
    rates: BTreeMap<(NodeId, NodeId), f64>,
}

impl DemandMatrix {
    /// An empty demand matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `d_{src,dst} = rate`. Zero or negative rates remove the entry.
    ///
    /// # Panics
    /// Panics if `src == dst` with a positive rate, or `rate` is not finite.
    pub fn set(&mut self, src: NodeId, dst: NodeId, rate: f64) {
        assert!(rate.is_finite(), "demand rate must be finite");
        if rate <= 0.0 {
            self.rates.remove(&(src, dst));
        } else {
            assert!(src != dst, "demand from a node to itself is meaningless");
            self.rates.insert((src, dst), rate);
        }
    }

    /// Adds `delta` to `d_{src,dst}` (creating the entry if needed).
    pub fn add(&mut self, src: NodeId, dst: NodeId, delta: f64) {
        let current = self.rate(src, dst);
        self.set(src, dst, current + delta);
    }

    /// The rate `d_{src,dst}`, or `0.0` if absent.
    pub fn rate(&self, src: NodeId, dst: NodeId) -> f64 {
        self.rates.get(&(src, dst)).copied().unwrap_or(0.0)
    }

    /// Iterator over `(src, dst, rate)` entries in deterministic order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.rates.iter().map(|(&(s, d), &r)| (s, d, r))
    }

    /// Number of nonzero entries.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// `true` when there is no demand at all.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Sum of all demand rates (the "100% throughput" reference point).
    pub fn total(&self) -> f64 {
        self.rates.values().sum()
    }

    /// `true` if the demand is (numerically) a circulation: every node's
    /// in-rate equals its out-rate within `tol`.
    pub fn is_circulation(&self, tol: f64) -> bool {
        let mut imbalance: BTreeMap<NodeId, f64> = BTreeMap::new();
        for (&(s, d), &r) in &self.rates {
            *imbalance.entry(s).or_insert(0.0) += r;
            *imbalance.entry(d).or_insert(0.0) -= r;
        }
        imbalance.values().all(|v| v.abs() <= tol)
    }

    /// All nodes that appear as a source or destination, deduplicated,
    /// in ascending order.
    pub fn participants(&self) -> Vec<NodeId> {
        let mut set = std::collections::BTreeSet::new();
        for &(s, d) in self.rates.keys() {
            set.insert(s);
            set.insert(d);
        }
        set.into_iter().collect()
    }

    /// Returns a copy with every rate multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> DemandMatrix {
        assert!(factor.is_finite() && factor >= 0.0);
        let mut out = DemandMatrix::new();
        for (&(s, d), &r) in &self.rates {
            out.set(s, d, r * factor);
        }
        out
    }

    /// Builds the demand matrix of the paper's Fig. 4/5 example (§5.1).
    ///
    /// The exact per-pair rates are reconstructed from the paper's reported
    /// aggregates (total demand 12, maximum circulation ν(C*) = 8,
    /// shortest-path balanced throughput 5 on the ring-plus-chord topology)
    /// and the flows named in the text (1→2 and 1→5 at rate 1, 2→4 at
    /// rate 2, the green 4→2→1 flow). Using 0-based node ids:
    /// 0→1: 1, 0→4: 1, 1→3: 2, 2→1: 1, 3→2: 1, 3→0: 2, 4→2: 3, 4→0: 1.
    pub fn fig4_example() -> DemandMatrix {
        let mut d = DemandMatrix::new();
        let entries: [(u32, u32, f64); 8] = [
            (0, 1, 1.0), // 1 -> 2
            (0, 4, 1.0), // 1 -> 5
            (1, 3, 2.0), // 2 -> 4
            (2, 1, 1.0), // 3 -> 2
            (3, 2, 1.0), // 4 -> 3
            (3, 0, 2.0), // 4 -> 1
            (4, 2, 3.0), // 5 -> 3
            (4, 0, 1.0), // 5 -> 1
        ];
        for (s, t, r) in entries {
            d.set(NodeId(s), NodeId(t), r);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut d = DemandMatrix::new();
        d.set(NodeId(0), NodeId(1), 2.5);
        assert_eq!(d.rate(NodeId(0), NodeId(1)), 2.5);
        assert_eq!(d.rate(NodeId(1), NodeId(0)), 0.0);
        d.set(NodeId(0), NodeId(1), 0.0);
        assert!(d.is_empty());
    }

    #[test]
    fn add_accumulates() {
        let mut d = DemandMatrix::new();
        d.add(NodeId(0), NodeId(1), 1.0);
        d.add(NodeId(0), NodeId(1), 2.0);
        assert_eq!(d.rate(NodeId(0), NodeId(1)), 3.0);
        assert_eq!(d.len(), 1);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn rejects_self_demand() {
        let mut d = DemandMatrix::new();
        d.set(NodeId(3), NodeId(3), 1.0);
    }

    #[test]
    fn total_and_participants() {
        let d = DemandMatrix::fig4_example();
        assert_eq!(d.total(), 12.0);
        assert_eq!(d.participants().len(), 5);
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn fig4_example_is_not_a_circulation() {
        let d = DemandMatrix::fig4_example();
        assert!(!d.is_circulation(1e-9));
    }

    #[test]
    fn pure_cycle_is_circulation() {
        let mut d = DemandMatrix::new();
        d.set(NodeId(0), NodeId(1), 2.0);
        d.set(NodeId(1), NodeId(2), 2.0);
        d.set(NodeId(2), NodeId(0), 2.0);
        assert!(d.is_circulation(1e-12));
    }

    #[test]
    fn scaled_multiplies_rates() {
        let d = DemandMatrix::fig4_example().scaled(2.0);
        assert_eq!(d.total(), 24.0);
        assert_eq!(d.rate(NodeId(1), NodeId(3)), 4.0);
    }

    #[test]
    fn entries_iterate_deterministically() {
        let d = DemandMatrix::fig4_example();
        let first: Vec<_> = d.entries().collect();
        let second: Vec<_> = d.entries().collect();
        assert_eq!(first, second);
        assert_eq!(first[0].0, NodeId(0));
    }
}
