//! Max-flow routing — the "gold standard" baseline (§3).
//!
//! For each transaction, a (centralized stand-in for distributed)
//! Ford–Fulkerson computes the maximum flow between sender and receiver on
//! the graph of current spendable balances; if it covers the payment, the
//! payment is delivered atomically along the decomposed flow paths.
//! Expensive — `O(|V| · |E|²)` per transaction — which is exactly the
//! overhead argument the paper makes.

use crate::scheme::{RoutingScheme, SchemeKind};
use spider_core::{Amount, BalanceView, CoreError, Dec, Enc, Network, NodeId, Path};
use spider_opt::maxflow::MaxFlowSolver;

/// The atomic max-flow routing scheme.
#[derive(Clone, Debug, Default)]
pub struct MaxFlowScheme {
    queries: u64,
    augmenting_paths: u64,
    /// Derived from the network on the first query and re-read from the
    /// balances on every later one; never part of a checkpoint.
    solver: MaxFlowSolver,
}

impl MaxFlowScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        MaxFlowScheme::default()
    }
}

impl RoutingScheme for MaxFlowScheme {
    fn name(&self) -> &'static str {
        "max-flow"
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
        let flow = self.solver.query(network, balances, src, dst, amount);
        self.queries += 1;
        self.augmenting_paths += flow.augmenting_paths;
        if flow.value < amount {
            return None;
        }
        let mut parts = Vec::with_capacity(flow.paths.len());
        for (nodes, value) in flow.paths {
            // A decomposition trail that fails path validation would be a
            // solver bug; degrade to "no route" rather than aborting.
            let Ok(path) = Path::new(network, nodes) else {
                return None;
            };
            parts.push((path, value));
        }
        debug_assert_eq!(
            parts.iter().map(|(_, v)| *v).sum::<Amount>(),
            amount,
            "decomposed parts must sum to the payment"
        );
        Some(parts)
    }

    fn telemetry_stats(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("routing.maxflow.queries", self.queries),
            ("routing.maxflow.augmenting_paths", self.augmenting_paths),
        ]
    }

    /// The two work counters, `queries` then `augmenting_paths`, as `u64`s.
    fn checkpoint_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        e.u64(self.queries);
        e.u64(self.augmenting_paths);
        Some(e.into_bytes())
    }

    fn restore_state(&mut self, _network: &Network, bytes: &[u8]) -> Result<(), CoreError> {
        let mut d = Dec::new(bytes);
        let counters = (d.u64(), d.u64(), d.expect_end());
        let (Ok(queries), Ok(augmenting_paths), Ok(())) = counters else {
            return Err(CoreError::Internal(format!(
                "max-flow counters restore: {} bytes, not two u64s",
                bytes.len()
            )));
        };
        self.queries = queries;
        self.augmenting_paths = augmenting_paths;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Network {
        // 0 -> {1, 2} -> 3, each channel capacity 10 (5 spendable per side).
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(2), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(3), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(2), NodeId(3), Amount::from_whole(10))
            .unwrap();
        g
    }

    #[test]
    fn delivers_multipath_payment() {
        let g = diamond();
        let mut s = MaxFlowScheme::new();
        // 8 tokens exceeds any single path's bottleneck (5) but fits two.
        let parts = s
            .route_payment(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(8))
            .expect("multipath delivery");
        assert!(parts.len() >= 2);
        let total: Amount = parts.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, Amount::from_whole(8));
    }

    #[test]
    fn rejects_payment_exceeding_maxflow() {
        let g = diamond();
        let mut s = MaxFlowScheme::new();
        // Max flow is 10 (5 + 5); 11 must fail atomically.
        assert!(s
            .route_payment(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(11))
            .is_none());
    }

    #[test]
    fn single_path_when_sufficient() {
        let g = diamond();
        let mut s = MaxFlowScheme::new();
        let parts = s
            .route_payment(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(3))
            .unwrap();
        let total: Amount = parts.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, Amount::from_whole(3));
    }

    #[test]
    fn telemetry_stats_track_queries_and_augmentations() {
        let g = diamond();
        let mut s = MaxFlowScheme::new();
        assert_eq!(
            s.telemetry_stats(),
            vec![
                ("routing.maxflow.queries", 0),
                ("routing.maxflow.augmenting_paths", 0),
            ]
        );
        s.route_payment(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(8))
            .unwrap();
        s.route_payment(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(3))
            .unwrap();
        let stats = s.telemetry_stats();
        assert_eq!(stats[0], ("routing.maxflow.queries", 2));
        assert!(stats[1].1 >= 3, "two queries push >= 3 augmenting paths");
    }

    #[test]
    fn counters_survive_a_checkpoint() {
        let g = diamond();
        let mut s = MaxFlowScheme::new();
        s.route_payment(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(8))
            .unwrap();
        let bytes = s.checkpoint_state().unwrap();
        let mut resumed = MaxFlowScheme::new();
        resumed.restore_state(&g, &bytes).unwrap();
        assert_eq!(resumed.telemetry_stats(), s.telemetry_stats());
        for bad in [&[][..], &bytes[..15], &[bytes.clone(), vec![0]].concat()] {
            assert!(MaxFlowScheme::new().restore_state(&g, bad).is_err());
        }
    }

    #[test]
    fn fails_when_disconnected() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        let mut s = MaxFlowScheme::new();
        assert!(s
            .route_payment(&g, &g, NodeId(0), NodeId(2), Amount::ONE)
            .is_none());
    }

    #[test]
    fn uses_rerouting_through_cross_edges() {
        // The classic cross example: naive greedy would strand capacity.
        let mut g = Network::new(4);
        g.add_channel_with_balances(NodeId(0), NodeId(1), Amount::from_whole(1), Amount::ZERO)
            .unwrap();
        g.add_channel_with_balances(NodeId(0), NodeId(2), Amount::from_whole(1), Amount::ZERO)
            .unwrap();
        g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::from_whole(1), Amount::ZERO)
            .unwrap();
        g.add_channel_with_balances(NodeId(1), NodeId(3), Amount::from_whole(1), Amount::ZERO)
            .unwrap();
        g.add_channel_with_balances(NodeId(2), NodeId(3), Amount::from_whole(1), Amount::ZERO)
            .unwrap();
        let mut s = MaxFlowScheme::new();
        let parts = s
            .route_payment(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(2))
            .expect("max flow is exactly 2");
        let total: Amount = parts.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, Amount::from_whole(2));
    }
}
