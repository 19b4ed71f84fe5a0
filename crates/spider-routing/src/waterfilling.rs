//! Spider (Waterfilling): the paper's quick-converging heuristic (§5.3.1).
//!
//! Each source keeps `k` edge-disjoint shortest paths per destination and
//! always sends the next transaction unit on the path with the *largest
//! spendable bottleneck* — equalizing available capacity across its paths
//! like a waterfilling allocation, which implicitly steers units toward
//! rebalancing the underlying channels.

use crate::paths::{path_bottleneck, PathCache, PathStrategy};
use crate::scheme::{RoutingScheme, SchemeKind, UnitDecision};
use spider_core::{Amount, BalanceView, Network, NodeId, Path};
use std::sync::Arc;

/// The waterfilling preference among candidate paths: the largest
/// spendable bottleneck, the shorter path on ties (for determinism and
/// lower collateral use). Returns the bottleneck with the path; `None` only
/// for an empty candidate set.
pub fn best_path<'p>(
    balances: &dyn BalanceView,
    paths: &'p [Arc<Path>],
) -> Option<(Amount, &'p Arc<Path>)> {
    paths
        .iter()
        .map(|p| (path_bottleneck(balances, p), p))
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.len().cmp(&a.1.len())))
}

/// The waterfilling routing scheme over `k` edge-disjoint shortest paths.
#[derive(Debug)]
pub struct WaterfillingScheme {
    cache: PathCache,
}

impl WaterfillingScheme {
    /// Creates the scheme with the paper's default of 4 paths per pair.
    pub fn new() -> Self {
        Self::with_paths(4)
    }

    /// Creates the scheme with `k` edge-disjoint shortest paths per pair.
    pub fn with_paths(k: usize) -> Self {
        assert!(k >= 1);
        Self::with_strategy(PathStrategy::EdgeDisjoint(k))
    }

    /// Creates the scheme with an arbitrary candidate-path strategy
    /// (§5.3.1 discusses k-shortest and highest-capacity alternatives).
    pub fn with_strategy(strategy: PathStrategy) -> Self {
        WaterfillingScheme {
            cache: PathCache::new(strategy),
        }
    }
}

impl Default for WaterfillingScheme {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingScheme for WaterfillingScheme {
    fn name(&self) -> &'static str {
        "spider-waterfilling"
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::PacketSwitched
    }

    fn route_unit(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
    ) -> UnitDecision {
        let paths = self.cache.paths(network, src, dst);
        if paths.is_empty() {
            return UnitDecision::Never;
        }
        let Some((bottleneck, best)) = best_path(balances, paths) else {
            // Unreachable: `paths` was checked non-empty above.
            return UnitDecision::Never;
        };
        if bottleneck >= unit {
            UnitDecision::Route(Arc::clone(best))
        } else {
            UnitDecision::Unavailable
        }
    }

    fn telemetry_stats(&self) -> Vec<(&'static str, u64)> {
        let s = self.cache.stats();
        vec![
            ("routing.paths.lookups", s.lookups),
            ("routing.paths.computed_pairs", s.computed_pairs),
            ("routing.paths.computed", s.computed_paths),
        ]
    }

    fn checkpoint_state(&self) -> Option<Vec<u8>> {
        Some(self.cache.checkpoint())
    }

    fn restore_state(
        &mut self,
        network: &Network,
        bytes: &[u8],
    ) -> Result<(), spider_core::CoreError> {
        self.cache
            .restore(network, bytes)
            .map_err(|e| spider_core::CoreError::Internal(format!("path cache restore: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::{ChannelId, Path};
    use std::collections::HashMap;

    /// Ring of 6 plus chord 0-3, uneven balances controlled per test.
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

    /// A balance view with explicit per-(channel, sender) overrides.
    struct Fixed<'a> {
        base: &'a Network,
        overrides: HashMap<(ChannelId, NodeId), Amount>,
    }
    impl BalanceView for Fixed<'_> {
        fn available(&self, c: ChannelId, from: NodeId) -> Amount {
            self.overrides
                .get(&(c, from))
                .copied()
                .unwrap_or_else(|| self.base.available(c, from))
        }
    }

    #[test]
    fn picks_widest_path() {
        let g = ring_with_chord();
        // Drain the chord (0-3) so the widest path is around the ring.
        let chord = g.channel_between(NodeId(0), NodeId(3)).unwrap().id;
        let view = Fixed {
            base: &g,
            overrides: HashMap::from([((chord, NodeId(0)), Amount::from_whole(1))]),
        };
        let mut s = WaterfillingScheme::new();
        match s.route_unit(&g, &view, NodeId(0), NodeId(3), Amount::from_whole(2)) {
            UnitDecision::Route(p) => {
                assert!(p.len() > 1, "must avoid the drained chord, got {p}");
            }
            other => panic!("expected route, got {other:?}"),
        }
    }

    #[test]
    fn prefers_chord_when_balances_equal() {
        let g = ring_with_chord();
        let mut s = WaterfillingScheme::new();
        match s.route_unit(&g, &g, NodeId(0), NodeId(3), Amount::ONE) {
            UnitDecision::Route(p) => assert_eq!(p.len(), 1, "tie-break to shortest"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unavailable_when_all_paths_tight() {
        let g = ring_with_chord();
        let mut s = WaterfillingScheme::new();
        assert_eq!(
            s.route_unit(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(50)),
            UnitDecision::Unavailable
        );
    }

    #[test]
    fn never_when_no_path() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        let mut s = WaterfillingScheme::new();
        assert_eq!(
            s.route_unit(&g, &g, NodeId(0), NodeId(2), Amount::ONE),
            UnitDecision::Never
        );
    }

    #[test]
    fn spreads_units_across_paths_as_balances_drain() {
        // Simulate draining: send repeatedly, manually debiting an overlay.
        let g = ring_with_chord();
        let mut s = WaterfillingScheme::with_paths(4);
        let mut overlay = crate::scheme::BalanceOverlay::new(&g);
        let mut used_paths: std::collections::HashSet<Vec<NodeId>> = Default::default();
        for _ in 0..8 {
            match s.route_unit(&g, &overlay, NodeId(0), NodeId(3), Amount::from_whole(1)) {
                UnitDecision::Route(p) => {
                    overlay.debit_path(&p, Amount::from_whole(1));
                    used_paths.insert(p.nodes().to_vec());
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(
            used_paths.len() >= 2,
            "waterfilling should spread over multiple paths, used {used_paths:?}"
        );
        // Sanity: all used paths are valid.
        for nodes in &used_paths {
            Path::new(&g, nodes.clone()).unwrap();
        }
    }
}
