//! Packet-switched shortest-path routing — the paper's baseline for its own
//! architecture ("shortest-path routing with non-atomic payments", §6.1).

use crate::paths::{path_bottleneck, PathCache, PathStrategy};
use crate::scheme::{RoutingScheme, SchemeKind, UnitDecision};
use spider_core::{Amount, BalanceView, ChannelId, Direction, Network, NodeId};

/// Routes every transaction unit on the (cached) BFS shortest path.
#[derive(Debug)]
pub struct ShortestPathScheme {
    cache: PathCache,
}

impl ShortestPathScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        ShortestPathScheme {
            cache: PathCache::new(PathStrategy::Shortest),
        }
    }
}

impl Default for ShortestPathScheme {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingScheme for ShortestPathScheme {
    fn name(&self) -> &'static str {
        "shortest-path"
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
        let Some(path) = paths.first() else {
            return UnitDecision::Never;
        };
        if path_bottleneck(balances, path) >= unit {
            UnitDecision::Route(std::sync::Arc::clone(path))
        } else {
            UnitDecision::Unavailable
        }
    }

    fn blockers(
        &self,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
        out: &mut Vec<(ChannelId, Direction)>,
    ) -> bool {
        self.cache.blockers(balances, src, dst, unit, out)
    }

    fn count_skipped(&mut self, asks: u64) {
        self.cache.count_lookups(asks);
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
    use spider_core::Path;

    fn line3() -> Network {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(10))
            .unwrap();
        g
    }

    #[test]
    fn routes_on_shortest_path() {
        let g = line3();
        let mut s = ShortestPathScheme::new();
        match s.route_unit(&g, &g, NodeId(0), NodeId(2), Amount::ONE) {
            UnitDecision::Route(p) => {
                assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
            }
            other => panic!("expected route, got {other:?}"),
        }
    }

    #[test]
    fn unavailable_when_unit_exceeds_bottleneck() {
        let g = line3();
        let mut s = ShortestPathScheme::new();
        // Each side holds 5; a 6-token unit cannot pass.
        assert_eq!(
            s.route_unit(&g, &g, NodeId(0), NodeId(2), Amount::from_whole(6)),
            UnitDecision::Unavailable
        );
    }

    #[test]
    fn never_for_disconnected_pair() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        let mut s = ShortestPathScheme::new();
        assert_eq!(
            s.route_unit(&g, &g, NodeId(0), NodeId(2), Amount::ONE),
            UnitDecision::Never
        );
    }

    #[test]
    fn respects_live_balances() {
        // A custom view where one direction is drained.
        struct Drained<'a>(&'a Network);
        impl BalanceView for Drained<'_> {
            fn available(&self, c: spider_core::ChannelId, from: NodeId) -> Amount {
                if from == NodeId(1) {
                    Amount::ZERO
                } else {
                    self.0.available(c, from)
                }
            }
        }
        let g = line3();
        let mut s = ShortestPathScheme::new();
        let v = Drained(&g);
        assert_eq!(
            s.route_unit(&g, &v, NodeId(0), NodeId(2), Amount::ONE),
            UnitDecision::Unavailable
        );
        // Sanity: path objects remain valid trails.
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(p.len(), 2);
    }
}
