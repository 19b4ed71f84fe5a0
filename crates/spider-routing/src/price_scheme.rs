//! Online price-based routing: the §5.3 primal-dual algorithm running
//! *live* inside the network rather than as an offline solve.
//!
//! §5.3.1: "routers have to dynamically estimate the rate over their
//! payment channels from the transactions that they encounter. The source
//! nodes, whenever they have to send transactions, query for the path
//! prices, and adapt the rate on each path based on these prices."
//!
//! Each channel direction keeps a capacity price `λ` and an imbalance price
//! `μ` (eqs. (23)–(24)), updated from the traffic the scheme itself routes
//! over sliding windows of `window` units. A transaction unit is sent on
//! the *cheapest* candidate path (`z_p = Σ λ + μ_fwd − μ_rev`, eq. (20))
//! that can fund it — steering traffic toward rebalancing channels without
//! any offline demand estimate, and adapting when the demand shifts (the
//! failure mode of the offline Spider LP on non-stationary workloads).

use crate::paths::{path_bottleneck, PathCache, PathStrategy};
use crate::scheme::{RoutingScheme, SchemeKind, UnitDecision};
use spider_core::{Amount, BalanceView, Direction, Network, NodeId};

/// Candidate paths per pair (edge-disjoint shortest).
const NUM_PATHS: usize = 4;
/// Units per measurement window before a dual update.
const WINDOW: u64 = 256;
/// Capacity-price step `η` (eq. 23).
const ETA: f64 = 0.02;
/// Imbalance-price step `κ` (eq. 24).
const KAPPA: f64 = 0.05;
/// Nominal per-window capacity budget per channel, as a fraction of the
/// channel's total funds (stands in for `c/Δ` in unit-count space).
const CAPACITY_FRACTION: f64 = 0.5;

/// The online price-based routing scheme.
#[derive(Debug)]
pub struct PriceScheme {
    cache: PathCache,
    /// λ per channel (capacity price).
    lambda: Vec<f64>,
    /// μ per channel direction (imbalance price).
    mu: Vec<[f64; 2]>,
    /// Value routed per channel direction in the current window (tokens).
    window_flow: Vec<[f64; 2]>,
    units_in_window: u64,
    initialized: bool,
}

impl PriceScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        PriceScheme {
            cache: PathCache::new(PathStrategy::EdgeDisjoint(NUM_PATHS)),
            lambda: Vec::new(),
            mu: Vec::new(),
            window_flow: Vec::new(),
            units_in_window: 0,
            initialized: false,
        }
    }

    fn ensure_state(&mut self, network: &Network) {
        if !self.initialized {
            let n = network.num_channels();
            self.lambda = vec![0.0; n];
            self.mu = vec![[0.0; 2]; n];
            self.window_flow = vec![[0.0; 2]; n];
            self.initialized = true;
        }
    }

    fn slot(d: Direction) -> usize {
        match d {
            Direction::AtoB => 0,
            Direction::BtoA => 1,
        }
    }

    /// Dual update at the end of a measurement window (eqs. 23–24, with
    /// rates replaced by per-window token counts).
    fn update_prices(&mut self, network: &Network) {
        for ch in network.channels() {
            let e = ch.id.index();
            let cap_budget = ch.capacity().as_tokens() * CAPACITY_FRACTION;
            let fwd = self.window_flow[e][0];
            let rev = self.window_flow[e][1];
            self.lambda[e] =
                (self.lambda[e] + ETA * ((fwd + rev) - cap_budget) / cap_budget.max(1.0)).max(0.0);
            self.mu[e][0] = (self.mu[e][0] + KAPPA * (fwd - rev) / cap_budget.max(1.0)).max(0.0);
            self.mu[e][1] = (self.mu[e][1] + KAPPA * (rev - fwd) / cap_budget.max(1.0)).max(0.0);
            self.window_flow[e] = [0.0; 2];
        }
    }

    /// Current price of a channel direction (for diagnostics/tests).
    pub fn channel_price(&self, channel: spider_core::ChannelId, dir: Direction) -> f64 {
        if !self.initialized {
            return 0.0;
        }
        let e = channel.index();
        self.lambda[e] + self.mu[e][Self::slot(dir)] - self.mu[e][1 - Self::slot(dir)]
    }
}

impl Default for PriceScheme {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingScheme for PriceScheme {
    fn name(&self) -> &'static str {
        "spider-prices"
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
        self.ensure_state(network);
        // Split borrows: the cache needs &mut self, the price tables &self.
        let (lambda, mu) = (&self.lambda, &self.mu);
        let price_of = |p: &spider_core::Path| -> f64 {
            p.hops()
                .iter()
                .map(|&(c, d)| {
                    let e = c.index();
                    lambda[e] + mu[e][Self::slot(d)] - mu[e][1 - Self::slot(d)]
                })
                .sum()
        };
        let paths = self.cache.paths(network, src, dst);
        if paths.is_empty() {
            return UnitDecision::Never;
        }
        // Cheapest fundable path; ties toward fewer hops then first listed.
        let mut best: Option<(f64, usize)> = None;
        for (i, p) in paths.iter().enumerate() {
            if path_bottleneck(balances, p) < unit {
                continue;
            }
            let price = price_of(p);
            let better = match best {
                None => true,
                Some((bp, bi)) => {
                    price < bp - 1e-12 || ((price - bp).abs() <= 1e-12 && p.len() < paths[bi].len())
                }
            };
            if better {
                best = Some((price, i));
            }
        }
        let Some((_, i)) = best else {
            return UnitDecision::Unavailable;
        };
        let chosen = paths[i].clone();
        // Record the routed value for the window estimate.
        for &(c, d) in chosen.hops() {
            self.window_flow[c.index()][Self::slot(d)] += unit.as_tokens();
        }
        self.units_in_window += 1;
        if self.units_in_window >= WINDOW {
            self.units_in_window = 0;
            self.update_prices(network);
        }
        UnitDecision::Route(chosen)
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
        let mut e = spider_core::Enc::new();
        e.bool(self.initialized);
        e.u64(self.units_in_window);
        e.seq(&self.lambda, |e, v| e.f64(*v));
        e.seq(&self.mu, |e, m| {
            e.f64(m[0]);
            e.f64(m[1]);
        });
        e.seq(&self.window_flow, |e, m| {
            e.f64(m[0]);
            e.f64(m[1]);
        });
        e.bytes(&self.cache.checkpoint());
        Some(e.into_bytes())
    }

    fn restore_state(
        &mut self,
        network: &Network,
        bytes: &[u8],
    ) -> Result<(), spider_core::CoreError> {
        let internal = |e: spider_core::BinError| spider_core::CoreError::Internal(format!("{e}"));
        let mut d = spider_core::Dec::new(bytes);
        self.initialized = d.bool().map_err(internal)?;
        self.units_in_window = d.u64().map_err(internal)?;
        self.lambda = d.seq(|d| d.f64()).map_err(internal)?;
        self.mu = d.seq(|d| Ok([d.f64()?, d.f64()?])).map_err(internal)?;
        self.window_flow = d.seq(|d| Ok([d.f64()?, d.f64()?])).map_err(internal)?;
        let n = network.num_channels();
        if self.initialized
            && (self.lambda.len() != n || self.mu.len() != n || self.window_flow.len() != n)
        {
            return Err(spider_core::CoreError::Internal(format!(
                "price state covers {} channels, network has {n}",
                self.lambda.len()
            )));
        }
        let cache_bytes = d.bytes().map_err(internal)?.to_vec();
        d.expect_end().map_err(internal)?;
        self.cache
            .restore(network, &cache_bytes)
            .map_err(|e| spider_core::CoreError::Internal(format!("path cache restore: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::Network;

    /// Ring of 6 plus chord 0-3.
    fn ring_with_chord() -> Network {
        let mut g = Network::new(6);
        for i in 0..6u32 {
            g.add_channel(NodeId(i), NodeId((i + 1) % 6), Amount::from_whole(1000))
                .unwrap();
        }
        g.add_channel(NodeId(0), NodeId(3), Amount::from_whole(1000))
            .unwrap();
        g
    }

    #[test]
    fn routes_on_cheapest_path_initially_shortest() {
        let g = ring_with_chord();
        let mut s = PriceScheme::new();
        match s.route_unit(&g, &g, NodeId(0), NodeId(3), Amount::ONE) {
            UnitDecision::Route(p) => assert_eq!(p.len(), 1, "all prices 0 -> shortest"),
            other => panic!("{other:?}"),
        }
    }

    /// Routes `n` one-token units from `src` to `dst` under the network's
    /// own balances and returns each chosen path's hop count.
    fn route_units(s: &mut PriceScheme, g: &Network, src: u32, dst: u32, n: u64) -> Vec<usize> {
        (0..n)
            .map(
                |_| match s.route_unit(g, g, NodeId(src), NodeId(dst), Amount::ONE) {
                    UnitDecision::Route(p) => p.len(),
                    other => panic!("{other:?}"),
                },
            )
            .collect()
    }

    #[test]
    fn imbalance_price_rises_on_one_way_traffic() {
        let g = ring_with_chord();
        let mut s = PriceScheme::new();
        let chord = g.channel_between(NodeId(0), NodeId(3)).unwrap().id;
        let dir = g.channel(chord).try_direction_from(NodeId(0)).unwrap();
        route_units(&mut s, &g, 0, 3, WINDOW);
        assert_eq!(s.units_in_window, 0, "the window closed: a dual update ran");
        assert!(
            s.channel_price(chord, dir) > 0.0,
            "one-way chord traffic must be priced, got {}",
            s.channel_price(chord, dir)
        );
        // The reverse direction must look *attractive* (negative net price
        // relative to forward).
        assert!(s.channel_price(chord, dir.reverse()) < 0.0);
    }

    #[test]
    fn traffic_shifts_away_from_priced_path() {
        let g = ring_with_chord();
        let mut s = PriceScheme::new();
        let hops = route_units(&mut s, &g, 0, 3, 2 * WINDOW);
        let (before, after) = hops.split_at(WINDOW as usize);
        assert!(
            before.iter().all(|&h| h == 1),
            "every price is 0 until the first dual update, so the chord wins"
        );
        assert!(
            after.iter().any(|&h| h > 1),
            "rising chord prices must push some units onto ring paths"
        );
    }

    #[test]
    fn opposing_traffic_keeps_prices_low() {
        let g = ring_with_chord();
        let chord = g.channel_between(NodeId(0), NodeId(3)).unwrap().id;
        let mut s = PriceScheme::new();
        for _ in 0..WINDOW {
            route_units(&mut s, &g, 0, 3, 1);
            route_units(&mut s, &g, 3, 0, 1);
        }
        assert_eq!(s.units_in_window, 0, "two windows closed: dual updates ran");
        // One window of one-way chord traffic sets the price balanced
        // traffic must stay below.
        let mut one_way = PriceScheme::new();
        route_units(&mut one_way, &g, 0, 3, WINDOW);
        let priced = one_way.channel_price(chord, Direction::AtoB);
        let fwd = s.channel_price(chord, Direction::AtoB);
        let rev = s.channel_price(chord, Direction::BtoA);
        assert!(
            fwd.abs() < priced && rev.abs() < priced,
            "balanced traffic keeps imbalance prices near zero: {fwd} / {rev} vs {priced}"
        );
    }

    #[test]
    fn never_without_a_path() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        let mut s = PriceScheme::new();
        assert_eq!(
            s.route_unit(&g, &g, NodeId(0), NodeId(2), Amount::ONE),
            UnitDecision::Never
        );
    }

    #[test]
    fn unavailable_when_unfundable() {
        let g = ring_with_chord();
        let mut s = PriceScheme::new();
        assert_eq!(
            s.route_unit(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(10_000)),
            UnitDecision::Unavailable
        );
    }
}
