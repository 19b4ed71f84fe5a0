//! Spider (LP): routing driven by an offline fluid-LP solution (§6.1).
//!
//! The controller solves the balanced-routing LP (eqs. (1)–(5)) once against
//! an estimated demand matrix and uses the optimal path flows as *weights*:
//! each pair's transaction units are spread across its candidate paths in
//! proportion to the LP rates, via deterministic deficit-round-robin.
//! Pairs the LP assigned zero rate are never attempted — exactly the
//! behaviour (and limitation) the paper reports for Spider (LP).

use crate::paths::path_bottleneck;
use crate::scheme::{RoutingScheme, SchemeKind, UnitDecision};
use spider_core::{
    Amount, BalanceView, CoreError, Dec, DemandMatrix, Enc, Network, NodeId, PairTable, Path,
};
use spider_opt::fluid::FluidProblem;
use spider_opt::primal_dual::{self, PrimalDualConfig};

/// Minimum LP rate (tokens/sec) for a path to participate in routing.
const WEIGHT_FLOOR: f64 = 1e-6;

/// Per-pair weighted path set with deficit-round-robin state.
#[derive(Clone, Debug)]
struct PairPlan {
    paths: Vec<std::sync::Arc<Path>>,
    weights: Vec<f64>,
    credits: Vec<f64>,
}

/// The Spider (LP) routing scheme.
#[derive(Clone, Debug)]
pub struct LpScheme {
    plans: PairTable<PairPlan>,
}

impl LpScheme {
    /// Builds the scheme from candidate paths and their optimal flows
    /// (aligned slices, as returned by the fluid solvers).
    pub fn from_flows(paths: &[Path], flows: &[f64]) -> Self {
        assert_eq!(paths.len(), flows.len(), "paths and flows must align");
        let mut plans: PairTable<PairPlan> = PairTable::new();
        for (p, &w) in paths.iter().zip(flows) {
            if w < WEIGHT_FLOOR {
                continue;
            }
            let plan = plans.entry_or_insert_with(p.source(), p.dest(), || PairPlan {
                paths: Vec::new(),
                weights: Vec::new(),
                credits: Vec::new(),
            });
            plan.paths.push(std::sync::Arc::new(p.clone()));
            plan.weights.push(w);
            plan.credits.push(0.0);
        }
        LpScheme { plans }
    }

    /// Solves the balanced fluid LP exactly (dense simplex) and builds the
    /// scheme from the optimum. Suitable for small/medium instances.
    pub fn solve_exact(
        network: &Network,
        demand: &DemandMatrix,
        paths: &[Path],
        delta: f64,
    ) -> Self {
        let sol = FluidProblem::new(network, demand, paths, delta).max_balanced_throughput();
        Self::from_flows(paths, &sol.path_flows)
    }

    /// Solves the balanced fluid LP approximately with the decentralized
    /// primal-dual algorithm (scales to instances too large for the dense
    /// simplex) and builds the scheme from the result.
    pub fn solve_decentralized(
        network: &Network,
        demand: &DemandMatrix,
        paths: &[Path],
        delta: f64,
        config: &PrimalDualConfig,
    ) -> Self {
        let sol = primal_dual::solve(network, demand, paths, delta, config);
        Self::from_flows(paths, &sol.path_flows)
    }

    /// Number of pairs with at least one positively weighted path.
    pub fn active_pairs(&self) -> usize {
        self.plans.len()
    }
}

impl RoutingScheme for LpScheme {
    fn name(&self) -> &'static str {
        "spider-lp"
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::PacketSwitched
    }

    fn route_unit(
        &mut self,
        _network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
    ) -> UnitDecision {
        let Some(plan) = self.plans.get_mut(src, dst) else {
            // The LP assigned this commodity zero flow.
            return UnitDecision::Never;
        };
        // Deficit round-robin: top up credits proportionally to the LP
        // weights, then send on the highest-credit path with capacity.
        let total: f64 = plan.weights.iter().sum();
        for (c, w) in plan.credits.iter_mut().zip(&plan.weights) {
            *c += w / total;
        }
        // Candidate order: decreasing credit (deterministic tie-break on index).
        let mut order: Vec<usize> = (0..plan.paths.len()).collect();
        order.sort_by(|&i, &j| plan.credits[j].total_cmp(&plan.credits[i]).then(i.cmp(&j)));
        for &i in &order {
            if path_bottleneck(balances, &plan.paths[i]) >= unit {
                plan.credits[i] -= 1.0;
                return UnitDecision::Route(plan.paths[i].clone());
            }
        }
        UnitDecision::Unavailable
    }

    /// The deficit-round-robin credits, the one thing routing changes: a
    /// `u64` plan count, then per plan in `(src, dst)` order a seq of its
    /// paths' credits as `f64`s. The paths and weights are the LP solution,
    /// which the resumed run solves again.
    fn checkpoint_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        e.usize(self.plans.len());
        for (_, _, plan) in self.plans.iter() {
            e.seq(&plan.credits, |e, &c| e.f64(c));
        }
        Some(e.into_bytes())
    }

    /// Restores the credits [`checkpoint_state`](Self::checkpoint_state)
    /// wrote. Bytes that do not match this scheme's plans — another plan or
    /// path count, a non-finite credit, bytes past the end — are refused
    /// before any credit changes.
    fn restore_state(&mut self, _network: &Network, bytes: &[u8]) -> Result<(), CoreError> {
        let refuse = |what: String| CoreError::Internal(format!("LP credits restore: {what}"));
        let mut d = Dec::new(bytes);
        let plans = d.usize().map_err(|e| refuse(e.to_string()))?;
        if plans != self.plans.len() {
            return Err(refuse(format!(
                "{plans} plans, the scheme has {}",
                self.plans.len()
            )));
        }
        let mut credits = Vec::with_capacity(plans);
        for (src, dst, plan) in self.plans.iter() {
            let read = d.seq(|d| d.f64()).map_err(|e| refuse(e.to_string()))?;
            if read.len() != plan.paths.len() || !read.iter().all(|c| c.is_finite()) {
                return Err(refuse(format!(
                    "pair ({}, {}): {} credits for {} paths, or one not finite",
                    src.0,
                    dst.0,
                    read.len(),
                    plan.paths.len()
                )));
            }
            credits.push((src, dst, read));
        }
        d.expect_end().map_err(|e| refuse(e.to_string()))?;
        for (src, dst, read) in credits {
            if let Some(plan) = self.plans.get_mut(src, dst) {
                plan.credits = read;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::Amount;
    use spider_opt::fluid::enumerate_demand_paths;

    fn fig4_network() -> Network {
        let mut g = Network::new(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)] {
            g.add_channel(NodeId(a), NodeId(b), Amount::from_tokens(1e6))
                .unwrap();
        }
        g
    }

    #[test]
    fn circulation_pairs_routable_and_rates_capped() {
        let g = fig4_network();
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 5);
        let mut scheme = LpScheme::solve_exact(&g, &demand, &paths, 1.0);
        // The optimum routes the circulation (value 8 of 12): every pair
        // with positive LP rate must be routable right now on the fresh
        // network.
        let mut routable = 0;
        for (s, d, _) in demand.entries() {
            if let UnitDecision::Route(_) = scheme.route_unit(&g, &g, s, d, Amount::from_micros(1))
            {
                routable += 1;
            }
        }
        assert!(
            routable >= 5,
            "most circulation pairs routable, got {routable}"
        );
        assert!(scheme.active_pairs() <= demand.len());
    }

    #[test]
    fn pure_dag_demand_is_never_attempted() {
        // A one-way demand gets zero LP rate (no circulation), so the LP
        // scheme must answer `Never` — the paper's reported limitation.
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(1000))
            .unwrap();
        let mut demand = DemandMatrix::new();
        demand.set(NodeId(0), NodeId(1), 5.0);
        let paths = enumerate_demand_paths(&g, &demand, 2);
        let mut scheme = LpScheme::solve_exact(&g, &demand, &paths, 1.0);
        assert_eq!(scheme.active_pairs(), 0);
        assert_eq!(
            scheme.route_unit(&g, &g, NodeId(0), NodeId(1), Amount::ONE),
            UnitDecision::Never
        );
    }

    #[test]
    fn unknown_pair_is_never() {
        let g = fig4_network();
        let scheme_paths: Vec<Path> = Vec::new();
        let mut scheme = LpScheme::from_flows(&scheme_paths, &[]);
        assert_eq!(
            scheme.route_unit(&g, &g, NodeId(0), NodeId(2), Amount::ONE),
            UnitDecision::Never
        );
    }

    #[test]
    fn drr_spreads_proportionally() {
        // Two parallel 2-hop paths with weights 3:1.
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(1000))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(3), Amount::from_whole(1000))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(2), Amount::from_whole(1000))
            .unwrap();
        g.add_channel(NodeId(2), NodeId(3), Amount::from_whole(1000))
            .unwrap();
        let p1 = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(3)]).unwrap();
        let p2 = Path::new(&g, vec![NodeId(0), NodeId(2), NodeId(3)]).unwrap();
        let mut scheme = LpScheme::from_flows(&[p1.clone(), p2.clone()], &[3.0, 1.0]);
        let mut count1 = 0;
        for _ in 0..400 {
            match scheme.route_unit(&g, &g, NodeId(0), NodeId(3), Amount::from_micros(1)) {
                UnitDecision::Route(p) => {
                    if p.nodes() == p1.nodes() {
                        count1 += 1;
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(
            (295..=305).contains(&count1),
            "expected ~300/400 on the 3-weight path, got {count1}"
        );
    }

    /// A scheme restored from a checkpoint routes the next units exactly as
    /// the one that wrote it, and bytes for other plans are refused.
    #[test]
    fn credits_survive_a_checkpoint_and_foreign_bytes_are_refused() {
        let mut g = Network::new(4);
        for (a, b) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            g.add_channel(NodeId(a), NodeId(b), Amount::from_whole(1000))
                .unwrap();
        }
        let p1 = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(3)]).unwrap();
        let p2 = Path::new(&g, vec![NodeId(0), NodeId(2), NodeId(3)]).unwrap();
        let build = || LpScheme::from_flows(&[p1.clone(), p2.clone()], &[3.0, 1.0]);
        let next = |s: &mut LpScheme| match s.route_unit(&g, &g, NodeId(0), NodeId(3), Amount::ONE)
        {
            UnitDecision::Route(p) => p.nodes().to_vec(),
            other => panic!("{other:?}"),
        };
        let mut straight = build();
        for _ in 0..5 {
            next(&mut straight);
        }
        let bytes = straight.checkpoint_state().unwrap();
        let mut resumed = build();
        resumed.restore_state(&g, &bytes).unwrap();
        for _ in 0..8 {
            assert_eq!(next(&mut resumed), next(&mut straight));
        }

        let credits = |values: &[f64]| {
            let mut e = Enc::new();
            e.usize(1);
            e.seq(values, |e, &c| e.f64(c));
            e.into_bytes()
        };
        let mut padded = bytes.clone();
        padded.push(0);
        for (label, bad) in [
            ("no plan", vec![0; 8]),
            ("one path", credits(&[0.5])),
            ("three paths", credits(&[0.5, 0.5, 0.5])),
            ("nan", credits(&[0.5, f64::NAN])),
            ("infinite", credits(&[f64::INFINITY, 0.5])),
            ("padded", padded),
            ("empty", Vec::new()),
        ] {
            let mut scheme = build();
            assert!(scheme.restore_state(&g, &bad).is_err(), "{label}");
            assert_eq!(
                scheme.checkpoint_state(),
                build().checkpoint_state(),
                "{label}"
            );
        }
    }

    #[test]
    fn falls_back_to_lower_weight_path_when_drained() {
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(1))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(3), Amount::from_whole(1))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(2), Amount::from_whole(1000))
            .unwrap();
        g.add_channel(NodeId(2), NodeId(3), Amount::from_whole(1000))
            .unwrap();
        let p1 = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(3)]).unwrap();
        let p2 = Path::new(&g, vec![NodeId(0), NodeId(2), NodeId(3)]).unwrap();
        let mut scheme = LpScheme::from_flows(&[p1, p2.clone()], &[100.0, 1.0]);
        // A 2-token unit cannot fit the 0.5-per-side preferred path.
        match scheme.route_unit(&g, &g, NodeId(0), NodeId(3), Amount::from_whole(2)) {
            UnitDecision::Route(p) => assert_eq!(p.nodes(), p2.nodes()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exact_and_decentralized_agree_on_active_pairs() {
        let g = fig4_network();
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 5);
        let exact = LpScheme::solve_exact(&g, &demand, &paths, 1.0);
        let config = PrimalDualConfig {
            max_iters: 20_000,
            ..Default::default()
        };
        let approx = LpScheme::solve_decentralized(&g, &demand, &paths, 1.0, &config);
        assert!(exact.active_pairs() > 0);
        assert!(approx.active_pairs() > 0);
        // The approximate solution should activate at least the circulation
        // pairs the exact one does (it may keep a few near-zero extras).
        assert!(approx.active_pairs() + 2 >= exact.active_pairs());
    }
}
