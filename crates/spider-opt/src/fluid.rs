//! The paper's fluid-model routing LPs (§5.2).
//!
//! Transactions between pairs are modeled as continuous flows `x_p` over a
//! candidate path set; channels constrain both total rate (capacity `c_e/Δ`)
//! and direction balance. Three variants are provided:
//!
//! - [`FluidProblem::max_balanced_throughput`] — eqs. (1)–(5): perfect
//!   balance, no on-chain rebalancing;
//! - [`FluidProblem::with_rebalancing`] — eqs. (6)–(11): rebalancing allowed
//!   at cost `γ` per unit rate;
//! - [`FluidProblem::with_rebalancing_budget`] — eqs. (12)–(18): total
//!   rebalancing rate capped at `B`, yielding the concave frontier `t(B)`.
//!
//! All three are solved exactly with the dense simplex of
//! [`crate::simplex`].

use crate::simplex::{LinearProgram, LpOutcome, Relation};
use spider_core::{ChannelId, DemandMatrix, Direction, Network, NodeId, Path};
use std::collections::BTreeMap;

/// A fluid-model routing instance: network, demand, candidate paths, and the
/// average confirmation latency `Δ` (seconds).
#[derive(Clone, Debug)]
pub struct FluidProblem<'a> {
    network: &'a Network,
    demand: &'a DemandMatrix,
    paths: &'a [Path],
    delta: f64,
    /// Path indices grouped per (src, dst) pair, demand-bearing pairs only.
    pair_paths: BTreeMap<(NodeId, NodeId), Vec<usize>>,
}

/// Solution of a fluid-model LP.
#[derive(Clone, Debug)]
pub struct FluidSolution {
    /// Flow on each candidate path, aligned with the problem's path slice.
    pub path_flows: Vec<f64>,
    /// On-chain rebalancing rates `b` per channel and direction (empty for
    /// the balanced variant).
    pub rebalancing: Vec<(ChannelId, Direction, f64)>,
    /// Total delivered rate `Σ x_p` (tokens/second).
    pub throughput: f64,
    /// LP objective value (equals `throughput` unless rebalancing is priced).
    pub objective: f64,
}

impl FluidSolution {
    /// Total on-chain rebalancing rate `B = Σ b`.
    pub fn total_rebalancing(&self) -> f64 {
        self.rebalancing.iter().map(|&(_, _, b)| b).sum()
    }
}

impl<'a> FluidProblem<'a> {
    /// Builds a fluid problem. Paths whose endpoints carry no demand are
    /// ignored; demand pairs with no candidate path simply get zero rate.
    ///
    /// # Panics
    /// Panics if `delta <= 0`.
    pub fn new(
        network: &'a Network,
        demand: &'a DemandMatrix,
        paths: &'a [Path],
        delta: f64,
    ) -> Self {
        assert!(delta > 0.0, "Δ must be positive");
        let mut pair_paths: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        for (i, p) in paths.iter().enumerate() {
            let key = (p.source(), p.dest());
            if demand.rate(key.0, key.1) > 0.0 {
                pair_paths.entry(key).or_default().push(i);
            }
        }
        FluidProblem {
            network,
            demand,
            paths,
            delta,
            pair_paths,
        }
    }

    /// The candidate path slice this problem was built over.
    pub fn paths(&self) -> &[Path] {
        self.paths
    }

    /// eqs. (1)–(5): maximum throughput under perfect balance.
    pub fn max_balanced_throughput(&self) -> FluidSolution {
        self.solve_objective(RebalanceMode::None, None)
    }

    /// eqs. (6)–(11): throughput minus `γ ·` total rebalancing rate.
    pub fn with_rebalancing(&self, gamma: f64) -> FluidSolution {
        assert!(gamma >= 0.0, "γ must be non-negative");
        self.solve_objective(RebalanceMode::Priced { gamma }, None)
    }

    /// eqs. (12)–(18): maximum throughput with total rebalancing `≤ budget`.
    pub fn with_rebalancing_budget(&self, budget: f64) -> FluidSolution {
        assert!(budget >= 0.0, "B must be non-negative");
        self.solve_objective(RebalanceMode::Budget { budget }, None)
    }

    /// Samples the frontier `t(B)` at the given budgets.
    pub fn throughput_curve(&self, budgets: &[f64]) -> Vec<(f64, f64)> {
        budgets
            .iter()
            .map(|&b| (b, self.with_rebalancing_budget(b).throughput))
            .collect()
    }

    fn solve_objective(&self, mode: RebalanceMode, weights: Option<&[f64]>) -> FluidSolution {
        let num_paths = self.paths.len();
        let with_b = !matches!(mode, RebalanceMode::None);
        // Variable layout: x_p for p in 0..num_paths, then (if rebalancing)
        // b_{e,dir} with 2 per channel: index num_paths + 2*e + {0:AtoB, 1:BtoA}.
        let num_channels = self.network.num_channels();
        let num_vars = num_paths + if with_b { 2 * num_channels } else { 0 };
        let b_var = |c: ChannelId, d: Direction| {
            num_paths
                + 2 * c.index()
                + match d {
                    Direction::AtoB => 0,
                    Direction::BtoA => 1,
                }
        };

        let mut lp = LinearProgram::new(num_vars);

        // Objective: unit weight per path unless custom weights are given.
        let mut obj: Vec<(usize, f64)> = Vec::with_capacity(num_vars);
        for ids in self.pair_paths.values() {
            for &i in ids {
                obj.push((i, weights.map_or(1.0, |w| w[i])));
            }
        }
        if let RebalanceMode::Priced { gamma } = mode {
            for c in 0..num_channels {
                obj.push((num_paths + 2 * c, -gamma));
                obj.push((num_paths + 2 * c + 1, -gamma));
            }
        }
        lp.set_objective(&obj);

        // Demand constraints: Σ_{p ∈ P_ij} x_p ≤ d_ij.
        for (&(s, d), ids) in &self.pair_paths {
            let coeffs: Vec<(usize, f64)> = ids.iter().map(|&i| (i, 1.0)).collect();
            lp.add_constraint(&coeffs, Relation::Le, self.demand.rate(s, d));
        }

        // Per-channel usage in each direction.
        let mut usage: Vec<[Vec<usize>; 2]> = vec![[Vec::new(), Vec::new()]; num_channels];
        for ids in self.pair_paths.values() {
            for &i in ids {
                for &(c, dir) in self.paths[i].hops() {
                    let slot = match dir {
                        Direction::AtoB => 0,
                        Direction::BtoA => 1,
                    };
                    usage[c.index()][slot].push(i);
                }
            }
        }

        for ch in self.network.channels() {
            let e = ch.id.index();
            let cap = ch.capacity().as_tokens() / self.delta;
            // Capacity (3)/(8)/(14): total rate in both directions ≤ c/Δ.
            let mut cap_coeffs: Vec<(usize, f64)> = Vec::new();
            for &i in usage[e][0].iter().chain(usage[e][1].iter()) {
                cap_coeffs.push((i, 1.0));
            }
            if !cap_coeffs.is_empty() {
                lp.add_constraint(&cap_coeffs, Relation::Le, cap);
            }
            // Balance (4)/(9)/(15), one per direction:
            //   flow(dir) - flow(rev) ≤ b_{e,dir}   (b ≡ 0 when not rebalancing)
            for (slot, dir) in [(0usize, Direction::AtoB), (1usize, Direction::BtoA)] {
                let rev = 1 - slot;
                if usage[e][slot].is_empty() && usage[e][rev].is_empty() && !with_b {
                    continue;
                }
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for &i in &usage[e][slot] {
                    coeffs.push((i, 1.0));
                }
                for &i in &usage[e][rev] {
                    coeffs.push((i, -1.0));
                }
                if with_b {
                    coeffs.push((b_var(ch.id, dir), -1.0));
                }
                if !coeffs.is_empty() {
                    lp.add_constraint(&coeffs, Relation::Le, 0.0);
                }
            }
        }

        // Budget (16): Σ b ≤ B.
        if let RebalanceMode::Budget { budget } = mode {
            let coeffs: Vec<(usize, f64)> = (num_paths..num_vars).map(|j| (j, 1.0)).collect();
            lp.add_constraint(&coeffs, Relation::Le, budget);
        }

        let sol = match lp.solve() {
            LpOutcome::Optimal(s) => s,
            // x = 0 (and b = 0) is always feasible, and throughput is capped
            // by total demand, so neither case is reachable.
            other => unreachable!("fluid LP must be solvable: {other:?}"),
        };

        let path_flows: Vec<f64> = sol.x[..num_paths].to_vec();
        let throughput = path_flows.iter().sum();
        let mut rebalancing = Vec::new();
        if with_b {
            for ch in self.network.channels() {
                for dir in [Direction::AtoB, Direction::BtoA] {
                    let b = sol.x[b_var(ch.id, dir)];
                    if b > 1e-9 {
                        rebalancing.push((ch.id, dir, b));
                    }
                }
            }
        }
        FluidSolution {
            path_flows,
            rebalancing,
            throughput,
            objective: sol.objective,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum RebalanceMode {
    None,
    Priced { gamma: f64 },
    Budget { budget: f64 },
}

/// Enumerates all simple paths between `src` and `dst` with at most
/// `max_hops` hops — a convenient exhaustive path set for small fluid
/// instances (the Fig. 4 example, unit tests).
pub fn enumerate_paths(network: &Network, src: NodeId, dst: NodeId, max_hops: usize) -> Vec<Path> {
    let mut out = Vec::new();
    let mut stack = vec![src];
    let mut on_stack = vec![false; network.num_nodes()];
    on_stack[src.index()] = true;
    fn dfs(
        network: &Network,
        dst: NodeId,
        max_hops: usize,
        stack: &mut Vec<NodeId>,
        on_stack: &mut [bool],
        out: &mut Vec<Path>,
    ) {
        let u = *stack.last().unwrap();
        if u == dst {
            out.push(Path::new(network, stack.clone()).expect("DFS builds valid simple paths"));
            return;
        }
        if stack.len() > max_hops {
            return;
        }
        for &(v, _) in network.neighbors(u) {
            if !on_stack[v.index()] {
                on_stack[v.index()] = true;
                stack.push(v);
                dfs(network, dst, max_hops, stack, on_stack, out);
                stack.pop();
                on_stack[v.index()] = false;
            }
        }
    }
    dfs(network, dst, max_hops, &mut stack, &mut on_stack, &mut out);
    out
}

/// Builds the exhaustive candidate path set (simple paths up to `max_hops`)
/// for every demand-bearing pair.
pub fn enumerate_demand_paths(
    network: &Network,
    demand: &DemandMatrix,
    max_hops: usize,
) -> Vec<Path> {
    let mut all = Vec::new();
    for (s, d, _) in demand.entries() {
        all.extend(enumerate_paths(network, s, d, max_hops));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::Amount;

    /// The Fig. 4 topology (0-based): ring 0-1-2-3-4-0 plus chord 1-3.
    fn fig4_network(capacity: f64) -> Network {
        let mut g = Network::new(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)] {
            g.add_channel(NodeId(a), NodeId(b), Amount::from_tokens(capacity))
                .unwrap();
        }
        g
    }

    #[test]
    fn fig4_optimal_balanced_throughput_is_8() {
        let g = fig4_network(1e6);
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 5);
        let prob = FluidProblem::new(&g, &demand, &paths, 1.0);
        let sol = prob.max_balanced_throughput();
        assert!(
            (sol.throughput - 8.0).abs() < 1e-6,
            "expected ν(C*) = 8, got {}",
            sol.throughput
        );
        assert!(sol.rebalancing.is_empty());
    }

    #[test]
    fn fig4_shortest_path_only_achieves_5() {
        // Restricting each pair to its shortest path reproduces Fig. 4b's
        // throughput of 5 units.
        let g = fig4_network(1e6);
        let demand = DemandMatrix::fig4_example();
        let mut paths = Vec::new();
        for (s, d, _) in demand.entries() {
            let mut all = enumerate_paths(&g, s, d, 5);
            all.sort_by_key(|p| p.len());
            let min = all[0].len();
            // Keep only shortest paths; where several tie, keep them all
            // (the LP may still pick at most the balanced mix).
            paths.extend(all.into_iter().filter(|p| p.len() == min));
        }
        let prob = FluidProblem::new(&g, &demand, &paths, 1.0);
        let sol = prob.max_balanced_throughput();
        assert!(
            (sol.throughput - 5.0).abs() < 1e-6,
            "expected 5 units on shortest paths, got {}",
            sol.throughput
        );
    }

    #[test]
    fn throughput_capped_by_capacity() {
        // Two nodes, one channel of capacity 4 with Δ = 2 -> rate cap 2.
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(4))
            .unwrap();
        let mut demand = DemandMatrix::new();
        demand.set(NodeId(0), NodeId(1), 100.0);
        demand.set(NodeId(1), NodeId(0), 100.0);
        let paths = enumerate_demand_paths(&g, &demand, 3);
        let prob = FluidProblem::new(&g, &demand, &paths, 2.0);
        let sol = prob.max_balanced_throughput();
        assert!(
            (sol.throughput - 2.0).abs() < 1e-6,
            "got {}",
            sol.throughput
        );
    }

    #[test]
    fn pure_dag_demand_gets_zero_without_rebalancing() {
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        let mut demand = DemandMatrix::new();
        demand.set(NodeId(0), NodeId(1), 5.0);
        let paths = enumerate_demand_paths(&g, &demand, 3);
        let prob = FluidProblem::new(&g, &demand, &paths, 1.0);
        let sol = prob.max_balanced_throughput();
        assert!(sol.throughput.abs() < 1e-9);
    }

    #[test]
    fn rebalancing_unlocks_dag_demand() {
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        let mut demand = DemandMatrix::new();
        demand.set(NodeId(0), NodeId(1), 5.0);
        let paths = enumerate_demand_paths(&g, &demand, 3);
        let prob = FluidProblem::new(&g, &demand, &paths, 1.0);
        // Cheap rebalancing (γ < 1): worth buying throughput.
        let sol = prob.with_rebalancing(0.1);
        assert!((sol.throughput - 5.0).abs() < 1e-6);
        assert!((sol.total_rebalancing() - 5.0).abs() < 1e-6);
        assert!((sol.objective - (5.0 - 0.5)).abs() < 1e-6);
        // Expensive rebalancing (γ > 1): not worth it.
        let sol = prob.with_rebalancing(2.0);
        assert!(sol.throughput.abs() < 1e-6);
        assert!(sol.total_rebalancing().abs() < 1e-6);
    }

    #[test]
    fn budget_frontier_is_monotone_and_concave() {
        let g = fig4_network(1e6);
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 5);
        let prob = FluidProblem::new(&g, &demand, &paths, 1.0);
        let budgets = [0.0, 1.0, 2.0, 3.0, 4.0, 8.0];
        let curve = prob.throughput_curve(&budgets);
        // t(0) = ν(C*) = 8; the full demand (12) is reachable with enough B.
        assert!((curve[0].1 - 8.0).abs() < 1e-6);
        assert!((curve.last().unwrap().1 - 12.0).abs() < 1e-6);
        // Monotone non-decreasing.
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
        // Concave: marginal gains shrink along equal budget steps 0..4.
        let gains: Vec<f64> = (1..5).map(|i| curve[i].1 - curve[i - 1].1).collect();
        for w in gains.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "gains must shrink: {gains:?}");
        }
    }

    #[test]
    fn budget_variant_with_zero_budget_matches_balanced() {
        let g = fig4_network(1e6);
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 5);
        let prob = FluidProblem::new(&g, &demand, &paths, 1.0);
        let balanced = prob.max_balanced_throughput();
        let zero_budget = prob.with_rebalancing_budget(0.0);
        assert!((balanced.throughput - zero_budget.throughput).abs() < 1e-6);
    }

    #[test]
    fn enumerate_paths_respects_hop_limit() {
        let g = fig4_network(10.0);
        let short = enumerate_paths(&g, NodeId(0), NodeId(2), 2);
        assert!(short.iter().all(|p| p.len() <= 2));
        let all = enumerate_paths(&g, NodeId(0), NodeId(2), 5);
        assert!(all.len() > short.len());
        for p in &all {
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.dest(), NodeId(2));
        }
    }

    #[test]
    fn path_flows_respect_demand_caps() {
        let g = fig4_network(1e6);
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 5);
        let prob = FluidProblem::new(&g, &demand, &paths, 1.0);
        let sol = prob.max_balanced_throughput();
        let mut per_pair: std::collections::BTreeMap<(NodeId, NodeId), f64> = Default::default();
        for (i, p) in paths.iter().enumerate() {
            *per_pair.entry((p.source(), p.dest())).or_default() += sol.path_flows[i];
        }
        for (&(s, d), &f) in &per_pair {
            assert!(f <= demand.rate(s, d) + 1e-6, "{s}->{d} over demand");
        }
    }
}
