//! The `layers` pass (per-layer source K): direct timing of public kernels
//! on inputs drawn from the workload — its network, its first distinct
//! `(src, dst)` pairs, its payment amounts and arrival times.

use crate::checks::Checks;
use crate::measure::{median, timed};
use crate::metrics::Layers;
use crate::workloads::{lp_config, lp_instance, Workload};
use spider::core::{Amount, Network, NodeId, Path};
use spider::opt::{balance_limited_flow, primal_dual, FluidProblem, PrimalDualConfig};
use spider::routing::{
    edge_disjoint_paths, k_shortest_paths, shortest_path, widest_paths, LpScheme, MaxFlowScheme,
    PathCache, PathStrategy, RoutingScheme, ShortestPathScheme, SilentWhispersScheme,
    SpeedyMurmursScheme, WaterfillingScheme,
};
use spider::sim::{EventQueue, Ledger, SimConfig};
use spider::topology::Partition;
use spider::workload::{demand_matrix, Transaction};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Distinct pairs the path and decision kernels cycle over.
const PAIRS: usize = 16;
/// Demand pairs of the fluid-LP instance the `opt` kernels solve.
const LP_PAIRS: usize = 20;
/// Transactions the deterministic ledger fail-ratio count replays.
const LEDGER_REPLAY: usize = 20_000;
/// Arrivals the event-queue kernel replays.
const QUEUE_ARRIVALS: usize = 100_000;

/// Median seconds per call of `op`. The batch size doubles until one batch
/// takes a sixth of `budget_s`; then up to five batches are sampled,
/// stopping early once two budgets are spent (slow kernels on the
/// 100k-node graph get fewer samples rather than a longer run).
fn per_call(budget_s: f64, mut op: impl FnMut(usize)) -> f64 {
    let began = Instant::now();
    let mut next = 0usize;
    let mut batch = |n: usize| {
        let start = Instant::now();
        for i in next..next + n {
            op(i);
        }
        next += n;
        start.elapsed().as_secs_f64()
    };
    let mut n = 1usize;
    let mut t = batch(n);
    while t < budget_s / 6.0 && n < 1 << 26 {
        n *= 2;
        t = batch(n);
    }
    let mut samples = vec![t / n as f64];
    while samples.len() < 5 && began.elapsed().as_secs_f64() < 2.0 * budget_s {
        samples.push(batch(n) / n as f64);
    }
    median(&samples)
}

/// The first [`PAIRS`] distinct `(src, dst)` pairs of the trace, each with
/// the amount of the first payment between them.
fn first_pairs(trace: &[Transaction]) -> Vec<(NodeId, NodeId, Amount)> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for tx in trace {
        if seen.insert((tx.src, tx.dst)) {
            out.push((tx.src, tx.dst, tx.amount));
            if out.len() == PAIRS {
                break;
            }
        }
    }
    out
}

/// Runs every kernel on `w`'s inputs, `budget_s` seconds of calls each.
pub fn kernel_pass(
    layers: &mut Layers,
    checks: &mut Checks,
    w: &Workload,
    seed: u64,
    budget_s: f64,
) {
    // Input generation.
    let network = w.network(seed);
    let nodes = network.num_nodes() as f64;
    let build = per_call(budget_s, |_| {
        black_box(w.network(seed));
    });
    layers.set("topology.build_us_per_node", build * 1e6 / nodes);
    layers.set("topology.channels", network.num_channels() as f64);
    let shards = 2;
    let partition = per_call(budget_s, |_| {
        black_box(Partition::build(&network, shards, seed));
    });
    layers.set("topology.partition.build_s", partition);
    let trace = w.trace(&network, seed);
    let generate = per_call(budget_s, |_| {
        black_box(w.trace(&network, seed));
    });
    layers.set(
        "workload.generate.ns_per_tx",
        generate * 1e9 / w.payments as f64,
    );
    let demand = per_call(budget_s, |_| {
        black_box(demand_matrix(&trace, 0.0, w.duration));
    });
    layers.set("workload.demand_matrix_s", demand);
    let distinct: BTreeSet<_> = trace.iter().map(|t| (t.src, t.dst)).collect();
    layers.set("workload.distinct_pairs", distinct.len() as f64);

    let pairs = first_pairs(&trace);
    let pair = |i: usize| pairs[i % pairs.len()];
    let SimConfig { mtu, delta, .. } = SimConfig::new(w.duration);

    event_queue_kernel(layers, &trace, delta, budget_s);
    ledger_kernels(layers, checks, w, &network, &trace, &pairs, mtu, budget_s);

    // Path finders.
    let us = |seconds: f64| seconds * 1e6;
    let ns = |seconds: f64| seconds * 1e9;
    let shortest = per_call(budget_s, |i| {
        let (s, d, _) = pair(i);
        black_box(shortest_path(&network, s, d));
    });
    layers.set("routing.paths.shortest_us", us(shortest));
    let disjoint = per_call(budget_s, |i| {
        let (s, d, _) = pair(i);
        black_box(edge_disjoint_paths(&network, s, d, 4));
    });
    layers.set("routing.paths.edge_disjoint4_us", us(disjoint));
    let yen = per_call(budget_s, |i| {
        let (s, d, _) = pair(i);
        black_box(k_shortest_paths(&network, s, d, 4));
    });
    layers.set("routing.paths.k_shortest4_us", us(yen));
    let widest = per_call(budget_s, |i| {
        let (s, d, _) = pair(i);
        black_box(widest_paths(&network, s, d, 4));
    });
    layers.set("routing.paths.widest4_us", us(widest));

    // Path cache: a warm lookup, and a cold one (fresh cache per sweep).
    let mut warm = PathCache::new(PathStrategy::EdgeDisjoint(4));
    for &(s, d, _) in &pairs {
        warm.paths(&network, s, d);
    }
    let hit = per_call(budget_s, |i| {
        let (s, d, _) = pair(i);
        black_box(warm.paths(&network, s, d).len());
    });
    layers.set("routing.path_cache.hit_ns", ns(hit));
    let sweep = per_call(budget_s, |_| {
        let mut cold = PathCache::new(PathStrategy::EdgeDisjoint(4));
        for &(s, d, _) in &pairs {
            black_box(cold.paths(&network, s, d).len());
        }
    });
    layers.set("routing.path_cache.miss_us", us(sweep) / pairs.len() as f64);

    // One routing decision per scheme, caches warm, initial balances.
    let unit_decision = |scheme: &mut dyn RoutingScheme| {
        for &(s, d, _) in &pairs {
            scheme.route_unit(&network, &network, s, d, mtu);
        }
        per_call(budget_s, |i| {
            let (s, d, _) = pair(i);
            black_box(scheme.route_unit(&network, &network, s, d, mtu));
        })
    };
    let waterfilling = unit_decision(&mut WaterfillingScheme::new());
    layers.set("routing.waterfilling.decision_ns", ns(waterfilling));
    let shortest_decision = unit_decision(&mut ShortestPathScheme::new());
    layers.set("routing.shortest.decision_ns", ns(shortest_decision));

    let payment_decision = |scheme: &mut dyn RoutingScheme| {
        per_call(budget_s, |i| {
            let (s, d, amount) = pair(i);
            black_box(scheme.route_payment(&network, &network, s, d, amount));
        })
    };
    let maxflow = payment_decision(&mut MaxFlowScheme::new());
    layers.set("routing.maxflow.decision_us", us(maxflow));
    let landmark = payment_decision(&mut SilentWhispersScheme::new(&network, 3));
    layers.set("routing.landmark.decision_us", us(landmark));
    let embedding = payment_decision(&mut SpeedyMurmursScheme::new(&network, 3));
    layers.set("routing.embedding.decision_us", us(embedding));
    // §3 of the paper: per-payment max-flow against one waterfilling unit.
    layers.set("routing.maxflow_over_waterfilling", maxflow / waterfilling);

    // Optimisation kernels on the trace's heaviest demand pairs.
    let solve = per_call(budget_s, |i| {
        let (s, d, amount) = pair(i);
        black_box(balance_limited_flow(&network, &network, s, d, amount));
    });
    layers.set("opt.maxflow.solve_us", us(solve));
    let augmentations: u64 = pairs
        .iter()
        .take(4)
        .map(|&(s, d, amount)| {
            balance_limited_flow(&network, &network, s, d, amount).augmenting_paths
        })
        .sum();
    layers.set("opt.maxflow.augmentations", augmentations as f64);

    let (lp_paths, lp_demand) = lp_instance(&network, &trace, w.duration, LP_PAIRS);
    layers.set("opt.simplex.path_vars", lp_paths.len() as f64);
    let problem = FluidProblem::new(&network, &lp_demand, &lp_paths, delta);
    let (first_s, solution) = timed(|| problem.max_balanced_throughput());
    let simplex = per_call((budget_s - first_s).max(0.0), |_| {
        black_box(problem.max_balanced_throughput());
    });
    layers.set("opt.simplex.solve_s", simplex);
    // Kept short: one iteration sweeps every channel of the network, and
    // the full-length solve is already in `routing.build_s.spider-lp`.
    let config = PrimalDualConfig {
        max_iters: 500,
        ..lp_config()
    };
    let mut iters = 0;
    let primal_dual = per_call(budget_s, |_| {
        iters = primal_dual::solve(&network, &lp_demand, &lp_paths, delta, &config).iterations;
    });
    layers.set("opt.primal_dual.solve_s", primal_dual);
    layers.set("opt.primal_dual.iters", iters as f64);

    let mut lp = LpScheme::from_flows(&lp_paths, &solution.path_flows);
    let lp_pairs: Vec<(NodeId, NodeId)> = lp_demand.entries().map(|(s, d, _)| (s, d)).collect();
    let lp_decision = per_call(budget_s, |i| {
        let (s, d) = lp_pairs[i % lp_pairs.len()];
        black_box(lp.route_unit(&network, &network, s, d, mtu));
    });
    layers.set("routing.lp.decision_ns", ns(lp_decision));
}

/// Arrival + settle-at-Δ pattern: every arrival is queued up front (the
/// engines' realistic depth), and each popped arrival pushes a settlement
/// Δ later.
fn event_queue_kernel(layers: &mut Layers, trace: &[Transaction], delta: f64, budget_s: f64) {
    let arrivals: Vec<f64> = trace
        .iter()
        .take(QUEUE_ARRIVALS)
        .map(|t| t.arrival)
        .collect();
    let seconds = per_call(budget_s, |_| {
        let mut queue: EventQueue<bool> = EventQueue::new();
        for &t in &arrivals {
            queue.push(t, true);
        }
        while let Some((t, is_arrival)) = queue.pop() {
            if is_arrival {
                queue.push(t + delta, false);
            }
        }
        black_box(queue.len());
    });
    layers.set(
        "sim.events.push_pop_ns",
        seconds * 1e9 / (2 * arrivals.len()) as f64,
    );
}

#[allow(clippy::too_many_arguments)]
fn ledger_kernels(
    layers: &mut Layers,
    checks: &mut Checks,
    w: &Workload,
    network: &Network,
    trace: &[Transaction],
    pairs: &[(NodeId, NodeId, Amount)],
    mtu: Amount,
    budget_s: f64,
) {
    // Each pair's shortest path forward, then backward, so cycling through
    // the list returns every balance to where it started and no lock fails.
    let mut paths: Vec<Path> = Vec::new();
    for &(s, d, _) in pairs {
        if let Some(p) = shortest_path(network, s, d) {
            let mut back = p.nodes().to_vec();
            back.reverse();
            paths.push(p);
            paths.push(Path::new(network, back).expect("a reversed path is a path"));
        }
    }
    if paths.is_empty() {
        return;
    }
    let mut ledger = Ledger::new(network);
    let settle = per_call(budget_s, |i| {
        let p = &paths[i % paths.len()];
        if ledger.lock_path(network, p, mtu).is_ok() {
            black_box(ledger.settle_path(network, p, mtu).is_ok());
        }
    });
    layers.set("sim.ledger.path_lock_settle_ns", settle * 1e9);
    let refund = per_call(budget_s, |i| {
        let p = &paths[i % paths.len()];
        if ledger.lock_path(network, p, mtu).is_ok() {
            black_box(ledger.refund_path(network, p, mtu).is_ok());
        }
    });
    layers.set("sim.ledger.path_lock_refund_ns", refund * 1e9);
    let hop = per_call(budget_s, |i| {
        let p = &paths[i % paths.len()];
        for (h, &(c, _)) in p.hops().iter().enumerate() {
            if ledger.lock_hop(network, c, p.nodes()[h], mtu).is_ok() {
                black_box(ledger.settle_hop(network, c, p.nodes()[h + 1], mtu).is_ok());
            }
        }
    });
    let mean_hops = paths.iter().map(Path::len).sum::<usize>() as f64 / paths.len() as f64;
    layers.set("sim.ledger.hop_lock_settle_ns", hop * 1e9 / mean_hops);
    checks.check(ledger.conserves_all(), || {
        format!("{}: ledger kernels broke conservation of funds", w.name)
    });

    // Deterministic count: replay the first payments whole, each locked
    // and settled on its shortest path; the share refused for lack of
    // funds is the imbalance the workload builds up.
    let mut ledger = Ledger::new(network);
    let mut cache = PathCache::new(PathStrategy::Shortest);
    let (mut attempts, mut refused, mut unsettled) = (0u64, 0u64, 0u64);
    for tx in trace.iter().take(LEDGER_REPLAY) {
        let Some(p) = cache.paths(network, tx.src, tx.dst).first().cloned() else {
            continue;
        };
        attempts += 1;
        if ledger.lock_path(network, &p, tx.amount).is_err() {
            refused += 1;
        } else if ledger.settle_path(network, &p, tx.amount).is_err() {
            unsettled += 1;
        }
    }
    if attempts > 0 {
        layers.set(
            "sim.ledger.lock_fail_ratio",
            refused as f64 / attempts as f64,
        );
    }
    checks.check(unsettled == 0 && ledger.conserves_all(), || {
        format!(
            "{}: ledger replay refused {unsettled} settlements or broke conservation",
            w.name
        )
    });
}
