//! The paper's decentralized primal-dual routing algorithm (§5.3,
//! eqs. (19)–(24)).
//!
//! Each payment channel maintains a capacity price `λ` and per-direction
//! imbalance prices `μ`; each source/destination pair adjusts the rate it
//! sends on each of its candidate paths against the total path price
//! `z_p = Σ (λ + μ_fwd − μ_rev)`. With on-chain rebalancing enabled, each
//! channel direction additionally adapts its rebalancing rate `b` against
//! the rebalancing cost `γ`.
//!
//! For sufficiently small step sizes the iterates converge to the optimum of
//! the fluid LPs in [`crate::fluid`]; the unit tests cross-check against the
//! exact simplex solution.
//!
//! # The flat instance
//!
//! [`solve_traced`] flattens its instance once (`FlatInstance`) so a sweep
//! reads contiguous runs only. A *direction* is `2·channel + s`, `s` = 0 for
//! `AtoB`, 1 for `BtoA`. Three CSR arrays (offsets + items):
//!
//! - **pairs** — pairs with demand and a candidate path, ascending by
//!   `(source, dest)`; pair `q` has rate `pair_rate[q]` and the path ids
//!   `pair_ids[pair_off[q]..pair_off[q + 1]]`, ascending.
//! - **hops** — entry `k` of `pair_ids` crosses the directions
//!   `hops[hop_off[k]..hop_off[k + 1]]` in hop order, so `hops` lists every
//!   hop in (pair, path, hop) order.
//! - **members** — direction `k` carries `mem_ids[mem_off[k]..mem_off[k + 1]]`,
//!   one path id a hop, in the order those hops stand in `hops`.
//!
//! `price[2e + s] = (λ[e] + μ[e][s]) − μ[e][1 − s]` is refreshed right after
//! channel `e`'s dual step: a primal step reads the previous sweep's prices.
//!
//! # Why the order of every sum is fixed
//!
//! Floating-point addition does not associate, and the Fig. 6 flows are
//! pinned bit for bit (`tests/kernel_differential.rs`; the reference loop in
//! this file's tests). So `z_p` starts at `0.0` and adds one ready-made
//! `price` a hop, in hop order; a pair's rate and a direction's flow are
//! `Iterator::sum` over the runs above; the update is `x + α·(grad − z_p)`;
//! objective and tail average run over `x` by path id. The projection sorts
//! values only — ties are equal values, and a `±0.0` tie is added to a sum
//! that started at `+0.0` — so any correct sort gives the same bits.

use spider_core::{ChannelId, DemandMatrix, Direction, Network, NodeId, Path};
use spider_telemetry::{Telemetry, TraceEvent};
use std::collections::BTreeMap;

/// Objective maximized by the primal-dual dynamics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Utility {
    /// Total throughput `Σ x_p` (the paper's eqs. (6)–(11)).
    #[default]
    Throughput,
    /// Proportional fairness `Σ log(f_ij + ε)` (Kelly-style; the objective
    /// the paper proposes in §6.2 to avoid starving commodities). The
    /// primal gradient for a path of pair `(i,j)` becomes `1/(f_ij + ε)`.
    ProportionalFairness {
        /// Smoothing floor inside the logarithm.
        epsilon: f64,
    },
}

/// Step sizes and termination settings for the primal-dual iteration.
#[derive(Clone, Copy, Debug)]
pub struct PrimalDualConfig {
    /// Primal step size `α` for path rates (eq. 21).
    pub alpha: f64,
    /// Step size `β` for rebalancing rates (eq. 22).
    pub beta: f64,
    /// Dual step size `η` for capacity prices (eq. 23).
    pub eta: f64,
    /// Dual step size `κ` for imbalance prices (eq. 24).
    pub kappa: f64,
    /// On-chain rebalancing cost `γ`; `None` pins `b ≡ 0` (the balanced
    /// special case noted at the end of §5.3).
    pub gamma: Option<f64>,
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Stop early when the max absolute rate change over a sweep falls
    /// below this threshold.
    pub tolerance: f64,
    /// Objective to maximize.
    pub utility: Utility,
}

impl Default for PrimalDualConfig {
    fn default() -> Self {
        PrimalDualConfig {
            alpha: 0.01,
            beta: 0.01,
            eta: 0.01,
            kappa: 0.01,
            gamma: None,
            max_iters: 50_000,
            tolerance: 1e-7,
            utility: Utility::Throughput,
        }
    }
}

/// Result of running the primal-dual algorithm.
#[derive(Clone, Debug)]
pub struct PrimalDualSolution {
    /// Final rate on each candidate path (aligned with the input slice).
    pub path_flows: Vec<f64>,
    /// Final rebalancing rates per channel direction (nonzero entries).
    pub rebalancing: Vec<(ChannelId, Direction, f64)>,
    /// Total delivered rate `Σ x_p`.
    pub throughput: f64,
    /// Iterations actually run.
    pub iterations: usize,
    /// Whether the tolerance criterion was met before `max_iters`.
    pub converged: bool,
    /// Throughput trajectory sampled every `max(1, max_iters/512)` sweeps
    /// (for convergence plots).
    pub history: Vec<f64>,
    /// Convergence residuals aligned with `history`: the smallest max-rate
    /// change (`max_delta`) seen in any sweep up to each sample point. The
    /// raw per-sweep residual oscillates with the primal-dual orbit and does
    /// not decay pointwise; the running best is non-increasing by
    /// construction and measures how close the orbit has come to the saddle.
    pub residuals: Vec<f64>,
}

/// Runs the primal-dual algorithm of §5.3 on the given fluid instance.
///
/// `paths` is the candidate path set (any pair with demand and no path gets
/// zero rate); `delta` is the confirmation latency `Δ`.
pub fn solve(
    network: &Network,
    demand: &DemandMatrix,
    paths: &[Path],
    delta: f64,
    config: &PrimalDualConfig,
) -> PrimalDualSolution {
    solve_traced(
        network,
        demand,
        paths,
        delta,
        config,
        &Telemetry::disabled(),
    )
}

/// One instance of [`solve_traced`] in the layout of the module docs.
#[derive(Default)]
struct FlatInstance {
    pair_off: Vec<usize>,
    pair_rate: Vec<f64>,
    pair_ids: Vec<usize>,
    hop_off: Vec<usize>,
    hops: Vec<usize>,
    mem_off: Vec<usize>,
    mem_ids: Vec<usize>,
}

impl FlatInstance {
    fn new(num_channels: usize, demand: &DemandMatrix, paths: &[Path]) -> Self {
        // Group candidate paths per demand-bearing pair.
        let mut pair_paths: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        for (i, p) in paths.iter().enumerate() {
            let key = (p.source(), p.dest());
            if demand.rate(key.0, key.1) > 0.0 {
                pair_paths.entry(key).or_default().push(i);
            }
        }
        let mut flat = FlatInstance {
            pair_off: vec![0],
            hop_off: vec![0],
            mem_off: vec![0; 2 * num_channels + 1],
            ..Default::default()
        };
        for (&(s, d), ids) in &pair_paths {
            flat.pair_rate.push(demand.rate(s, d));
            for &i in ids {
                flat.pair_ids.push(i);
                for &(c, dir) in paths[i].hops() {
                    let k = 2 * c.index() + usize::from(dir == Direction::BtoA);
                    flat.hops.push(k);
                    flat.mem_off[k + 1] += 1;
                }
                flat.hop_off.push(flat.hops.len());
            }
            flat.pair_off.push(flat.pair_ids.len());
        }
        // Counts become offsets; then every hop files its path behind the
        // earlier hops of its direction.
        for k in 0..2 * num_channels {
            flat.mem_off[k + 1] += flat.mem_off[k];
        }
        let mut next = flat.mem_off.clone();
        flat.mem_ids = vec![0; flat.hops.len()];
        for (k, &i) in flat.pair_ids.iter().enumerate() {
            for &h in &flat.hops[flat.hop_off[k]..flat.hop_off[k + 1]] {
                flat.mem_ids[next[h]] = i;
                next[h] += 1;
            }
        }
        flat
    }
}

/// [`solve`] with telemetry: emits a [`TraceEvent::SolverSample`] per
/// sampling window (objective, windowed-minimum residual, mean capacity
/// price λ) and records sweep/sample counters into the registry.
pub fn solve_traced(
    network: &Network,
    demand: &DemandMatrix,
    paths: &[Path],
    delta: f64,
    config: &PrimalDualConfig,
    telemetry: &Telemetry,
) -> PrimalDualSolution {
    assert!(delta > 0.0, "Δ must be positive");
    let num_paths = paths.len();
    let num_channels = network.num_channels();
    let flat = FlatInstance::new(num_channels, demand, paths);

    let cap_rate: Vec<f64> = network
        .channels()
        .iter()
        .map(|ch| ch.capacity().as_tokens() / delta)
        .collect();

    let mut x = vec![0.0f64; num_paths];
    let mut lambda = vec![0.0f64; num_channels];
    let mut mu = vec![[0.0f64; 2]; num_channels];
    let mut b = vec![[0.0f64; 2]; num_channels];
    let mut price = vec![0.0f64; 2 * num_channels];

    // Everything the loop pushes into is sized before it: no sweep allocates.
    let sample_every = (config.max_iters / 512).max(1);
    let samples = config.max_iters / sample_every + 1;
    let mut history = Vec::with_capacity(samples);
    let mut residuals = Vec::with_capacity(samples);
    let mut best_residual = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    // Primal-dual gradient dynamics can orbit the saddle point instead of
    // landing on it; the time-average of the iterates converges. Average
    // over the second half of the run and report that unless the last
    // iterate itself converged.
    let warmup = config.max_iters / 2;
    let mut x_sum = vec![0.0f64; num_paths];
    let mut b_sum = vec![[0.0f64; 2]; num_channels];
    let mut avg_count = 0usize;

    let widest_pair = flat.pair_off.windows(2).map(|w| w[1] - w[0]).max();
    let widest_pair = widest_pair.unwrap_or(0);
    let mut scratch = vec![0.0f64; widest_pair];
    let mut sorted: Vec<f64> = Vec::with_capacity(widest_pair);
    for t in 0..config.max_iters {
        iterations = t + 1;

        // Primal step for path rates (eq. 21) with projection onto
        // {x ≥ 0, Σ_pair x ≤ d}. The gradient of the utility w.r.t. x_p is
        // 1 for throughput and 1/(f_pair + ε) for proportional fairness.
        let mut max_delta = 0.0f64;
        for (q, &rate) in flat.pair_rate.iter().enumerate() {
            let run = flat.pair_off[q]..flat.pair_off[q + 1];
            let ids = &flat.pair_ids[run.clone()];
            let grad = match config.utility {
                Utility::Throughput => 1.0,
                Utility::ProportionalFairness { epsilon } => {
                    let f_pair: f64 = ids.iter().map(|&i| x[i]).sum();
                    1.0 / (f_pair + epsilon)
                }
            };
            let cand = &mut scratch[..ids.len()];
            for ((c, k), &i) in cand.iter_mut().zip(run).zip(ids) {
                let mut z_p = 0.0;
                for &h in &flat.hops[flat.hop_off[k]..flat.hop_off[k + 1]] {
                    z_p += price[h];
                }
                *c = x[i] + config.alpha * (grad - z_p);
            }
            project_with(cand, rate, &mut sorted);
            // A maximum per pair keeps the chain of dependent `max`es short;
            // `max` picks a value, so grouping cannot change the result.
            let mut pair_delta = 0.0f64;
            for (&v, &i) in cand.iter().zip(ids) {
                pair_delta = pair_delta.max((v - x[i]).abs());
                x[i] = v;
            }
            max_delta = max_delta.max(pair_delta);
        }

        // Rebalancing step (eq. 22).
        if let Some(gamma) = config.gamma {
            for e in 0..num_channels {
                for s in 0..2 {
                    let nb = (b[e][s] + config.beta * (mu[e][s] - gamma)).max(0.0);
                    max_delta = max_delta.max((nb - b[e][s]).abs());
                    b[e][s] = nb;
                }
            }
        }

        // Aggregate per-direction flows, then the dual step (eqs. 23, 24)
        // and the prices the next sweep's primal step reads.
        for e in 0..num_channels {
            let mut flow = [0.0f64; 2];
            for (s, f) in flow.iter_mut().enumerate() {
                let run = flat.mem_off[2 * e + s]..flat.mem_off[2 * e + s + 1];
                *f = flat.mem_ids[run].iter().map(|&i| x[i]).sum();
            }
            let total = flow[0] + flow[1];
            lambda[e] = (lambda[e] + config.eta * (total - cap_rate[e])).max(0.0);
            for s in 0..2 {
                mu[e][s] = (mu[e][s] + config.kappa * (flow[s] - flow[1 - s] - b[e][s])).max(0.0);
            }
            for s in 0..2 {
                price[2 * e + s] = lambda[e] + mu[e][s] - mu[e][1 - s];
            }
        }

        best_residual = best_residual.min(max_delta);
        if t % sample_every == 0 {
            let objective: f64 = x.iter().sum();
            history.push(objective);
            residuals.push(best_residual);
            telemetry.emit(|| TraceEvent::SolverSample {
                iter: (t + 1) as u64,
                objective,
                residual: best_residual,
                mean_price: if num_channels > 0 {
                    lambda.iter().sum::<f64>() / num_channels as f64
                } else {
                    0.0
                },
            });
        }
        if t >= warmup {
            for (s, &v) in x_sum.iter_mut().zip(&x) {
                *s += v;
            }
            for (s, v) in b_sum.iter_mut().zip(&b) {
                s[0] += v[0];
                s[1] += v[1];
            }
            avg_count += 1;
        }
        if max_delta < config.tolerance {
            converged = true;
            break;
        }
    }

    // Pick the reported iterate: exact fixed point if reached, else the
    // tail time-average.
    let (x_out, b_out) = if !converged && avg_count > 0 {
        let inv = 1.0 / avg_count as f64;
        (
            x_sum.iter().map(|&v| v * inv).collect::<Vec<_>>(),
            b_sum
                .iter()
                .map(|v| [v[0] * inv, v[1] * inv])
                .collect::<Vec<_>>(),
        )
    } else {
        (x, b)
    };

    let throughput = x_out.iter().sum();
    let mut rebalancing = Vec::new();
    for ch in network.channels() {
        for (s, dir) in [(0usize, Direction::AtoB), (1usize, Direction::BtoA)] {
            if b_out[ch.id.index()][s] > 1e-9 {
                rebalancing.push((ch.id, dir, b_out[ch.id.index()][s]));
            }
        }
    }
    telemetry.counter_add("opt.primal_dual.sweeps", iterations as u64);
    telemetry.counter_add("opt.primal_dual.samples", history.len() as u64);
    PrimalDualSolution {
        path_flows: x_out,
        rebalancing,
        throughput,
        iterations,
        converged,
        history,
        residuals,
    }
}

/// Euclidean projection of `v` onto `{x : x ≥ 0, Σ x ≤ cap}` in place.
///
/// If clipping negatives already satisfies the sum constraint, that is the
/// projection; otherwise the result is the standard simplex projection
/// `x_i = max(v_i − τ, 0)` with `τ` chosen so the coordinates sum to `cap`.
pub fn project_capped_simplex(v: &mut [f64], cap: f64) {
    project_with(v, cap, &mut Vec::new());
}

/// [`project_capped_simplex`] sorting in the caller's buffer, which is not
/// regrown once it holds `v.len()` values.
fn project_with(v: &mut [f64], cap: f64, sorted: &mut Vec<f64>) {
    assert!(cap >= 0.0, "cap must be non-negative");
    let clipped_sum: f64 = v.iter().map(|&a| a.max(0.0)).sum();
    if clipped_sum <= cap {
        for a in v.iter_mut() {
            *a = a.max(0.0);
        }
        return;
    }
    // Find τ via the sorted-threshold method.
    // Insertion sort, descending, while copying: a pair has a handful of paths.
    sorted.clear();
    for &val in v.iter() {
        let mut j = sorted.len();
        sorted.push(val);
        while j > 0 && sorted[j - 1].partial_cmp(&val).unwrap() == std::cmp::Ordering::Less {
            sorted[j] = sorted[j - 1];
            j -= 1;
        }
        sorted[j] = val;
    }
    let mut cumulative = 0.0;
    let mut tau = 0.0;
    for (k, &val) in sorted.iter().enumerate() {
        cumulative += val;
        let candidate = (cumulative - cap) / (k + 1) as f64;
        if k + 1 == sorted.len() || sorted[k + 1] <= candidate {
            tau = candidate;
            break;
        }
    }
    for a in v.iter_mut() {
        *a = (*a - tau).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::{enumerate_demand_paths, enumerate_paths, FluidProblem};
    use proptest::prelude::*;
    use spider_core::Amount;

    fn fig4_network() -> Network {
        let mut g = Network::new(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)] {
            g.add_channel(NodeId(a), NodeId(b), Amount::from_tokens(1e6))
                .unwrap();
        }
        g
    }

    /// The sweep as it was before the instance was flattened, kept verbatim as
    /// the oracle: it walks the pair map, chases `Path::hops`, reads three price
    /// arrays a hop and allocates in the projection. [`solve_traced`] must agree
    /// with it bit for bit.
    fn solve_reference(
        network: &Network,
        demand: &DemandMatrix,
        paths: &[Path],
        delta: f64,
        config: &PrimalDualConfig,
        telemetry: &Telemetry,
    ) -> PrimalDualSolution {
        assert!(delta > 0.0, "Δ must be positive");
        let num_paths = paths.len();
        let num_channels = network.num_channels();

        // Group candidate paths per demand-bearing pair.
        let mut pair_paths: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        for (i, p) in paths.iter().enumerate() {
            let key = (p.source(), p.dest());
            if demand.rate(key.0, key.1) > 0.0 {
                pair_paths.entry(key).or_default().push(i);
            }
        }

        // Per-channel per-direction path membership.
        let slot = |d: Direction| match d {
            Direction::AtoB => 0usize,
            Direction::BtoA => 1usize,
        };
        let mut members: Vec<[Vec<usize>; 2]> = vec![[Vec::new(), Vec::new()]; num_channels];
        for ids in pair_paths.values() {
            for &i in ids {
                for &(c, d) in paths[i].hops() {
                    members[c.index()][slot(d)].push(i);
                }
            }
        }

        let cap_rate: Vec<f64> = network
            .channels()
            .iter()
            .map(|ch| ch.capacity().as_tokens() / delta)
            .collect();

        let mut x = vec![0.0f64; num_paths];
        let mut lambda = vec![0.0f64; num_channels];
        let mut mu = vec![[0.0f64; 2]; num_channels];
        let mut b = vec![[0.0f64; 2]; num_channels];
        let mut flow = vec![[0.0f64; 2]; num_channels];

        let sample_every = (config.max_iters / 512).max(1);
        let mut history = Vec::new();
        let mut residuals = Vec::new();
        let mut best_residual = f64::INFINITY;
        let mut converged = false;
        let mut iterations = 0;

        // Primal-dual gradient dynamics can orbit the saddle point instead of
        // landing on it; the time-average of the iterates converges. Average
        // over the second half of the run and report that unless the last
        // iterate itself converged.
        let warmup = config.max_iters / 2;
        let mut x_sum = vec![0.0f64; num_paths];
        let mut b_sum = vec![[0.0f64; 2]; num_channels];
        let mut avg_count = 0usize;

        let mut scratch: Vec<f64> = Vec::new();
        for t in 0..config.max_iters {
            iterations = t + 1;

            // Primal step for path rates (eq. 21) with projection onto
            // {x ≥ 0, Σ_pair x ≤ d}. The gradient of the utility w.r.t. x_p is
            // 1 for throughput and 1/(f_pair + ε) for proportional fairness.
            let mut max_delta = 0.0f64;
            for (&(s, d), ids) in &pair_paths {
                let grad = match config.utility {
                    Utility::Throughput => 1.0,
                    Utility::ProportionalFairness { epsilon } => {
                        let f_pair: f64 = ids.iter().map(|&i| x[i]).sum();
                        1.0 / (f_pair + epsilon)
                    }
                };
                scratch.clear();
                for &i in ids {
                    let mut z_p = 0.0;
                    for &(c, dir) in paths[i].hops() {
                        let e = c.index();
                        z_p += lambda[e] + mu[e][slot(dir)] - mu[e][1 - slot(dir)];
                    }
                    scratch.push(x[i] + config.alpha * (grad - z_p));
                }
                project_reference(&mut scratch, demand.rate(s, d));
                for (k, &i) in ids.iter().enumerate() {
                    max_delta = max_delta.max((scratch[k] - x[i]).abs());
                    x[i] = scratch[k];
                }
            }

            // Rebalancing step (eq. 22).
            if let Some(gamma) = config.gamma {
                for e in 0..num_channels {
                    for s in 0..2 {
                        let nb = (b[e][s] + config.beta * (mu[e][s] - gamma)).max(0.0);
                        max_delta = max_delta.max((nb - b[e][s]).abs());
                        b[e][s] = nb;
                    }
                }
            }

            // Aggregate per-direction flows.
            for e in 0..num_channels {
                for s in 0..2 {
                    flow[e][s] = members[e][s].iter().map(|&i| x[i]).sum();
                }
            }

            // Dual step (eqs. 23, 24).
            for e in 0..num_channels {
                let total = flow[e][0] + flow[e][1];
                lambda[e] = (lambda[e] + config.eta * (total - cap_rate[e])).max(0.0);
                for s in 0..2 {
                    mu[e][s] = (mu[e][s] + config.kappa * (flow[e][s] - flow[e][1 - s] - b[e][s]))
                        .max(0.0);
                }
            }

            best_residual = best_residual.min(max_delta);
            if t % sample_every == 0 {
                let objective: f64 = x.iter().sum();
                history.push(objective);
                residuals.push(best_residual);
                telemetry.emit(|| TraceEvent::SolverSample {
                    iter: (t + 1) as u64,
                    objective,
                    residual: best_residual,
                    mean_price: if num_channels > 0 {
                        lambda.iter().sum::<f64>() / num_channels as f64
                    } else {
                        0.0
                    },
                });
            }
            if t >= warmup {
                for (s, &v) in x_sum.iter_mut().zip(&x) {
                    *s += v;
                }
                for (s, v) in b_sum.iter_mut().zip(&b) {
                    s[0] += v[0];
                    s[1] += v[1];
                }
                avg_count += 1;
            }
            if max_delta < config.tolerance {
                converged = true;
                break;
            }
        }

        // Pick the reported iterate: exact fixed point if reached, else the
        // tail time-average.
        let (x_out, b_out) = if !converged && avg_count > 0 {
            let inv = 1.0 / avg_count as f64;
            (
                x_sum.iter().map(|&v| v * inv).collect::<Vec<_>>(),
                b_sum
                    .iter()
                    .map(|v| [v[0] * inv, v[1] * inv])
                    .collect::<Vec<_>>(),
            )
        } else {
            (x, b)
        };

        let throughput = x_out.iter().sum();
        let mut rebalancing = Vec::new();
        for ch in network.channels() {
            for (s, dir) in [(0usize, Direction::AtoB), (1usize, Direction::BtoA)] {
                if b_out[ch.id.index()][s] > 1e-9 {
                    rebalancing.push((ch.id, dir, b_out[ch.id.index()][s]));
                }
            }
        }
        telemetry.counter_add("opt.primal_dual.sweeps", iterations as u64);
        telemetry.counter_add("opt.primal_dual.samples", history.len() as u64);
        PrimalDualSolution {
            path_flows: x_out,
            rebalancing,
            throughput,
            iterations,
            converged,
            history,
            residuals,
        }
    }

    /// The projection as [`solve_reference`] ran it: a fresh sorted copy a call.
    fn project_reference(v: &mut [f64], cap: f64) {
        assert!(cap >= 0.0, "cap must be non-negative");
        let clipped_sum: f64 = v.iter().map(|&a| a.max(0.0)).sum();
        if clipped_sum <= cap {
            for a in v.iter_mut() {
                *a = a.max(0.0);
            }
            return;
        }
        // Find τ via the sorted-threshold method.
        let mut sorted: Vec<f64> = v.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mut cumulative = 0.0;
        let mut tau = 0.0;
        for (k, &val) in sorted.iter().enumerate() {
            cumulative += val;
            let candidate = (cumulative - cap) / (k + 1) as f64;
            if k + 1 == sorted.len() || sorted[k + 1] <= candidate {
                tau = candidate;
                break;
            }
        }
        for a in v.iter_mut() {
            *a = (*a - tau).max(0.0);
        }
    }

    /// Everything a solve reports, floats as bit patterns.
    fn bits(sol: &PrimalDualSolution) -> impl PartialEq + std::fmt::Debug {
        let f = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        (
            f(&sol.path_flows),
            sol.rebalancing
                .iter()
                .map(|&(c, d, v)| (c, d, v.to_bits()))
                .collect::<Vec<_>>(),
            sol.throughput.to_bits(),
            (sol.iterations, sol.converged),
            f(&sol.history),
            f(&sol.residuals),
        )
    }

    /// Runs both sweeps with telemetry on and requires the same solution,
    /// the same `SolverSample` sequence and the same counters, bit for bit.
    fn assert_matches_reference(
        network: &Network,
        demand: &DemandMatrix,
        paths: &[Path],
        config: &PrimalDualConfig,
    ) -> PrimalDualSolution {
        let run = |solver: fn(
            &Network,
            &DemandMatrix,
            &[Path],
            f64,
            &PrimalDualConfig,
            &Telemetry,
        ) -> PrimalDualSolution| {
            let telemetry = Telemetry::enabled();
            let sol = solver(network, demand, paths, 0.5, config, &telemetry);
            let samples: Vec<_> = telemetry
                .events()
                .iter()
                .map(|e| match *e {
                    TraceEvent::SolverSample {
                        iter,
                        objective,
                        residual,
                        mean_price,
                    } => (
                        iter,
                        objective.to_bits(),
                        residual.to_bits(),
                        mean_price.to_bits(),
                    ),
                    ref other => panic!("unexpected event {other:?}"),
                })
                .collect();
            let reg = telemetry.registry().unwrap();
            let counters = (
                reg.counter("opt.primal_dual.sweeps", ""),
                reg.counter("opt.primal_dual.samples", ""),
            );
            (sol, samples, counters)
        };
        let (flat, flat_samples, flat_counters) = run(solve_traced);
        let (reference, ref_samples, ref_counters) = run(solve_reference);
        assert_eq!(bits(&flat), bits(&reference));
        assert_eq!(flat_samples, ref_samples);
        assert_eq!(flat_counters, ref_counters);
        flat
    }

    #[test]
    fn flat_sweep_matches_reference_on_fig4() {
        let g = fig4_network();
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 5);
        for utility in [
            Utility::Throughput,
            Utility::ProportionalFairness { epsilon: 1e-3 },
        ] {
            for gamma in [None, Some(0.1)] {
                let config = PrimalDualConfig {
                    alpha: 0.02,
                    eta: 0.02,
                    kappa: 0.02,
                    max_iters: 3_000,
                    utility,
                    gamma,
                    ..Default::default()
                };
                let sol = assert_matches_reference(&g, &demand, &paths, &config);
                assert!(!sol.converged && sol.throughput > 1.0);
            }
        }
    }

    #[test]
    fn flat_sweep_matches_reference_when_the_last_iterate_converges() {
        // Balanced demand far below capacity: every rate climbs to its
        // demand and stops, so the run ends early on the last iterate and
        // the tail average is never taken.
        let g = fig4_network();
        let mut demand = DemandMatrix::new();
        demand.set(NodeId(0), NodeId(2), 1.0);
        demand.set(NodeId(2), NodeId(0), 1.0);
        let paths = enumerate_demand_paths(&g, &demand, 3);
        let sol = assert_matches_reference(&g, &demand, &paths, &PrimalDualConfig::default());
        assert!(sol.converged && sol.iterations < PrimalDualConfig::default().max_iters);
        assert!((sol.throughput - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flat_sweep_matches_reference_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{RngExt, SeedableRng};
        let mut capped = 0;
        for seed in 0..240u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // A ring with random chords, capacities from scarce to ample.
            let n = rng.random_range(5..=40u32);
            let mut g = Network::new(n as usize);
            for a in 0..n {
                let cap = Amount::from_whole(rng.random_range(1..=60));
                g.add_channel(NodeId(a), NodeId((a + 1) % n), cap).unwrap();
            }
            for _ in 0..rng.random_range(0..=n) {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                if a != b && g.channel_between(NodeId(a), NodeId(b)).is_none() {
                    let cap = Amount::from_whole(rng.random_range(1..=60));
                    g.add_channel(NodeId(a), NodeId(b), cap).unwrap();
                }
            }
            // 1–6 candidate paths a pair, drawn with replacement (so
            // duplicates occur), then shuffled so that path ids are not in
            // pair order; one pair has demand and no path at all.
            let mut demand = DemandMatrix::new();
            let mut paths = Vec::new();
            for _ in 0..rng.random_range(2..=12) {
                let (s, d) = (rng.random_range(0..n), rng.random_range(0..n));
                if s == d {
                    continue;
                }
                // Mostly two-way demand: one-way demand is priced out.
                let back = rng.random_bool(0.7).then_some((d, s));
                for (s, d) in [Some((s, d)), back].into_iter().flatten() {
                    demand.set(NodeId(s), NodeId(d), rng.random_range(0.5..40.0));
                    let all = enumerate_paths(&g, NodeId(s), NodeId(d), 4);
                    for _ in 0..rng.random_range(1..=6) {
                        paths.extend(all.choose(&mut rng).cloned());
                    }
                }
            }
            demand.set(NodeId(0), NodeId(n - 1), 3.0);
            paths.retain(|p| (p.source(), p.dest()) != (NodeId(0), NodeId(n - 1)));
            paths.shuffle(&mut rng);
            let step = rng.random_range(0.01..0.1);
            let config = PrimalDualConfig {
                alpha: step,
                eta: step,
                kappa: step,
                max_iters: rng.random_range(50..400),
                gamma: rng.random_bool(0.3).then_some(0.1),
                utility: if rng.random_bool(0.3) {
                    Utility::ProportionalFairness { epsilon: 1e-3 }
                } else {
                    Utility::Throughput
                },
                ..Default::default()
            };
            let sol = assert_matches_reference(&g, &demand, &paths, &config);
            capped += usize::from(sol.throughput > 1.0);
        }
        assert!(capped > 200, "only {capped} instances carried real flow");
    }

    #[test]
    fn projection_noop_inside_set() {
        let mut v = vec![0.2, 0.3];
        project_capped_simplex(&mut v, 1.0);
        assert_eq!(v, vec![0.2, 0.3]);
    }

    #[test]
    fn projection_clips_negatives() {
        let mut v = vec![-0.5, 0.4];
        project_capped_simplex(&mut v, 1.0);
        assert_eq!(v, vec![0.0, 0.4]);
    }

    #[test]
    fn projection_onto_simplex_boundary() {
        let mut v = vec![1.0, 1.0];
        project_capped_simplex(&mut v, 1.0);
        assert!((v[0] - 0.5).abs() < 1e-12);
        assert!((v[1] - 0.5).abs() < 1e-12);
        let mut v = vec![2.0, 0.0];
        project_capped_simplex(&mut v, 1.0);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert_eq!(v[1], 0.0);
    }

    proptest! {
        #[test]
        fn prop_projection_feasible_and_idempotent(
            v in proptest::collection::vec(-10.0f64..10.0, 1..8),
            cap in 0.0f64..5.0,
        ) {
            let mut p = v.clone();
            project_capped_simplex(&mut p, cap);
            let sum: f64 = p.iter().sum();
            prop_assert!(sum <= cap + 1e-9);
            prop_assert!(p.iter().all(|&a| a >= 0.0));
            // Idempotent.
            let mut q = p.clone();
            project_capped_simplex(&mut q, cap);
            for (a, b) in p.iter().zip(&q) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_projection_is_closest_among_candidates(
            v in proptest::collection::vec(-5.0f64..5.0, 2..6),
            cap in 0.1f64..4.0,
        ) {
            let mut p = v.clone();
            project_capped_simplex(&mut p, cap);
            let dist_p: f64 = v.iter().zip(&p).map(|(a, b)| (a - b).powi(2)).sum();
            // Compare against a few feasible candidates: zero and uniform.
            let zero = vec![0.0; v.len()];
            let uniform = vec![cap / v.len() as f64; v.len()];
            for cand in [zero, uniform] {
                let dist_c: f64 =
                    v.iter().zip(&cand).map(|(a, b)| (a - b).powi(2)).sum();
                prop_assert!(dist_p <= dist_c + 1e-9);
            }
        }
    }

    #[test]
    fn converges_to_fig4_optimum() {
        let g = fig4_network();
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 5);
        let exact = FluidProblem::new(&g, &demand, &paths, 1.0).max_balanced_throughput();
        let config = PrimalDualConfig {
            alpha: 0.02,
            eta: 0.02,
            kappa: 0.02,
            max_iters: 40_000,
            ..Default::default()
        };
        let sol = solve(&g, &demand, &paths, 1.0, &config);
        assert!(
            (sol.throughput - exact.throughput).abs() < 0.15,
            "primal-dual {} vs simplex {}",
            sol.throughput,
            exact.throughput
        );
    }

    #[test]
    fn respects_capacity_price() {
        // Single channel, bidirectional demand 100 each way, cap rate 2.
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(4))
            .unwrap();
        let mut demand = DemandMatrix::new();
        demand.set(NodeId(0), NodeId(1), 100.0);
        demand.set(NodeId(1), NodeId(0), 100.0);
        let paths = enumerate_demand_paths(&g, &demand, 2);
        let sol = solve(&g, &demand, &paths, 2.0, &PrimalDualConfig::default());
        assert!(
            (sol.throughput - 2.0).abs() < 0.1,
            "throughput {} should approach capacity 2",
            sol.throughput
        );
    }

    #[test]
    fn dag_demand_suppressed_without_rebalancing() {
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(1000))
            .unwrap();
        let mut demand = DemandMatrix::new();
        demand.set(NodeId(0), NodeId(1), 5.0);
        let paths = enumerate_demand_paths(&g, &demand, 2);
        let sol = solve(&g, &demand, &paths, 1.0, &PrimalDualConfig::default());
        assert!(
            sol.throughput < 0.2,
            "one-way flow must be priced out, got {}",
            sol.throughput
        );
    }

    #[test]
    fn cheap_rebalancing_unlocks_dag_demand() {
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(1000))
            .unwrap();
        let mut demand = DemandMatrix::new();
        demand.set(NodeId(0), NodeId(1), 5.0);
        let paths = enumerate_demand_paths(&g, &demand, 2);
        let config = PrimalDualConfig {
            gamma: Some(0.05),
            max_iters: 60_000,
            ..Default::default()
        };
        let sol = solve(&g, &demand, &paths, 1.0, &config);
        assert!(
            sol.throughput > 4.0,
            "cheap rebalancing should unlock the DAG demand, got {}",
            sol.throughput
        );
        let b_total: f64 = sol.rebalancing.iter().map(|&(_, _, v)| v).sum();
        assert!(
            b_total > 3.5,
            "rebalancing rate should approach 5, got {b_total}"
        );
    }

    #[test]
    fn residuals_shrink_over_trace_tail_on_fig4() {
        let g = fig4_network();
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 5);
        let config = PrimalDualConfig {
            alpha: 0.02,
            eta: 0.02,
            kappa: 0.02,
            max_iters: 40_000,
            ..Default::default()
        };
        let sol = solve(&g, &demand, &paths, 1.0, &config);
        assert_eq!(sol.residuals.len(), sol.history.len());
        assert!(sol.residuals.iter().all(|r| r.is_finite() && *r >= 0.0));
        // The residual trace must be non-increasing over its tail (it is a
        // running best, so any rise is a defect) ...
        let tail = &sol.residuals[sol.residuals.len() * 3 / 4..];
        assert!(tail.len() >= 8, "tail too short: {}", tail.len());
        for w in tail.windows(2) {
            assert!(
                w[1] <= w[0],
                "residual rose along the tail: {} -> {}",
                w[0],
                w[1]
            );
        }
        // ... and must show real convergence: the best residual at the end
        // sits far below the first sample's.
        assert!(
            *sol.residuals.last().unwrap() <= sol.residuals[0] / 10.0,
            "residual barely improved: {} -> {}",
            sol.residuals[0],
            sol.residuals.last().unwrap()
        );
    }

    #[test]
    fn traced_solve_emits_solver_samples() {
        let g = fig4_network();
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 4);
        let config = PrimalDualConfig {
            max_iters: 2_000,
            ..Default::default()
        };
        let telemetry = Telemetry::enabled();
        let sol = solve_traced(&g, &demand, &paths, 1.0, &config, &telemetry);
        let events = telemetry.events();
        let samples: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SolverSample { .. }))
            .collect();
        assert_eq!(samples.len(), sol.history.len());
        if let TraceEvent::SolverSample {
            iter,
            objective,
            residual,
            ..
        } = samples[0]
        {
            assert_eq!(*iter, 1);
            assert_eq!(*objective, sol.history[0]);
            assert_eq!(*residual, sol.residuals[0]);
        }
        let reg = telemetry.registry().unwrap();
        assert_eq!(
            reg.counter("opt.primal_dual.sweeps", ""),
            sol.iterations as u64
        );
        assert_eq!(
            reg.counter("opt.primal_dual.samples", ""),
            sol.history.len() as u64
        );
        // The untraced entry point must produce identical numbers.
        let plain = solve(&g, &demand, &paths, 1.0, &config);
        assert_eq!(plain.history, sol.history);
        assert_eq!(plain.residuals, sol.residuals);
    }

    #[test]
    fn history_is_recorded() {
        let g = fig4_network();
        let demand = DemandMatrix::fig4_example();
        let paths = enumerate_demand_paths(&g, &demand, 4);
        let config = PrimalDualConfig {
            max_iters: 1000,
            ..Default::default()
        };
        let sol = solve(&g, &demand, &paths, 1.0, &config);
        assert!(!sol.history.is_empty());
        assert!(sol.iterations <= 1000);
    }

    #[test]
    fn fairness_utility_splits_shared_bottleneck() {
        // Line 0-1-2: pairs (0<->2) and (0<->1) share channel 0-1 with
        // capacity rate 20. Throughput doesn't care who wins; proportional
        // fairness must split ~5/5/5/5.
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(20))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(20))
            .unwrap();
        let mut demand = DemandMatrix::new();
        demand.set(NodeId(0), NodeId(2), 100.0);
        demand.set(NodeId(2), NodeId(0), 100.0);
        demand.set(NodeId(0), NodeId(1), 100.0);
        demand.set(NodeId(1), NodeId(0), 100.0);
        let paths = enumerate_demand_paths(&g, &demand, 3);
        let config = PrimalDualConfig {
            utility: Utility::ProportionalFairness { epsilon: 1e-3 },
            alpha: 0.02,
            eta: 0.02,
            kappa: 0.02,
            max_iters: 40_000,
            ..Default::default()
        };
        let sol = solve(&g, &demand, &paths, 1.0, &config);
        // Per-pair rates.
        let mut rates: std::collections::BTreeMap<(NodeId, NodeId), f64> = Default::default();
        for (i, p) in paths.iter().enumerate() {
            *rates.entry((p.source(), p.dest())).or_default() += sol.path_flows[i];
        }
        for (&(s, d), &r) in &rates {
            assert!(
                (r - 5.0).abs() < 1.0,
                "pair {s}->{d} should get ~5 under fairness, got {r}"
            );
        }
    }

    #[test]
    fn zero_demand_yields_zero() {
        let g = fig4_network();
        let demand = DemandMatrix::new();
        let paths: Vec<Path> = Vec::new();
        let sol = solve(&g, &demand, &paths, 1.0, &PrimalDualConfig::default());
        assert_eq!(sol.throughput, 0.0);
        assert!(sol.converged);
    }
}
