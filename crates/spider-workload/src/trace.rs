//! Transaction trace generation (§6.1).
//!
//! The paper's workload: Poisson transaction arrivals; the sender of each
//! transaction sampled from the node set with an *exponential* distribution
//! (a few nodes originate most payments), the receiver *uniformly at
//! random*; sizes from the Ripple trace. This module reproduces that recipe
//! deterministically from a seed, plus a non-stationary variant (demand
//! pattern shifts over time) matching the Ripple experiment's description of
//! "traffic demands \[that\] vary over time".

use crate::sizes::BoundedPareto;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use spider_core::{Amount, DemandMatrix, NodeId, PaymentId};

/// One application-level payment request.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transaction {
    /// Unique payment id (dense, in arrival order).
    pub id: PaymentId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Payment value.
    pub amount: Amount,
    /// Arrival time in seconds from simulation start.
    pub arrival: f64,
}

/// How senders are drawn from the node set.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SenderDistribution {
    /// Node `i` is chosen with probability ∝ `exp(-i / scale)` — the paper's
    /// skewed sender population. Smaller `scale` = more skew.
    Exponential {
        /// Decay scale in node-index units.
        scale: f64,
    },
}

/// Configuration for trace generation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of nodes in the network (senders/receivers are `0..n`).
    pub num_nodes: usize,
    /// Number of transactions to generate.
    pub num_transactions: usize,
    /// Total arrival window in seconds; arrivals are Poisson with rate
    /// `num_transactions / duration`.
    pub duration: f64,
    /// Sender skew.
    pub senders: SenderDistribution,
    /// If `true`, the sender-identity mapping is re-randomized halfway
    /// through the trace, making the demand matrix non-stationary (the
    /// paper's Ripple workload behaviour).
    pub nonstationary: bool,
    /// RNG seed; identical configs + seeds yield identical traces.
    pub seed: u64,
}

impl TraceConfig {
    /// The paper's ISP workload shape: stationary, exponential senders.
    pub fn isp_default(num_nodes: usize, num_transactions: usize, duration: f64) -> Self {
        TraceConfig {
            num_nodes,
            num_transactions,
            duration,
            senders: SenderDistribution::Exponential {
                scale: num_nodes as f64 / 4.0,
            },
            nonstationary: false,
            seed: 0,
        }
    }

    /// The paper's Ripple workload shape: non-stationary demand.
    pub fn ripple_default(num_nodes: usize, num_transactions: usize, duration: f64) -> Self {
        TraceConfig {
            nonstationary: true,
            ..Self::isp_default(num_nodes, num_transactions, duration)
        }
    }
}

/// Generates a transaction trace, sorted by arrival time.
///
/// # Panics
/// Panics if the config has fewer than 2 nodes, zero duration, or a
/// non-positive sender scale.
pub fn generate(config: &TraceConfig, sizes: &BoundedPareto) -> Vec<Transaction> {
    assert!(config.num_nodes >= 2, "need at least 2 nodes");
    assert!(config.duration > 0.0, "duration must be positive");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Sender CDF over node indices.
    let SenderDistribution::Exponential { scale } = config.senders;
    assert!(scale > 0.0, "sender scale must be positive");
    let mut cdf: Vec<f64> = Vec::with_capacity(config.num_nodes);
    let mut acc = 0.0;
    for i in 0..config.num_nodes {
        acc += (-(i as f64) / scale).exp();
        cdf.push(acc);
    }
    let total_weight = acc;

    // Identity permutation of "who is a heavy sender"; reshuffled halfway
    // when non-stationary.
    let mut identity: Vec<u32> = (0..config.num_nodes as u32).collect();
    let mut shifted = false;

    let rate = config.num_transactions as f64 / config.duration;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(config.num_transactions);
    for k in 0..config.num_transactions {
        let u: f64 = rng.random();
        t += -u.ln() / rate.max(f64::MIN_POSITIVE);
        // A second draw per arrival, unused: without it every seed's trace
        // would change (`tests/input_pins.rs` pins them).
        let _: f64 = rng.random();

        if config.nonstationary && !shifted && t > config.duration / 2.0 {
            use rand::seq::SliceRandom;
            identity.shuffle(&mut rng);
            shifted = true;
        }

        let src_rank = sample_cdf(&cdf, total_weight, &mut rng);
        let src = NodeId(identity[src_rank]);
        // Receiver: uniform over the other nodes.
        let dst = loop {
            let d = NodeId(rng.random_range(0..config.num_nodes as u32));
            if d != src {
                break d;
            }
        };
        out.push(Transaction {
            id: PaymentId(k as u64),
            src,
            dst,
            amount: sizes.sample_amount(&mut rng),
            arrival: t,
        });
    }
    out
}

fn sample_cdf<R: Rng + ?Sized>(cdf: &[f64], total: f64, rng: &mut R) -> usize {
    let u: f64 = rng.random_range(0.0..total);
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Estimates the long-run demand matrix `d_{i,j}` (tokens/second) from a
/// trace window `[start, end)`.
///
/// This is what a Spider (LP) controller would measure before solving the
/// fluid LP.
pub fn demand_matrix(trace: &[Transaction], start: f64, end: f64) -> DemandMatrix {
    assert!(end > start, "empty estimation window");
    let mut d = DemandMatrix::new();
    for tx in trace {
        if tx.arrival >= start && tx.arrival < end {
            d.add(tx.src, tx.dst, tx.amount.as_tokens() / (end - start));
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::isp_sizes;

    fn small_config() -> TraceConfig {
        TraceConfig::isp_default(32, 5_000, 100.0)
    }

    #[test]
    fn generates_requested_count_sorted() {
        let trace = generate(&small_config(), &isp_sizes());
        assert_eq!(trace.len(), 5_000);
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for (k, t) in trace.iter().enumerate() {
            assert_eq!(t.id, PaymentId(k as u64));
            assert_ne!(t.src, t.dst);
            assert!(t.amount.is_positive());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config(), &isp_sizes());
        let b = generate(&small_config(), &isp_sizes());
        assert_eq!(a, b);
        let mut cfg = small_config();
        cfg.seed = 1;
        let c = generate(&cfg, &isp_sizes());
        assert_ne!(a, c);
    }

    #[test]
    fn arrival_rate_close_to_target() {
        let trace = generate(&small_config(), &isp_sizes());
        let last = trace.last().unwrap().arrival;
        // 5000 arrivals at rate 50/s -> last arrival ≈ 100 s (±15%).
        assert!((last - 100.0).abs() < 15.0, "last arrival {last}");
    }

    #[test]
    fn exponential_senders_are_skewed() {
        let trace = generate(&small_config(), &isp_sizes());
        let mut counts = vec![0usize; 32];
        for t in &trace {
            counts[t.src.index()] += 1;
        }
        // Node 0 should send far more than node 31.
        assert!(counts[0] > 10 * counts[31].max(1), "counts {counts:?}");
    }

    #[test]
    fn receivers_cover_node_set() {
        let trace = generate(&small_config(), &isp_sizes());
        let mut seen = [false; 32];
        for t in &trace {
            seen[t.dst.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn nonstationary_shifts_heavy_senders() {
        let mut cfg = small_config();
        cfg.nonstationary = true;
        cfg.num_transactions = 20_000;
        cfg.seed = 123;
        let trace = generate(&cfg, &isp_sizes());
        let mid = cfg.duration / 2.0;
        let top_sender = |txs: &[Transaction]| -> NodeId {
            let mut counts = std::collections::BTreeMap::new();
            for t in txs {
                *counts.entry(t.src).or_insert(0usize) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        let first: Vec<Transaction> = trace.iter().copied().filter(|t| t.arrival < mid).collect();
        let second: Vec<Transaction> = trace.iter().copied().filter(|t| t.arrival >= mid).collect();
        assert!(!first.is_empty() && !second.is_empty());
        // With 32 nodes the reshuffle moves the hottest sender with
        // probability 31/32; the fixed seed makes this deterministic.
        assert_ne!(top_sender(&first), top_sender(&second));
    }

    #[test]
    fn demand_matrix_estimation() {
        let trace = vec![
            Transaction {
                id: PaymentId(0),
                src: NodeId(0),
                dst: NodeId(1),
                amount: Amount::from_whole(10),
                arrival: 1.0,
            },
            Transaction {
                id: PaymentId(1),
                src: NodeId(0),
                dst: NodeId(1),
                amount: Amount::from_whole(30),
                arrival: 3.0,
            },
            Transaction {
                id: PaymentId(2),
                src: NodeId(1),
                dst: NodeId(0),
                amount: Amount::from_whole(100),
                arrival: 12.0, // outside window
            },
        ];
        let d = demand_matrix(&trace, 0.0, 10.0);
        assert!((d.rate(NodeId(0), NodeId(1)) - 4.0).abs() < 1e-9);
        assert_eq!(d.rate(NodeId(1), NodeId(0)), 0.0);
    }
}
