//! Fault-injection and edge-case stress tests: adversarial topologies,
//! drained channels, extreme parameters — the simulator must stay sound
//! (exact conservation, clean accounting) in all of them.
//!
//! Two tiers live in this file (see EXPERIMENTS.md "Test tiers"):
//!
//! - **Tier 1** (default): the fast edge-case tests below, run on every
//!   `cargo test`.
//! - **Tier 2** (`#[ignore]`-tagged `tier2_*` tests): full-scale stress at
//!   ≥10k nodes / ≥100k payments. Run explicitly with
//!   `cargo test --release --test stress -- --ignored tier2_` (~30 s on two
//!   cores; CI runs this step). The `tier3_*` cases are larger still and
//!   are run one at a time by name.

use spider::prelude::*;
use spider::workload::{generate, isp_sizes, ripple_sizes, TraceConfig};

fn tx(id: u64, src: u32, dst: u32, amount: i64, arrival: f64) -> Transaction {
    Transaction {
        id: PaymentId(id),
        src: NodeId(src),
        dst: NodeId(dst),
        amount: Amount::from_whole(amount),
        arrival,
    }
}

/// Accounting identity that must hold for every report.
fn assert_sound(report: &SimReport) {
    assert_eq!(
        report.completed + report.abandoned + report.pending_at_end,
        report.attempted,
        "status accounting broken: {report:?}"
    );
    assert!(report.delivered_volume <= report.attempted_volume + 1e-6);
    assert!(report.completed_volume <= report.delivered_volume + 1e-6);
    assert!((0.0..=1.0).contains(&report.final_mean_imbalance));
}

#[test]
fn fully_drained_direction_blocks_everything() {
    // All funds on the wrong side: nothing can move, nothing must move.
    let mut g = spider::core::Network::new(2);
    g.add_channel_with_balances(NodeId(0), NodeId(1), Amount::ZERO, Amount::from_whole(100))
        .unwrap();
    let txs = vec![tx(0, 0, 1, 10, 0.1)];
    for scheme in [true, false] {
        let report = if scheme {
            spider::sim::run(
                &g,
                &txs,
                &mut ShortestPathScheme::new(),
                &SimConfig::new(5.0),
            )
        } else {
            spider::sim::run(&g, &txs, &mut MaxFlowScheme::new(), &SimConfig::new(5.0))
        };
        assert_eq!(report.delivered_volume, 0.0);
        assert_eq!(report.completed, 0);
        assert_sound(&report);
    }
}

#[test]
fn one_micro_unit_payments() {
    let g = spider::topology::ring(4, Amount::from_whole(10));
    let txs: Vec<Transaction> = (0..50)
        .map(|i| Transaction {
            id: PaymentId(i),
            src: NodeId((i % 4) as u32),
            dst: NodeId(((i + 2) % 4) as u32),
            amount: Amount::from_micros(1),
            arrival: 0.1 + i as f64 * 0.01,
        })
        .collect();
    let report = spider::sim::run(
        &g,
        &txs,
        &mut WaterfillingScheme::new(),
        &SimConfig::new(10.0),
    );
    assert_eq!(report.completed, 50, "dust payments must all clear");
    assert_sound(&report);
}

#[test]
fn payment_larger_than_network_capital() {
    let g = spider::topology::ring(4, Amount::from_whole(10));
    let txs = vec![tx(0, 0, 2, 1_000_000, 0.1)];
    let mut cfg = SimConfig::new(10.0);
    cfg.deadline = 5.0;
    let report = spider::sim::run(&g, &txs, &mut WaterfillingScheme::new(), &cfg);
    assert_eq!(report.completed, 0);
    assert!(report.delivered_volume < 40.0, "can't exceed total capital");
    assert_sound(&report);
}

#[test]
fn mtu_larger_than_any_payment_degenerates_to_single_unit() {
    let g = spider::topology::ring(5, Amount::from_whole(1000));
    let txs: Vec<Transaction> = (0..20)
        .map(|i| {
            tx(
                i,
                (i % 5) as u32,
                ((i + 2) % 5) as u32,
                50,
                0.1 + i as f64 * 0.1,
            )
        })
        .collect();
    let mut cfg = SimConfig::new(20.0);
    cfg.mtu = Amount::from_whole(1_000_000);
    let report = spider::sim::run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
    assert_eq!(
        report.units_sent as usize, report.completed,
        "one unit per payment"
    );
    assert_sound(&report);
}

#[test]
fn heavily_skewed_initial_balances() {
    // 95% of every channel's funds on one side.
    let base = spider::topology::isp_topology(Amount::from_whole(30_000));
    let skewed = spider::topology::with_skewed_balances(&base, 0.95, 0.99, 7);
    let mut cfg = TraceConfig::isp_default(skewed.num_nodes(), 2_000, 30.0);
    cfg.seed = 3;
    let txs = generate(&cfg, &isp_sizes());
    let report = spider::sim::run(
        &skewed,
        &txs,
        &mut WaterfillingScheme::new(),
        &SimConfig::new(30.0),
    );
    assert_sound(&report);
    // Must still deliver something: aggregate spendable funds are plentiful.
    assert!(report.success_ratio() > 0.2, "{}", report.summary());
    // And be worse than the balanced start.
    let balanced = spider::sim::run(
        &base,
        &txs,
        &mut WaterfillingScheme::new(),
        &SimConfig::new(30.0),
    );
    assert!(balanced.success_ratio() >= report.success_ratio());
}

#[test]
fn bursty_arrivals_stress_the_scheduler() {
    let g = spider::topology::isp_topology(Amount::from_whole(30_000));
    let mut cfg = TraceConfig::isp_default(g.num_nodes(), 3_000, 30.0);
    cfg.seed = 9;
    // Squeeze each 5 s cycle's Poisson arrivals into its first 0.5 s: the
    // same payments arrive in bursts at ten times the mean rate.
    let (cycle, burst) = (5.0, 0.5);
    let mut txs = generate(&cfg, &isp_sizes());
    for t in &mut txs {
        let start = (t.arrival / cycle).floor() * cycle;
        t.arrival = start + (t.arrival - start) * (burst / cycle);
    }
    let report = spider::sim::run(
        &g,
        &txs,
        &mut WaterfillingScheme::new(),
        &SimConfig::new(30.0),
    );
    assert_sound(&report);
    assert!(report.success_ratio() > 0.3, "{}", report.summary());
}

#[test]
fn queued_engine_on_isp_stays_sound() {
    let g = spider::topology::isp_topology(Amount::from_whole(30_000));
    let mut cfg = TraceConfig::isp_default(g.num_nodes(), 2_000, 20.0);
    cfg.seed = 5;
    let txs = generate(&cfg, &isp_sizes());
    let mut qcfg = QueuedConfig::new(20.0);
    qcfg.deadline = 5.0;
    let out = spider::sim::run_queued(&g, &txs, &qcfg);
    assert_sound(&out.report);
    assert!(out.report.success_ratio() > 0.3, "{}", out.report.summary());
    // Queue stats are internally consistent.
    assert!(out.queues.units_dropped <= out.queues.units_queued);
    assert!(out.queues.mean_wait >= 0.0);
}

#[test]
fn queue_overflow_drops_cleanly() {
    // A dry downstream and more units than a router queue holds (4096, at
    // a 1-token MTU): every unit beyond the cap must be dropped (refunded),
    // never lost.
    let mut g = spider::core::Network::new(3);
    g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10_000))
        .unwrap();
    g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::ZERO, Amount::from_whole(50))
        .unwrap();
    let txs = vec![tx(0, 0, 2, 5_000, 0.1)];
    let mut qcfg = QueuedConfig::new(20.0);
    qcfg.deadline = 15.0;
    qcfg.mtu = Amount::from_whole(1);
    let out = spider::sim::run_queued(&g, &txs, &qcfg);
    assert_eq!(out.queues.max_queue_len, 4096, "{:?}", out.queues);
    assert!(out.queues.units_dropped > 0, "{:?}", out.queues);
    assert_eq!(out.report.delivered_volume, 0.0);
    assert_sound(&out.report);
}

#[test]
fn zero_transactions_is_a_noop() {
    let g = spider::topology::ring(4, Amount::from_whole(10));
    let report = spider::sim::run(
        &g,
        &[],
        &mut ShortestPathScheme::new(),
        &SimConfig::new(5.0),
    );
    assert_eq!(report.attempted, 0);
    assert_eq!(report.units_sent, 0);
    assert_eq!(report.success_ratio(), 0.0);
}

#[test]
fn simultaneous_arrivals_are_deterministic() {
    let g = spider::topology::ring(6, Amount::from_whole(100));
    // 30 payments all arriving at the exact same instant.
    let txs: Vec<Transaction> = (0..30)
        .map(|i| tx(i, (i % 6) as u32, ((i + 3) % 6) as u32, 20, 1.0))
        .collect();
    let a = spider::sim::run(
        &g,
        &txs,
        &mut WaterfillingScheme::new(),
        &SimConfig::new(10.0),
    );
    let b = spider::sim::run(
        &g,
        &txs,
        &mut WaterfillingScheme::new(),
        &SimConfig::new(10.0),
    );
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.delivered_volume, b.delivered_volume);
    assert_sound(&a);
}

// ---------------------------------------------------------------------------
// Tier 2: full-scale stress. `cargo test --release --test stress -- --ignored tier2_`
// ---------------------------------------------------------------------------

/// Graduated tier-2: a 10k-node network through the partition-parallel
/// engine, bounded to a payment count CI can afford in debug builds. The
/// partitioner, the four-shard epoch loop, the owner guard, and the merge
/// all run at real scale; the full 100k-payment soak (with 1-vs-4-shard
/// byte-identity) stays `#[ignore]`d below.
#[test]
fn tier2_sharded_engine_10k_nodes_bounded() {
    use spider::sim::{run_sharded, ShardScheme, ShardedConfig};
    let g = spider::topology::ripple_topology_scaled(10_000, Amount::from_whole(5_000), 42);
    assert!(g.num_nodes() >= 10_000);
    let mut cfg = TraceConfig::ripple_default(g.num_nodes(), 400, 10.0);
    cfg.seed = 42;
    let txs = generate(&cfg, &ripple_sizes());
    let partition = Partition::build(&g, 4, 42);
    assert_eq!(partition.num_shards(), 4);
    let mut sim_cfg = ShardedConfig::new(15.0);
    sim_cfg.scheme = ShardScheme::ShortestPath;
    sim_cfg.audit = true;
    let report = run_sharded(&g, &txs, &partition, &sim_cfg);
    assert_sound(&report);
    assert!(report.attempted >= 390, "attempted {}", report.attempted);
    assert!(
        report.audit_violations.is_empty(),
        "sharded 10k-node run violated the audit: {:?}",
        report.audit_violations
    );
    assert!(
        report.success_ratio() > 0.1,
        "scale run must route real volume: {}",
        report.summary()
    );
}

/// The process's peak resident set in kB (`VmHWM` in `/proc/self/status`),
/// or `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The inputs of the `ripple100k-sharded2` benchmark workload at 1M nodes:
/// capacity 30 000, 1k payments over 10 s, sender skew 16, seed 7.
fn ripple_1m_inputs() -> (Network, Vec<Transaction>) {
    use spider::workload::SenderDistribution;
    let g = spider::topology::ripple_topology_scaled(1_000_000, Amount::from_whole(30_000), 7);
    assert!(g.num_nodes() >= 1_000_000);
    let mut cfg = TraceConfig::ripple_default(g.num_nodes(), 1_000, 10.0);
    cfg.seed = 7;
    cfg.senders = SenderDistribution::Exponential {
        scale: g.num_nodes() as f64 / 16.0,
    };
    let txs = generate(&cfg, &ripple_sizes());
    (g, txs)
}

/// One line per 1M-node run, the same for both engines: set-up and run
/// wall time, the process's peak resident set and the audit's tally.
fn print_1m_run(engine: &str, g: &Network, report: &SimReport, setup: f64, run: f64) {
    println!(
        "tier3 ripple-1M: {} nodes, {} channels, {} payments on {engine}; set-up {setup:.1} s, \
         run {run:.1} s, peak RSS {} kB, {} audit checks, {} violations, success ratio {:.3}, \
         host_online_cpus {}",
        g.num_nodes(),
        g.num_channels(),
        report.attempted,
        peak_rss_kb().map_or("n/a".to_string(), |kb| kb.to_string()),
        report.audit_checks,
        report.audit_violations.len(),
        report.success_ratio(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
}

/// Tier-3 memory measurement: [`ripple_1m_inputs`] on `run_sharded` with 2
/// shards, audited, shortest path. Prints set-up and run wall time and the
/// process's peak resident set; EXPERIMENTS.md "Scale notes" records a run.
/// Needs about 1 GB.
#[test]
#[ignore = "tier-3 scale test (1M nodes, ~1 GB resident); run by name with --ignored"]
fn tier3_sharded_ripple_1m_nodes_memory() {
    use spider::sim::{run_sharded, ShardScheme, ShardedConfig};
    use std::time::Instant;
    let start = Instant::now();
    let (g, txs) = ripple_1m_inputs();
    let partition = Partition::build(&g, 2, 7);
    let setup = start.elapsed();
    let mut sim_cfg = ShardedConfig::new(10.0);
    sim_cfg.scheme = ShardScheme::ShortestPath;
    sim_cfg.audit = true;
    let report = run_sharded(&g, &txs, &partition, &sim_cfg);
    let run = start.elapsed() - setup;
    print_1m_run(
        "2 shards",
        &g,
        &report,
        setup.as_secs_f64(),
        run.as_secs_f64(),
    );
    assert_sound(&report);
    assert!(report.audit_checks > 0);
    assert!(
        report.audit_violations.is_empty(),
        "1M-node sharded run violated the audit: {:?}",
        report.audit_violations
    );
}

/// The same measurement on the sequential `run`, the twin of
/// [`tier3_sharded_ripple_1m_nodes_memory`]: same inputs and scheme, so
/// each engine is measured with one command. Unaudited: `run`'s auditor
/// rescans every channel on each settle, which does not finish at this
/// scale. Needs about 400 MB.
#[test]
#[ignore = "tier-3 scale test (1M nodes, ~400 MB resident); run by name with --ignored"]
fn tier3_sequential_ripple_1m_nodes_memory() {
    use std::time::Instant;
    let start = Instant::now();
    let (g, txs) = ripple_1m_inputs();
    let setup = start.elapsed();
    let report = spider::sim::run(
        &g,
        &txs,
        &mut ShortestPathScheme::new(),
        &SimConfig::new(10.0),
    );
    let run = start.elapsed() - setup;
    print_1m_run("run", &g, &report, setup.as_secs_f64(), run.as_secs_f64());
    assert_sound(&report);
}

/// Median and quartiles of five or more samples.
fn quartiles(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| samples[(q * (samples.len() - 1) as f64).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

/// Tier-3 timing sweep behind the sharded verdict (EXPERIMENTS.md, "The
/// sharded verdict"): the inputs of `ripple100k-sharded2` and
/// `ripple400-sharded1` (capacity 30 000, sender skew 16, seed 7) at one
/// and four or more times their payment rate. Each cell runs one shard, two
/// shards and the sequential engine on the same network and trace, five
/// repetitions with the order rotated each time, and prints the quartiles
/// of the three walls and of `speedup_2v1` (1-shard wall over 2-shard
/// wall, paired by repetition). The 1- and 2-shard reports must be
/// identical. Wall time needs quiet cores: run it alone, by name.
#[test]
#[ignore = "tier-3 timing sweep (1–3 minutes on 2 cores); run by name with --ignored --nocapture"]
fn tier3_sharded_speedup_sweep() {
    use spider::sim::{run_sharded, ShardScheme, ShardedConfig};
    use spider::workload::SenderDistribution;
    use std::time::Instant;
    const REPS: usize = 5;
    println!(
        "host_online_cpus {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("| cell | payments / epoch | speedup_2v1 median (quartiles) | 1 shard | 2 shards | sequential |");
    // `(nodes, shortest path rather than waterfilling, seconds, payments)`.
    let sweeps: [(usize, bool, f64, &[usize]); 2] = [
        (100_000, true, 10.0, &[1_000, 4_000, 16_000, 64_000]),
        (400, false, 136.0, &[16_000, 64_000]),
    ];
    for (nodes, shortest_path, duration, rates) in sweeps {
        let g = spider::topology::ripple_topology_scaled(nodes, Amount::from_whole(30_000), 7);
        let partitions = [Partition::single(&g), Partition::build(&g, 2, 7)];
        for &payments in rates {
            let mut trace = TraceConfig::ripple_default(g.num_nodes(), payments, duration);
            trace.seed = 7;
            trace.senders = SenderDistribution::Exponential {
                scale: g.num_nodes() as f64 / 16.0,
            };
            let txs = generate(&trace, &ripple_sizes());
            let mut sharded = ShardedConfig::new(duration);
            sharded.scheme = if shortest_path {
                ShardScheme::ShortestPath
            } else {
                ShardScheme::Waterfilling
            };
            let sequential = SimConfig::new(duration);
            // walls[0], walls[1]: one and two shards; walls[2]: sequential.
            let mut walls: [Vec<f64>; 3] = Default::default();
            let mut reports: [String; 2] = Default::default();
            for rep in 0..REPS {
                for k in 0..3 {
                    let engine = (k + rep) % 3;
                    let start = Instant::now();
                    if engine == 2 {
                        let report = if shortest_path {
                            run(&g, &txs, &mut ShortestPathScheme::new(), &sequential)
                        } else {
                            run(&g, &txs, &mut WaterfillingScheme::new(), &sequential)
                        };
                        walls[2].push(start.elapsed().as_secs_f64());
                        assert_sound(&report);
                    } else {
                        let report = run_sharded(&g, &txs, &partitions[engine], &sharded);
                        walls[engine].push(start.elapsed().as_secs_f64());
                        if rep == 0 {
                            reports[engine] = serde_json::to_string(&report).expect("serializes");
                        }
                    }
                }
            }
            assert_eq!(reports[0], reports[1], "1 and 2 shards diverged");
            let speedup: Vec<f64> = walls[0].iter().zip(&walls[1]).map(|(a, b)| a / b).collect();
            let [lo, mid, hi] = quartiles(speedup);
            let [one, two, seq] = walls.map(|w| quartiles(w)[1]);
            println!(
            "| Ripple-{}, {}, {} pmts / {} s | {:.1} | {mid:.2} ({lo:.2}–{hi:.2}) | {one:.3} s | \
             {two:.3} s | {seq:.3} s |",
            nodes,
            if shortest_path {
                "shortest"
            } else {
                "waterfilling"
            },
            payments,
            duration,
            payments as f64 / (duration / 0.05),
        );
        }
    }
}

/// Full tier-2 sharded soak: 10k nodes / 100k payments, run at 1 and 4
/// shards — the two reports must be byte-identical and audit-clean.
#[test]
#[ignore = "tier-2 scale test (10k nodes / 100k payments, 2 runs); run with --ignored"]
fn tier2_sharded_engine_10k_nodes_100k_payments_identity() {
    use spider::sim::{run_sharded, ShardScheme, ShardedConfig};
    let g = spider::topology::ripple_topology_scaled(10_000, Amount::from_whole(5_000), 42);
    let mut cfg = TraceConfig::ripple_default(g.num_nodes(), 100_000, 600.0);
    cfg.seed = 42;
    let txs = generate(&cfg, &ripple_sizes());
    assert!(txs.len() >= 100_000);
    let end = txs.last().map_or(600.0, |t| t.arrival) + 1.0;
    let mut sim_cfg = ShardedConfig::new(end);
    sim_cfg.scheme = ShardScheme::Waterfilling;
    sim_cfg.audit = true;
    let r1 = run_sharded(&g, &txs, &Partition::single(&g), &sim_cfg);
    let r4 = run_sharded(&g, &txs, &Partition::build(&g, 4, 42), &sim_cfg);
    assert_sound(&r1);
    assert!(r1.audit_violations.is_empty() && r4.audit_violations.is_empty());
    assert_eq!(
        serde_json::to_string(&r1).expect("report serializes"),
        serde_json::to_string(&r4).expect("report serializes"),
        "sharded report diverged between 1 and 4 shards at full scale"
    );
    assert!(r1.attempted >= 100_000);
}

/// 10k-node scale-free network, 100k payments, packet-switched routing.
/// The dense `Vec`-indexed state must keep exact conservation and clean
/// accounting at two orders of magnitude above the tier-1 scenarios.
#[test]
#[ignore = "tier-2 scale test (10k nodes / 100k payments); run with --ignored"]
fn tier2_packet_switched_10k_nodes_100k_payments() {
    let g = spider::topology::ripple_topology_scaled(10_000, Amount::from_whole(5_000), 42);
    assert!(g.num_nodes() >= 10_000);
    let mut cfg = TraceConfig::ripple_default(g.num_nodes(), 100_000, 600.0);
    cfg.seed = 42;
    let txs = generate(&cfg, &ripple_sizes());
    assert!(txs.len() >= 100_000);
    // Arrivals are Poisson-targeted at `duration`, so the tail can spill a
    // few seconds past it; the sim window must cover the whole trace for
    // every payment to be admitted.
    let end = txs.last().map_or(600.0, |t| t.arrival) + 1.0;
    let report = spider::sim::run(
        &g,
        &txs,
        &mut WaterfillingScheme::new(),
        &SimConfig::new(end),
    );
    assert_sound(&report);
    assert!(report.attempted >= 100_000);
    assert!(
        report.success_ratio() > 0.1,
        "scale run must route real volume: {}",
        report.summary()
    );
}

/// Same scale through the router-queue engine: queue bookkeeping (dense
/// per-channel slots) must stay internally consistent at 10k nodes.
#[test]
#[ignore = "tier-2 scale test (10k nodes / 100k payments); run with --ignored"]
fn tier2_queued_engine_10k_nodes_100k_payments() {
    let g = spider::topology::ripple_topology_scaled(10_000, Amount::from_whole(5_000), 43);
    let mut cfg = TraceConfig::ripple_default(g.num_nodes(), 100_000, 600.0);
    cfg.seed = 43;
    let txs = generate(&cfg, &ripple_sizes());
    let end = txs.last().map_or(600.0, |t| t.arrival) + 1.0;
    let mut qcfg = QueuedConfig::new(end);
    qcfg.deadline = 30.0;
    let out = spider::sim::run_queued(&g, &txs, &qcfg);
    assert_sound(&out.report);
    assert!(out.report.attempted >= 100_000);
    assert!(out.queues.units_dropped <= out.queues.units_queued);
    assert!(out.queues.mean_wait >= 0.0);
}

#[test]
fn all_extensions_enabled_together() {
    // Congestion control and rebalancing at once.
    let g = spider::topology::isp_topology(Amount::from_whole(30_000));
    let mut cfg = TraceConfig::isp_default(g.num_nodes(), 1_500, 20.0);
    cfg.seed = 11;
    let txs = generate(&cfg, &isp_sizes());
    let mut sim_cfg = SimConfig::new(20.0);
    sim_cfg.congestion = true;
    sim_cfg.rebalance = true;
    let report = spider::sim::run(&g, &txs, &mut WaterfillingScheme::new(), &sim_cfg);
    assert_sound(&report);
    assert!(report.success_ratio() > 0.2, "{}", report.summary());
}
