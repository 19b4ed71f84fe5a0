//! Sequential-vs-sharded differential lockdown for the partition-parallel
//! engine (`spider::sim::run_sharded`).
//!
//! The engine's contract is *partition independence*: the partition decides
//! where work happens, never what happens. These tests enforce the strong
//! form of that contract — for any topology, workload, and fault plan, the
//! run at 1 shard and the runs at 2/4/7 shards must produce
//!
//! - **byte-identical** `SimReport` JSON (every counter, every float),
//! - **byte-identical** trace JSONL (same events, same global order), and
//! - **zero** ledger-audit violations with the per-epoch auditor on
//!   (including the `ForeignSlotMutation` owner guard, which is active in
//!   release builds too).
//!
//! Deterministic scenarios pin the paper topologies; the proptest sweeps
//! random graphs × workloads × fault plans.

use proptest::prelude::*;
use spider::prelude::*;
use spider::routing::FeeSchedule;
use spider::sim::{
    run_sharded, CongestionConfig, FaultConfig, FaultPlan, RebalancePolicy, ShardPolicy,
    ShardedConfig,
};
use spider::telemetry::events_to_jsonl;
use spider::workload::{generate, isp_sizes, TraceConfig};

/// Shard counts differenced against the single-shard reference: even,
/// power-of-two, and a prime that never divides the payment count evenly.
const SHARD_COUNTS: [usize; 3] = [2, 4, 7];

/// Runs the scenario at one shard count, returning the report and trace.
fn run_at(
    network: &Network,
    txs: &[Transaction],
    config: &ShardedConfig,
    shards: usize,
    seed: u64,
) -> (SimReport, String) {
    let partition = if shards <= 1 {
        Partition::single(network)
    } else {
        Partition::build(network, shards, seed)
    };
    let tel = Telemetry::enabled();
    let mut cfg = config.clone();
    cfg.telemetry = tel.clone();
    cfg.audit = true;
    let report = run_sharded(network, txs, &partition, &cfg);
    (report, events_to_jsonl(&tel.events()))
}

/// The core differential assertion: every shard count in [`SHARD_COUNTS`]
/// must reproduce the single-shard run byte for byte, with a clean audit.
fn assert_shard_equivalence(
    network: &Network,
    txs: &[Transaction],
    config: &ShardedConfig,
    seed: u64,
) {
    let (ref_report, ref_trace) = run_at(network, txs, config, 1, seed);
    assert!(
        ref_report.audit_violations.is_empty(),
        "single-shard run violated the ledger audit: {:?}",
        ref_report.audit_violations
    );
    let ref_json = serde_json::to_string_pretty(&ref_report).expect("report serializes");
    for &shards in &SHARD_COUNTS {
        let (report, trace) = run_at(network, txs, config, shards, seed);
        assert!(
            report.audit_violations.is_empty(),
            "{shards}-shard run violated the ledger audit: {:?}",
            report.audit_violations
        );
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        assert_eq!(
            ref_json, json,
            "SimReport JSON diverged between 1 and {shards} shards"
        );
        assert_eq!(
            ref_trace, trace,
            "trace JSONL diverged between 1 and {shards} shards"
        );
    }
}

fn base_config(end_time: f64) -> ShardedConfig {
    ShardedConfig::new(end_time)
}

// ---------------------------------------------------------------------------
// Deterministic scenarios on the paper topologies.
// ---------------------------------------------------------------------------

#[test]
fn isp_workload_is_partition_independent() {
    let network = spider::topology::isp_topology(Amount::from_whole(300));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 400, 20.0);
    trace_cfg.seed = 11;
    let txs = generate(&trace_cfg, &isp_sizes());
    assert_shard_equivalence(&network, &txs, &base_config(25.0), 11);
}

#[test]
fn ripple_workload_is_partition_independent() {
    let network = spider::topology::ripple_topology_scaled(120, Amount::from_whole(2_000), 5);
    let mut trace_cfg = TraceConfig::ripple_default(network.num_nodes(), 300, 15.0);
    trace_cfg.seed = 5;
    let txs = generate(&trace_cfg, &isp_sizes());
    assert_shard_equivalence(&network, &txs, &base_config(20.0), 5);
}

#[test]
fn shortest_path_scheme_is_partition_independent() {
    let network = spider::topology::isp_topology(Amount::from_whole(200));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 300, 15.0);
    trace_cfg.seed = 23;
    let txs = generate(&trace_cfg, &isp_sizes());
    let mut cfg = base_config(20.0);
    cfg.scheme = spider::sim::ShardScheme::ShortestPath;
    assert_shard_equivalence(&network, &txs, &cfg, 23);
}

#[test]
fn contended_channels_are_partition_independent() {
    // Tight capacity: units race for the same channels, so the lock-order
    // and refund paths are exercised hard.
    let network = spider::topology::isp_topology(Amount::from_whole(40));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 500, 10.0);
    trace_cfg.seed = 7;
    let txs = generate(&trace_cfg, &isp_sizes());
    assert_shard_equivalence(&network, &txs, &base_config(15.0), 7);
}

#[test]
fn fault_stress_scenario_is_partition_independent() {
    let network = spider::topology::isp_topology(Amount::from_whole(300));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 300, 15.0);
    trace_cfg.seed = 3;
    let txs = generate(&trace_cfg, &isp_sizes());
    let fault_cfg = FaultConfig::scenario("stress").expect("stress scenario exists");
    let mut cfg = base_config(20.0);
    cfg.faults = Some(FaultPlan::from_config(&fault_cfg, &network, 20.0));
    assert_shard_equivalence(&network, &txs, &cfg, 3);
}

#[test]
fn no_retry_fault_scenario_is_partition_independent() {
    let network = spider::topology::isp_topology(Amount::from_whole(300));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 200, 12.0);
    trace_cfg.seed = 9;
    let txs = generate(&trace_cfg, &isp_sizes());
    let mut fault_cfg = FaultConfig::scenario("outages").expect("outages scenario exists");
    fault_cfg.retry = None;
    let mut cfg = base_config(16.0);
    cfg.faults = Some(FaultPlan::from_config(&fault_cfg, &network, 16.0));
    assert_shard_equivalence(&network, &txs, &cfg, 9);
}

/// A network sample's `pending` counts the payments that have arrived and
/// are not yet completed or abandoned — recomputed here from the run's own
/// trace at every sample time, at 1 and 4 shards. Payments dealt to a shard
/// but not yet arrived are not pending.
#[test]
fn sampled_pending_counts_arrived_unfinished_payments() {
    use spider::telemetry::TraceEvent;
    let network = spider::topology::isp_topology(Amount::from_whole(300));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 300, 15.0);
    trace_cfg.seed = 3;
    let txs = generate(&trace_cfg, &isp_sizes());
    let fault_cfg = FaultConfig::scenario("stress").expect("stress scenario exists");
    let mut cfg = base_config(20.0);
    cfg.faults = Some(FaultPlan::from_config(&fault_cfg, &network, 20.0));
    for shards in [1, 4] {
        let partition = if shards == 1 {
            Partition::single(&network)
        } else {
            Partition::build(&network, shards, 3)
        };
        let tel = Telemetry::enabled();
        let mut run_cfg = cfg.clone();
        run_cfg.telemetry = tel.clone();
        let report = run_sharded(&network, &txs, &partition, &run_cfg);
        let (mut arrived, mut finished) = (Vec::new(), Vec::new());
        for event in tel.events() {
            match event {
                TraceEvent::PaymentArrived { t, .. } => arrived.push(t),
                TraceEvent::PaymentCompleted { t, .. } | TraceEvent::PaymentAbandoned { t, .. } => {
                    finished.push(t)
                }
                _ => {}
            }
        }
        let series = report.telemetry.expect("telemetry on").network_series;
        assert!(series.len() > 10, "{shards} shards: too few samples");
        assert!(series.iter().any(|s| s.pending > 0));
        for sample in &series {
            let by = |ts: &[f64]| ts.iter().filter(|&&t| t <= sample.t).count();
            assert_eq!(
                sample.pending as usize,
                by(&arrived) - by(&finished),
                "{shards} shards: pending at t = {}",
                sample.t
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Feature-parity scenarios: router queues, fees, congestion control, and
// rebalancing must all be partition-independent, alone and combined.
// ---------------------------------------------------------------------------

/// Enables every sequential-engine feature on a sharded config.
fn enable_all_features(cfg: &mut ShardedConfig, network: &Network) {
    cfg.policy = ShardPolicy::Queued;
    cfg.fees = Some(FeeSchedule::uniform(
        network,
        Amount::from_micros(10),
        1_000,
    ));
    cfg.congestion = Some(CongestionConfig::default());
    cfg.rebalance = Some(RebalancePolicy::aggressive());
}

#[test]
fn queued_policy_is_partition_independent() {
    // Tight capacity so units actually queue and drain across epochs.
    let network = spider::topology::isp_topology(Amount::from_whole(60));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 400, 12.0);
    trace_cfg.seed = 31;
    let txs = generate(&trace_cfg, &isp_sizes());
    let mut cfg = base_config(18.0);
    cfg.policy = ShardPolicy::Queued;
    assert_shard_equivalence(&network, &txs, &cfg, 31);
}

#[test]
fn fees_are_partition_independent() {
    let network = spider::topology::isp_topology(Amount::from_whole(250));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 300, 15.0);
    trace_cfg.seed = 37;
    let txs = generate(&trace_cfg, &isp_sizes());
    let mut cfg = base_config(20.0);
    cfg.fees = Some(FeeSchedule::uniform(
        &network,
        Amount::from_micros(25),
        2_500,
    ));
    assert_shard_equivalence(&network, &txs, &cfg, 37);
}

#[test]
fn congestion_control_is_partition_independent() {
    // Small windows force the AIMD gate to actually defer pumping.
    let network = spider::topology::isp_topology(Amount::from_whole(80));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 350, 12.0);
    trace_cfg.seed = 41;
    let txs = generate(&trace_cfg, &isp_sizes());
    let mut cfg = base_config(16.0);
    cfg.congestion = Some(CongestionConfig {
        initial_window: 2.0,
        max_window: 16.0,
        ..CongestionConfig::default()
    });
    assert_shard_equivalence(&network, &txs, &cfg, 41);
}

#[test]
fn rebalancing_is_partition_independent() {
    // Skewed traffic drains channels one way, so the aggressive policy
    // fires real withdraw/deposit pairs that must replicate across shards.
    let network = spider::topology::isp_topology(Amount::from_whole(70));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 400, 14.0);
    trace_cfg.seed = 43;
    let txs = generate(&trace_cfg, &isp_sizes());
    let mut cfg = base_config(20.0);
    cfg.rebalance = Some(RebalancePolicy::aggressive());
    assert_shard_equivalence(&network, &txs, &cfg, 43);
}

#[test]
fn all_features_are_partition_independent() {
    let network = spider::topology::isp_topology(Amount::from_whole(90));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 400, 14.0);
    trace_cfg.seed = 47;
    let txs = generate(&trace_cfg, &isp_sizes());
    let mut cfg = base_config(20.0);
    enable_all_features(&mut cfg, &network);
    assert_shard_equivalence(&network, &txs, &cfg, 47);
}

#[test]
fn all_features_under_faults_are_partition_independent() {
    let network = spider::topology::isp_topology(Amount::from_whole(90));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 300, 14.0);
    trace_cfg.seed = 53;
    let txs = generate(&trace_cfg, &isp_sizes());
    let fault_cfg = FaultConfig::scenario("stress").expect("stress scenario exists");
    let mut cfg = base_config(20.0);
    enable_all_features(&mut cfg, &network);
    cfg.faults = Some(FaultPlan::from_config(&fault_cfg, &network, 20.0));
    assert_shard_equivalence(&network, &txs, &cfg, 53);
}

// ---------------------------------------------------------------------------
// Property-based sweep: random topologies × workloads × fault plans.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_scenarios_are_partition_independent(
        n in 8usize..28,
        p in 0.15f64..0.5,
        topo_seed in any::<u64>(),
        trace_seed in any::<u64>(),
        num_txs in 20usize..120,
        capacity in 20i64..400,
        // Fault plan, drawn flat (the vendored proptest stub has no
        // combinators): `fault_sel == 0` ≈ a third of cases means "no
        // faults" so the fault-free path stays covered.
        fault_sel in 0u8..3,
        fault_seed in any::<u64>(),
        outage_rate in 0.0f64..0.4,
        drop_prob in 0.0f64..0.15,
        grief_prob in 0.0f64..0.1,
        retry in any::<bool>(),
    ) {
        let network = spider::topology::erdos_renyi(
            n, p, Amount::from_whole(capacity), topo_seed,
        );
        if network.num_channels() == 0 {
            return Ok(());
        }
        let duration = 10.0;
        let mut trace_cfg = TraceConfig::isp_default(n, num_txs, duration);
        trace_cfg.seed = trace_seed;
        let txs = generate(&trace_cfg, &isp_sizes());
        let mut cfg = base_config(14.0);
        if fault_sel > 0 {
            let mut fc = FaultConfig {
                seed: fault_seed,
                channel_outage_rate: outage_rate,
                unit_drop_prob: drop_prob,
                grief_prob,
                ..FaultConfig::default()
            };
            if !retry {
                fc.retry = None;
            }
            cfg.faults = Some(FaultPlan::from_config(&fc, &network, 14.0));
        }
        assert_shard_equivalence(&network, &txs, &cfg, topo_seed ^ trace_seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Full-matrix generative sweep: random graph × workload × feature
    /// toggles (queued policy, fees, congestion, rebalancing) × fault plan.
    /// The 1-shard run is the sequential reference; 2- and 4-shard runs must
    /// reproduce it byte for byte with a clean per-epoch ledger audit.
    #[test]
    fn prop_sharded_parity_full_features(
        n in 8usize..24,
        p in 0.2f64..0.5,
        topo_seed in any::<u64>(),
        trace_seed in any::<u64>(),
        num_txs in 20usize..100,
        capacity in 20i64..200,
        queued in any::<bool>(),
        fees_on in any::<bool>(),
        fee_ppm in 100u32..5_000,
        congestion_on in any::<bool>(),
        initial_window in 1.0f64..8.0,
        rebalance_on in any::<bool>(),
        faults_on in any::<bool>(),
        fault_seed in any::<u64>(),
        outage_rate in 0.0f64..0.3,
        drop_prob in 0.0f64..0.1,
    ) {
        let network = spider::topology::erdos_renyi(
            n, p, Amount::from_whole(capacity), topo_seed,
        );
        if network.num_channels() == 0 {
            return Ok(());
        }
        let duration = 8.0;
        let mut trace_cfg = TraceConfig::isp_default(n, num_txs, duration);
        trace_cfg.seed = trace_seed;
        let txs = generate(&trace_cfg, &isp_sizes());
        let mut cfg = base_config(12.0);
        if queued {
            cfg.policy = ShardPolicy::Queued;
        }
        if fees_on {
            cfg.fees = Some(FeeSchedule::uniform(
                &network,
                Amount::from_micros(10),
                fee_ppm,
            ));
        }
        if congestion_on {
            cfg.congestion = Some(CongestionConfig {
                initial_window,
                ..CongestionConfig::default()
            });
        }
        if rebalance_on {
            cfg.rebalance = Some(RebalancePolicy::aggressive());
        }
        if faults_on {
            let fc = FaultConfig {
                seed: fault_seed,
                channel_outage_rate: outage_rate,
                unit_drop_prob: drop_prob,
                ..FaultConfig::default()
            };
            cfg.faults = Some(FaultPlan::from_config(&fc, &network, 12.0));
        }

        // Field-by-field comparison: the 1-shard reference against 2 and 4
        // shards (the deterministic scenarios cover 7).
        let (ref_report, ref_trace) = run_at(&network, &txs, &cfg, 1, topo_seed ^ trace_seed);
        prop_assert!(
            ref_report.audit_violations.is_empty(),
            "single-shard audit violations: {:?}",
            ref_report.audit_violations
        );
        let ref_json = serde_json::to_string_pretty(&ref_report).expect("report serializes");
        for shards in [2usize, 4] {
            let (report, trace) = run_at(&network, &txs, &cfg, shards, topo_seed ^ trace_seed);
            prop_assert!(
                report.audit_violations.is_empty(),
                "{}-shard audit violations: {:?}",
                shards,
                report.audit_violations
            );
            prop_assert_eq!(report.completed, ref_report.completed);
            prop_assert_eq!(report.attempted, ref_report.attempted);
            prop_assert_eq!(report.success_ratio(), ref_report.success_ratio());
            prop_assert_eq!(report.success_volume(), ref_report.success_volume());
            prop_assert_eq!(report.routing_fees_paid, ref_report.routing_fees_paid);
            prop_assert_eq!(
                report.rebalance.transactions,
                ref_report.rebalance.transactions
            );
            let json = serde_json::to_string_pretty(&report).expect("report serializes");
            prop_assert_eq!(&json, &ref_json, "SimReport diverged at {} shards", shards);
            prop_assert_eq!(&trace, &ref_trace, "trace diverged at {} shards", shards);
        }
    }
}
