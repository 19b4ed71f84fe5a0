//! Waking against polling in the source-queued engine.
//!
//! `run` parks a payment its scheme answered `Unavailable` on the channel
//! sides the scheme names (`RoutingScheme::blockers`) and pumps it again
//! only after one of them is credited; the asks it skips are counted as
//! made (`RoutingScheme::count_skipped`). A wrapper that forwards every
//! scheme method except `blockers` makes the engine poll every pending
//! payment at every tick, as it did before payments were parked. The two
//! must agree byte for byte — the report with telemetry on, its path-cache
//! lookup counter included, and the SPBT trace — while the waking engine
//! asks the scheme far less often.

use spider::prelude::*;
use spider::routing::PathCache;
use spider::topology::{isp_topology, ripple_topology_scaled};
use spider::workload::{generate, isp_sizes, ripple_sizes};

/// Forwards every method but `blockers`, whose default makes the engine
/// poll: the reference the waking engine must reproduce.
struct Polling<S>(S);

impl<S: RoutingScheme> RoutingScheme for Polling<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn kind(&self) -> SchemeKind {
        self.0.kind()
    }

    fn route_unit(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
    ) -> UnitDecision {
        self.0.route_unit(network, balances, src, dst, unit)
    }

    fn count_skipped(&mut self, asks: u64) {
        self.0.count_skipped(asks)
    }

    fn telemetry_stats(&self) -> Vec<(&'static str, u64)> {
        self.0.telemetry_stats()
    }

    fn checkpoint_state(&self) -> Option<Vec<u8>> {
        self.0.checkpoint_state()
    }

    fn restore_state(&mut self, network: &Network, bytes: &[u8]) -> Result<(), CoreError> {
        self.0.restore_state(network, bytes)
    }
}

/// Forwards every method and counts the real `route_unit` calls.
struct Counting {
    inner: Box<dyn RoutingScheme>,
    asks: u64,
}

impl Counting {
    fn new(inner: Box<dyn RoutingScheme>) -> Self {
        Counting { inner, asks: 0 }
    }
}

impl RoutingScheme for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    fn route_unit(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
    ) -> UnitDecision {
        self.asks += 1;
        self.inner.route_unit(network, balances, src, dst, unit)
    }

    fn blockers(
        &self,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
        out: &mut Vec<(ChannelId, Direction)>,
    ) -> bool {
        self.inner.blockers(balances, src, dst, unit, out)
    }

    fn count_skipped(&mut self, asks: u64) {
        self.inner.count_skipped(asks)
    }

    fn telemetry_stats(&self) -> Vec<(&'static str, u64)> {
        self.inner.telemetry_stats()
    }
}

#[derive(Clone, Copy, Debug)]
enum Which {
    ShortestPath,
    Waterfilling,
}

impl Which {
    fn scheme(self) -> Box<dyn RoutingScheme> {
        match self {
            Which::ShortestPath => Box::new(ShortestPathScheme::new()),
            Which::Waterfilling => Box::new(WaterfillingScheme::new()),
        }
    }

    fn polling(self) -> Box<dyn RoutingScheme> {
        match self {
            Which::ShortestPath => Box::new(Polling(ShortestPathScheme::new())),
            Which::Waterfilling => Box::new(Polling(WaterfillingScheme::new())),
        }
    }
}

const POLICIES: [SchedulePolicy; 4] = [
    SchedulePolicy::Srpt,
    SchedulePolicy::Fifo,
    SchedulePolicy::Lifo,
    SchedulePolicy::Edf,
];

/// The ISP graph at `capacity` tokens a channel, with `n` payments over
/// `duration` seconds.
fn isp(capacity: i64, n: usize, duration: f64, seed: u64) -> (Network, Vec<Transaction>) {
    let network = isp_topology(Amount::from_whole(capacity));
    let mut trace = TraceConfig::isp_default(network.num_nodes(), n, duration);
    trace.seed = seed;
    let txs = generate(&trace, &isp_sizes());
    (network, txs)
}

/// The 400-node Ripple-like graph, likewise.
fn ripple400(capacity: i64, n: usize, duration: f64, seed: u64) -> (Network, Vec<Transaction>) {
    let network = ripple_topology_scaled(400, Amount::from_whole(capacity), seed);
    let mut trace = TraceConfig::ripple_default(network.num_nodes(), n, duration);
    trace.seed = seed;
    let txs = generate(&trace, &ripple_sizes());
    (network, txs)
}

/// The report JSON of one run with telemetry on, and its SPBT trace.
fn run_bytes(
    network: &Network,
    txs: &[Transaction],
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
) -> (String, Vec<u8>) {
    let tel = Telemetry::enabled();
    let mut cfg = config.clone();
    cfg.telemetry = tel.clone();
    let report = run(network, txs, scheme, &cfg);
    let json = serde_json::to_string(&report).expect("report serializes");
    (json, tel.with_spbt(|_, bytes| bytes.to_vec()))
}

/// Every scheme × policy × {plain, rebalancing} case on one instance:
/// waking and polling give the same report and trace bytes.
fn assert_waking_matches_polling(network: &Network, txs: &[Transaction], end: f64, tag: &str) {
    for which in [Which::ShortestPath, Which::Waterfilling] {
        for policy in POLICIES {
            for rebalance in [false, true] {
                let mut cfg = SimConfig::new(end);
                cfg.policy = policy;
                cfg.rebalance = rebalance;
                let case = format!("{tag} {which:?} {policy:?} rebalance={rebalance}");
                let (poll_json, poll_trace) =
                    run_bytes(network, txs, which.polling().as_mut(), &cfg);
                let (wake_json, wake_trace) =
                    run_bytes(network, txs, which.scheme().as_mut(), &cfg);
                assert!(
                    poll_json.contains("routing.paths.lookups"),
                    "{case}: no lookup counter"
                );
                assert_eq!(wake_json, poll_json, "{case}: report");
                assert!(wake_trace == poll_trace, "{case}: SPBT trace");
            }
        }
    }
}

#[test]
fn waking_matches_polling_on_isp() {
    let (network, txs) = isp(400, 1_200, 14.0, 3);
    assert_waking_matches_polling(&network, &txs, 14.0, "isp");
}

#[test]
fn waking_matches_polling_on_ripple400() {
    let (network, txs) = ripple400(2_000, 800, 14.0, 5);
    assert_waking_matches_polling(&network, &txs, 14.0, "ripple400");
}

/// Real `route_unit` calls of a waking and a polling run, and the two
/// reports (telemetry off) with the scheme's counters.
fn asks(
    network: &Network,
    txs: &[Transaction],
    which: Which,
    config: &SimConfig,
) -> [(u64, String); 2] {
    let mut wake = Counting::new(which.scheme());
    let mut poll = Counting::new(which.polling());
    [&mut wake, &mut poll].map(|scheme| {
        let report = run(network, txs, scheme, config);
        let stats = format!("{:?}", scheme.telemetry_stats());
        let json = serde_json::to_string(&report).expect("report serializes");
        (scheme.asks, json + &stats)
    })
}

/// On a contested ISP instance most pending payments wait for a credit
/// most of the time, so most of a polling run's asks are re-asks that
/// answer `Unavailable` again: waking skips at least half of them.
#[test]
fn waking_halves_real_asks_on_contested_isp() {
    let (network, txs) = isp(400, 1_200, 14.0, 3);
    for which in [Which::ShortestPath, Which::Waterfilling] {
        let [(woken, wake), (polled, poll)] = asks(&network, &txs, which, &SimConfig::new(14.0));
        assert_eq!(wake, poll, "{which:?}");
        assert!(
            2 * woken <= polled,
            "{which:?}: {woken} real asks waking, {polled} polling"
        );
    }
}

/// `isp-shortest`'s size: the ISP graph at 30 000 tokens a channel and
/// 200 000 payments over 200 s, shortest path, SRPT.
#[test]
#[ignore = "tier-2: 200k payments on ISP twice, ~10 s in release; run with --release --ignored"]
fn tier2_waking_matches_polling_at_isp_shortest_scale() {
    let (network, txs) = isp(30_000, 200_000, 200.0, 5);
    let [(woken, wake), (polled, poll)] =
        asks(&network, &txs, Which::ShortestPath, &SimConfig::new(200.0));
    assert_eq!(wake, poll);
    assert!(
        2 * woken <= polled,
        "{woken} real asks waking, {polled} polling"
    );
}

/// A cache read is not a lookup: `blockers` leaves the counters alone.
#[test]
fn blockers_count_no_lookup() {
    let network = isp_topology(Amount::from_whole(10));
    let mut cache = PathCache::new(spider::routing::PathStrategy::EdgeDisjoint(4));
    let (src, dst) = (NodeId(0), NodeId(9));
    assert!(!cache.paths(&network, src, dst).is_empty());
    let before = cache.stats();
    let mut out = Vec::new();
    assert!(cache.blockers(&network, src, dst, Amount::from_whole(6), &mut out));
    assert_eq!(cache.stats(), before);
    assert_eq!(out.len(), cache.paths(&network, src, dst).len());
    cache.count_lookups(3);
    assert_eq!(cache.stats().lookups, before.lookups + 1 + 3);
}
