//! Experiment definitions: one function per table/figure of the paper.
//!
//! Every experiment is deterministic given its config (seed included) and
//! returns structured results; the `spider-experiments` binary prints them
//! as the paper-style rows, and EXPERIMENTS.md records paper-vs-measured.

use serde::{Deserialize, Serialize};
use spider_core::{Amount, BalanceView, ChannelId, DemandMatrix, Direction, Network, NodeId};
use spider_opt::fluid::FluidProblem;
use spider_opt::maxflow::MaxFlowSolver;
use spider_opt::primal_dual::{PrimalDualConfig, Utility};
use spider_routing::{
    LpScheme, MaxFlowScheme, PathCache, PathStrategy, PriceScheme, RoutingScheme,
    ShortestPathScheme, SilentWhispersScheme, SpeedyMurmursScheme, WaterfillingScheme,
};
use spider_sim::{
    run, run_sharded, CheckpointSpec, ShardScheme, ShardedConfig, SimConfig, SimReport,
    SnapshotError,
};
use spider_telemetry::Telemetry;
use spider_topology::{isp_topology, ripple_topology_scaled, Partition};
use spider_workload::{demand_matrix, isp_sizes, ripple_sizes, TraceConfig, Transaction};

/// Which evaluation topology an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// 32-node / 152-edge ISP-like graph (paper's ISP topology).
    Isp,
    /// Scale-free Ripple-like graph with `nodes` nodes (paper: 3774).
    Ripple {
        /// Node count (the paper's full snapshot is 3774).
        nodes: usize,
    },
}

/// Scheme selector for experiment configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemeChoice {
    /// SilentWhispers landmark routing (atomic).
    SilentWhispers,
    /// SpeedyMurmurs embedding routing (atomic).
    SpeedyMurmurs,
    /// Packet-switched shortest path with SRPT.
    ShortestPath,
    /// Per-transaction max-flow (atomic).
    MaxFlow,
    /// Spider with waterfilling over 4 edge-disjoint shortest paths.
    SpiderWaterfilling,
    /// Spider driven by the fluid LP (solved with the decentralized
    /// primal-dual algorithm over the estimated demand matrix).
    SpiderLp,
}

impl SchemeChoice {
    /// All six schemes in the paper's presentation order.
    pub const ALL: [SchemeChoice; 6] = [
        SchemeChoice::SilentWhispers,
        SchemeChoice::SpeedyMurmurs,
        SchemeChoice::ShortestPath,
        SchemeChoice::MaxFlow,
        SchemeChoice::SpiderWaterfilling,
        SchemeChoice::SpiderLp,
    ];
}

/// Configuration of one comparison run (Fig. 6 / Fig. 7 style).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Topology under test.
    pub topology: Topology,
    /// Per-channel capacity in tokens (paper: 30 000 for Fig. 6).
    pub capacity: f64,
    /// Number of transactions to generate.
    pub num_transactions: usize,
    /// Measurement window in seconds (paper: 200 s ISP, 85 s Ripple).
    pub duration: f64,
    /// RNG seed for topology + workload.
    pub seed: u64,
    /// Per-payment deadline (seconds).
    pub deadline: f64,
    /// Maximum transaction unit for packet-switched schemes.
    pub mtu: f64,
    /// Sender-skew divisor: senders follow `exp(-i / (n / divisor))`.
    /// Larger divisor = stronger concentration on few senders.
    pub sender_skew: f64,
}

impl ExperimentConfig {
    /// Scaled-down ISP defaults that finish in seconds (the paper's full
    /// scale is 200 000 transactions over 200 s; pass `--full` in the
    /// binary for that).
    pub fn isp_quick() -> Self {
        ExperimentConfig {
            topology: Topology::Isp,
            capacity: 30_000.0,
            num_transactions: 20_000,
            duration: 200.0,
            seed: 1,
            deadline: 5.0,
            mtu: 10.0,
            sender_skew: 4.0,
        }
    }

    /// The paper's full-scale ISP setup.
    pub fn isp_full() -> Self {
        ExperimentConfig {
            num_transactions: 200_000,
            ..Self::isp_quick()
        }
    }

    /// Scaled-down Ripple defaults (400 nodes; the paper's snapshot has
    /// 3774 — the density and workload shape are preserved). The sender
    /// skew is higher than the ISP workload's: real Ripple traffic
    /// concentrates on a few gateway accounts, and this is what makes the
    /// Ripple experiment contended at 30 000 capacity.
    pub fn ripple_quick() -> Self {
        ExperimentConfig {
            topology: Topology::Ripple { nodes: 400 },
            capacity: 30_000.0,
            num_transactions: 30_000,
            duration: 85.0,
            seed: 1,
            deadline: 5.0,
            mtu: 10.0,
            sender_skew: 16.0,
        }
    }

    /// Full-scale Ripple setup (3774 nodes, 75 000 transactions, 85 s).
    pub fn ripple_full() -> Self {
        ExperimentConfig {
            topology: Topology::Ripple { nodes: 3774 },
            num_transactions: 75_000,
            ..Self::ripple_quick()
        }
    }

    /// Builds the topology.
    pub fn network(&self) -> Network {
        let cap = Amount::from_tokens(self.capacity);
        match self.topology {
            Topology::Isp => isp_topology(cap),
            Topology::Ripple { nodes } => ripple_topology_scaled(nodes, cap, self.seed),
        }
    }

    /// Generates the transaction trace for this config.
    pub fn trace(&self, network: &Network) -> Vec<Transaction> {
        let (sizes, mut cfg) = match self.topology {
            Topology::Isp => (
                isp_sizes(),
                TraceConfig::isp_default(network.num_nodes(), self.num_transactions, self.duration),
            ),
            Topology::Ripple { .. } => (
                ripple_sizes(),
                TraceConfig::ripple_default(
                    network.num_nodes(),
                    self.num_transactions,
                    self.duration,
                ),
            ),
        };
        cfg.seed = self.seed;
        cfg.senders = spider_workload::SenderDistribution::Exponential {
            scale: network.num_nodes() as f64 / self.sender_skew,
        };
        spider_workload::generate(&cfg, &sizes)
    }

    /// Simulator settings for this config.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.duration);
        cfg.deadline = self.deadline;
        cfg.mtu = Amount::from_tokens(self.mtu);
        cfg
    }

    /// Sharded-engine settings for this config (same deadline/MTU/window
    /// as [`sim_config`](Self::sim_config)).
    pub fn sharded_config(&self, scheme: ShardScheme) -> ShardedConfig {
        let sim = self.sim_config();
        let mut cfg = ShardedConfig::new(self.duration);
        cfg.deadline = sim.deadline;
        cfg.mtu = sim.mtu;
        cfg.scheme = scheme;
        cfg
    }
}

/// Sequential-engine features to switch on for a sharded experiment run
/// (the feature-parity surface: router queues, fees, congestion control,
/// rebalancing). All off by default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardFeatures {
    /// Queued router policy (per-channel queues at the owning shard).
    pub queued: bool,
    /// Uniform per-hop fee schedule (10 micros + 1000 ppm).
    pub fees: bool,
    /// Per-payment AIMD congestion windows.
    pub congestion: bool,
    /// Aggressive on-chain rebalancing on owned channels.
    pub rebalance: bool,
}

impl ShardFeatures {
    /// Applies the enabled features to a sharded config.
    pub fn apply(&self, cfg: &mut ShardedConfig, network: &Network) {
        if self.queued {
            cfg.policy = spider_sim::engine_sharded::ShardPolicy::Queued;
        }
        if self.fees {
            cfg.fees = Some(spider_routing::FeeSchedule::uniform(
                network,
                Amount::from_micros(10),
                1_000,
            ));
        }
        if self.congestion {
            cfg.congestion = Some(spider_sim::CongestionConfig::default());
        }
        if self.rebalance {
            cfg.rebalance = Some(spider_sim::RebalancePolicy::aggressive());
        }
    }
}

/// Runs one experiment on the partition-parallel engine: same topology and
/// trace as [`run_scheme`], split over `shards` threads by a deterministic
/// [`Partition`] seeded from the experiment seed, with the per-epoch ledger
/// auditor switchable on (violations surface in the report) and a
/// [`ShardFeatures`] selection. The report (and trace, when `telemetry` is
/// enabled) is byte-identical for any `shards` value and any selection.
pub fn run_sharded_scheme(
    config: &ExperimentConfig,
    scheme: ShardScheme,
    shards: usize,
    telemetry: &Telemetry,
    audit: bool,
    features: ShardFeatures,
) -> SimReport {
    let network = config.network();
    let trace = config.trace(&network);
    let partition = if shards <= 1 {
        Partition::single(&network)
    } else {
        Partition::build(&network, shards, config.seed)
    };
    let mut cfg = config.sharded_config(scheme);
    features.apply(&mut cfg, &network);
    cfg.telemetry = telemetry.clone();
    cfg.audit = audit;
    run_sharded(&network, &trace, &partition, &cfg)
}

/// Builds a scheme instance for a given experiment.
///
/// The Spider (LP) scheme estimates the demand matrix from the *entire*
/// trace (the paper: "an estimate of the demand matrix ... for the entire
/// duration of the simulation") and solves the balanced fluid LP with the
/// decentralized primal-dual algorithm over 4 edge-disjoint shortest paths
/// per demand pair.
pub fn build_scheme(
    choice: SchemeChoice,
    network: &Network,
    trace: &[Transaction],
    duration: f64,
) -> Box<dyn RoutingScheme> {
    match choice {
        SchemeChoice::SilentWhispers => Box::new(SilentWhispersScheme::new(network, 3)),
        SchemeChoice::SpeedyMurmurs => Box::new(SpeedyMurmursScheme::new(network, 3)),
        SchemeChoice::ShortestPath => Box::new(ShortestPathScheme::new()),
        SchemeChoice::MaxFlow => Box::new(MaxFlowScheme::new()),
        SchemeChoice::SpiderWaterfilling => Box::new(WaterfillingScheme::new()),
        SchemeChoice::SpiderLp => Box::new(solve_lp(network, trace, duration, Utility::Throughput)),
    }
}

/// The Spider LP for `utility`: demand estimated from the entire trace,
/// solved with the decentralized primal-dual algorithm over the
/// [`lp_candidate_paths`].
fn solve_lp(network: &Network, trace: &[Transaction], duration: f64, utility: Utility) -> LpScheme {
    let demand = demand_matrix(trace, 0.0, duration);
    let (paths, demand) = lp_candidate_paths(network, &demand);
    let config = PrimalDualConfig {
        alpha: 0.05,
        eta: 0.05,
        kappa: 0.05,
        max_iters: 5_000,
        utility,
        ..Default::default()
    };
    LpScheme::solve_decentralized(network, &demand, &paths, 0.5, &config)
}

/// Candidate paths for the LP: 4 edge-disjoint shortest paths per
/// demand-bearing pair. To keep the LP tractable on large topologies, pairs
/// are capped to the heaviest `MAX_LP_PAIRS` by rate (dropped pairs are
/// treated as zero-rate, i.e. never attempted — reported in the harness).
pub fn lp_candidate_paths(
    network: &Network,
    demand: &DemandMatrix,
) -> (Vec<spider_core::Path>, DemandMatrix) {
    const MAX_LP_PAIRS: usize = 50_000;
    let mut pairs: Vec<(NodeId, NodeId, f64)> = demand.entries().collect();
    pairs.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    pairs.truncate(MAX_LP_PAIRS);
    let mut kept = DemandMatrix::new();
    let mut cache = PathCache::new(PathStrategy::EdgeDisjoint(4));
    let mut paths = Vec::new();
    for &(s, d, r) in &pairs {
        kept.set(s, d, r);
        paths.extend(
            cache
                .paths(network, s, d)
                .iter()
                .map(|p| spider_core::Path::clone(p)),
        );
    }
    (paths, kept)
}

/// How [`run_scheme`] drives the sequential engine.
#[derive(Clone, Copy, Debug)]
pub enum RunMode<'a> {
    /// Start to finish; no snapshot is read or written.
    Plain,
    /// Start to finish, writing a crash-safe snapshot into the spec's
    /// directory every `every` scheduler ticks.
    Checkpoint(&'a CheckpointSpec),
    /// Carry a checkpointed run to completion from this `.spsn` file (its
    /// fingerprint guards against scenario mixups), optionally continuing to
    /// checkpoint.
    Resume(&'a std::path::Path, Option<&'a CheckpointSpec>),
}

/// Runs one scheme on one experiment config — the one recipe (network,
/// trace, [`build_scheme`], [`ExperimentConfig::sim_config`], telemetry,
/// engine call) behind every figure, grid cell and resumed run.
///
/// The handle keeps the full trace and metrics after the run. A resumed
/// run's report and trace are byte-identical to an uninterrupted run of the
/// same scenario. Only the snapshot modes can fail: [`RunMode::Plain`]
/// always returns `Ok`.
pub fn run_scheme(
    config: &ExperimentConfig,
    choice: SchemeChoice,
    telemetry: &Telemetry,
    mode: RunMode<'_>,
) -> Result<SimReport, SnapshotError> {
    run_scheme_with(config, choice, telemetry, mode, |_, _| {})
}

/// [`run_scheme`] with a last word on the simulator settings (the grid's
/// per-cell auditor and fault plan).
pub(crate) fn run_scheme_with(
    config: &ExperimentConfig,
    choice: SchemeChoice,
    telemetry: &Telemetry,
    mode: RunMode<'_>,
    adjust: impl FnOnce(&mut SimConfig, &Network),
) -> Result<SimReport, SnapshotError> {
    use spider_sim::engine::{resume, run_checkpointed};
    let network = config.network();
    let trace = config.trace(&network);
    let mut scheme = build_scheme(choice, &network, &trace, config.duration);
    let mut sim = config.sim_config();
    sim.telemetry = telemetry.clone();
    adjust(&mut sim, &network);
    let scheme = scheme.as_mut();
    match mode {
        RunMode::Plain => Ok(run(&network, &trace, scheme, &sim)),
        RunMode::Checkpoint(ckpt) => run_checkpointed(&network, &trace, scheme, &sim, ckpt),
        RunMode::Resume(snapshot, ckpt) => resume(&network, &trace, scheme, &sim, snapshot, ckpt),
    }
}

/// Parses a scheme name as printed in reports and trace-file stems
/// (e.g. `spider-waterfilling`), or its short alias (`waterfilling`), back
/// into a [`SchemeChoice`].
pub fn scheme_choice_by_name(name: &str) -> Option<SchemeChoice> {
    match name {
        "silentwhispers" => Some(SchemeChoice::SilentWhispers),
        "speedymurmurs" => Some(SchemeChoice::SpeedyMurmurs),
        "shortest-path" | "shortest" => Some(SchemeChoice::ShortestPath),
        "max-flow" | "maxflow" => Some(SchemeChoice::MaxFlow),
        "spider-waterfilling" | "waterfilling" => Some(SchemeChoice::SpiderWaterfilling),
        "spider-lp" | "lp" => Some(SchemeChoice::SpiderLp),
        _ => None,
    }
}

/// Fig. 6: all six schemes on one topology at fixed capacity, in scheme
/// order, each with the [`Telemetry`] handle it ran under (enabled when
/// `telemetry` is set, so the caller can write one trace file per scheme).
///
/// Schemes run in parallel worker threads (each run is independent and
/// deterministic).
pub fn fig6(config: &ExperimentConfig, telemetry: bool) -> Vec<(SimReport, Telemetry)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = SchemeChoice::ALL
            .iter()
            .map(|&choice| {
                scope.spawn(move || {
                    let tel = telemetry_handle(telemetry);
                    let report = run_scheme(config, choice, &tel, RunMode::Plain)
                        .expect("a plain run reads and writes no snapshot");
                    (report, tel)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheme run must not panic"))
            .collect()
    })
}

/// An enabled or a disabled [`Telemetry`] handle.
pub fn telemetry_handle(enabled: bool) -> Telemetry {
    if enabled {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Fig. 7: capacity sweep on the ISP topology for all schemes.
/// Returns `(capacity, reports)` per sweep point.
pub fn fig7(base: &ExperimentConfig, capacities: &[f64]) -> Vec<(f64, Vec<SimReport>)> {
    capacities
        .iter()
        .map(|&cap| {
            let cfg = ExperimentConfig {
                capacity: cap,
                ..base.clone()
            };
            let reports = fig6(&cfg, false).into_iter().map(|(r, _)| r).collect();
            (cap, reports)
        })
        .collect()
}

/// Result of the Fig. 4 / Fig. 5 analytical experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Total demand in the example (paper: 12).
    pub total_demand: f64,
    /// Max throughput restricted to shortest paths (paper Fig. 4b: 5).
    pub shortest_path_throughput: f64,
    /// Optimal balanced throughput (paper Fig. 4c: 8).
    pub optimal_throughput: f64,
    /// Maximum circulation value ν(C*) (paper Fig. 5b: 8).
    pub circulation_value: f64,
    /// DAG remainder value (paper Fig. 5c: 4).
    pub dag_value: f64,
    /// Cycles of the maximum circulation (nodes, rate).
    pub cycles: Vec<(Vec<u32>, f64)>,
}

/// The Fig. 4 topology: the 5-node ring 1-2-3-4-5-1 plus the 2-4 chord
/// (0-based ids), with generous channel capacity.
pub fn fig4_network() -> Network {
    let mut g = Network::new(5);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)] {
        g.add_channel(NodeId(a), NodeId(b), Amount::from_tokens(1e6))
            .expect("fig4 edges are valid");
    }
    g
}

/// Reproduces Fig. 4 (routing example) and Fig. 5 (decomposition).
pub fn fig4_fig5() -> Fig4Result {
    let network = fig4_network();
    let demand = DemandMatrix::fig4_example();
    let all_paths = spider_opt::fluid::enumerate_demand_paths(&network, &demand, 5);

    // Fig. 4b: restrict to shortest paths only.
    let mut shortest: Vec<spider_core::Path> = Vec::new();
    for (s, d, _) in demand.entries() {
        let mut ps = spider_opt::fluid::enumerate_paths(&network, s, d, 5);
        ps.sort_by_key(|p| p.len());
        let min = ps[0].len();
        shortest.extend(ps.into_iter().filter(|p| p.len() == min));
    }
    let sp = FluidProblem::new(&network, &demand, &shortest, 1.0).max_balanced_throughput();
    let opt = FluidProblem::new(&network, &demand, &all_paths, 1.0).max_balanced_throughput();
    let dec = spider_opt::circulation::decompose(&demand);
    let cycles = spider_opt::circulation::peel_cycles(&dec.circulation)
        .into_iter()
        .map(|(nodes, r)| (nodes.into_iter().map(|n| n.0).collect(), r))
        .collect();

    Fig4Result {
        total_demand: demand.total(),
        shortest_path_throughput: sp.throughput,
        optimal_throughput: opt.throughput,
        circulation_value: dec.value,
        dag_value: dec.dag.total(),
        cycles,
    }
}

/// One labeled ablation result.
pub type Ablation = (String, SimReport);

/// Ablation: maximum transaction unit (MTU) size for Spider waterfilling.
///
/// Smaller units pack channels more tightly (finer-grained multiplexing,
/// more rebalancing opportunities) at the cost of more packets.
pub fn ablation_mtu(cfg: &ExperimentConfig, mtus: &[f64]) -> Vec<Ablation> {
    let network = cfg.network();
    let trace = cfg.trace(&network);
    parallel_variants(mtus, |&mtu| {
        let mut sim_cfg = cfg.sim_config();
        sim_cfg.mtu = Amount::from_tokens(mtu);
        let report = run(&network, &trace, &mut WaterfillingScheme::new(), &sim_cfg);
        (format!("mtu={mtu}"), report)
    })
}

/// Runs one labeled variant per input in parallel worker threads.
fn parallel_variants<T: Sync>(inputs: &[T], f: impl Fn(&T) -> Ablation + Sync) -> Vec<Ablation> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs.iter().map(|i| scope.spawn(|| f(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("variant run must not panic"))
            .collect()
    })
}

/// Ablation: number of candidate paths per pair for Spider waterfilling
/// (the paper fixes K = 4).
pub fn ablation_num_paths(cfg: &ExperimentConfig, ks: &[usize]) -> Vec<Ablation> {
    let network = cfg.network();
    let trace = cfg.trace(&network);
    let sim_cfg = cfg.sim_config();
    parallel_variants(ks, |&k| {
        let report = run(
            &network,
            &trace,
            &mut WaterfillingScheme::with_paths(k),
            &sim_cfg,
        );
        (format!("k={k}"), report)
    })
}

/// Ablation: candidate-path selection strategy (§5.3.1 names edge-disjoint
/// shortest, K-shortest, and K-highest-capacity as the options).
///
/// Each row is `(label, simulated outcome, candidate-set miss fraction)`;
/// the last column is `candidate_set_misses` — the caption under "within
/// 5 % of max-flow": how often the K paths, not the balances, are why a
/// payment cannot be routed whole.
pub fn ablation_path_strategy(cfg: &ExperimentConfig) -> Vec<(String, SimReport, f64)> {
    let network = cfg.network();
    let trace = cfg.trace(&network);
    let sim_cfg = cfg.sim_config();
    let variants = [
        ("edge-disjoint-4", PathStrategy::EdgeDisjoint(4)),
        ("k-shortest-4", PathStrategy::KShortest(4)),
        ("widest-4", PathStrategy::WidestDisjoint(4)),
    ];
    let reports = parallel_variants(&variants, |&(label, strategy)| {
        let report = run(
            &network,
            &trace,
            &mut WaterfillingScheme::with_strategy(strategy),
            &sim_cfg,
        );
        (label.to_string(), report)
    });
    let misses = candidate_set_misses(&network, &trace, &variants.map(|(_, s)| s));
    reports
        .into_iter()
        .zip(misses)
        .map(|((label, report), missed)| (label, report, missed))
        .collect()
}

/// `network`'s initial balances with every channel direction closed that
/// `open` does not list.
struct OnlyDirections<'a> {
    network: &'a Network,
    open: Vec<[bool; 2]>,
}

impl BalanceView for OnlyDirections<'_> {
    fn available(&self, channel: ChannelId, from: NodeId) -> Amount {
        let side = usize::from(self.network.channel(channel).a != from);
        if self.open[channel.index()][side] {
            self.network.available(channel, from)
        } else {
            Amount::ZERO
        }
    }
}

/// For each strategy, the fraction of `trace`'s payments that a max-flow
/// over the whole fresh network routes in full but a max-flow confined to
/// the union of the strategy's candidate paths does not (after Corcoran &
/// Lewis: a path planner can fail where a route exists). Every payment is
/// judged alone, against initial balances.
fn candidate_set_misses(
    network: &Network,
    trace: &[Transaction],
    strategies: &[PathStrategy],
) -> Vec<f64> {
    let mut solver = MaxFlowSolver::default();
    let mut caches: Vec<PathCache> = strategies.iter().map(|&s| PathCache::new(s)).collect();
    let mut confined = OnlyDirections {
        network,
        open: vec![[false; 2]; network.num_channels()],
    };
    let mut missed = vec![0usize; strategies.len()];
    for tx in trace {
        let whole = solver.query(network, network, tx.src, tx.dst, tx.amount);
        if whole.value < tx.amount {
            continue;
        }
        for (cache, missed) in caches.iter_mut().zip(&mut missed) {
            let paths = cache.paths(network, tx.src, tx.dst);
            let hops = || paths.iter().flat_map(|p| p.hops());
            for &(c, dir) in hops() {
                confined.open[c.index()][usize::from(dir == Direction::BtoA)] = true;
            }
            let flow = solver.query(network, &confined, tx.src, tx.dst, tx.amount);
            *missed += usize::from(flow.value < tx.amount);
            for &(c, _) in hops() {
                confined.open[c.index()] = [false; 2];
            }
        }
    }
    missed
        .into_iter()
        .map(|m| m as f64 / trace.len().max(1) as f64)
        .collect()
}

/// Ablation: scheduling policy for pending payments (§4.2 — the paper uses
/// SRPT after pFabric).
pub fn ablation_scheduler(cfg: &ExperimentConfig) -> Vec<Ablation> {
    use spider_sim::SchedulePolicy;
    let network = cfg.network();
    let trace = cfg.trace(&network);
    let policies = [
        SchedulePolicy::Srpt,
        SchedulePolicy::Fifo,
        SchedulePolicy::Lifo,
        SchedulePolicy::Edf,
    ];
    parallel_variants(&policies, |&policy| {
        let mut sim_cfg = cfg.sim_config();
        sim_cfg.policy = policy;
        let report = run(&network, &trace, &mut WaterfillingScheme::new(), &sim_cfg);
        (policy.name().to_string(), report)
    })
}

/// Ablation: the §4.1/§7 extensions — AIMD congestion control and on-chain
/// rebalancing — against the plain configuration.
pub fn ablation_extensions(cfg: &ExperimentConfig) -> Vec<Ablation> {
    let network = cfg.network();
    let trace = cfg.trace(&network);
    let mut with_cc = cfg.sim_config();
    with_cc.congestion = Some(spider_sim::CongestionConfig::default());
    let mut with_rebalance = cfg.sim_config();
    with_rebalance.rebalance = Some(spider_sim::RebalancePolicy::aggressive());
    [
        ("plain", cfg.sim_config()),
        ("aimd-congestion", with_cc),
        ("onchain-rebalancing", with_rebalance),
    ]
    .into_iter()
    .map(|(label, sim)| {
        let report = run(&network, &trace, &mut WaterfillingScheme::new(), &sim);
        (label.to_string(), report)
    })
    .collect()
}

/// Beyond-the-paper scheme comparison: online price-based routing
/// (§5.3.1 run live), the proportionally fair LP (§6.2's proposed fix),
/// and the router-queue transport (Fig. 3), against the paper's
/// waterfilling.
pub fn extension_schemes(cfg: &ExperimentConfig) -> Vec<Ablation> {
    let network = cfg.network();
    let trace = cfg.trace(&network);
    let sim_cfg = cfg.sim_config();
    let mut out = Vec::new();

    out.push((
        "spider-waterfilling".to_string(),
        run(&network, &trace, &mut WaterfillingScheme::new(), &sim_cfg),
    ));
    out.push((
        "spider-prices (online)".to_string(),
        run(&network, &trace, &mut PriceScheme::new(), &sim_cfg),
    ));

    // Proportionally fair LP over the estimated demand (Kelly-style
    // decentralized primal-dual).
    let fairness = Utility::ProportionalFairness { epsilon: 1e-3 };
    let mut fair = solve_lp(&network, &trace, cfg.duration, fairness);
    out.push((
        "spider-lp-fair".to_string(),
        run(&network, &trace, &mut fair, &sim_cfg),
    ));

    // Router-queue transport.
    let mut qcfg = spider_sim::QueuedConfig::new(cfg.duration);
    qcfg.deadline = cfg.deadline;
    qcfg.mtu = Amount::from_tokens(cfg.mtu);
    let queued = spider_sim::run_queued(&network, &trace, &qcfg);
    out.push((
        format!(
            "router-queues (q̄wait {:.2}s, drops {})",
            queued.queues.mean_wait, queued.queues.units_dropped
        ),
        queued.report,
    ));

    out
}

/// One point of the §5.2.3 rebalancing frontier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RebalancingPoint {
    /// Total on-chain rebalancing budget B.
    pub budget: f64,
    /// Maximum throughput t(B).
    pub throughput: f64,
}

/// Reproduces the §5.2.3 analysis: t(B) is non-decreasing and concave.
pub fn rebalancing_curve(budgets: &[f64]) -> Vec<RebalancingPoint> {
    let network = fig4_network();
    let demand = DemandMatrix::fig4_example();
    let paths = spider_opt::fluid::enumerate_demand_paths(&network, &demand, 5);
    let prob = FluidProblem::new(&network, &demand, &paths, 1.0);
    (prob.throughput_curve(budgets).into_iter())
        .map(|(budget, throughput)| RebalancingPoint { budget, throughput })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_set_misses_counts_what_only_an_overlapping_route_carries() {
        // 0 reaches 5 over two short edge-disjoint routes of 10 tokens each
        // (0-1-5, 0-2-5); the wide detour 1-3-4-5 shares channel 0-1 with the
        // first, so an edge-disjoint search never offers it. Yen does.
        let mut g = Network::new(6);
        for (a, b, side) in [
            (0, 1, 100),
            (1, 5, 10),
            (0, 2, 10),
            (2, 5, 10),
            (1, 3, 100),
            (3, 4, 100),
            (4, 5, 100),
        ] {
            let side = Amount::from_whole(side);
            g.add_channel_with_balances(NodeId(a), NodeId(b), side, side)
                .unwrap();
        }
        let pay = |id, tokens| Transaction {
            id: spider_core::PaymentId(id),
            src: NodeId(0),
            dst: NodeId(5),
            amount: Amount::from_whole(tokens),
            arrival: 0.0,
        };
        // 15 fits either candidate set, 50 needs the detour, 500 fits nothing
        // (so it is nobody's miss), and every payment is judged alone.
        let trace = [pay(0, 15), pay(1, 50), pay(2, 500), pay(3, 50)];
        let strategies = [PathStrategy::EdgeDisjoint(4), PathStrategy::KShortest(4)];
        assert_eq!(candidate_set_misses(&g, &trace, &strategies), [0.5, 0.0]);
    }

    #[test]
    fn fig4_fig5_matches_paper_numbers() {
        let r = fig4_fig5();
        assert_eq!(r.total_demand, 12.0);
        assert!((r.shortest_path_throughput - 5.0).abs() < 1e-6, "{r:?}");
        assert!((r.optimal_throughput - 8.0).abs() < 1e-6, "{r:?}");
        assert!((r.circulation_value - 8.0).abs() < 1e-9);
        assert!((r.dag_value - 4.0).abs() < 1e-9);
        assert!(!r.cycles.is_empty());
    }

    #[test]
    fn rebalancing_curve_shape() {
        let pts = rebalancing_curve(&[0.0, 1.0, 2.0, 4.0, 8.0]);
        assert!((pts[0].throughput - 8.0).abs() < 1e-6);
        assert!((pts.last().unwrap().throughput - 12.0).abs() < 1e-6);
        for w in pts.windows(2) {
            assert!(w[1].throughput >= w[0].throughput - 1e-9);
        }
    }

    #[test]
    fn quick_isp_run_single_scheme() {
        let mut cfg = ExperimentConfig::isp_quick();
        cfg.num_transactions = 500;
        cfg.duration = 20.0;
        let report = run_scheme(
            &cfg,
            SchemeChoice::ShortestPath,
            &Telemetry::disabled(),
            RunMode::Plain,
        )
        .unwrap();
        // Poisson arrivals: a few of the 500 can land past the window end.
        assert!(report.attempted >= 450, "attempted {}", report.attempted);
        assert!(report.success_ratio() > 0.1, "{}", report.summary());
    }

    #[test]
    fn lp_candidate_paths_cap_pairs() {
        let network = ExperimentConfig::isp_quick().network();
        let mut demand = DemandMatrix::new();
        for i in 0..10u32 {
            for j in 0..10u32 {
                if i != j {
                    demand.set(NodeId(i), NodeId(j), (i + j + 1) as f64);
                }
            }
        }
        let (paths, kept) = lp_candidate_paths(&network, &demand);
        assert_eq!(kept.len(), 90);
        assert!(!paths.is_empty());
        // Each pair contributes at most 4 paths.
        assert!(paths.len() <= 4 * 90);
    }
}
