//! The seven fixed workloads: their sized inputs, set-up, and timed region.
//!
//! Batch protocol: a workload is a fixed seeded input, and the result is
//! simulator events per host second at that input size. [`setup`] builds
//! everything the engine call needs (network, trace, partition, schemes)
//! and is what `setup_s` times; [`execute`] is the engine call(s) only and
//! is what `events_per_s` times.

use spider::core::{Amount, Network, NodeId};
use spider::opt::PrimalDualConfig;
use spider::routing::{
    LpScheme, MaxFlowScheme, PathCache, PathStrategy, RoutingScheme, ShortestPathScheme,
    SilentWhispersScheme, SpeedyMurmursScheme, WaterfillingScheme,
};
use spider::sim::engine::{resume, run_checkpointed};
use spider::sim::{
    run, run_queued, run_sharded, CheckpointSpec, QueueStats, QueuedConfig, ShardScheme,
    ShardedConfig, SimConfig, SimReport, SnapshotError,
};
use spider::telemetry::{bintrace, Telemetry};
use spider::topology::{isp_topology, ripple_topology_scaled, Partition, ISP_NODES};
use std::path::{Path, PathBuf};
use std::time::Instant;

use spider::workload::{
    demand_matrix, generate, isp_sizes, ripple_sizes, SenderDistribution, TraceConfig, Transaction,
};

/// Per-channel capacity in tokens (Fig. 6 of the paper).
const CAPACITY: i64 = 30_000;
/// Settlement delay Δ in seconds, also the LP's confirmation latency.
const DELTA: f64 = 0.5;
/// Checkpoints written by `isp-observed`.
pub const OBSERVED_CHECKPOINTS: u64 = 4;

/// Evaluation topology of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topo {
    /// The paper's 32-node ISP-like graph; sender skew 4.
    Isp,
    /// Scale-free Ripple-like graph with this many nodes; sender skew 16.
    Ripple(usize),
}

/// The six routing schemes of Fig. 6, in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    SilentWhispers,
    SpeedyMurmurs,
    ShortestPath,
    MaxFlow,
    Waterfilling,
    Lp,
}

impl Scheme {
    pub const ALL: [Scheme; 6] = [
        Scheme::SilentWhispers,
        Scheme::SpeedyMurmurs,
        Scheme::ShortestPath,
        Scheme::MaxFlow,
        Scheme::Waterfilling,
        Scheme::Lp,
    ];

    /// The name the scheme reports through `RoutingScheme::name`.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::SilentWhispers => "silentwhispers",
            Scheme::SpeedyMurmurs => "speedymurmurs",
            Scheme::ShortestPath => "shortest-path",
            Scheme::MaxFlow => "max-flow",
            Scheme::Waterfilling => "spider-waterfilling",
            Scheme::Lp => "spider-lp",
        }
    }

    /// Builds the scheme. Spider-LP estimates the demand matrix from the
    /// whole trace and solves the balanced fluid LP with the primal-dual
    /// algorithm over 4 edge-disjoint paths per demand pair, as the
    /// experiment harness does for Fig. 6.
    pub fn build(
        self,
        network: &Network,
        trace: &[Transaction],
        duration: f64,
    ) -> Box<dyn RoutingScheme> {
        match self {
            Scheme::SilentWhispers => Box::new(SilentWhispersScheme::new(network, 3)),
            Scheme::SpeedyMurmurs => Box::new(SpeedyMurmursScheme::new(network, 3)),
            Scheme::ShortestPath => Box::new(ShortestPathScheme::new()),
            Scheme::MaxFlow => Box::new(MaxFlowScheme::new()),
            Scheme::Waterfilling => Box::new(WaterfillingScheme::new()),
            Scheme::Lp => {
                let (paths, demand) = lp_instance(network, trace, duration, usize::MAX);
                Box::new(LpScheme::solve_decentralized(
                    network,
                    &demand,
                    &paths,
                    DELTA,
                    &lp_config(),
                ))
            }
        }
    }
}

/// Primal-dual settings of the Fig. 6 Spider-LP scheme.
pub fn lp_config() -> PrimalDualConfig {
    PrimalDualConfig {
        alpha: 0.05,
        eta: 0.05,
        kappa: 0.05,
        max_iters: 5_000,
        ..Default::default()
    }
}

/// The fluid-LP instance of a trace: the `max_pairs` heaviest demand pairs
/// and 4 edge-disjoint candidate paths for each.
pub fn lp_instance(
    network: &Network,
    trace: &[Transaction],
    duration: f64,
    max_pairs: usize,
) -> (Vec<spider::core::Path>, spider::core::DemandMatrix) {
    let demand = demand_matrix(trace, 0.0, duration);
    let mut pairs: Vec<(NodeId, NodeId, f64)> = demand.entries().collect();
    pairs.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    pairs.truncate(max_pairs);
    let mut kept = spider::core::DemandMatrix::new();
    let mut cache = PathCache::new(PathStrategy::EdgeDisjoint(4));
    let mut paths = Vec::new();
    for &(s, d, r) in &pairs {
        kept.set(s, d, r);
        paths.extend(cache.paths(network, s, d).iter().map(|p| (**p).clone()));
    }
    (paths, kept)
}

/// Which engine entry point the timed region calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `sim::run`, once per listed scheme, one after another.
    Run(&'static [Scheme]),
    /// `sim::run_queued` (router queues, hop-by-hop locking).
    Queued,
    /// `sim::run_sharded`; `two` asks for `min(2, nproc)` shards, else one.
    Sharded { scheme: ShardScheme, two: bool },
    /// `engine::run_checkpointed` with telemetry on, then SPBT encode.
    Observed,
}

/// One benchmark workload. Names are fixed: later PRs are judged by them.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub topo: Topo,
    pub payments: usize,
    /// Simulated seconds (arrival window and measurement window).
    pub duration: f64,
    pub engine: Engine,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "isp-shortest",
        why: "path cache always hits, so event queue, ledger lock/settle/refund and scheduler do the work",
        topo: Topo::Isp,
        payments: 200_000,
        duration: 200.0,
        engine: Engine::Run(&[Scheme::ShortestPath]),
    },
    Workload {
        name: "ripple1500-waterfilling",
        why: "nearly every pair is new, so edge-disjoint path discovery on cache misses does the work",
        topo: Topo::Ripple(1500),
        payments: 10_000,
        duration: 28.0,
        engine: Engine::Run(&[Scheme::Waterfilling]),
    },
    Workload {
        name: "isp-queued",
        why: "router-queued transport: same ledger and event queue used per hop instead of per path",
        topo: Topo::Isp,
        payments: 80_000,
        duration: 80.0,
        engine: Engine::Queued,
    },
    Workload {
        name: "ripple400-sharded1",
        why: "one shard, warm caches, thousands of epochs: isolates the BSP epoch loop's single-shard tax",
        topo: Topo::Ripple(400),
        payments: 16_000,
        duration: 136.0,
        engine: Engine::Sharded {
            scheme: ShardScheme::Waterfilling,
            two: false,
        },
    },
    Workload {
        name: "ripple100k-sharded2",
        why: "100k nodes on min(2,nproc) shards: node count dominates memory, set-up and partition cost",
        topo: Topo::Ripple(100_000),
        payments: 1_000,
        duration: 10.0,
        engine: Engine::Sharded {
            scheme: ShardScheme::ShortestPath,
            two: true,
        },
    },
    Workload {
        name: "isp-fig6",
        why: "all six Fig. 6 schemes in turn: figure turnaround; max-flow, LP, landmark and embedding routing",
        topo: Topo::Isp,
        payments: 30_000,
        duration: 30.0,
        engine: Engine::Run(&Scheme::ALL),
    },
    Workload {
        name: "isp-observed",
        why: "same engine with recording on: telemetry emit, snapshot encode/write and SPBT encode do the work",
        topo: Topo::Isp,
        payments: 5_000,
        duration: 5.0,
        engine: Engine::Observed,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn network(&self, seed: u64) -> Network {
        let cap = Amount::from_whole(CAPACITY);
        match self.topo {
            Topo::Isp => isp_topology(cap),
            Topo::Ripple(n) => ripple_topology_scaled(n, cap, seed),
        }
    }

    pub fn trace(&self, network: &Network, seed: u64) -> Vec<Transaction> {
        let n = network.num_nodes();
        let (sizes, mut cfg, skew) = match self.topo {
            Topo::Isp => (
                isp_sizes(),
                TraceConfig::isp_default(n, self.payments, self.duration),
                4.0,
            ),
            Topo::Ripple(_) => (
                ripple_sizes(),
                TraceConfig::ripple_default(n, self.payments, self.duration),
                16.0,
            ),
        };
        cfg.seed = seed;
        cfg.senders = SenderDistribution::Exponential {
            scale: n as f64 / skew,
        };
        generate(&cfg, &sizes)
    }

    pub fn nodes(&self) -> usize {
        match self.topo {
            Topo::Isp => ISP_NODES,
            Topo::Ripple(n) => n,
        }
    }

    /// The scheme(s) the engine call runs, one engine run each: the listed
    /// ones for `sim::run`, the one the other engines build internally.
    pub fn schemes(&self) -> Vec<Scheme> {
        match self.engine {
            Engine::Run(list) => list.to_vec(),
            Engine::Sharded {
                scheme: ShardScheme::ShortestPath,
                ..
            } => vec![Scheme::ShortestPath],
            Engine::Queued | Engine::Sharded { .. } | Engine::Observed => {
                vec![Scheme::Waterfilling]
            }
        }
    }

    /// The telemetry handle of the timed region: recording for
    /// `isp-observed`, off otherwise.
    pub fn recording(&self) -> Telemetry {
        match self.engine {
            Engine::Observed => Telemetry::enabled(),
            _ => Telemetry::disabled(),
        }
    }

    /// The options of the timed region: recording on and checkpoints into
    /// `spec` for `isp-observed`, everything off otherwise.
    pub fn measured_opts<'a>(&self, spec: &'a CheckpointSpec) -> RunOpts<'a> {
        RunOpts {
            telemetry: self.recording(),
            audit: false,
            ckpt: matches!(self.engine, Engine::Observed).then_some(spec),
        }
    }

    /// Shards the workload's engine call runs on: 1, or `min(2, nproc)`
    /// for the one workload that asks for two.
    pub fn shards(&self) -> usize {
        match self.engine {
            Engine::Sharded { two: true, .. } => crate::measure::online_cpus().min(2),
            _ => 1,
        }
    }

    /// Scheduler ticks of one engine run: `⌊duration / poll interval⌋`.
    fn ticks(&self) -> u64 {
        (self.duration / SimConfig::new(self.duration).poll_interval).floor() as u64
    }

    /// Scheduler ticks between checkpoints of `isp-observed`: spaced so
    /// that exactly [`OBSERVED_CHECKPOINTS`] fall inside the window and
    /// none lands on the final tick.
    pub fn checkpoint_every(&self) -> u64 {
        self.ticks() / (OBSERVED_CHECKPOINTS + 1) + 1
    }
}

/// Everything the timed region consumes. The program under test receives
/// only these generated inputs, never the seed.
pub struct Inputs {
    pub network: Network,
    pub trace: Vec<Transaction>,
    /// Present for the sharded workloads.
    pub partition: Option<Partition>,
    /// One per `Engine::Run` scheme (one waterfilling scheme for
    /// `Engine::Observed`); empty for the queued and sharded engines,
    /// which build their routing internally.
    pub schemes: Vec<Box<dyn RoutingScheme>>,
}

/// Builds network, trace, partition and scheme(s) from the seed.
pub fn setup(w: &Workload, seed: u64, shards: usize) -> Inputs {
    let network = w.network(seed);
    let trace = w.trace(&network, seed);
    let partition = matches!(w.engine, Engine::Sharded { .. }).then(|| {
        if shards <= 1 {
            Partition::single(&network)
        } else {
            Partition::build(&network, shards, seed)
        }
    });
    let schemes = match w.engine {
        Engine::Run(_) | Engine::Observed => w
            .schemes()
            .iter()
            .map(|s| s.build(&network, &trace, w.duration))
            .collect(),
        Engine::Queued | Engine::Sharded { .. } => Vec::new(),
    };
    Inputs {
        network,
        trace,
        partition,
        schemes,
    }
}

/// Switches of one engine call beyond the workload's inputs.
pub struct RunOpts<'a> {
    pub telemetry: Telemetry,
    pub audit: bool,
    /// Checkpoint policy (`Engine::Observed` only).
    pub ckpt: Option<&'a CheckpointSpec>,
}

impl RunOpts<'_> {
    /// Telemetry off, audit off, no checkpoints.
    pub fn plain() -> Self {
        Self::with(&Telemetry::disabled())
    }

    /// This telemetry handle, audit off, no checkpoints.
    pub fn with(telemetry: &Telemetry) -> Self {
        RunOpts {
            telemetry: telemetry.clone(),
            audit: false,
            ckpt: None,
        }
    }
}

/// What the timed region produced.
pub struct Outcome {
    /// One report per engine run, in scheme order.
    pub reports: Vec<SimReport>,
    /// When each engine run began and how many seconds it took: the run
    /// spans of the traced pass, and `sim.run_s.*`.
    pub runs: Vec<(Instant, f64)>,
    pub queues: Option<QueueStats>,
    /// SPBT encoding of the event log (`Engine::Observed`, telemetry on).
    pub spbt: Option<Vec<u8>>,
}

impl Outcome {
    /// Compact JSON of every report; equal strings mean equal outcomes.
    pub fn reports_json(&self) -> String {
        self.reports
            .iter()
            .map(|r| serde_json::to_string(r).expect("SimReport serializes"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The timed region: the engine call(s) only.
pub fn execute(w: &Workload, inputs: &mut Inputs, opts: &RunOpts) -> Outcome {
    let mut out = Outcome {
        reports: Vec::new(),
        runs: Vec::new(),
        queues: None,
        spbt: None,
    };
    match w.engine {
        Engine::Run(_) => {
            let mut cfg = SimConfig::new(w.duration);
            cfg.audit = opts.audit;
            cfg.telemetry = opts.telemetry.clone();
            for scheme in &mut inputs.schemes {
                let start = Instant::now();
                let report = run(&inputs.network, &inputs.trace, scheme.as_mut(), &cfg);
                out.runs.push((start, start.elapsed().as_secs_f64()));
                out.reports.push(report);
            }
        }
        Engine::Queued => {
            let mut cfg = QueuedConfig::new(w.duration);
            cfg.telemetry = opts.telemetry.clone();
            let r = run_queued(&inputs.network, &inputs.trace, &cfg);
            out.queues = Some(r.queues);
            out.reports.push(r.report);
        }
        Engine::Sharded { scheme, .. } => {
            let mut cfg = ShardedConfig::new(w.duration);
            cfg.scheme = scheme;
            cfg.audit = opts.audit;
            cfg.telemetry = opts.telemetry.clone();
            let partition = inputs.partition.as_ref().expect("sharded set-up");
            out.reports
                .push(run_sharded(&inputs.network, &inputs.trace, partition, &cfg));
        }
        Engine::Observed => {
            let mut cfg = SimConfig::new(w.duration);
            cfg.audit = opts.audit;
            cfg.telemetry = opts.telemetry.clone();
            let scheme = inputs.schemes[0].as_mut();
            let start = Instant::now();
            let report = match opts.ckpt {
                Some(ckpt) => run_checkpointed(&inputs.network, &inputs.trace, scheme, &cfg, ckpt)
                    .unwrap_or_else(|e| panic!("checkpointed run failed: {e}")),
                None => run(&inputs.network, &inputs.trace, scheme, &cfg),
            };
            out.runs.push((start, start.elapsed().as_secs_f64()));
            out.reports.push(report);
            if opts.telemetry.is_enabled() {
                out.spbt = Some(bintrace::encode(&opts.telemetry.events()));
            }
        }
    }
    out
}

/// Simulator events of an outcome: payments arrived + units sent +
/// scheduler ticks, summed over its runs. A function of the simulated
/// result, not of how the simulator is implemented.
pub fn event_count(w: &Workload, reports: &[SimReport]) -> u64 {
    reports
        .iter()
        .map(|r| r.attempted as u64 + r.units_sent + w.ticks())
        .sum()
}

/// Snapshot files of a checkpoint directory, oldest first.
pub fn snapshots(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|x| x == "spsn"));
    files.sort();
    files
}

/// Resumes `isp-observed` from `snapshot` with recording on and carries it
/// to completion; returns the report with the handle holding the trace.
pub fn resume_observed(
    w: &Workload,
    seed: u64,
    snapshot: &Path,
) -> (Result<SimReport, SnapshotError>, Telemetry) {
    let inputs = setup(w, seed, 1);
    let telemetry = Telemetry::enabled();
    let mut cfg = SimConfig::new(w.duration);
    cfg.telemetry = telemetry.clone();
    let mut scheme = Scheme::Waterfilling.build(&inputs.network, &inputs.trace, w.duration);
    let report = resume(
        &inputs.network,
        &inputs.trace,
        scheme.as_mut(),
        &cfg,
        snapshot,
        None,
    );
    (report, telemetry)
}
