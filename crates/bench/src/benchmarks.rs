//! Deterministic benchmark harness behind `spider-experiments bench`.
//!
//! A fixed, seeded matrix of end-to-end scenarios (small/medium/large
//! topology × scheme × payment count) is run with a median-of-N wall-time
//! protocol and written as `BENCH_<name>.json`. The report keeps two
//! strictly separated sections:
//!
//! - `results` — throughput stats, success rates, and event counts that are
//!   **byte-identical across runs, hosts, and worker counts** (each repeat
//!   is asserted identical, so the benchmark doubles as a determinism
//!   check);
//! - `timing` — wall-clock milliseconds and events/sec, which obviously
//!   vary between machines and runs.
//!
//! Fixtures and the determinism tests compare [`BenchReport::stripped_json`]
//! (the report without its `timing` section); CI compares `timing`
//! events/sec against a conservative checked-in floor
//! ([`BenchFloor::check`]).

use crate::experiments::{
    resume_scheme, run_scheme, run_scheme_checkpointed, run_scheme_traced,
    run_sharded_scheme_featured, sharded_scheme_for, ExperimentConfig, SchemeChoice, ShardFeatures,
    Topology,
};
use serde::{Deserialize, Serialize};
use spider_sim::{latest_snapshot, CheckpointSpec, SimReport};
use spider_telemetry::{PhaseWallStat, Telemetry};
use std::time::Instant;

/// Version stamp of the `BENCH_*.json` schema.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// One cell of the benchmark matrix.
#[derive(Clone, Debug)]
pub struct BenchScenario {
    /// Stable scenario id, e.g. `medium-ripple400-waterfilling-10k`.
    pub name: String,
    /// Full experiment configuration (topology, workload, seed).
    pub config: ExperimentConfig,
    /// Routing scheme under test.
    pub scheme: SchemeChoice,
    /// `Some(n)`: run on the partition-parallel engine with `n` shards
    /// (`scheme` must be one the sharded engine supports). `None`: the
    /// sequential engine.
    pub shards: Option<usize>,
    /// Sequential-engine features enabled on the sharded run (queued
    /// router policy, fees, congestion, rebalancing). Ignored when
    /// `shards` is `None`.
    pub features: ShardFeatures,
    /// `Some(every)`: warm-start scenario — one unmeasured preparation run
    /// checkpoints every `every` scheduler ticks, and each timed repeat
    /// *resumes* from the latest snapshot, measuring snapshot load plus
    /// the remaining simulation. Because resume is byte-identical to a
    /// straight run, the deterministic `results` row must equal the cold
    /// scenario's (name aside), so the cell doubles as a resume-determinism
    /// check. Sequential engine only.
    pub warm_start: Option<u64>,
}

fn scenario(
    name: &str,
    topology: Topology,
    num_transactions: usize,
    duration: f64,
    scheme: SchemeChoice,
) -> BenchScenario {
    let base = match topology {
        Topology::Isp => ExperimentConfig::isp_quick(),
        Topology::Ripple { .. } => ExperimentConfig::ripple_quick(),
    };
    BenchScenario {
        name: name.to_string(),
        config: ExperimentConfig {
            topology,
            num_transactions,
            duration,
            seed: 1,
            ..base
        },
        scheme,
        shards: None,
        features: ShardFeatures::NONE,
        warm_start: None,
    }
}

fn sharded(mut s: BenchScenario, shards: usize) -> BenchScenario {
    s.name = format!("{}-shards{shards}", s.name);
    s.shards = Some(shards);
    s
}

fn full_features(mut s: BenchScenario) -> BenchScenario {
    s.features = ShardFeatures::ALL;
    s
}

fn warm(mut s: BenchScenario, every: u64) -> BenchScenario {
    s.name = format!("{}-warm{every}", s.name);
    s.warm_start = Some(every);
    s
}

/// The fixed benchmark matrix. `smoke` selects the small-topology subset
/// used by CI; the full matrix adds the medium (Ripple-400) and large
/// (Ripple-1500) end-to-end scenarios.
pub fn bench_matrix(smoke: bool) -> Vec<BenchScenario> {
    let mut out = Vec::new();
    // Small: the paper's 32-node ISP topology, two packet-switched schemes,
    // two payment counts.
    for (scheme, label) in [
        (SchemeChoice::ShortestPath, "shortest"),
        (SchemeChoice::SpiderWaterfilling, "waterfilling"),
    ] {
        out.push(scenario(
            &format!("small-isp-{label}-1k"),
            Topology::Isp,
            1_000,
            20.0,
            scheme,
        ));
        if !smoke {
            out.push(scenario(
                &format!("small-isp-{label}-5k"),
                Topology::Isp,
                5_000,
                60.0,
                scheme,
            ));
        }
    }
    // Sharded smoke pair: same scenario on the partition-parallel engine at
    // 1 and 4 shards. Their deterministic `results` rows must be identical
    // (only the name differs) — CI also byte-compares full reports/traces.
    let sharded_base = scenario(
        "small-isp-sharded-waterfilling-1k",
        Topology::Isp,
        1_000,
        20.0,
        SchemeChoice::SpiderWaterfilling,
    );
    out.push(sharded(sharded_base.clone(), 1));
    out.push(sharded(sharded_base, 4));
    // Sharded-queued smoke cell: the feature-parity surface (queued router
    // policy + fees + congestion + rebalancing) on the 4-shard engine.
    out.push(full_features(sharded(
        scenario(
            "small-isp-sharded-queued-full-1k",
            Topology::Isp,
            1_000,
            20.0,
            SchemeChoice::SpiderWaterfilling,
        ),
        4,
    )));
    // Warm-start smoke cell: an unmeasured preparation run checkpoints at
    // tick 120 of 200, then every timed repeat resumes from that snapshot
    // (snapshot load + the back 40% of the window). Its deterministic row
    // must equal small-isp-waterfilling-1k's — resume is byte-identical.
    out.push(warm(
        scenario(
            "small-isp-waterfilling-1k",
            Topology::Isp,
            1_000,
            20.0,
            SchemeChoice::SpiderWaterfilling,
        ),
        120,
    ));
    if smoke {
        return out;
    }
    // Medium: scale-free Ripple-like graph, 400 nodes. The waterfilling
    // cell here is the PR-gating end-to-end scenario (BENCH_baseline.json).
    for (scheme, label) in [
        (SchemeChoice::ShortestPath, "shortest"),
        (SchemeChoice::SpiderWaterfilling, "waterfilling"),
    ] {
        out.push(scenario(
            &format!("medium-ripple400-{label}-10k"),
            Topology::Ripple { nodes: 400 },
            10_000,
            85.0,
            scheme,
        ));
    }
    // Large: 1500 nodes, waterfilling only (the paper's headline scheme).
    out.push(scenario(
        "large-ripple1500-waterfilling-30k",
        Topology::Ripple { nodes: 1500 },
        30_000,
        85.0,
        SchemeChoice::SpiderWaterfilling,
    ));
    // Sharded speedup pair: the medium workload on the partition-parallel
    // engine at 1 vs 4 shards — the multi-core speedup record in
    // BENCH_baseline.json is the ratio of these two cells' events/sec.
    let medium_sharded = scenario(
        "medium-ripple400-sharded-waterfilling-10k",
        Topology::Ripple { nodes: 400 },
        10_000,
        85.0,
        SchemeChoice::SpiderWaterfilling,
    );
    out.push(sharded(medium_sharded.clone(), 1));
    out.push(sharded(medium_sharded, 4));
    // Tier-3: a 100k-node graph only the sharded engine can turn around.
    // Payment count is kept modest (path discovery is per unique pair) —
    // the cell exists to exercise scale, and its floor lives in
    // bench-floor-full.json.
    out.push(sharded(
        scenario(
            "huge-ripple100k-sharded-shortest-3k",
            Topology::Ripple { nodes: 100_000 },
            3_000,
            30.0,
            SchemeChoice::ShortestPath,
        ),
        4,
    ));
    out
}

/// Deterministic outcome of one scenario — every field here is a pure
/// function of the scenario config, so it must be byte-identical across
/// runs and worker counts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchScenarioResult {
    /// Scenario id.
    pub name: String,
    /// Topology label, e.g. `isp-32` or `ripple-400`.
    pub topology: String,
    /// Scheme display name.
    pub scheme: String,
    /// Payments that arrived during the window.
    pub payments: usize,
    /// Payments fully delivered before their deadline.
    pub completed: usize,
    /// Payments abandoned.
    pub abandoned: usize,
    /// Transaction units transmitted.
    pub units_sent: u64,
    /// `completed / payments`.
    pub success_ratio: f64,
    /// `delivered volume / attempted volume`.
    pub success_volume: f64,
    /// Deterministic simulator event count: arrivals + unit resolutions +
    /// scheduler ticks (see [`event_count`]).
    pub events: u64,
}

/// Wall-clock measurements for one scenario (explicitly non-deterministic;
/// fixtures must ignore this section).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchScenarioTiming {
    /// Scenario id.
    pub name: String,
    /// Wall time of every repeat, milliseconds, in execution order.
    pub wall_ms: Vec<f64>,
    /// Median of `wall_ms`.
    pub median_wall_ms: f64,
    /// `events / median wall seconds` — the regression-gated rate.
    pub events_per_sec: f64,
    /// Per-phase wall-clock breakdown from the last repeat (present only
    /// under `bench --profile`). Lives in the `timing` section so the
    /// stripped report stays byte-identical with or without profiling.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub phases: Vec<PhaseWallStat>,
}

/// The `timing` section of a [`BenchReport`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchTiming {
    /// Worker threads used.
    pub jobs: usize,
    /// Repeats per scenario (median-of-N).
    pub repeats: usize,
    /// Per-scenario wall-clock measurements, in matrix order.
    pub scenarios: Vec<BenchScenarioTiming>,
    /// Total harness wall time, milliseconds.
    pub total_wall_ms: f64,
}

/// A versioned `BENCH_<name>.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Matrix name: `smoke` or `full`.
    pub matrix: String,
    /// Deterministic results, in matrix order.
    pub results: Vec<BenchScenarioResult>,
    /// Wall-clock section, segregated so fixtures can strip it.
    pub timing: BenchTiming,
}

/// [`BenchReport`] minus its `timing` section — the byte-identical part.
#[derive(Serialize)]
struct StrippedBenchReport {
    schema_version: u32,
    matrix: String,
    results: Vec<BenchScenarioResult>,
}

impl BenchReport {
    /// Pretty JSON of the full report.
    pub fn to_json(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(s) => s,
            Err(e) => panic!("bench report serializes: {e}"),
        }
    }

    /// Pretty JSON with the `timing` section removed: byte-identical across
    /// runs and worker counts.
    pub fn stripped_json(&self) -> String {
        let stripped = StrippedBenchReport {
            schema_version: self.schema_version,
            matrix: self.matrix.clone(),
            results: self.results.clone(),
        };
        match serde_json::to_string_pretty(&stripped) {
            Ok(s) => s,
            Err(e) => panic!("stripped bench report serializes: {e}"),
        }
    }

    /// Parses a `BENCH_*.json` document, refusing unknown schema versions.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let report: BenchReport =
            serde_json::from_str(text).map_err(|e| format!("not a bench report: {e}"))?;
        if report.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported bench schema version {} (this build reads {})",
                report.schema_version, BENCH_SCHEMA_VERSION
            ));
        }
        Ok(report)
    }
}

/// The deterministic event count of a run: one event per payment arrival,
/// one per transmitted unit (its settle/expiry resolution), and one per
/// scheduler tick. All three addends are pure functions of the config and
/// seed — no wall clock anywhere — so `events` is reproducible while still
/// scaling with the work the event loop actually did.
pub fn event_count(config: &ExperimentConfig, report: &SimReport) -> u64 {
    let ticks = (config.duration / config.sim_config().poll_interval).floor() as u64;
    report.attempted as u64 + report.units_sent + ticks
}

fn topology_label(config: &ExperimentConfig) -> String {
    match config.topology {
        Topology::Isp => "isp-32".to_string(),
        Topology::Ripple { nodes } => format!("ripple-{nodes}"),
    }
}

fn median(sorted_ms: &mut [f64]) -> f64 {
    sorted_ms.sort_by(|a, b| a.total_cmp(b));
    if sorted_ms.is_empty() {
        return 0.0;
    }
    sorted_ms[sorted_ms.len() / 2]
}

/// Scratch directory holding a warm-start scenario's snapshots, removed on
/// drop. Unique per process and instantiation, so concurrent workers and
/// repeated harness runs never collide.
struct WarmStartDir(std::path::PathBuf);

impl WarmStartDir {
    fn new(scenario: &str) -> Self {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spider-warmstart-{scenario}-{}-{seq}",
            std::process::id()
        ));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            panic!("cannot create warm-start dir {}: {e}", dir.display());
        }
        WarmStartDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WarmStartDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one scenario `repeats` times, asserting every repeat produces the
/// identical deterministic result, and returns that result with the
/// median-of-N timing.
///
/// With `profile` set, every repeat runs under a fresh
/// [`Telemetry::profiled`] handle and the last repeat's per-phase
/// wall-clock breakdown is attached to the timing (profiler overhead is
/// included in `wall_ms`, so profiled rates are not comparable to floors).
/// Warm-start scenarios run unprofiled either way, with empty `phases`: a
/// snapshot cannot restore a profiled handle (wall-clock spans are not
/// part of the deterministic state it captures).
fn run_scenario(
    s: &BenchScenario,
    repeats: usize,
    profile: bool,
) -> (BenchScenarioResult, BenchScenarioTiming) {
    let profile = profile && s.warm_start.is_none();
    let repeats = repeats.max(1);
    let mut wall_ms = Vec::with_capacity(repeats);
    let mut result: Option<BenchScenarioResult> = None;
    let mut phases: Vec<PhaseWallStat> = Vec::new();
    // Warm-start scenarios pay one unmeasured preparation run that leaves a
    // snapshot behind; every timed repeat resumes from it. The preparation
    // handle must have the same enabledness as the repeats' handles — the
    // snapshot fingerprint pins the telemetry configuration.
    let warm = s.warm_start.map(|every| {
        assert!(
            s.shards.is_none(),
            "scenario {}: warm-start is sequential-engine only",
            s.name
        );
        let dir = WarmStartDir::new(&s.name);
        let spec = CheckpointSpec::new(every, dir.path());
        let tel = if profile {
            Telemetry::profiled()
        } else {
            Telemetry::disabled()
        };
        if let Err(e) = run_scheme_checkpointed(&s.config, s.scheme, &tel, &spec) {
            panic!("scenario {}: warm-start preparation failed: {e}", s.name);
        }
        let snapshot = match latest_snapshot(dir.path()) {
            Ok(Some(p)) => p,
            Ok(None) => panic!(
                "scenario {}: warm-start preparation left no snapshot (checkpoint \
                 cadence {every} exceeds the run's tick count?)",
                s.name
            ),
            Err(e) => panic!("scenario {}: warm-start snapshot scan failed: {e}", s.name),
        };
        (dir, snapshot)
    });
    for _ in 0..repeats {
        let tel = if profile {
            Telemetry::profiled()
        } else {
            Telemetry::disabled()
        };
        let t0 = Instant::now();
        let report = match (&warm, s.shards) {
            (Some((_, snapshot)), None) => {
                match resume_scheme(&s.config, s.scheme, &tel, snapshot, None) {
                    Ok(report) => report,
                    Err(e) => panic!("scenario {}: warm-start resume failed: {e}", s.name),
                }
            }
            (Some(_), Some(_)) => unreachable!("warm-start is rejected for sharded scenarios"),
            (None, Some(shards)) => {
                let Some(scheme) = sharded_scheme_for(s.scheme) else {
                    panic!(
                        "scenario {}: scheme {:?} is not supported by the sharded engine",
                        s.name, s.scheme
                    );
                };
                run_sharded_scheme_featured(&s.config, scheme, shards, &tel, false, s.features)
            }
            (None, None) => {
                if profile {
                    run_scheme_traced(&s.config, s.scheme, &tel)
                } else {
                    run_scheme(&s.config, s.scheme)
                }
            }
        };
        wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(profiler) = tel.profiler() {
            phases = profiler.wall_phases();
        }
        let r = BenchScenarioResult {
            name: s.name.clone(),
            topology: topology_label(&s.config),
            scheme: report.scheme.clone(),
            payments: report.attempted,
            completed: report.completed,
            abandoned: report.abandoned,
            units_sent: report.units_sent,
            success_ratio: report.success_ratio(),
            success_volume: report.success_volume(),
            events: event_count(&s.config, &report),
        };
        match &result {
            None => result = Some(r),
            Some(first) => assert_eq!(
                first, &r,
                "scenario {} produced different results across repeats",
                s.name
            ),
        }
    }
    let Some(result) = result else {
        panic!("scenario {} ran zero repeats", s.name);
    };
    let mut sorted = wall_ms.clone();
    let median_wall_ms = median(&mut sorted);
    let events_per_sec = if median_wall_ms > 0.0 {
        result.events as f64 / (median_wall_ms / 1e3)
    } else {
        0.0
    };
    let timing = BenchScenarioTiming {
        name: s.name.clone(),
        wall_ms,
        median_wall_ms,
        events_per_sec,
        phases,
    };
    (result, timing)
}

/// Runs the whole matrix over `jobs` worker threads. Scenario results land
/// in fixed matrix-order slots, so `results` (and [`stripped_json`]
/// output) is byte-identical for any worker count; only `timing` varies.
///
/// [`stripped_json`]: BenchReport::stripped_json
pub fn run_bench(matrix: &[BenchScenario], name: &str, repeats: usize, jobs: usize) -> BenchReport {
    run_bench_profiled(matrix, name, repeats, jobs, false)
}

/// [`run_bench`] with an optional span-profiler attachment: when `profile`
/// is set, each scenario's timing carries a per-phase wall-clock breakdown
/// (see [`BenchScenarioTiming::phases`]). The deterministic `results`
/// section — and therefore [`BenchReport::stripped_json`] — is unaffected.
pub fn run_bench_profiled(
    matrix: &[BenchScenario],
    name: &str,
    repeats: usize,
    jobs: usize,
    profile: bool,
) -> BenchReport {
    let t0 = Instant::now();
    let n = matrix.len();
    let jobs = jobs.clamp(1, n.max(1));
    let mut slots: Vec<Option<(BenchScenarioResult, BenchScenarioTiming)>> =
        (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = w;
                    while i < n {
                        out.push((i, run_scenario(&matrix[i], repeats, profile)));
                        i += jobs;
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            let cells = match h.join() {
                Ok(cells) => cells,
                Err(_) => panic!("bench worker panicked"),
            };
            for (i, cell) in cells {
                slots[i] = Some(cell);
            }
        }
    });
    let mut results = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        let Some((r, t)) = slot else {
            panic!("bench slot {i} never completed");
        };
        results.push(r);
        timings.push(t);
    }
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        matrix: name.to_string(),
        results,
        timing: BenchTiming {
            jobs,
            repeats: repeats.max(1),
            scenarios: timings,
            total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        },
    }
}

/// Checked-in events/sec floors for CI regression gating.
///
/// Floors are deliberately far below developer-machine rates (CI runners
/// are slow and noisy); the gate fails only when a scenario drops more
/// than 30% below its floor — a real constant-factor regression, not
/// machine jitter.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchFloor {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// `(scenario name, events/sec floor)` pairs.
    pub events_per_sec: Vec<(String, f64)>,
}

impl BenchFloor {
    /// Parses a floor file.
    pub fn from_json(text: &str) -> Result<BenchFloor, String> {
        serde_json::from_str(text).map_err(|e| format!("not a bench floor file: {e}"))
    }

    /// Verifies `report` against the floors: every listed scenario must be
    /// present and reach at least 70% of its floor (>30% regression fails).
    pub fn check(&self, report: &BenchReport) -> Result<(), String> {
        for (name, floor) in &self.events_per_sec {
            let Some(t) = report.timing.scenarios.iter().find(|t| &t.name == name) else {
                return Err(format!("floor scenario `{name}` missing from bench report"));
            };
            let min = floor * 0.7;
            if t.events_per_sec < min {
                return Err(format!(
                    "scenario `{name}` regressed: {:.0} events/sec < 70% of floor {floor:.0}",
                    t.events_per_sec
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_is_small_topology_only() {
        let smoke = bench_matrix(true);
        assert!(!smoke.is_empty());
        assert!(smoke.iter().all(|s| s.config.topology == Topology::Isp));
        let full = bench_matrix(false);
        assert!(full.len() > smoke.len());
        // The PR-gating medium scenario must exist in the full matrix.
        assert!(full
            .iter()
            .any(|s| s.name == "medium-ripple400-waterfilling-10k"));
        // Names are unique (they key the floor file).
        let mut names: Vec<&str> = full.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), full.len());
    }

    #[test]
    fn report_round_trips_and_rejects_future_schema() {
        let matrix = vec![scenario(
            "tiny-isp-shortest",
            Topology::Isp,
            200,
            5.0,
            SchemeChoice::ShortestPath,
        )];
        let report = run_bench(&matrix, "test", 1, 1);
        let parsed = match BenchReport::from_json(&report.to_json()) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(parsed.results, report.results);
        let mut future = report.clone();
        future.schema_version = BENCH_SCHEMA_VERSION + 1;
        assert!(BenchReport::from_json(&future.to_json()).is_err());
    }

    #[test]
    fn stripped_json_has_no_timing() {
        let matrix = vec![scenario(
            "tiny-isp-shortest",
            Topology::Isp,
            100,
            5.0,
            SchemeChoice::ShortestPath,
        )];
        let report = run_bench(&matrix, "test", 2, 1);
        let stripped = report.stripped_json();
        assert!(!stripped.contains("wall_ms"));
        assert!(!stripped.contains("events_per_sec"));
        assert!(stripped.contains("\"events\""));
    }

    #[test]
    fn floor_check_passes_and_fails_as_expected() {
        let matrix = vec![scenario(
            "tiny-isp-shortest",
            Topology::Isp,
            100,
            5.0,
            SchemeChoice::ShortestPath,
        )];
        let report = run_bench(&matrix, "test", 1, 1);
        let generous = BenchFloor {
            schema_version: BENCH_SCHEMA_VERSION,
            events_per_sec: vec![("tiny-isp-shortest".to_string(), 1.0)],
        };
        assert!(generous.check(&report).is_ok());
        let impossible = BenchFloor {
            schema_version: BENCH_SCHEMA_VERSION,
            events_per_sec: vec![("tiny-isp-shortest".to_string(), 1e15)],
        };
        assert!(impossible.check(&report).is_err());
        let missing = BenchFloor {
            schema_version: BENCH_SCHEMA_VERSION,
            events_per_sec: vec![("no-such-scenario".to_string(), 1.0)],
        };
        assert!(missing.check(&report).is_err());
    }
}
