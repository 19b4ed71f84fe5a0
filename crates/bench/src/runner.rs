//! Parallel deterministic experiment grid runner.
//!
//! Expands an [`ExperimentConfig`] into a flat grid of
//! (scheme, sweep-point, trial) cells, runs the cells on a scoped worker
//! pool, and aggregates the per-trial [`SimReport`]s into
//! mean/min/max/stddev summaries.
//!
//! Determinism is the design constraint: every cell derives its own seed
//! from the base seed and its flat index via a SplitMix64 step, results are
//! written into index-addressed slots (never in completion order), and
//! aggregation walks the grid in declaration order. The serialized
//! [`GridResult`] is therefore byte-identical for any worker count.

use crate::experiments::{
    run_scheme_with, telemetry_handle, ExperimentConfig, RunMode, SchemeChoice,
};
use serde::{Deserialize, Serialize};
use spider_core::CoreError;
use spider_sim::faults::SplitMix64;
use spider_sim::{FaultConfig, FaultPlan, SimReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A full experiment grid: every scheme crossed with every sweep point,
/// repeated for `trials` independent seeds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridConfig {
    /// Template configuration; per-cell overrides replace `capacity` and
    /// `seed`.
    pub base: ExperimentConfig,
    /// Schemes to evaluate (row-major outermost grid axis).
    pub schemes: Vec<SchemeChoice>,
    /// Per-channel capacity sweep points (Fig. 7's axis). Empty means a
    /// single point at `base.capacity`.
    pub capacities: Vec<f64>,
    /// Independent trials per (scheme, capacity) cell group; each trial
    /// gets its own derived seed.
    pub trials: usize,
    /// Run every cell with the ledger auditor enabled and report
    /// violations in the summaries.
    pub audit: bool,
    /// Run every cell with telemetry enabled: reports carry summaries and
    /// percentiles, and every [`CellResult`] keeps its cell's trace.
    /// Each cell gets its own handle and results are index-addressed, so the
    /// output stays byte-identical for any worker count.
    #[serde(default)]
    pub telemetry: bool,
    /// Fault-injection template applied to every cell. Each cell expands
    /// its own [`FaultPlan`] from this config with a seed derived from the
    /// cell seed, so fault schedules differ across trials but are byte-
    /// reproducible at any worker count.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultConfig>,
    /// Channel-outage-rate sweep points (expected outages per channel over
    /// the run). Non-empty only makes sense with `faults`; each point
    /// overrides the template's `channel_outage_rate`, adding a grid axis
    /// between capacity and trial.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub outage_rates: Vec<f64>,
}

impl GridConfig {
    /// All six schemes, a single sweep point at the base capacity, three
    /// trials, auditing on.
    pub fn new(base: ExperimentConfig) -> Self {
        let capacities = vec![base.capacity];
        GridConfig {
            base,
            schemes: SchemeChoice::ALL.to_vec(),
            capacities,
            trials: 3,
            audit: true,
            telemetry: false,
            faults: None,
            outage_rates: Vec::new(),
        }
    }
}

/// One cell of the expanded grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// Flat index in scheme-major, then capacity, then trial order.
    pub index: usize,
    /// Scheme under test.
    pub scheme: SchemeChoice,
    /// Per-channel capacity for this cell (tokens).
    pub capacity: f64,
    /// Trial number within the (scheme, capacity, outage-rate) group.
    pub trial: usize,
    /// Seed derived from the base seed and `index` (SplitMix64 stream).
    pub seed: u64,
    /// Channel outage rate for this cell (only set when the grid sweeps
    /// `outage_rates`; absent otherwise so fault-off grids serialize
    /// byte-identically to older builds).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub outage_rate: Option<f64>,
}

/// A cell together with the report its simulation produced.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// The grid cell that was run.
    pub cell: GridCell,
    /// The simulation report for that cell.
    pub report: SimReport,
    /// The cell's trace as SPBT file bytes, the tracer's own (no events
    /// when the grid ran with telemetry off). Kept in memory only: traces
    /// go to disk as their own files.
    #[serde(skip)]
    pub spbt: Vec<u8>,
}

/// Mean/min/max/stddev of one metric across the trials of a cell group.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl MetricSummary {
    /// Summarizes `samples`; all-zero for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return MetricSummary {
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut var = 0.0;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
            var += (s - mean) * (s - mean);
        }
        MetricSummary {
            mean,
            min,
            max,
            stddev: (var / n).sqrt(),
        }
    }
}

/// Aggregated statistics for one (scheme, capacity) group of trials.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridSummary {
    /// Scheme evaluated in this group.
    pub scheme: SchemeChoice,
    /// Display name as reported by the simulator.
    pub scheme_name: String,
    /// Per-channel capacity of this sweep point (tokens).
    pub capacity: f64,
    /// Channel outage rate of this sweep point (absent when the grid has
    /// no outage-rate axis).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub outage_rate: Option<f64>,
    /// Number of trials aggregated.
    pub trials: usize,
    /// Success ratio (completed / attempted) across trials.
    pub success_ratio: MetricSummary,
    /// Success volume (delivered / attempted volume) across trials.
    pub success_volume: MetricSummary,
    /// Mean completion delay across trials (seconds).
    pub mean_completion_delay: MetricSummary,
    /// Total ledger invariant checks performed across trials.
    pub audit_checks: u64,
    /// Total ledger invariant violations across trials (must be zero on a
    /// correct engine).
    pub audit_violations: usize,
}

/// Everything a grid run produced: per-cell reports in index order plus
/// per-group aggregates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridResult {
    /// One entry per cell, ordered by `cell.index`.
    pub cells: Vec<CellResult>,
    /// One entry per (scheme, capacity) group, in grid declaration order.
    pub summaries: Vec<GridSummary>,
}

impl GridResult {
    /// Total audit violations across every cell of the grid.
    pub fn total_audit_violations(&self) -> usize {
        self.summaries.iter().map(|s| s.audit_violations).sum()
    }

    /// Serializes the whole result as pretty JSON. Because cells are slot-
    /// addressed and summaries walk the grid in declaration order, this
    /// string is byte-identical for any worker count.
    ///
    /// Returns [`CoreError::Internal`] if serialization fails (a bug in the
    /// report types, not a runtime condition).
    pub fn to_json(&self) -> Result<String, CoreError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| CoreError::Internal(format!("grid result serialization failed: {e}")))
    }
}

/// Seed for cell `cell_index` of a grid with base seed `base_seed`: the
/// `cell_index`-th output of the SplitMix64 stream seeded at `base_seed`.
/// Indexed (rather than iterated) so any cell's seed is O(1) and cells can
/// be run in any order.
pub fn derive_cell_seed(base_seed: u64, cell_index: u64) -> u64 {
    SplitMix64::nth(base_seed, cell_index)
}

/// Expands a grid config into its flat cell list: schemes outermost, then
/// capacities, then outage rates (when swept), trials innermost — so every
/// (scheme, capacity, outage-rate) trial group stays contiguous.
pub fn expand(config: &GridConfig) -> Vec<GridCell> {
    let capacities: &[f64] = if config.capacities.is_empty() {
        std::slice::from_ref(&config.base.capacity)
    } else {
        &config.capacities
    };
    let rates: Vec<Option<f64>> = if config.outage_rates.is_empty() {
        vec![None]
    } else {
        config.outage_rates.iter().copied().map(Some).collect()
    };
    let mut cells =
        Vec::with_capacity(config.schemes.len() * capacities.len() * rates.len() * config.trials);
    for &scheme in &config.schemes {
        for &capacity in capacities {
            for &outage_rate in &rates {
                for trial in 0..config.trials {
                    let index = cells.len();
                    cells.push(GridCell {
                        index,
                        scheme,
                        capacity,
                        trial,
                        seed: derive_cell_seed(config.base.seed, index as u64),
                        outage_rate,
                    });
                }
            }
        }
    }
    cells
}

/// Worker count from the `SPIDER_JOBS` environment variable, falling back
/// to [`std::thread::available_parallelism`]. Always at least 1.
pub fn jobs_from_env() -> usize {
    std::env::var("SPIDER_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs one cell. `None` only if the run failed with a snapshot error,
/// which a plain run cannot.
fn run_cell(config: &GridConfig, cell: GridCell) -> Option<CellResult> {
    let mut exp = config.base.clone();
    exp.capacity = cell.capacity;
    exp.seed = cell.seed;
    let tel = telemetry_handle(config.telemetry);
    let report = run_scheme_with(&exp, cell.scheme, &tel, RunMode::Plain, |sim, network| {
        sim.audit = config.audit;
        if let Some(template) = &config.faults {
            let mut fc = template.clone();
            // Decorrelate the fault schedule from the workload stream while
            // keeping it a pure function of the cell.
            fc.seed = SplitMix64::mix(cell.seed ^ 0x9e37_79b9_7f4a_7c15);
            if let Some(rate) = cell.outage_rate {
                fc.channel_outage_rate = rate;
            }
            sim.faults = Some(FaultPlan::from_config(&fc, network, exp.duration));
        }
    })
    .ok()?;
    Some(CellResult {
        cell,
        report,
        spbt: tel.with_spbt(|_, spbt| spbt.to_vec()),
    })
}

/// Runs every cell of the grid on `jobs` scoped worker threads (clamped to
/// `1..=cells`) and aggregates the reports.
///
/// Workers claim cells from a shared atomic counter and write each result
/// (report and, when `config.telemetry` is on, the cell's trace)
/// into the slot addressed by its cell index, so the output — and its JSON
/// serialization — does not depend on `jobs` or on scheduling order.
///
/// Returns [`CoreError::Internal`] if any worker panicked before filling
/// its slot; the error names the first unfilled cell.
pub fn run_grid(config: &GridConfig, jobs: usize) -> Result<GridResult, CoreError> {
    let cells = expand(config);
    let jobs = jobs.clamp(1, cells.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let outcome = run_cell(config, cells[i].clone());
                // A poisoned slot only means another worker panicked while
                // holding the lock; the slot data itself is still valid.
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = outcome;
            });
        }
    });

    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .ok_or_else(|| CoreError::Internal(format!("grid cell {i} produced no report")))
        })
        .collect::<Result<Vec<CellResult>, CoreError>>()?;
    let summaries = summarize(config, &results);
    Ok(GridResult {
        cells: results,
        summaries,
    })
}

fn summarize(config: &GridConfig, results: &[CellResult]) -> Vec<GridSummary> {
    let mut summaries = Vec::new();
    // Cells are contiguous per (scheme, capacity, outage-rate) group by
    // construction.
    for group in results.chunks(config.trials.max(1)) {
        if group.is_empty() {
            continue;
        }
        let metric = |f: &dyn Fn(&SimReport) -> f64| {
            MetricSummary::from_samples(&group.iter().map(|c| f(&c.report)).collect::<Vec<f64>>())
        };
        summaries.push(GridSummary {
            scheme: group[0].cell.scheme,
            scheme_name: group[0].report.scheme.clone(),
            capacity: group[0].cell.capacity,
            outage_rate: group[0].cell.outage_rate,
            trials: group.len(),
            success_ratio: metric(&SimReport::success_ratio),
            success_volume: metric(&SimReport::success_volume),
            mean_completion_delay: metric(&|r: &SimReport| r.mean_completion_delay),
            audit_checks: group.iter().map(|c| c.report.audit_checks).sum(),
            audit_violations: group.iter().map(|c| c.report.audit_violations.len()).sum(),
        });
    }
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Topology;

    fn tiny_config() -> GridConfig {
        let mut base = ExperimentConfig::isp_quick();
        base.num_transactions = 200;
        base.duration = 10.0;
        GridConfig {
            base,
            schemes: vec![SchemeChoice::ShortestPath, SchemeChoice::SpiderWaterfilling],
            capacities: vec![],
            trials: 2,
            audit: true,
            telemetry: false,
            faults: None,
            outage_rates: Vec::new(),
        }
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..16).map(|i| derive_cell_seed(7, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| derive_cell_seed(7, i)).collect();
        assert_eq!(a, b);
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                assert_ne!(a[i], a[j], "cells {i} and {j} collided");
            }
        }
        assert_ne!(derive_cell_seed(7, 0), derive_cell_seed(8, 0));
    }

    #[test]
    fn expansion_is_scheme_major_with_flat_indices() {
        let mut config = tiny_config();
        config.capacities = vec![10_000.0, 30_000.0];
        let cells = expand(&config);
        assert_eq!(cells.len(), 2 * 2 * 2);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.seed, derive_cell_seed(config.base.seed, i as u64));
        }
        assert_eq!(cells[0].scheme, SchemeChoice::ShortestPath);
        assert_eq!(cells[0].capacity, 10_000.0);
        assert_eq!(cells[1].trial, 1);
        assert_eq!(cells[2].capacity, 30_000.0);
        assert_eq!(cells[4].scheme, SchemeChoice::SpiderWaterfilling);
    }

    #[test]
    fn empty_sweep_falls_back_to_base_capacity() {
        let config = tiny_config();
        let cells = expand(&config);
        assert_eq!(cells.len(), 2 * 2);
        assert!(cells.iter().all(|c| c.capacity == config.base.capacity));
    }

    #[test]
    fn metric_summary_statistics() {
        let s = MetricSummary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - 1.25f64.sqrt()).abs() < 1e-12);
        let empty = MetricSummary::from_samples(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.stddev, 0.0);
    }

    #[test]
    fn jobs_from_env_is_positive() {
        assert!(jobs_from_env() >= 1);
    }

    #[test]
    fn grid_runs_audited_and_identically_at_any_job_count() {
        let config = tiny_config();
        let serial = run_grid(&config, 1).unwrap();
        let parallel = run_grid(&config, 3).unwrap();

        assert_eq!(serial.cells.len(), 4);
        assert_eq!(serial.summaries.len(), 2);
        for s in &serial.summaries {
            assert_eq!(s.trials, 2);
            assert!(s.audit_checks > 0, "{}: auditor never ran", s.scheme_name);
            assert_eq!(
                s.audit_violations, 0,
                "{}: ledger violations",
                s.scheme_name
            );
            assert!(
                s.success_ratio.mean > 0.0,
                "{} routed nothing",
                s.scheme_name
            );
            assert!(s.success_ratio.min <= s.success_ratio.mean);
            assert!(s.success_ratio.mean <= s.success_ratio.max);
        }
        assert_eq!(serial.total_audit_violations(), 0);
        assert_eq!(
            serial.to_json().unwrap(),
            parallel.to_json().unwrap(),
            "output depends on worker count"
        );
    }

    #[test]
    fn audit_can_be_disabled_per_grid() {
        let mut config = tiny_config();
        config.schemes = vec![SchemeChoice::ShortestPath];
        config.trials = 1;
        config.audit = false;
        let result = run_grid(&config, 1).unwrap();
        assert_eq!(result.summaries[0].audit_checks, 0);
    }

    #[test]
    fn outage_rate_axis_expands_between_capacity_and_trial() {
        let mut config = tiny_config();
        config.faults = Some(FaultConfig::default());
        config.outage_rates = vec![0.0, 1.0];
        let cells = expand(&config);
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].outage_rate, Some(0.0));
        assert_eq!(cells[1].outage_rate, Some(0.0));
        assert_eq!(cells[1].trial, 1);
        assert_eq!(cells[2].outage_rate, Some(1.0));
        assert_eq!(cells[4].scheme, SchemeChoice::SpiderWaterfilling);
        // No sweep -> the field stays absent (JSON unchanged from older
        // builds).
        let plain = expand(&tiny_config());
        assert!(plain.iter().all(|c| c.outage_rate.is_none()));
        let json = serde_json::to_string(&plain[0]).unwrap();
        assert!(!json.contains("outage_rate"), "{json}");
    }

    #[test]
    fn fault_grid_is_audit_clean_and_identical_at_any_job_count() {
        let mut config = tiny_config();
        config.schemes = vec![SchemeChoice::SpiderWaterfilling];
        config.faults = Some(FaultConfig {
            channel_outage_rate: 1.0,
            outage_duration: 2.0,
            node_churn_rate: 0.2,
            node_downtime: 2.0,
            ..FaultConfig::default()
        });
        let serial = run_grid(&config, 1).unwrap();
        let parallel = run_grid(&config, 4).unwrap();
        assert_eq!(
            serial.to_json().unwrap(),
            parallel.to_json().unwrap(),
            "fault grids must not depend on worker count"
        );
        assert_eq!(serial.total_audit_violations(), 0);
        let stats = serial.cells[0].report.faults.expect("fault stats");
        assert!(stats.outages > 0, "outage rate 1.0 must fire: {stats:?}");
        // Trials draw different fault schedules (seeds are per-cell).
        let s0 = serial.cells[0].report.faults.unwrap();
        let s1 = serial.cells[1].report.faults.unwrap();
        assert!(
            s0 != s1 || serial.cells[0].report.units_sent != serial.cells[1].report.units_sent,
            "independent trials should differ"
        );
    }

    #[test]
    fn grid_config_round_trips_through_json() {
        let mut config = GridConfig::new(ExperimentConfig::isp_quick());
        config.base.topology = Topology::Ripple { nodes: 50 };
        let json = serde_json::to_string(&config).unwrap();
        let back: GridConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schemes, config.schemes);
        assert_eq!(back.trials, config.trials);
        assert_eq!(back.base.capacity, config.base.capacity);
    }
}
