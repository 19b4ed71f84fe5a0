//! Experiment harness regenerating every table and figure of the paper.
//!
//! [`experiments`] defines one deterministic function per figure; the
//! [`runner`] module fans experiment grids out over worker threads with
//! per-cell derived seeds and deterministic aggregation; the
//! `spider-experiments` binary prints paper-style rows and writes JSON
//! reports. Nothing here times the system: that is the frozen benchmark's
//! job (`benchmark/README.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod runner;

pub use experiments::{
    ablation_extensions, ablation_mtu, ablation_num_paths, ablation_path_strategy,
    ablation_scheduler, build_scheme, extension_schemes, fig4_fig5, fig4_network, fig6, fig7,
    lp_candidate_paths, rebalancing_curve, run_scheme, run_sharded_scheme, scheme_choice_by_name,
    telemetry_handle, Ablation, ExperimentConfig, Fig4Result, RebalancingPoint, RunMode,
    SchemeChoice, Topology,
};
pub use runner::{
    derive_cell_seed, expand, jobs_from_env, run_grid, CellResult, GridCell, GridConfig,
    GridResult, GridSummary, MetricSummary,
};
