//! Workload generation for payment channel network evaluation.
//!
//! - [`sizes`] — heavy-tailed transaction-size distributions calibrated to
//!   the paper's Ripple trace statistics,
//! - [`trace`] — Poisson transaction traces with skewed senders and uniform
//!   receivers (§6.1), plus demand-matrix estimation,
//! - [`demand`] — synthetic demand matrices with controlled circulation
//!   fractions (the Proposition 1 knob).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod demand;
pub mod sizes;
pub mod trace;

pub use demand::{mixed_demand, random_circulation, random_dag_demand};
pub use sizes::{isp_sizes, ripple_sizes, BoundedPareto};
pub use trace::{demand_matrix, generate, SenderDistribution, TraceConfig, Transaction};
