//! Deterministic discrete-event simulator for payment channel networks.
//!
//! Reproduces the paper's evaluation substrate (§6.1):
//!
//! - [`ledger`] — live channel balances with HTLC-style in-flight locking
//!   and exact conservation of funds,
//! - [`events`] — a deterministic `(time, sequence)`-ordered event queue,
//! - [`payment`] / [`scheduler`] — pending-payment state and SRPT/FIFO/
//!   LIFO/EDF service policies,
//! - [`engine`] — the continuous-time engine: one transport (split into
//!   units, lock hops, settle or refund, give up at the deadline — its run
//!   state, unit lifecycle and snapshot codec live once, in the private
//!   `transport` module) under two thin drivers that differ only in where
//!   a unit waits for funds: [`run`] queues at the source and drives any
//!   [`spider_routing::RoutingScheme`] and is the one engine that
//!   checkpoints ([`snapshot`]), [`run_queued`] queues at the routers
//!   (Fig. 3 / §4.2),
//! - [`engine_sharded`] — the partition-parallel engine: one simulation
//!   split across threads by a [`spider_topology::Partition`], merged
//!   byte-identically at any shard count,
//! - [`metrics`] — success ratio / success volume reporting,
//! - [`audit`] — opt-in ledger invariant checking after every
//!   balance-mutating event, reported as structured violations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod congestion;
pub mod engine;
pub mod engine_sharded;
pub mod events;
pub mod faults;
pub mod ledger;
pub mod metrics;
pub mod payment;
pub mod rebalancer;
pub mod scheduler;
pub mod snapshot;
mod transport;

pub use audit::{AuditViolation, AuditViolationKind, LedgerAudit};
pub use congestion::CongestionControl;
pub use engine::{run, run_queued, QueueStats, QueuedConfig, QueuedReport, SimConfig};
pub use engine_sharded::{
    run_sharded, ShardEpochMetrics, ShardObservability, ShardScheme, ShardedConfig,
};
pub use events::{EventQueue, Time};
pub use faults::{
    FaultConfig, FaultEvent, FaultPlan, FaultState, FaultStats, RetryPolicy, UnitFate,
};
pub use ledger::{Ledger, LedgerView};
pub use metrics::SimReport;
pub use payment::{PaymentState, PaymentStatus};
pub use rebalancer::RebalanceStats;
pub use scheduler::SchedulePolicy;
pub use snapshot::{latest_snapshot, CheckpointSpec, Snapshot, SnapshotError};
