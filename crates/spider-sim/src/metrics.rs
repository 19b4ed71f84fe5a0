//! Evaluation metrics (§6.1): success ratio and success volume, plus
//! supporting detail.

use crate::audit::AuditViolation;
use crate::faults::FaultStats;
use crate::ledger::tokens;
use crate::payment::{PaymentState, PaymentStatus};
use crate::rebalancer::RebalanceStats;
use serde::{Deserialize, Serialize};
use spider_core::Amount;
use spider_telemetry::{DelayPercentiles, TelemetrySummary};

/// Result of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimReport {
    /// Routing scheme name.
    #[serde(default)]
    pub scheme: String,
    /// Scheduling policy name (packet-switched schemes only; "atomic" otherwise).
    #[serde(default)]
    pub policy: String,
    /// Payments that arrived during the run.
    #[serde(default)]
    pub attempted: usize,
    /// Payments fully delivered before their deadline.
    #[serde(default)]
    pub completed: usize,
    /// Payments abandoned (atomic failure, unroutable, or deadline).
    #[serde(default)]
    pub abandoned: usize,
    /// Payments still pending when the run ended.
    #[serde(default)]
    pub pending_at_end: usize,
    /// Total value of attempted payments (tokens; summed exactly, converted once).
    #[serde(default)]
    pub attempted_volume: f64,
    /// Value settled at receivers, partial deliveries included (summed exactly, converted once).
    #[serde(default)]
    pub delivered_volume: f64,
    /// Value of fully completed payments only (summed exactly, converted once).
    #[serde(default)]
    pub completed_volume: f64,
    /// Transaction units transmitted.
    #[serde(default)]
    pub units_sent: u64,
    /// Mean time from arrival to completion, over completed payments.
    #[serde(default)]
    pub mean_completion_delay: f64,
    /// Mean relative channel imbalance at the end of the run.
    #[serde(default)]
    pub final_mean_imbalance: f64,
    /// On-chain rebalancing activity (zeros when rebalancing is disabled).
    #[serde(default)]
    pub rebalance: RebalanceStats,
    /// Total routing fees paid by senders (tokens). Always zero: no relay
    /// charges a fee, as in the paper's evaluation (§6). The field stays so
    /// that every report keeps its keys and bytes.
    #[serde(default)]
    pub routing_fees_paid: f64,
    /// Ledger invariant checks performed (zero when auditing is disabled).
    #[serde(default)]
    pub audit_checks: u64,
    /// Ledger invariant violations found by the auditor (always empty on a
    /// correct engine; capped at 32 entries per run).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub audit_violations: Vec<AuditViolation>,
    /// Completion-delay percentiles from the telemetry latency histogram
    /// (present only when telemetry was enabled, so reports from
    /// telemetry-off runs serialize byte-identically to older builds).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub completion_delay_percentiles: Option<DelayPercentiles>,
    /// Full telemetry summary: event counts, network time series, metrics
    /// snapshot (present only when telemetry was enabled).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub telemetry: Option<TelemetrySummary>,
    /// Fault-injection statistics (present only when a fault plan was
    /// configured, so fault-off reports serialize byte-identically to
    /// older builds).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultStats>,
    /// Per-shard epoch observability from the sharded engine (barrier
    /// waits, cross-shard message counts, load imbalance). **Never
    /// serialized**: per-shard detail necessarily differs across shard
    /// counts while report JSON must stay byte-identical at any shard
    /// count — consumers read it in memory (CLI `sharded` printout).
    #[serde(skip, default)]
    pub shards: Option<crate::engine_sharded::ShardObservability>,
}

impl SimReport {
    /// `completed / attempted` — the paper's *success ratio*.
    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.completed as f64 / self.attempted as f64
        }
    }

    /// `delivered volume / attempted volume` — the paper's *success
    /// volume* (non-atomic partial deliveries count as delivered).
    pub fn success_volume(&self) -> f64 {
        if self.attempted_volume <= 0.0 {
            0.0
        } else {
            self.delivered_volume / self.attempted_volume
        }
    }

    /// `completed volume / attempted volume` — a stricter volume metric
    /// counting only fully completed payments.
    pub fn strict_success_volume(&self) -> f64 {
        if self.attempted_volume <= 0.0 {
            0.0
        } else {
            self.completed_volume / self.attempted_volume
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} {:<8} success_ratio={:>6.3} success_volume={:>6.3} (strict {:>6.3}) completed={}/{} abandoned={} pending={} units={}",
            self.scheme,
            self.policy,
            self.success_ratio(),
            self.success_volume(),
            self.strict_success_volume(),
            self.completed,
            self.attempted,
            self.abandoned,
            self.pending_at_end,
            self.units_sent
        )
    }
}

/// Folds one `(amount, record)` row per payment into the payment half of a
/// report: counts by final status, the three volumes summed exactly in
/// micro-units and converted to tokens once, and the completed rows' mean
/// delay, summed in row order. Every other field is zero or empty, for the
/// caller to fill in with struct update syntax.
pub(crate) fn tally<'a>(
    scheme: &str,
    policy: String,
    rows: impl IntoIterator<Item = (Amount, &'a PaymentState)>,
) -> SimReport {
    let mut r = SimReport {
        scheme: scheme.to_string(),
        policy,
        attempted: 0,
        completed: 0,
        abandoned: 0,
        pending_at_end: 0,
        attempted_volume: 0.0,
        delivered_volume: 0.0,
        completed_volume: 0.0,
        units_sent: 0,
        mean_completion_delay: 0.0,
        final_mean_imbalance: 0.0,
        rebalance: RebalanceStats::default(),
        routing_fees_paid: 0.0,
        audit_checks: 0,
        audit_violations: Vec::new(),
        completion_delay_percentiles: None,
        telemetry: None,
        faults: None,
        shards: None,
    };
    let [mut attempted, mut delivered, mut completed] = [Amount::ZERO; 3];
    let mut delay_sum = 0.0;
    for (amount, p) in rows {
        r.attempted += 1;
        attempted += amount;
        delivered += p.delivered;
        match p.status {
            PaymentStatus::Completed => {
                r.completed += 1;
                completed += amount;
                delay_sum += p.delay.unwrap_or_default();
            }
            PaymentStatus::Abandoned => r.abandoned += 1,
            PaymentStatus::Pending => r.pending_at_end += 1,
        }
    }
    r.attempted_volume = tokens(attempted);
    r.delivered_volume = tokens(delivered);
    r.completed_volume = tokens(completed);
    if r.completed > 0 {
        r.mean_completion_delay = delay_sum / r.completed as f64;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            scheme: "test".into(),
            policy: "srpt".into(),
            attempted: 10,
            completed: 7,
            abandoned: 2,
            pending_at_end: 1,
            attempted_volume: 1000.0,
            delivered_volume: 800.0,
            completed_volume: 700.0,
            units_sent: 42,
            mean_completion_delay: 0.9,
            final_mean_imbalance: 0.3,
            rebalance: RebalanceStats::default(),
            routing_fees_paid: 0.0,
            audit_checks: 0,
            audit_violations: vec![],
            completion_delay_percentiles: None,
            telemetry: None,
            faults: None,
            shards: None,
        }
    }

    #[test]
    fn ratios() {
        let r = report();
        assert!((r.success_ratio() - 0.7).abs() < 1e-12);
        assert!((r.success_volume() - 0.8).abs() < 1e-12);
        assert!((r.strict_success_volume() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn zero_attempts_are_safe() {
        let mut r = report();
        r.attempted = 0;
        r.attempted_volume = 0.0;
        assert_eq!(r.success_ratio(), 0.0);
        assert_eq!(r.success_volume(), 0.0);
        assert_eq!(r.strict_success_volume(), 0.0);
    }

    #[test]
    fn summary_contains_key_numbers() {
        let s = report().summary();
        assert!(s.contains("test"));
        assert!(s.contains("srpt"), "summary must show the policy: {s}");
        assert!(s.contains("0.700"));
        assert!(s.contains("7/10"));
        assert!(
            s.contains("abandoned=2"),
            "summary must show abandoned: {s}"
        );
        assert!(s.contains("pending=1"), "summary must show pending: {s}");
    }

    #[test]
    fn telemetry_fields_absent_from_json_when_disabled() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("completion_delay_percentiles"));
        assert!(!json.contains("telemetry"));
        assert!(!json.contains("faults"), "fault-off reports stay unchanged");
        let mut with = report();
        with.completion_delay_percentiles = Some(DelayPercentiles {
            p50: 0.5,
            p95: 1.0,
            p99: 2.0,
            saturated: false,
        });
        let json = serde_json::to_string(&with).unwrap();
        assert!(json.contains("completion_delay_percentiles"));
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.completion_delay_percentiles,
            with.completion_delay_percentiles
        );
    }

    /// Every field of the three frozen report structs has a default, so a
    /// report written before a field existed still reads back.
    #[test]
    fn an_empty_object_reads_as_every_frozen_report_struct() {
        let report: SimReport = serde_json::from_str("{}").unwrap();
        let zero = tally("", String::new(), []);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&zero).unwrap()
        );
        let faults: FaultStats = serde_json::from_str("{}").unwrap();
        assert_eq!(faults, FaultStats::default());
        let summary: TelemetrySummary = serde_json::from_str("{}").unwrap();
        assert_eq!(summary, TelemetrySummary::default());
    }

    #[test]
    fn serializes_to_json() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"attempted\":10"));
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.attempted, r.attempted);
    }
}
