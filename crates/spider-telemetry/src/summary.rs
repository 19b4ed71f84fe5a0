//! Aggregated telemetry embedded into simulation reports.

use crate::registry::MetricsSnapshot;
use serde::{Deserialize, Serialize};

fn is_false(v: &bool) -> bool {
    !*v
}

/// Completion-delay percentiles estimated from the latency histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DelayPercentiles {
    /// Median completion delay (seconds).
    pub p50: f64,
    /// 95th-percentile completion delay (seconds).
    pub p95: f64,
    /// 99th-percentile completion delay (seconds).
    pub p99: f64,
    /// `true` when any reported percentile fell into the histogram's
    /// overflow bucket — the estimate is then clamped near the observed
    /// maximum rather than interpolated, and should be read as "at
    /// least this large".
    #[serde(default, skip_serializing_if = "is_false")]
    pub saturated: bool,
}

/// One network-wide aggregate sample (taken at the telemetry sampling
/// cadence, on scheduler ticks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkSample {
    /// Simulation time (seconds).
    pub t: f64,
    /// Mean relative channel imbalance across all channels.
    pub mean_imbalance: f64,
    /// Total in-flight (locked) tokens across all channels.
    pub total_inflight: f64,
    /// Payments pending at this instant.
    pub pending: u32,
    /// Largest per-channel router-queue depth (zero for the source-queued
    /// engine).
    pub max_queue_depth: u32,
}

/// Aggregated telemetry for one run, embedded in `SimReport` when telemetry
/// is enabled.
///
/// Everything here is a pure function of the simulation inputs: sim-time
/// stamps only, deterministically ordered collections.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Total trace events recorded.
    #[serde(default)]
    pub events: u64,
    /// Per-kind event counts, sorted by kind name.
    #[serde(default)]
    pub event_counts: Vec<(String, u64)>,
    /// Network-wide aggregate time series.
    #[serde(default)]
    pub network_series: Vec<NetworkSample>,
    /// Snapshot of every registered metric.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
}

impl TelemetrySummary {
    /// Count of events of `kind` (zero if none).
    pub fn event_count(&self, kind: &str) -> u64 {
        self.event_counts
            .iter()
            .find(|(k, _)| k == kind)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_round_trips_json() {
        let summary = TelemetrySummary {
            events: 3,
            event_counts: vec![("payment_arrived".into(), 2), ("unit_sent".into(), 1)],
            network_series: vec![NetworkSample {
                t: 1.0,
                mean_imbalance: 0.5,
                total_inflight: 20.0,
                pending: 2,
                max_queue_depth: 0,
            }],
            metrics: MetricsSnapshot::default(),
        };
        let json = serde_json::to_string(&summary).unwrap();
        let back: TelemetrySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
        assert_eq!(back.event_count("payment_arrived"), 2);
        assert_eq!(back.event_count("missing"), 0);
    }
}
