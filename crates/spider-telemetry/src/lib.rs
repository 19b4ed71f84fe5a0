//! Structured telemetry substrate for the Spider workspace.
//!
//! Three layers, all deterministic:
//!
//! - [`registry`] — a lightweight metrics registry: unlabelled counters
//!   and fixed-bucket histograms, one name → value map each, `Send + Sync`;
//! - [`trace`] — typed payment-lifecycle events ([`TraceEvent`]) recorded
//!   by a [`Tracer`] and serialized to JSON Lines;
//! - [`bintrace`] — a compact, indexed binary backend for the same event
//!   streams, with lossless JSONL↔binary converters;
//! - [`spans`] — an opt-in engine-phase profiler splitting deterministic
//!   sim-time counters from nondeterministic wall-clock totals;
//! - [`summary`] — aggregated per-run telemetry ([`TelemetrySummary`])
//!   embedded in simulation reports.
//!
//! The [`Telemetry`] handle ties them together. A disabled handle (the
//! default) holds no allocation and every recording method is an inlined
//! no-op branch on a `None`, so instrumented hot paths pay one predictable
//! branch when telemetry is off. Serialized output carries **simulation
//! time only** — never wall-clock timestamps — so traces are byte-identical
//! across hosts and worker counts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bintrace;
pub mod histogram;
pub mod registry;
pub mod spans;
pub mod summary;
pub mod trace;

pub use bintrace::{BinTraceError, BinTraceWriter, TraceQuery};
pub use histogram::{Histogram, HistogramSnapshot, HistogramState};
pub use registry::{MetricEntry, MetricsRegistry, MetricsSnapshot, RegistryState};
pub use spans::{Phase, PhaseProfile, PhaseWallStat, SpanGuard, SpanProfiler};
pub use summary::{DelayPercentiles, NetworkSample, TelemetrySummary};
pub use trace::{count_by_kind, events_to_jsonl, parse_jsonl, TraceEvent, Tracer};

use std::sync::Arc;

/// Default cadence for per-channel state samples (simulation seconds).
pub const DEFAULT_SAMPLE_INTERVAL: f64 = 1.0;

/// Lossless recorded state of an enabled [`Telemetry`] handle, as an engine
/// checkpoint stores it; [`Telemetry::restore_from_state`] applies one.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryState {
    /// Channel-sampling cadence (simulation seconds).
    pub sample_interval: f64,
    /// Whether the handle carried a span profiler. A checkpoint records
    /// this flag, but a profiled capture cannot be restored.
    pub profiled: bool,
    /// Full registry contents.
    pub registry: registry::RegistryState,
    /// The event buffer, in emission order.
    pub events: Vec<TraceEvent>,
}

#[derive(Debug)]
struct TelemetryInner {
    registry: MetricsRegistry,
    tracer: Tracer,
    sample_interval: f64,
    /// Present only on profiled handles: span recording stays a no-op for
    /// plain enabled telemetry, so enabling traces never perturbs
    /// byte-identity contracts that predate the profiler.
    profiler: Option<SpanProfiler>,
}

impl TelemetryInner {
    /// Counts and logs one event. Kept out of line: inlined into
    /// [`Telemetry::emit`] this body lands in every engine transition and
    /// costs the telemetry-*off* path a few percent.
    #[inline(never)]
    fn record(&self, event: TraceEvent) {
        if let Some(name) = event.counter() {
            self.registry.counter_add(name, 1);
        }
        if let TraceEvent::PaymentCompleted { delay, .. } = event {
            let make = Histogram::latency_default;
            (self.registry).histogram_observe("sim.completion_delay", delay, make);
        }
        self.tracer.record(event);
    }
}

/// A cheap, cloneable telemetry handle: either disabled (no-op) or backed
/// by a shared registry + tracer.
///
/// Engines take this by value inside their configs; callers keep a clone to
/// read results back after the run. `Default` is disabled, so existing
/// configs are unaffected unless telemetry is explicitly switched on.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// A disabled handle: every method is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with the default channel-sampling cadence.
    pub fn enabled() -> Self {
        Self::build(DEFAULT_SAMPLE_INTERVAL, false)
    }

    /// An enabled handle that also records engine-phase spans (wall time
    /// and deterministic phase counters) via a [`SpanProfiler`].
    pub fn profiled() -> Self {
        Self::build(DEFAULT_SAMPLE_INTERVAL, true)
    }

    /// A profiled handle with a custom channel-sampling cadence.
    pub fn profiled_with_sample_interval(sample_interval: f64) -> Self {
        Self::build(sample_interval, true)
    }

    fn build(sample_interval: f64, profiling: bool) -> Self {
        assert!(sample_interval > 0.0, "sample interval must be positive");
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                registry: MetricsRegistry::new(),
                tracer: Tracer::new(),
                sample_interval,
                profiler: profiling.then(SpanProfiler::new),
            })),
        }
    }

    /// `true` when this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` when this handle records engine-phase spans.
    #[inline]
    pub fn is_profiling(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.profiler.is_some())
    }

    /// Channel-sampling cadence, or `None` when disabled.
    #[inline]
    pub fn sample_interval(&self) -> Option<f64> {
        self.inner.as_ref().map(|i| i.sample_interval)
    }

    /// Records a trace event, counted under [`TraceEvent::counter`] (a
    /// completed payment's delay also lands in the `sim.completion_delay`
    /// histogram). The closure only runs when enabled, so argument
    /// construction costs nothing when telemetry is off.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.record(event());
        }
    }

    /// Adds `delta` to an unlabelled counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter_add(name, delta);
        }
    }

    /// Reads percentiles out of an unlabelled histogram, if it exists.
    pub fn delay_percentiles(&self, name: &'static str) -> Option<DelayPercentiles> {
        let inner = self.inner.as_ref()?;
        inner.registry.with_histogram(name, |h| DelayPercentiles {
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            saturated: h.quantile_saturated(0.50)
                || h.quantile_saturated(0.95)
                || h.quantile_saturated(0.99),
        })
    }

    /// Opens a wall-timed span for `phase`; a free no-op unless this
    /// handle was built with [`Telemetry::profiled`].
    #[inline]
    pub fn span_enter(&self, phase: Phase) -> SpanGuard<'_> {
        match self.profiler() {
            Some(p) => p.enter(phase),
            None => SpanGuard::noop(),
        }
    }

    /// Like [`span_enter`](Self::span_enter), attributing the span to a
    /// lane (shard rank) as well.
    #[inline]
    pub fn span_enter_lane(&self, phase: Phase, lane: u32) -> SpanGuard<'_> {
        match self.profiler() {
            Some(p) => p.enter_lane(phase, lane),
            None => SpanGuard::noop(),
        }
    }

    /// Adds `n` processed items to `phase` (deterministic; no-op unless
    /// profiling).
    #[inline]
    pub fn span_items(&self, phase: Phase, n: u64) {
        if let Some(p) = self.profiler() {
            p.add_items(phase, n);
        }
    }

    /// Adds `n` processed items to `phase` for `lane` and globally.
    #[inline]
    pub fn span_items_lane(&self, phase: Phase, lane: u32, n: u64) {
        if let Some(p) = self.profiler() {
            p.add_items_lane(phase, lane, n);
        }
    }

    /// Widens `phase`'s active sim-time window to include `t`.
    #[inline]
    pub fn span_sim(&self, phase: Phase, t: f64) {
        if let Some(p) = self.profiler() {
            p.mark_sim(phase, t);
        }
    }

    /// Direct access to the span profiler, when profiling.
    pub fn profiler(&self) -> Option<&SpanProfiler> {
        self.inner.as_ref().and_then(|i| i.profiler.as_ref())
    }

    /// Direct access to the registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// A copy of all trace events recorded so far (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.with_events(<[TraceEvent]>::to_vec)
    }

    /// Calls `f` with the trace events recorded so far, borrowed in place
    /// (an empty slice when disabled). The log stays locked for the
    /// duration, so `f` must not emit.
    pub fn with_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> R {
        match &self.inner {
            Some(inner) => inner.tracer.with_events(f),
            None => f(&[]),
        }
    }

    /// Restores checkpointed state *into this handle* in place, so a caller
    /// holding a clone keeps visibility into a resumed run's trace and
    /// metrics. The handle must be enabled, unprofiled, created with the
    /// same sampling cadence as the capture, and must not have recorded any
    /// events yet.
    pub fn restore_from_state(&self, state: TelemetryState) -> Result<(), String> {
        let Some(inner) = self.inner.as_ref() else {
            return Err("cannot restore telemetry into a disabled handle".to_string());
        };
        if state.profiled || inner.profiler.is_some() {
            return Err("profiled telemetry cannot be restored".to_string());
        }
        if inner.sample_interval.to_bits() != state.sample_interval.to_bits() {
            return Err(format!(
                "sample interval mismatch: handle {} vs snapshot {}",
                inner.sample_interval, state.sample_interval
            ));
        }
        if !inner.tracer.is_empty() {
            return Err("cannot restore into a handle that already recorded events".to_string());
        }
        inner.registry.restore_state(state.registry)?;
        inner.tracer.extend(state.events);
        Ok(())
    }

    /// Builds the per-run summary: event counts, the given network series,
    /// and a metrics snapshot. `None` when disabled.
    pub fn summarize(&self, network_series: Vec<NetworkSample>) -> Option<TelemetrySummary> {
        let inner = self.inner.as_ref()?;
        let (events, event_counts) =
            (inner.tracer).with_events(|events| (events.len() as u64, count_by_kind(events)));
        Some(TelemetrySummary {
            events,
            event_counts,
            network_series,
            metrics: inner.registry.snapshot(),
            phases: inner
                .profiler
                .as_ref()
                .map(|p| p.phases())
                .unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let mut ran = false;
        t.emit(|| {
            ran = true;
            TraceEvent::PaymentArrived {
                t: 0.0,
                payment: 0,
                src: 0,
                dst: 0,
                amount: 0.0,
            }
        });
        assert!(!ran, "closure must not run when disabled");
        t.counter_add("x", 1);
        assert!(t.events().is_empty());
        assert!(t.summarize(Vec::new()).is_none());
        assert!(t.delay_percentiles("x").is_none());
        assert!(t.sample_interval().is_none());
    }

    #[test]
    fn enabled_handle_records_and_summarizes() {
        let t = Telemetry::enabled();
        assert!(t.is_enabled());
        t.emit(|| TraceEvent::PaymentArrived {
            t: 0.1,
            payment: 1,
            src: 0,
            dst: 1,
            amount: 5.0,
        });
        t.counter_add("sim.units_sent", 3);
        t.emit(|| TraceEvent::PaymentCompleted {
            t: 0.6,
            payment: 1,
            delay: 0.5,
        });
        let summary = t.summarize(Vec::new()).unwrap();
        assert_eq!(summary.events, 2);
        assert_eq!(summary.event_count("payment_arrived"), 1);
        assert_eq!(summary.metrics.counter("sim.units_sent", ""), Some(3));
        // `emit` counts what it records, under the one kind → counter table.
        assert_eq!(summary.metrics.counter("sim.payments.arrived", ""), Some(1));
        assert_eq!(
            summary.metrics.counter("sim.payments.completed", ""),
            Some(1)
        );
        let p = t.delay_percentiles("sim.completion_delay").unwrap();
        assert_eq!(p.p50, 0.5);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        clone.counter_add("shared", 2);
        assert_eq!(t.registry().unwrap().counter("shared", ""), 2);
    }
}
