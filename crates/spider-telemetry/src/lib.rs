//! Structured telemetry substrate for the Spider workspace.
//!
//! Three layers, all deterministic:
//!
//! - [`registry`] — a lightweight metrics registry: unlabelled counters
//!   and fixed-bucket histograms, one name → value map each, `Send + Sync`;
//! - [`trace`] — typed payment-lifecycle events ([`TraceEvent`]) recorded
//!   by a [`Tracer`], which holds them as the SPBT blocks they are written
//!   as, and serialized to JSON Lines;
//! - [`bintrace`] — a compact, indexed binary backend for the same event
//!   streams, with lossless JSONL↔binary converters;
//! - [`spans`] — an opt-in engine-phase profiler of wall time and calls
//!   per phase, read by timing output only;
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
pub use spans::{Phase, PhaseWallStat, SpanGuard, SpanProfiler};
pub use summary::{DelayPercentiles, NetworkSample, TelemetrySummary};
pub use trace::{count_by_kind, events_to_jsonl, parse_jsonl, TraceEvent, Tracer};

use std::sync::{Arc, Mutex};
use trace::KIND_COUNT;

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
    /// Per kind, how many of the tracer's events its registry counter
    /// (`TraceEvent::COUNTERS`) already holds; the rest are added before
    /// the registry is read ([`sync_counters`](Self::sync_counters)).
    counted: Mutex<[u64; KIND_COUNT]>,
    sample_interval: f64,
    /// Present only on profiled handles: span recording stays a no-op for
    /// plain enabled telemetry, so enabling traces never perturbs
    /// byte-identity contracts that predate the profiler.
    profiler: Option<SpanProfiler>,
}

impl TelemetryInner {
    /// Logs one event, which the tracer counts by kind. Kept out of line:
    /// inlined into [`Telemetry::emit`] this body lands in every engine
    /// transition and costs the telemetry-*off* path a few percent.
    #[inline(never)]
    fn record(&self, event: TraceEvent) {
        if let TraceEvent::PaymentCompleted { delay, .. } = event {
            let make = Histogram::latency_default;
            (self.registry).histogram_observe("sim.completion_delay", delay, make);
        }
        self.tracer.record(event);
    }

    /// Locks [`counted`](Self::counted), recovering from a poisoned mutex
    /// as the tracer does: the counts it holds stay valid.
    fn counted(&self) -> std::sync::MutexGuard<'_, [u64; KIND_COUNT]> {
        match self.counted.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Adds the events recorded since the last call to their kinds'
    /// registry counters, so every read of the registry sees each event
    /// counted once: one array increment under the tracer's lock per event
    /// instead of a registry lookup.
    fn sync_counters(&self) {
        let mut counted = self.counted();
        let recorded = self.tracer.by_kind();
        for ((name, &n), done) in TraceEvent::COUNTERS
            .iter()
            .zip(&recorded)
            .zip(counted.iter_mut())
        {
            if let Some(name) = name.filter(|_| n > *done) {
                self.registry.counter_add(name, n - *done);
                *done = n;
            }
        }
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
    /// and calls per phase) via a [`SpanProfiler`].
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
                counted: Mutex::default(),
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

    /// Records a trace event, counted under its kind's registry counter
    /// from the one kind → counter table in `trace.rs` (a
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

    /// Direct access to the span profiler, when profiling.
    pub fn profiler(&self) -> Option<&SpanProfiler> {
        self.inner.as_ref().and_then(|i| i.profiler.as_ref())
    }

    /// Direct access to the registry, when enabled, with every event
    /// recorded so far counted.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        let inner = self.inner.as_ref()?;
        inner.sync_counters();
        Some(&inner.registry)
    }

    /// All trace events recorded so far, decoded from the log (empty when
    /// disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.tracer.events(),
            None => Vec::new(),
        }
    }

    /// Calls `f` with the number of trace events recorded so far and the
    /// log as SPBT file bytes, borrowed in place (no events and a bare
    /// header when disabled). The log stays locked for the duration, so
    /// `f` must not emit.
    pub fn with_spbt<R>(&self, f: impl FnOnce(u64, &[u8]) -> R) -> R {
        match &self.inner {
            Some(inner) => inner.tracer.with_spbt(f),
            None => BinTraceWriter::new().with_bytes(|bytes| f(0, bytes)),
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
        // The restored counters already hold the restored events.
        inner.tracer.extend(state.events);
        *inner.counted() = inner.tracer.by_kind();
        Ok(())
    }

    /// Builds the per-run summary: event counts, the given network series,
    /// and a metrics snapshot. `None` when disabled.
    pub fn summarize(&self, network_series: Vec<NetworkSample>) -> Option<TelemetrySummary> {
        let inner = self.inner.as_ref()?;
        inner.sync_counters();
        let (events, event_counts) = inner.tracer.counts();
        Some(TelemetrySummary {
            events,
            event_counts,
            network_series,
            metrics: inner.registry.snapshot(),
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

    /// Event `i` of a mixed log: four kinds, times that sometimes repeat.
    fn event(i: u64) -> TraceEvent {
        let t = (i / 3) as f64 * 0.25;
        match i % 4 {
            0 => TraceEvent::PaymentArrived {
                t,
                payment: i,
                src: (i % 7) as u32,
                dst: (i % 5) as u32,
                amount: i as f64 * 1.5,
            },
            1 => TraceEvent::UnitSent {
                t,
                payment: i,
                amount: 0.1 * i as f64,
                hops: (i % 6) as u32,
            },
            2 => TraceEvent::ChannelSample {
                t,
                channel: (i % 11) as u32,
                imbalance: 1.0 / (i + 1) as f64,
                inflight: 3.0,
                queue_depth: 0,
            },
            _ => TraceEvent::SolverSample {
                iter: i,
                objective: i as f64,
                residual: 1e-3,
                mean_price: 0.5,
            },
        }
    }

    fn spbt(t: &Telemetry) -> (u64, Vec<u8>) {
        t.with_spbt(|count, bytes| (count, bytes.to_vec()))
    }

    #[test]
    fn live_log_is_the_spbt_file_at_every_block_boundary() {
        for n in [0u64, 1, 511, 512, 513, 1024, 1025] {
            let recorded: Vec<TraceEvent> = (0..n).map(event).collect();
            let t = Telemetry::enabled();
            for e in &recorded {
                t.emit(|| e.clone());
            }
            let events = t.events();
            assert_eq!(events, recorded, "n = {n}");
            assert_eq!(events.capacity(), n as usize, "n = {n}");
            assert_eq!(spbt(&t), (n, bintrace::encode(&events)), "n = {n}");
            let summary = t.summarize(Vec::new()).unwrap();
            assert_eq!(summary.events, n);
            assert_eq!(summary.event_counts, count_by_kind(&events), "n = {n}");
        }
    }

    #[test]
    fn restored_log_keeps_its_block_boundaries() {
        let original = Telemetry::enabled();
        let (mut state, mut at_513) = (None, None);
        for i in 0..1025 {
            if i == 513 {
                at_513 = Some(spbt(&original));
                state = Some(TelemetryState {
                    sample_interval: DEFAULT_SAMPLE_INTERVAL,
                    profiled: false,
                    registry: original.registry().unwrap().export_state(),
                    events: original.events(),
                });
            }
            original.emit(|| event(i));
        }
        let restored = Telemetry::enabled();
        restored.restore_from_state(state.unwrap()).unwrap();
        assert_eq!(Some(spbt(&restored)), at_513);
        for i in 513..1025 {
            restored.emit(|| event(i));
        }
        assert_eq!(spbt(&restored), spbt(&original));
        // The restored counters are not counted again.
        let counters = |t: &Telemetry| t.registry().unwrap().export_state().counters;
        assert_eq!(counters(&restored), counters(&original));
        assert_eq!(counters(&original)[0], ("sim.payments.arrived".into(), 257));
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        clone.counter_add("shared", 2);
        assert_eq!(t.registry().unwrap().counter("shared", ""), 2);
    }
}
