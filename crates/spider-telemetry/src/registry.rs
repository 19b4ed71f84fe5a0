//! The metrics registry holds what the engines record: unlabelled counters
//! and fixed-bucket histograms (`sim.completion_delay`), one name → value
//! map per family. The serialized forms (report JSON, the `SPSN` telemetry
//! section) keep a `label` per entry and a `gauges` section; the registry
//! writes `""` and none, and a snapshot carrying anything else is refused.
//!
//! The registry is `Send + Sync` (interior mutability behind a mutex) so one
//! registry can serve an engine and the harness around it, or be shared by
//! scoped worker threads. Keys sort deterministically (`BTreeMap`), so
//! snapshots — and anything serialized from them — are byte-stable for a
//! given sequence of recordings, independent of thread interleaving of
//! *distinct* metrics. `Telemetry::emit` bumps a counter on every event, so
//! a recording looks its name up by `&str` (`get_mut`) and builds the key
//! `String` only on the name's first use.

use crate::histogram::{Histogram, HistogramSnapshot, HistogramState};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe registry of named metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the registry, recovering from a poisoned mutex: metrics are
    /// monotonic aggregates, so state written before another thread's
    /// panic is still valid and losing a recording would skew results
    /// more than keeping it.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of counter `name` (zero if never touched). Counters
    /// are unlabelled, so any non-empty `label` reads zero.
    pub fn counter(&self, name: &'static str, label: &str) -> u64 {
        let value = self.lock().counters.get(name).copied();
        value.filter(|_| label.is_empty()).unwrap_or(0)
    }

    /// Records `value` into the histogram `name`, creating it with `make`
    /// on first use.
    pub fn histogram_observe(&self, name: &str, value: f64, make: impl FnOnce() -> Histogram) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = make();
                h.observe(value);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Runs `f` against the histogram `name` if it exists.
    pub fn with_histogram<T>(&self, name: &str, f: impl FnOnce(&Histogram) -> T) -> Option<T> {
        self.lock().histograms.get(name).map(f)
    }

    /// A deterministic, serializable snapshot of every metric, sorted by
    /// name. Every entry's label is `""` and there are no gauges.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: (inner.counters.iter())
                .map(|(name, &value)| MetricEntry {
                    name: name.clone(),
                    label: String::new(),
                    value: value as f64,
                })
                .collect(),
            gauges: Vec::new(),
            histograms: (inner.histograms.iter())
                .map(|(name, h)| h.snapshot(name, ""))
                .collect(),
        }
    }

    /// The registry's complete, lossless state for a checkpoint: exact
    /// integer counters and full histogram states (including empty buckets
    /// and non-finite extrema that [`snapshot`] cannot carry), sorted by
    /// name.
    ///
    /// [`snapshot`]: MetricsRegistry::snapshot
    pub fn export_state(&self) -> RegistryState {
        let inner = self.lock();
        RegistryState {
            counters: (inner.counters.iter())
                .map(|(name, &v)| (name.clone(), v))
                .collect(),
            histograms: (inner.histograms.iter())
                .map(|(name, h)| (name.clone(), h.state()))
                .collect(),
        }
    }

    /// Overwrites this registry's contents with a state captured by
    /// [`export_state`](MetricsRegistry::export_state). Fails on
    /// structurally invalid histogram states without modifying the
    /// registry.
    pub fn restore_state(&self, state: RegistryState) -> Result<(), String> {
        let mut histograms = BTreeMap::new();
        for (name, hs) in state.histograms {
            let h = Histogram::from_state(hs).map_err(|e| format!("histogram {name}: {e}"))?;
            histograms.insert(name, h);
        }
        let mut inner = self.lock();
        inner.counters = state.counters.into_iter().collect();
        inner.histograms = histograms;
        Ok(())
    }
}

/// Lossless registry contents captured by [`MetricsRegistry::export_state`],
/// in `(name, value)` form sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistryState {
    /// Exact counter values.
    pub counters: Vec<(String, u64)>,
    /// Full histogram states.
    pub histograms: Vec<(String, HistogramState)>,
}

/// One named scalar metric in a snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricEntry {
    /// Metric name.
    pub name: String,
    /// Metric label; [`MetricsRegistry::snapshot`] writes `""`.
    pub label: String,
    /// Value (counters are exact integers widened to f64).
    pub value: f64,
}

/// A serializable point-in-time copy of a [`MetricsRegistry`], sorted by
/// (name, label) so output is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: Vec<MetricEntry>,
    /// Gauges; [`MetricsRegistry::snapshot`] writes none, and the field
    /// keeps the report JSON's shape.
    pub gauges: Vec<MetricEntry>,
    /// Histograms with percentile estimates.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name + label.
    pub fn counter(&self, name: &str, label: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|e| e.name == name && e.label == label)
            .map(|e| e.value as u64)
    }

    /// Looks up a histogram snapshot by name + label.
    pub fn histogram(&self, name: &str, label: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.counter_add("units", 3);
        r.counter_add("units", 2);
        assert_eq!(r.counter("units", ""), 5);
        assert_eq!(r.counter("units", "x"), 0, "counters carry no label");
        assert_eq!(r.counter("never", ""), 0);
    }

    #[test]
    fn histograms_created_on_first_use() {
        let r = MetricsRegistry::new();
        r.histogram_observe("delay", 0.5, Histogram::latency_default);
        r.histogram_observe("delay", 1.5, Histogram::latency_default);
        assert_eq!(r.with_histogram("delay", Histogram::count), Some(2));
        assert!(r.with_histogram("none", Histogram::count).is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_serializable() {
        let r = MetricsRegistry::new();
        r.counter_add("z", 1);
        r.counter_add("a", 2);
        r.counter_add("a.b", 3);
        let snap = r.snapshot();
        let names: Vec<(&str, &str)> = (snap.counters.iter())
            .map(|e| (e.name.as_str(), e.label.as_str()))
            .collect();
        assert_eq!(names, vec![("a", ""), ("a.b", ""), ("z", "")]);
        assert!(snap.gauges.is_empty());
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("a.b", ""), Some(3));
    }

    #[test]
    fn snapshot_json_is_byte_identical_across_identical_runs() {
        // Same deterministic recording sequence, two independent
        // registries: the serialized snapshots must match byte for byte.
        let run = || {
            let r = MetricsRegistry::new();
            let mut seed = 0x9e3779b97f4a7c15u64;
            for _ in 0..200 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let name = format!("flow.units.{}", seed % 5);
                match seed % 2 {
                    0 => r.counter_add(&name, seed % 7),
                    _ => r.histogram_observe(
                        &name,
                        (seed % 100) as f64 / 10.0,
                        Histogram::latency_default,
                    ),
                }
            }
            serde_json::to_string(&r.snapshot()).unwrap()
        };
        assert_eq!(run(), run());
    }

    /// The plainest registry: one map per family, written the obvious way.
    /// The reference the registry's lookup-then-insert paths must agree
    /// with.
    #[derive(Default)]
    struct Flat {
        counters: BTreeMap<String, u64>,
        histograms: BTreeMap<String, Histogram>,
    }

    impl Flat {
        fn counter_add(&mut self, name: &str, delta: u64) {
            *self.counters.entry(name.to_string()).or_insert(0) += delta;
        }

        fn histogram_observe(&mut self, name: &str, value: f64) {
            (self.histograms.entry(name.to_string()))
                .or_insert_with(Histogram::latency_default)
                .observe(value);
        }

        fn restore_state(&mut self, state: RegistryState) {
            self.counters = state.counters.into_iter().collect();
            self.histograms = (state.histograms.into_iter())
                .map(|(n, s)| (n, Histogram::from_state(s).unwrap()))
                .collect();
        }

        fn export_state(&self) -> RegistryState {
            RegistryState {
                counters: (self.counters.iter())
                    .map(|(n, &v)| (n.clone(), v))
                    .collect(),
                histograms: (self.histograms.iter())
                    .map(|(n, h)| (n.clone(), h.state()))
                    .collect(),
            }
        }

        fn snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot {
                counters: (self.counters.iter())
                    .map(|(name, &v)| MetricEntry {
                        name: name.clone(),
                        label: String::new(),
                        value: v as f64,
                    })
                    .collect(),
                gauges: Vec::new(),
                histograms: (self.histograms.iter())
                    .map(|(name, h)| h.snapshot(name, ""))
                    .collect(),
            }
        }
    }

    #[test]
    fn registry_agrees_with_the_flat_reference() {
        const NAMES: [&str; 5] = ["sim.units", "a", "sim.payments.completed", "z", "sim.u"];
        let agree = |r: &MetricsRegistry, reference: &Flat, step: usize| {
            let snapshot = serde_json::to_string(&r.snapshot()).unwrap();
            let expected = serde_json::to_string(&reference.snapshot()).unwrap();
            assert_eq!(snapshot, expected, "snapshot after step {step}");
            assert_eq!(
                r.export_state(),
                reference.export_state(),
                "state after step {step}"
            );
            for name in NAMES {
                let at = format!("{name} after step {step}");
                let count = reference.counters.get(name).copied().unwrap_or(0);
                assert_eq!(r.counter(name, ""), count, "{at}");
                assert_eq!(
                    r.with_histogram(name, Histogram::clone),
                    reference.histograms.get(name).cloned(),
                    "{at}"
                );
            }
        };
        for seed in 1..=8u64 {
            let (r, mut reference) = (MetricsRegistry::new(), Flat::default());
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |n: u64| {
                s = (s.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
                (s >> 33) % n
            };
            for step in 0..300 {
                let name = NAMES[next(5) as usize];
                match next(10) {
                    0..=5 => {
                        let delta = next(7);
                        r.counter_add(name, delta);
                        reference.counter_add(name, delta);
                    }
                    6..=8 => {
                        let value = next(1000) as f64 / 37.0;
                        r.histogram_observe(name, value, Histogram::latency_default);
                        reference.histogram_observe(name, value);
                    }
                    _ => {
                        // A checkpoint restore: fresh counters, and the
                        // histograms recorded so far ride along.
                        let mut counters = BTreeMap::new();
                        for _ in 0..next(6) {
                            counters.insert(NAMES[next(5) as usize].to_string(), next(50));
                        }
                        let state = RegistryState {
                            counters: counters.into_iter().collect(),
                            histograms: reference.export_state().histograms,
                        };
                        r.restore_state(state.clone()).unwrap();
                        reference.restore_state(state);
                    }
                }
                agree(&r, &reference, step);
            }
        }
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsRegistry>();
    }
}
