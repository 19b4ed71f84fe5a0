//! Hierarchical engine-phase span profiler.
//!
//! The profiler answers "where does the time go?" for one simulation run,
//! split into what repeats and what does not:
//!
//! - **deterministic** per-phase counters — call counts, item counts, and
//!   the sim-time window each phase was active over — a pure function of
//!   the simulation inputs, safe to serialize into reports;
//! - **nondeterministic** wall-clock totals — accumulated via monotonic
//!   [`Instant`] reads inside this crate only (the engines never touch the
//!   clock, keeping them clean under the determinism lint) — surfaced
//!   separately, never mixed into result JSON.
//!
//! Phases form a shallow hierarchy: the sharded engine's epoch-compute
//! phase contains the per-event phases (routing decision, unit dispatch,
//! settle/refund, queue drain, fault processing) and the message merge;
//! barrier wait sits alongside it. Sequential engines record the leaf
//! phases only. Wall times are *inclusive* — a parent span covers its
//! children.

use crate::histogram::{Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One instrumented engine phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Choosing paths / rates for a payment or unit (scheme logic).
    RoutingDecision,
    /// Splitting payments into units and locking them onto paths.
    UnitDispatch,
    /// Settling or refunding in-flight units (HTLC resolution).
    SettleRefund,
    /// Draining router or source queues on scheduler ticks.
    QueueDrain,
    /// Applying fault-plan events and fault-induced cleanups.
    FaultProcessing,
    /// One shard's compute half of a BSP epoch (sharded engine only).
    EpochCompute,
    /// Blocking on an epoch barrier (sharded engine only).
    BarrierWait,
    /// Ingesting cross-shard messages and published balances.
    MessageMerge,
}

/// Number of distinct phases.
pub const PHASE_COUNT: usize = 8;

impl Phase {
    /// Every phase, in stable report order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::EpochCompute,
        Phase::RoutingDecision,
        Phase::UnitDispatch,
        Phase::SettleRefund,
        Phase::QueueDrain,
        Phase::FaultProcessing,
        Phase::MessageMerge,
        Phase::BarrierWait,
    ];

    /// Stable snake_case name used in serialized breakdowns.
    pub fn name(self) -> &'static str {
        match self {
            Phase::RoutingDecision => "routing_decision",
            Phase::UnitDispatch => "unit_dispatch",
            Phase::SettleRefund => "settle_refund",
            Phase::QueueDrain => "queue_drain",
            Phase::FaultProcessing => "fault_processing",
            Phase::EpochCompute => "epoch_compute",
            Phase::BarrierWait => "barrier_wait",
            Phase::MessageMerge => "message_merge",
        }
    }

    /// Enclosing phase, when one exists. Leaf phases run inside the
    /// sharded engine's epoch-compute span; in sequential engines the
    /// parent simply records no calls and breakdowns render flat.
    pub fn parent(self) -> Option<Phase> {
        match self {
            Phase::RoutingDecision
            | Phase::UnitDispatch
            | Phase::SettleRefund
            | Phase::QueueDrain
            | Phase::FaultProcessing
            | Phase::MessageMerge => Some(Phase::EpochCompute),
            Phase::EpochCompute | Phase::BarrierWait => None,
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::RoutingDecision => 0,
            Phase::UnitDispatch => 1,
            Phase::SettleRefund => 2,
            Phase::QueueDrain => 3,
            Phase::FaultProcessing => 4,
            Phase::EpochCompute => 5,
            Phase::BarrierWait => 6,
            Phase::MessageMerge => 7,
        }
    }
}

/// Per-phase accumulator. `calls`/`items`/sim window are deterministic;
/// `wall_ns` is wall clock and never serialized with results.
#[derive(Clone, Copy, Debug)]
struct PhaseAccum {
    calls: u64,
    items: u64,
    sim_first: f64,
    sim_last: f64,
    wall_ns: u64,
}

impl Default for PhaseAccum {
    fn default() -> Self {
        PhaseAccum {
            calls: 0,
            items: 0,
            sim_first: f64::INFINITY,
            sim_last: f64::NEG_INFINITY,
            wall_ns: 0,
        }
    }
}

impl PhaseAccum {
    fn is_touched(&self) -> bool {
        self.calls > 0 || self.items > 0 || self.sim_first.is_finite()
    }
}

/// Default bucket layout for barrier-wait histograms: 1 µs .. ~1.2 s,
/// ~26% relative resolution (milliseconds).
fn barrier_histogram() -> Histogram {
    Histogram::exponential(0.001, 1.26, 60)
}

#[derive(Debug, Default)]
struct ProfilerState {
    global: [PhaseAccum; PHASE_COUNT],
    /// Per-lane (shard rank) accumulators, keyed deterministically.
    lanes: BTreeMap<u32, [PhaseAccum; PHASE_COUNT]>,
    /// Per-lane barrier-wait histograms (milliseconds, wall clock).
    barrier: BTreeMap<u32, Histogram>,
}

/// Collects per-phase statistics for one run.
///
/// Thread-safe: shard workers record concurrently. Deterministic fields
/// commute under addition/min/max, so their totals are independent of
/// thread interleaving.
#[derive(Debug, Default)]
pub struct SpanProfiler {
    state: Mutex<ProfilerState>,
}

impl SpanProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, ProfilerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a wall-timed span for `phase`; the returned guard records the
    /// elapsed wall time (and one call) when dropped.
    pub fn enter(&self, phase: Phase) -> SpanGuard<'_> {
        SpanGuard {
            active: Some(GuardInner {
                profiler: self,
                phase,
                lane: None,
                // spider-lint: allow(wallclock-reachability) — opt-in profiler; wall time is the measurement, never simulation state
                start: Instant::now(),
            }),
        }
    }

    /// Like [`enter`](Self::enter), attributing the span to `lane`
    /// (a shard rank) as well as the global totals.
    pub fn enter_lane(&self, phase: Phase, lane: u32) -> SpanGuard<'_> {
        SpanGuard {
            active: Some(GuardInner {
                profiler: self,
                phase,
                lane: Some(lane),
                // spider-lint: allow(wallclock-reachability) — opt-in profiler; wall time is the measurement, never simulation state
                start: Instant::now(),
            }),
        }
    }

    /// Adds `n` processed items to `phase` (deterministic).
    pub fn add_items(&self, phase: Phase, n: u64) {
        if n == 0 {
            return;
        }
        self.lock().global[phase.index()].items += n;
    }

    /// Adds `n` processed items to `phase` for `lane` and globally.
    pub fn add_items_lane(&self, phase: Phase, lane: u32, n: u64) {
        if n == 0 {
            return;
        }
        let mut state = self.lock();
        state.global[phase.index()].items += n;
        state.lanes.entry(lane).or_default()[phase.index()].items += n;
    }

    /// Widens `phase`'s active sim-time window to include `t`
    /// (deterministic).
    pub fn mark_sim(&self, phase: Phase, t: f64) {
        let mut state = self.lock();
        let acc = &mut state.global[phase.index()];
        acc.sim_first = acc.sim_first.min(t);
        acc.sim_last = acc.sim_last.max(t);
    }

    fn record_wall(&self, phase: Phase, lane: Option<u32>, elapsed_ns: u64) {
        let mut state = self.lock();
        let acc = &mut state.global[phase.index()];
        acc.calls += 1;
        acc.wall_ns += elapsed_ns;
        if let Some(lane) = lane {
            let lacc = &mut state.lanes.entry(lane).or_default()[phase.index()];
            lacc.calls += 1;
            lacc.wall_ns += elapsed_ns;
            if phase == Phase::BarrierWait {
                state
                    .barrier
                    .entry(lane)
                    .or_insert_with(barrier_histogram)
                    .observe(elapsed_ns as f64 / 1.0e6);
            }
        }
    }

    /// Deterministic per-phase breakdown (no wall times). Only phases that
    /// recorded anything appear, in [`Phase::ALL`] order.
    pub fn phases(&self) -> Vec<PhaseProfile> {
        let state = self.lock();
        Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let acc = state.global[phase.index()];
                if !acc.is_touched() {
                    return None;
                }
                Some(PhaseProfile {
                    phase: phase.name().to_string(),
                    parent: phase.parent().map(|p| p.name().to_string()),
                    calls: acc.calls,
                    items: acc.items,
                    sim_first: acc.sim_first.is_finite().then_some(acc.sim_first),
                    sim_last: acc.sim_last.is_finite().then_some(acc.sim_last),
                })
            })
            .collect()
    }

    /// Wall-clock per-phase breakdown (nondeterministic — keep it in
    /// timing-only output, never in a report).
    pub fn wall_phases(&self) -> Vec<PhaseWallStat> {
        let state = self.lock();
        Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let acc = state.global[phase.index()];
                if acc.calls == 0 {
                    return None;
                }
                Some(PhaseWallStat {
                    phase: phase.name().to_string(),
                    calls: acc.calls,
                    wall_ms: acc.wall_ns as f64 / 1.0e6,
                })
            })
            .collect()
    }

    /// Lanes (shard ranks) that recorded any span, in rank order.
    pub fn lanes(&self) -> Vec<u32> {
        self.lock().lanes.keys().copied().collect()
    }

    /// Wall-clock breakdown for one lane.
    pub fn lane_wall_phases(&self, lane: u32) -> Vec<PhaseWallStat> {
        let state = self.lock();
        let Some(accs) = state.lanes.get(&lane) else {
            return Vec::new();
        };
        Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let acc = accs[phase.index()];
                if acc.calls == 0 {
                    return None;
                }
                Some(PhaseWallStat {
                    phase: phase.name().to_string(),
                    calls: acc.calls,
                    wall_ms: acc.wall_ns as f64 / 1.0e6,
                })
            })
            .collect()
    }

    /// Snapshot of one lane's barrier-wait histogram (milliseconds of wall
    /// time per wait), if that lane ever hit a barrier.
    pub fn barrier_wait(&self, lane: u32) -> Option<HistogramSnapshot> {
        self.lock()
            .barrier
            .get(&lane)
            .map(|h| h.snapshot("shard.barrier_wait_ms", &lane.to_string()))
    }
}

struct GuardInner<'a> {
    profiler: &'a SpanProfiler,
    phase: Phase,
    lane: Option<u32>,
    start: Instant,
}

/// RAII span: created by [`SpanProfiler::enter`] (or the `Telemetry`
/// handle's span methods), records one call plus elapsed wall time on
/// drop. A guard holding `None` (profiling disabled) is a free no-op.
#[must_use = "a span guard records its phase when dropped"]
pub struct SpanGuard<'a> {
    active: Option<GuardInner<'a>>,
}

impl SpanGuard<'_> {
    /// A guard that records nothing — what disabled handles hand out.
    pub fn noop() -> Self {
        SpanGuard { active: None }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.active.take() {
            let elapsed = inner.start.elapsed();
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            inner.profiler.record_wall(inner.phase, inner.lane, ns);
        }
    }
}

impl std::fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("active", &self.active.is_some())
            .finish()
    }
}

/// Deterministic per-phase statistics, embedded in `TelemetrySummary`
/// when profiling is on. Contains **no wall-clock data** by construction.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Enclosing phase name, when the phase nests (sharded engine).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parent: Option<String>,
    /// Number of spans recorded for this phase.
    pub calls: u64,
    /// Items processed inside this phase (units, messages, events — as
    /// attributed by the engine).
    pub items: u64,
    /// Earliest sim time the phase was active at, if marked.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sim_first: Option<f64>,
    /// Latest sim time the phase was active at, if marked.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sim_last: Option<f64>,
}

/// Wall-clock per-phase statistics — nondeterministic, restricted to
/// timing-only output (the frozen benchmark's per-layer metrics).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseWallStat {
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Number of spans recorded for this phase.
    pub calls: u64,
    /// Total wall time inside this phase, milliseconds (inclusive of
    /// nested child phases).
    pub wall_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_calls_and_wall() {
        let p = SpanProfiler::new();
        {
            let _g = p.enter(Phase::RoutingDecision);
        }
        {
            let _g = p.enter(Phase::RoutingDecision);
        }
        let phases = p.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].phase, "routing_decision");
        assert_eq!(phases[0].calls, 2);
        let wall = p.wall_phases();
        assert_eq!(wall.len(), 1);
        assert_eq!(wall[0].calls, 2);
    }

    #[test]
    fn deterministic_fields_exclude_wall() {
        let p = SpanProfiler::new();
        {
            let _g = p.enter(Phase::UnitDispatch);
        }
        p.add_items(Phase::UnitDispatch, 5);
        p.mark_sim(Phase::UnitDispatch, 1.5);
        p.mark_sim(Phase::UnitDispatch, 0.5);
        let profile = &p.phases()[0];
        assert_eq!(profile.items, 5);
        assert_eq!(profile.sim_first, Some(0.5));
        assert_eq!(profile.sim_last, Some(1.5));
        // Serialized form carries no wall-clock field at all.
        let json = serde_json::to_string(profile).unwrap();
        assert!(
            !json.contains("wall"),
            "deterministic profile leaked wall time: {json}"
        );
    }

    #[test]
    fn lanes_track_barrier_histograms() {
        let p = SpanProfiler::new();
        {
            let _g = p.enter_lane(Phase::BarrierWait, 1);
        }
        {
            let _g = p.enter_lane(Phase::BarrierWait, 1);
        }
        {
            let _g = p.enter_lane(Phase::EpochCompute, 0);
        }
        assert_eq!(p.lanes(), vec![0, 1]);
        let hist = p.barrier_wait(1).unwrap();
        assert_eq!(hist.count, 2);
        assert!(p.barrier_wait(0).is_none());
        assert_eq!(p.lane_wall_phases(1).len(), 1);
    }

    #[test]
    fn noop_guard_is_inert() {
        let g = SpanGuard::noop();
        drop(g);
    }

    #[test]
    fn phase_order_and_parents_stable() {
        assert_eq!(Phase::ALL.len(), PHASE_COUNT);
        assert_eq!(Phase::RoutingDecision.parent(), Some(Phase::EpochCompute));
        assert_eq!(Phase::BarrierWait.parent(), None);
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
    }
}
