//! Hierarchical engine-phase span profiler.
//!
//! The profiler answers "where does the wall time go?" for one simulation
//! run: per phase, the number of spans entered and the wall time spent
//! inside them, globally and per lane (shard rank), plus a histogram of
//! each lane's barrier waits. Wall time is read through monotonic
//! [`Instant`]s inside this crate only (the engines never touch the clock,
//! keeping them clean under the determinism lint), and it is surfaced only
//! in timing output, never in a report.
//!
//! Spans nest: the sharded engine's epoch-compute span contains the
//! per-event phases (routing decision, unit dispatch, settle/refund, queue
//! drain) and the message merge; barrier wait sits alongside it.
//! Sequential engines record the leaf phases only. Wall times are
//! *inclusive* — an enclosing span covers the spans inside it.

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

/// Per-phase accumulator: spans entered and wall time spent inside them.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseAccum {
    calls: u64,
    wall_ns: u64,
}

/// Default bucket layout for barrier-wait histograms: 1 µs .. ~1.2 s,
/// ~26% relative resolution (milliseconds).
fn barrier_histogram() -> Histogram {
    Histogram::exponential(0.001, 1.26, 60)
}

/// The phases of `accs` that recorded a span, in [`Phase::ALL`] order.
fn wall_stats(accs: &[PhaseAccum; PHASE_COUNT]) -> Vec<PhaseWallStat> {
    Phase::ALL
        .iter()
        .map(|&phase| (phase, accs[phase.index()]))
        .filter(|(_, acc)| acc.calls > 0)
        .map(|(phase, acc)| PhaseWallStat {
            phase: phase.name().to_string(),
            calls: acc.calls,
            wall_ms: acc.wall_ns as f64 / 1.0e6,
        })
        .collect()
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
/// Thread-safe: shard workers record concurrently. Call counts commute
/// under addition, so their totals are independent of thread interleaving.
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

    /// Wall-clock per-phase breakdown (nondeterministic — keep it in
    /// timing-only output, never in a report).
    pub fn wall_phases(&self) -> Vec<PhaseWallStat> {
        wall_stats(&self.lock().global)
    }

    /// Lanes (shard ranks) that recorded any span, in rank order.
    pub fn lanes(&self) -> Vec<u32> {
        self.lock().lanes.keys().copied().collect()
    }

    /// Wall-clock breakdown for one lane.
    pub fn lane_wall_phases(&self, lane: u32) -> Vec<PhaseWallStat> {
        self.lock()
            .lanes
            .get(&lane)
            .map(wall_stats)
            .unwrap_or_default()
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
        let wall = p.wall_phases();
        assert_eq!(wall.len(), 1);
        assert_eq!(wall[0].phase, "routing_decision");
        assert_eq!(wall[0].calls, 2);
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
    fn phase_order_stable() {
        assert_eq!(Phase::ALL.len(), PHASE_COUNT);
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
    }
}
