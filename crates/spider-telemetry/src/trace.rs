//! Typed payment-lifecycle trace events and the tracer that records them.
//!
//! Events carry **simulation timestamps only** — never wall-clock time — so
//! a trace is a pure function of the simulation inputs and serializes to
//! byte-identical JSONL regardless of host, load, or worker count.

use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// One structured telemetry event.
///
/// `t` is simulation time in seconds. Identifier fields are the raw indices
/// used by the engine (payment id, channel index, node index) so traces can
/// be joined against topology and workload dumps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A payment arrived at its sender.
    PaymentArrived {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Source node index.
        src: u32,
        /// Destination node index.
        dst: u32,
        /// Face value in tokens.
        amount: f64,
    },
    /// A packet-switched payment was split into MTU-bounded units.
    PaymentSplit {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Planned unit count (`ceil(amount / mtu)`).
        units: u64,
    },
    /// One transaction unit was routed and locked along a path.
    UnitSent {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Unit value in tokens.
        amount: f64,
        /// Hop count of the chosen path.
        hops: u32,
    },
    /// A unit settled end to end (receiver keeps the funds).
    UnitSettled {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Unit value in tokens.
        amount: f64,
    },
    /// A unit's locks were refunded (expired HTLC, AMP bounce, rollback, or
    /// router-queue drop).
    UnitRefunded {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Unit value in tokens.
        amount: f64,
    },
    /// A unit entered a router queue (router-queue transport only).
    UnitQueued {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Channel index of the queueing direction.
        channel: u32,
        /// Queue depth after insertion.
        depth: u32,
    },
    /// A payment delivered its full value.
    PaymentCompleted {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Completion delay since arrival (seconds).
        delay: f64,
    },
    /// A payment was abandoned (deadline, unroutable, or atomic failure).
    PaymentAbandoned {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Value delivered before abandonment (tokens).
        delivered: f64,
    },
    /// An on-chain rebalancing transaction confirmed and moved funds.
    RebalanceApplied {
        /// Simulation time (seconds).
        t: f64,
        /// Channel index.
        channel: u32,
        /// Tokens withdrawn from the rich side.
        moved: f64,
        /// On-chain fee paid (tokens).
        fee: f64,
    },
    /// Periodic per-channel state sample.
    ChannelSample {
        /// Simulation time (seconds).
        t: f64,
        /// Channel index.
        channel: u32,
        /// Relative imbalance `|a - b| / (a + b)` of spendable balances.
        imbalance: f64,
        /// In-flight (locked) tokens on the channel.
        inflight: f64,
        /// Units waiting in this channel's router queues (both directions;
        /// zero for the source-queued engine).
        queue_depth: u32,
    },
    /// A channel went down (fault injection): its capacity is masked and
    /// in-flight units crossing it are refunded.
    ChannelOutage {
        /// Simulation time (seconds).
        t: f64,
        /// Channel index.
        channel: u32,
    },
    /// A downed channel came back up.
    ChannelRecovered {
        /// Simulation time (seconds).
        t: f64,
        /// Channel index.
        channel: u32,
    },
    /// A node crashed (fault injection): every incident channel goes down.
    NodeCrashed {
        /// Simulation time (seconds).
        t: f64,
        /// Node index.
        node: u32,
    },
    /// A crashed node rejoined the network.
    NodeRecovered {
        /// Simulation time (seconds).
        t: f64,
        /// Node index.
        node: u32,
    },
    /// A unit was dropped in flight by fault injection (its locks are
    /// refunded in a paired `UnitRefunded` event).
    UnitDropped {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Unit value in tokens.
        amount: f64,
        /// Channel index of the hop blamed for the drop.
        channel: u32,
    },
    /// A unit's HTLC was griefed: funds stay pinned until the hold expires,
    /// then refund (paired `UnitRefunded`).
    UnitGriefed {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Unit value in tokens.
        amount: f64,
        /// How long the funds were pinned (seconds).
        hold: f64,
    },
    /// A sender scheduled a retry after a fault failure (exponential
    /// backoff).
    PaymentRetry {
        /// Simulation time (seconds).
        t: f64,
        /// Payment id.
        payment: u64,
        /// Fault-failure count for this payment so far.
        attempt: u32,
        /// Backoff delay before the next send attempt (seconds).
        backoff: f64,
    },
    /// A sender blacklisted a channel after a fault failure on it.
    ChannelBlacklisted {
        /// Simulation time (seconds).
        t: f64,
        /// Channel index.
        channel: u32,
        /// Simulation time until which routing avoids the channel.
        until: f64,
    },
    /// Periodic solver progress sample (primal-dual iterations).
    SolverSample {
        /// Iteration number (1-based).
        iter: u64,
        /// Current objective value (total throughput).
        objective: f64,
        /// Convergence residual: smallest max-rate change seen in any sweep
        /// so far (non-increasing along a run).
        residual: f64,
        /// Mean capacity price λ across channels.
        mean_price: f64,
    },
}

impl TraceEvent {
    /// Stable kind string, used for per-kind counting and reconciliation.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PaymentArrived { .. } => "payment_arrived",
            TraceEvent::PaymentSplit { .. } => "payment_split",
            TraceEvent::UnitSent { .. } => "unit_sent",
            TraceEvent::UnitSettled { .. } => "unit_settled",
            TraceEvent::UnitRefunded { .. } => "unit_refunded",
            TraceEvent::UnitQueued { .. } => "unit_queued",
            TraceEvent::PaymentCompleted { .. } => "payment_completed",
            TraceEvent::PaymentAbandoned { .. } => "payment_abandoned",
            TraceEvent::RebalanceApplied { .. } => "rebalance_applied",
            TraceEvent::ChannelSample { .. } => "channel_sample",
            TraceEvent::ChannelOutage { .. } => "channel_outage",
            TraceEvent::ChannelRecovered { .. } => "channel_recovered",
            TraceEvent::NodeCrashed { .. } => "node_crashed",
            TraceEvent::NodeRecovered { .. } => "node_recovered",
            TraceEvent::UnitDropped { .. } => "unit_dropped",
            TraceEvent::UnitGriefed { .. } => "unit_griefed",
            TraceEvent::PaymentRetry { .. } => "payment_retry",
            TraceEvent::ChannelBlacklisted { .. } => "channel_blacklisted",
            TraceEvent::SolverSample { .. } => "solver_sample",
        }
    }

    /// The registry counter one occurrence of this event adds to, if the
    /// kind is counted: the only kind → counter-name table, applied by
    /// [`Telemetry::emit`](crate::Telemetry::emit), so a counter and the
    /// trace it summarizes cannot disagree.
    pub fn counter(&self) -> Option<&'static str> {
        Some(match self {
            TraceEvent::PaymentArrived { .. } => "sim.payments.arrived",
            TraceEvent::PaymentCompleted { .. } => "sim.payments.completed",
            TraceEvent::PaymentAbandoned { .. } => "sim.payments.abandoned",
            TraceEvent::PaymentRetry { .. } => "sim.payments.retries",
            TraceEvent::UnitSent { .. } => "sim.units.sent",
            TraceEvent::UnitSettled { .. } => "sim.units.settled",
            TraceEvent::UnitRefunded { .. } => "sim.units.refunded",
            TraceEvent::UnitQueued { .. } => "sim.units.queued",
            TraceEvent::UnitDropped { .. } => "sim.units.dropped",
            TraceEvent::UnitGriefed { .. } => "sim.units.griefed",
            TraceEvent::RebalanceApplied { .. } => "sim.rebalance.applied",
            TraceEvent::ChannelOutage { .. } => "sim.faults.outages",
            TraceEvent::NodeCrashed { .. } => "sim.faults.node_crashes",
            _ => return None,
        })
    }

    /// Simulation timestamp, for every timed event kind. Solver samples
    /// are iteration-indexed, not time-indexed, and return `None`.
    pub fn time(&self) -> Option<f64> {
        match *self {
            TraceEvent::PaymentArrived { t, .. }
            | TraceEvent::PaymentSplit { t, .. }
            | TraceEvent::UnitSent { t, .. }
            | TraceEvent::UnitSettled { t, .. }
            | TraceEvent::UnitRefunded { t, .. }
            | TraceEvent::UnitQueued { t, .. }
            | TraceEvent::PaymentCompleted { t, .. }
            | TraceEvent::PaymentAbandoned { t, .. }
            | TraceEvent::RebalanceApplied { t, .. }
            | TraceEvent::ChannelSample { t, .. }
            | TraceEvent::ChannelOutage { t, .. }
            | TraceEvent::ChannelRecovered { t, .. }
            | TraceEvent::NodeCrashed { t, .. }
            | TraceEvent::NodeRecovered { t, .. }
            | TraceEvent::UnitDropped { t, .. }
            | TraceEvent::UnitGriefed { t, .. }
            | TraceEvent::PaymentRetry { t, .. }
            | TraceEvent::ChannelBlacklisted { t, .. } => Some(t),
            TraceEvent::SolverSample { .. } => None,
        }
    }

    /// The channel index this event touches, if any.
    pub fn channel(&self) -> Option<u32> {
        match *self {
            TraceEvent::UnitQueued { channel, .. }
            | TraceEvent::RebalanceApplied { channel, .. }
            | TraceEvent::ChannelSample { channel, .. }
            | TraceEvent::ChannelOutage { channel, .. }
            | TraceEvent::ChannelRecovered { channel, .. }
            | TraceEvent::UnitDropped { channel, .. }
            | TraceEvent::ChannelBlacklisted { channel, .. } => Some(channel),
            _ => None,
        }
    }

    /// The node indices this event touches (up to two), if any.
    pub fn nodes(&self) -> (Option<u32>, Option<u32>) {
        match *self {
            TraceEvent::PaymentArrived { src, dst, .. } => (Some(src), Some(dst)),
            TraceEvent::NodeCrashed { node, .. } | TraceEvent::NodeRecovered { node, .. } => {
                (Some(node), None)
            }
            _ => (None, None),
        }
    }

    /// The payment id this event belongs to, if any.
    pub fn payment(&self) -> Option<u64> {
        match *self {
            TraceEvent::PaymentArrived { payment, .. }
            | TraceEvent::PaymentSplit { payment, .. }
            | TraceEvent::UnitSent { payment, .. }
            | TraceEvent::UnitSettled { payment, .. }
            | TraceEvent::UnitRefunded { payment, .. }
            | TraceEvent::UnitQueued { payment, .. }
            | TraceEvent::PaymentCompleted { payment, .. }
            | TraceEvent::PaymentAbandoned { payment, .. }
            | TraceEvent::UnitDropped { payment, .. }
            | TraceEvent::UnitGriefed { payment, .. }
            | TraceEvent::PaymentRetry { payment, .. } => Some(payment),
            _ => None,
        }
    }
}

/// Records [`TraceEvent`]s in arrival order.
///
/// Thread-safe so a tracer can be shared by a harness and its engine; within
/// one deterministic single-threaded simulation the order is exactly the
/// emission order.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the event log, recovering from a poisoned mutex: events
    /// written before another thread's panic are intact, and a trace cut
    /// short mid-crash is exactly when the recorded prefix matters most.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        match self.events.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Appends one event.
    pub fn record(&self, event: TraceEvent) {
        self.lock().push(event);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `events` in order under one lock (a restored log).
    pub fn extend(&self, events: Vec<TraceEvent>) {
        self.lock().extend(events);
    }

    /// A copy of all events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    /// Calls `f` with the events recorded so far, borrowed in place. The
    /// log stays locked for the duration, so `f` must not record.
    pub fn with_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> R {
        f(&self.lock())
    }
}

/// Serializes events as JSON Lines.
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("trace events serialize"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace back into events.
///
/// Returns the 1-based line number and error message of the first malformed
/// line, if any. Blank lines are ignored.
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceEvent>, (usize, String)> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<TraceEvent>(line) {
            Ok(e) => out.push(e),
            Err(err) => return Err((i + 1, format!("{err:?}"))),
        }
    }
    Ok(out)
}

/// Counts events per kind, sorted by kind name (deterministic).
pub fn count_by_kind(events: &[TraceEvent]) -> Vec<(String, u64)> {
    let mut counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for e in events {
        *counts.entry(e.kind()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PaymentArrived {
                t: 0.1,
                payment: 7,
                src: 0,
                dst: 2,
                amount: 30.0,
            },
            TraceEvent::UnitSent {
                t: 0.1,
                payment: 7,
                amount: 10.0,
                hops: 2,
            },
            TraceEvent::UnitSettled {
                t: 0.6,
                payment: 7,
                amount: 10.0,
            },
            TraceEvent::PaymentCompleted {
                t: 0.6,
                payment: 7,
                delay: 0.5,
            },
            TraceEvent::ChannelSample {
                t: 1.0,
                channel: 0,
                imbalance: 0.25,
                inflight: 20.0,
                queue_depth: 0,
            },
        ]
    }

    #[test]
    fn jsonl_round_trip() {
        let events = sample_events();
        let jsonl = events_to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), events.len());
        let back = parse_jsonl(&jsonl).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn parse_rejects_garbage_with_line_number() {
        let mut jsonl = events_to_jsonl(&sample_events());
        jsonl.push_str("not json\n");
        let err = parse_jsonl(&jsonl).unwrap_err();
        assert_eq!(err.0, sample_events().len() + 1);
    }

    #[test]
    fn blank_lines_ignored() {
        let jsonl = format!("\n{}\n", events_to_jsonl(&sample_events()));
        assert_eq!(parse_jsonl(&jsonl).unwrap().len(), sample_events().len());
    }

    #[test]
    fn kind_counting() {
        let counts = count_by_kind(&sample_events());
        let get = |k: &str| {
            counts
                .iter()
                .find(|(name, _)| name == k)
                .map(|&(_, n)| n)
                .unwrap_or(0)
        };
        assert_eq!(get("payment_arrived"), 1);
        assert_eq!(get("unit_sent"), 1);
        assert_eq!(get("channel_sample"), 1);
        // Sorted by kind name.
        let names: Vec<&str> = counts.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn tracer_preserves_order() {
        let tracer = Tracer::new();
        for e in sample_events() {
            tracer.record(e);
        }
        assert_eq!(tracer.len(), 5);
        assert_eq!(tracer.events(), sample_events());
    }
}
