//! Typed payment-lifecycle trace events and the tracer that records them.
//!
//! Events carry **simulation timestamps only** — never wall-clock time — so
//! a trace is a pure function of the simulation inputs and serializes to
//! byte-identical JSONL regardless of host, load, or worker count.

use crate::bintrace::{self, BinTraceWriter};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// What an event field holds — a simulation time, a payment, channel or
/// node id, or another count or quantity — which fixes its Rust type
/// (`role_type!`) and its SPBT encoding (`bintrace`). Values travel between
/// an event and a codec as 64 raw bits (`FieldBits`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    Time,
    Payment,
    Channel,
    Node,
    U32,
    U64,
    F64,
}

/// The Rust type of a field of role `$role`.
#[rustfmt::skip]
macro_rules! role_type {
    (Time) => { f64 };
    (Payment) => { u64 };
    (Channel) => { u32 };
    (Node) => { u32 };
    (U32) => { u32 };
    (U64) => { u64 };
    (F64) => { f64 };
}

/// A field value as the 64 bits [`TraceEvent::fields`] hands out and
/// [`TraceEvent::from_fields`] takes back.
trait FieldBits: Copy {
    fn to_bits(self) -> u64;
    /// Whoever produces the bits of a `u32` field keeps them in range.
    fn from_bits(bits: u64) -> Self;
}

impl FieldBits for u32 {
    fn to_bits(self) -> u64 {
        u64::from(self)
    }
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
}

impl FieldBits for u64 {
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl FieldBits for f64 {
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// A kind's counter name in the event table, or `None` when it has none.
macro_rules! counter_name {
    () => {
        None
    };
    ($counter:literal) => {
        Some($counter)
    };
}

/// Expands the one table of event kinds below into [`TraceEvent`], its
/// kind names and counters, the kind index and the field walk and
/// constructor every codec goes through.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident($kind:literal $(, $counter:literal)?) {
                    $( $(#[$fmeta:meta])* $field:ident: $role:ident, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: role_type!($role), )* },
            )*
        }

        /// An event kind without its fields; `as u8` is the kind index SPBT
        /// writers store.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum KindIndex {
            $($variant,)*
        }

        impl KindIndex {
            /// Every kind, in index order.
            pub(crate) const ALL: &'static [KindIndex] = &[$(KindIndex::$variant,)*];
        }

        impl TraceEvent {
            /// Every kind name, in kind-index order.
            pub const KINDS: &'static [&'static str] = &[$($kind,)*];

            /// Stable kind string, used for per-kind counting and
            /// reconciliation.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $kind,)*
                }
            }

            /// Per kind, in kind-index order, the registry counter one
            /// occurrence adds to, if the kind is counted: the only kind →
            /// counter-name table. [`Telemetry`](crate::Telemetry) counts
            /// what it records through it, so a counter and the trace it
            /// summarizes cannot disagree.
            pub(crate) const COUNTERS: &'static [Option<&'static str>] =
                &[$(counter_name!($($counter)?),)*];

            /// This event's kind, whose `as u8` indexes [`KINDS`](Self::KINDS).
            pub(crate) fn kind_index(&self) -> KindIndex {
                match self {
                    $(TraceEvent::$variant { .. } => KindIndex::$variant,)*
                }
            }

            /// Calls `f` with each field's role and bits, in declaration
            /// (= SPBT and JSONL) order. Always inlined: a caller that
            /// wants one role then compiles to a plain field load.
            #[inline(always)]
            pub(crate) fn fields(&self, mut f: impl FnMut(Role, u64)) {
                match *self {
                    $(TraceEvent::$variant { $($field,)* } => {
                        $(f(Role::$role, FieldBits::to_bits($field));)*
                    })*
                }
            }

            /// The event of kind `kind` whose fields, in declaration order,
            /// `next` produces from their roles.
            #[inline]
            pub(crate) fn from_fields<E>(
                kind: KindIndex,
                mut next: impl FnMut(Role) -> Result<u64, E>,
            ) -> Result<Self, E> {
                Ok(match kind {
                    $(KindIndex::$variant => TraceEvent::$variant {
                        $($field: FieldBits::from_bits(next(Role::$role)?),)*
                    },)*
                })
            }
        }
    };
}

// Each kind is declared once, here: `Variant("kind_name"[, "counter"])`,
// then its fields with their roles in SPBT (and JSONL) order.
trace_events! {
    /// One structured telemetry event.
    ///
    /// `t` is simulation time in seconds. Identifier fields are the raw indices
    /// used by the engine (payment id, channel index, node index) so traces can
    /// be joined against topology and workload dumps.
    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    pub enum TraceEvent {
        /// A payment arrived at its sender.
        PaymentArrived("payment_arrived", "sim.payments.arrived") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Source node index.
            src: Node,
            /// Destination node index.
            dst: Node,
            /// Face value in tokens.
            amount: F64,
        },
        /// A packet-switched payment was split into MTU-bounded units.
        PaymentSplit("payment_split") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Planned unit count (`ceil(amount / mtu)`).
            units: U64,
        },
        /// One transaction unit was routed and locked along a path.
        UnitSent("unit_sent", "sim.units.sent") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Unit value in tokens.
            amount: F64,
            /// Hop count of the chosen path.
            hops: U32,
        },
        /// A unit settled end to end (receiver keeps the funds).
        UnitSettled("unit_settled", "sim.units.settled") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Unit value in tokens.
            amount: F64,
        },
        /// A unit's locks were refunded (expired HTLC, rollback, or
        /// router-queue drop).
        UnitRefunded("unit_refunded", "sim.units.refunded") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Unit value in tokens.
            amount: F64,
        },
        /// A unit entered a router queue (router-queue transport only).
        UnitQueued("unit_queued", "sim.units.queued") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Channel index of the queueing direction.
            channel: Channel,
            /// Queue depth after insertion.
            depth: U32,
        },
        /// A payment delivered its full value.
        PaymentCompleted("payment_completed", "sim.payments.completed") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Completion delay since arrival (seconds).
            delay: F64,
        },
        /// A payment was abandoned (deadline, unroutable, or atomic failure).
        PaymentAbandoned("payment_abandoned", "sim.payments.abandoned") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Value delivered before abandonment (tokens).
            delivered: F64,
        },
        /// An on-chain rebalancing transaction confirmed and moved funds.
        RebalanceApplied("rebalance_applied", "sim.rebalance.applied") {
            /// Simulation time (seconds).
            t: Time,
            /// Channel index.
            channel: Channel,
            /// Tokens withdrawn from the rich side.
            moved: F64,
            /// On-chain fee paid (tokens).
            fee: F64,
        },
        /// Periodic per-channel state sample.
        ChannelSample("channel_sample") {
            /// Simulation time (seconds).
            t: Time,
            /// Channel index.
            channel: Channel,
            /// Relative imbalance `|a - b| / (a + b)` of spendable balances.
            imbalance: F64,
            /// In-flight (locked) tokens on the channel.
            inflight: F64,
            /// Units waiting in this channel's router queues (both directions;
            /// zero for the source-queued engine).
            queue_depth: U32,
        },
        /// A channel went down (fault injection): its capacity is masked and
        /// in-flight units crossing it are refunded.
        ChannelOutage("channel_outage", "sim.faults.outages") {
            /// Simulation time (seconds).
            t: Time,
            /// Channel index.
            channel: Channel,
        },
        /// A downed channel came back up.
        ChannelRecovered("channel_recovered") {
            /// Simulation time (seconds).
            t: Time,
            /// Channel index.
            channel: Channel,
        },
        /// A node crashed (fault injection): every incident channel goes down.
        NodeCrashed("node_crashed", "sim.faults.node_crashes") {
            /// Simulation time (seconds).
            t: Time,
            /// Node index.
            node: Node,
        },
        /// A crashed node rejoined the network.
        NodeRecovered("node_recovered") {
            /// Simulation time (seconds).
            t: Time,
            /// Node index.
            node: Node,
        },
        /// A unit was dropped in flight by fault injection (its locks are
        /// refunded in a paired `UnitRefunded` event).
        UnitDropped("unit_dropped", "sim.units.dropped") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Unit value in tokens.
            amount: F64,
            /// Channel index of the hop blamed for the drop.
            channel: Channel,
        },
        /// A unit's HTLC was griefed: funds stay pinned until the hold expires,
        /// then refund (paired `UnitRefunded`).
        UnitGriefed("unit_griefed", "sim.units.griefed") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Unit value in tokens.
            amount: F64,
            /// How long the funds were pinned (seconds).
            hold: F64,
        },
        /// A sender scheduled a retry after a fault failure (exponential
        /// backoff).
        PaymentRetry("payment_retry", "sim.payments.retries") {
            /// Simulation time (seconds).
            t: Time,
            /// Payment id.
            payment: Payment,
            /// Fault-failure count for this payment so far.
            attempt: U32,
            /// Backoff delay before the next send attempt (seconds).
            backoff: F64,
        },
        /// A sender blacklisted a channel after a fault failure on it.
        ChannelBlacklisted("channel_blacklisted") {
            /// Simulation time (seconds).
            t: Time,
            /// Channel index.
            channel: Channel,
            /// Simulation time until which routing avoids the channel.
            until: F64,
        },
        /// Periodic solver progress sample (primal-dual iterations).
        SolverSample("solver_sample") {
            /// Iteration number (1-based).
            iter: U64,
            /// Current objective value (total throughput).
            objective: F64,
            /// Convergence residual: smallest max-rate change seen in any sweep
            /// so far (non-increasing along a run).
            residual: F64,
            /// Mean capacity price λ across channels.
            mean_price: F64,
        },
    }
}

// The accessors are `#[inline]` so other crates (`inspect`) can still
// inline them, as they could the leaf `match`es these replaced.
impl TraceEvent {
    /// The bits of this event's field of role `role`, if it has one. Only
    /// `Node` fields come two to a kind; see [`nodes`](Self::nodes).
    #[inline]
    fn field(&self, role: Role) -> Option<u64> {
        let mut found = None;
        self.fields(|r, bits| {
            if r == role {
                found = Some(bits);
            }
        });
        found
    }

    /// Simulation timestamp, for every timed event kind. Solver samples
    /// are iteration-indexed, not time-indexed, and return `None`.
    #[inline]
    pub fn time(&self) -> Option<f64> {
        self.field(Role::Time).map(f64::from_bits)
    }

    /// The channel index this event touches, if any.
    #[inline]
    pub fn channel(&self) -> Option<u32> {
        self.field(Role::Channel).map(u32::from_bits)
    }

    /// The node indices this event touches (up to two), if any.
    #[inline]
    pub fn nodes(&self) -> (Option<u32>, Option<u32>) {
        let mut nodes = (None, None);
        self.fields(|role, bits| {
            if role == Role::Node {
                let slot = if nodes.0.is_none() {
                    &mut nodes.0
                } else {
                    &mut nodes.1
                };
                *slot = Some(u32::from_bits(bits));
            }
        });
        nodes
    }

    /// The payment id this event belongs to, if any.
    #[inline]
    pub fn payment(&self) -> Option<u64> {
        self.field(Role::Payment)
    }
}

/// Records [`TraceEvent`]s in arrival order, held as the SPBT file they
/// are written as.
///
/// The log is one [`BinTraceWriter`] at the default block size: the
/// header and every closed block as bytes (about 7 an event), plus an open
/// block of at most `DEFAULT_BLOCK_EVENTS - 1` events. Beside it sits a
/// count per kind, so counting and summaries never walk the log.
/// Blocks start every 512 events from the first, so the bytes equal
/// `bintrace::encode` of the same events, and a log rebuilt by
/// [`extend`](Self::extend) from a checkpoint splits where the original did.
///
/// Thread-safe so a tracer can be shared by a harness and its engine; within
/// one deterministic single-threaded simulation the order is exactly the
/// emission order.
#[derive(Debug, Default)]
pub struct Tracer {
    log: Mutex<Log>,
}

/// Number of event kinds.
pub(crate) const KIND_COUNT: usize = TraceEvent::KINDS.len();

#[derive(Debug, Default)]
struct Log {
    spbt: BinTraceWriter,
    /// Events recorded per kind, by kind index.
    by_kind: [u64; KIND_COUNT],
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the event log, recovering from a poisoned mutex: events
    /// written before another thread's panic are intact, and a trace cut
    /// short mid-crash is exactly when the recorded prefix matters most.
    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        match self.log.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Appends one event; the event that closes a block encodes it.
    pub fn record(&self, event: TraceEvent) {
        self.lock().push(event);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len() as usize
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `events` in order under one lock (a restored log).
    pub fn extend(&self, events: Vec<TraceEvent>) {
        let mut log = self.lock();
        for event in events {
            log.push(event);
        }
    }

    /// All events recorded so far, decoded once into a `Vec` of exactly
    /// their number.
    pub fn events(&self) -> Vec<TraceEvent> {
        let log = self.lock();
        let mut out = Vec::with_capacity(log.len() as usize);
        let decoded = bintrace::decode_into(log.spbt.closed(), &mut out);
        debug_assert!(decoded.is_ok(), "a tracer's own blocks decode: {decoded:?}");
        out.extend_from_slice(log.spbt.open());
        out
    }

    /// Calls `f` with the number of events recorded so far and the log as
    /// SPBT file bytes: the closed blocks, then the open block encoded. The
    /// log stays locked for the duration, so `f` must not record.
    pub fn with_spbt<R>(&self, f: impl FnOnce(u64, &[u8]) -> R) -> R {
        let mut log = self.lock();
        let events = log.len();
        log.spbt.with_bytes(|bytes| f(events, bytes))
    }

    /// The number of events recorded so far and the count per kind, sorted
    /// by kind name, kinds never recorded left out: what [`count_by_kind`]
    /// returns for [`events`](Self::events), read without decoding.
    pub fn counts(&self) -> (u64, Vec<(String, u64)>) {
        let log = self.lock();
        let mut by_kind: Vec<(String, u64)> = (TraceEvent::KINDS.iter().zip(log.by_kind))
            .filter(|&(_, n)| n > 0)
            .map(|(kind, n)| (kind.to_string(), n))
            .collect();
        by_kind.sort_unstable();
        (log.len(), by_kind)
    }

    /// Events recorded so far per kind, by kind index.
    pub(crate) fn by_kind(&self) -> [u64; KIND_COUNT] {
        self.lock().by_kind
    }
}

impl Log {
    fn push(&mut self, event: TraceEvent) {
        self.by_kind[event.kind_index() as usize] += 1;
        self.spbt.push(event);
    }

    fn len(&self) -> u64 {
        self.by_kind.iter().sum()
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
