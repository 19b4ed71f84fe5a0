//! The transport's run state and the lifecycle of a transaction unit (§4.1).
//!
//! The paper describes one transport: a payment is split into MTU-bounded
//! units, each unit locks funds hop by hop, and the locks are either
//! settled (the receiver released the key) or refunded (deadline, fault,
//! queue overflow). The only thing that varies is where a unit waits when a
//! channel is dry — at the sender (§6.1) or in a router queue (Fig. 3,
//! §4.2). [`Transport`] owns everything both placements share: the ledger,
//! the event queue, payments and their fault recovery, the unit slab, the
//! fault mask, the telemetry series and counters, and the transitions over
//! them (`arrive`, `send`, `settle`, `fail`, `abandon`, fault bookkeeping,
//! sampling, the report, and the [`SEC_CORE`](snapshot::SEC_CORE) codec,
//! which only the source-queued driver uses). The drivers in
//! [`crate::engine`] decide *when* a transition fires, never *what* it does.
//!
//! Much of the arithmetic under a transition is not written here: it is
//! shared, one copy each, with the sharded engine's handlers (which differ
//! in when and where a transition runs, and in the divergences ROADMAP
//! lists) — [`PaymentState`]'s transitions and [`arrival_trace`] for the
//! payment side of a unit's life, the event table's kind → counter column
//! behind `Telemetry::emit` for the counters, `Ledger::relative_imbalance`
//! and [`tokens`] for what is reported. The funds (`Ledger::lock_path` /
//! `release_walk`, one amount on every hop: no relay charges a fee),
//! on-chain rebalancing (`rebalancer::apply`), the congestion window
//! ([`CongestionControl`]) and fault injection — [`FailCause`]'s fault
//! causes, `FaultConfig::unit_fate` for a unit's fate, [`Recovery`] and
//! `FaultView` for the sender's recovery, [`FaultEvent::trace`] — are this
//! engine's alone, and only the source-queued driver takes a fault plan.
//!
//! A source-queued payment that cannot send waits for a tick. The transport
//! keeps the pending list, which a tick prunes, and — unless every pending
//! payment is polled — the [`WakeLists`]: the payments parked on each dry
//! channel side, and those a credit woke. `settle` credits every hop's
//! receiving side, `fail` the sending sides of the locked prefix (and wakes
//! the payment whose value came back), and the driver's rebalancing both
//! sides of the channel; [`due_in_order`](Transport::due_in_order) hands a
//! tick the woken payments in policy order and the number of asks it
//! skips. The router-queued driver polls, as the source-queued one does
//! under congestion control or a fault plan.
//!
//! A unit records how many hops of its path are locked: a source-queued
//! unit is born with every hop locked, a router-queued unit with one.
//! Settling or refunding releases the locked prefix and leaves `locked == 0`
//! ([`UnitSlab::finish`]), which is also what "this unit is finished" means.
//!
//! What a run keeps resident is its live window, not its history: the
//! [`UnitSlab`] holds the chunks that still contain a unit in flight and
//! gives finished chunks back, and pending arrivals are a cursor over the
//! (sorted) trace rather than one event-queue entry each — [`Transport::pop`]
//! merges the two in the `(time, seq)` order one queue holding everything
//! would pop. Payment records are still kept for the whole run, because the
//! report and `SEC_CORE` read every one, but a record is 40 bytes and holds
//! no input: payment `i` is trace row `i` (arrivals pop in trace order), and
//! its id, sender, receiver, amount, arrival and deadline are read from the
//! row ([`row`](Transport::row), [`deadline`](Transport::deadline)).

use crate::audit::{AuditViolation, LedgerAudit};
use crate::congestion::CongestionControl;
use crate::engine::QueueStats;
use crate::events::{EventQueue, Time};
use crate::faults::{FaultEvent, FaultPlan, FaultState, FaultView};
use crate::ledger::{tokens, Ledger, LedgerView, Release};
use crate::metrics::{tally, SimReport};
use crate::payment::{arrival_trace, FailCause, PaymentState, PaymentStatus, Recovery};
use crate::rebalancer::{self, RebalanceTotals};
use crate::scheduler::{SchedulePolicy, WakeLists};
use crate::snapshot::{
    self, corrupt, dec_fault_event, dec_index, dec_path, dec_seq, dec_time, enc_fault_event,
    enc_path, CheckpointSpec, Snapshot, SnapshotError,
};
use spider_core::{Amount, BalanceView, ChannelId, CoreError, Dec, Enc, Network, NodeId, Path};
use spider_routing::RoutingScheme;
use spider_telemetry::{NetworkSample, Telemetry, TraceEvent};
use spider_workload::Transaction;
use std::collections::VecDeque;
use std::sync::Arc;

/// Everything the event queue can hold. `HopArrive` is only scheduled by
/// the router-queued driver; `FaultExpire` and the two rebalance events
/// only by the source-queued one.
pub(crate) enum Event {
    Arrival(usize),
    /// A router-queued unit finished traversing its most recently locked hop.
    HopArrive {
        unit: usize,
    },
    /// The receiver releases the key: every hop of the unit settles
    /// (skipped if a fault refunded the unit in the meantime).
    Settle {
        unit: usize,
    },
    /// A dropped or griefed unit's failure becomes visible to the sender
    /// and its locked funds are refunded.
    FaultExpire {
        unit: usize,
    },
    /// A scheduled fault transition from the [`FaultPlan`].
    Fault(FaultEvent),
    Tick,
    /// Routers inspect channel skew (every `rebalancer::CHECK_INTERVAL`).
    RebalanceCheck,
    /// A submitted on-chain rebalancing transaction confirms.
    RebalanceApply {
        channel: ChannelId,
    },
}

/// One transaction unit, live or just finished. Units live in a slab whose
/// chunks span the units in flight — at the paper's ISP rate that is
/// thousands of records at any moment, so the record is kept to 32 bytes —
/// and fault events find the units to refund by scanning its live ones.
pub(crate) struct Unit {
    pub(crate) path: Arc<Path>,
    /// The amount every hop locks and the receiver is paid.
    pub(crate) amount: Amount,
    payment: u32,
    /// Hops `0..locked` hold this unit's funds; a router-queued unit sits
    /// at `path.nodes()[locked]`. Zero once settled or refunded (only
    /// [`UnitSlab::finish`] writes the zero), which guards against a
    /// double release when a refund races a scheduled settle.
    pub(crate) locked: u32,
    /// The fate a unit was dealt to fail in flight: only
    /// [`FailCause::Dropped`] or [`FailCause::Griefed`].
    pub(crate) fault: Option<FailCause>,
}

impl Unit {
    /// Index of the owning payment.
    pub(crate) fn payment(&self) -> usize {
        self.payment as usize
    }

    /// `true` until the unit is settled or refunded.
    pub(crate) fn live(&self) -> bool {
        self.locked > 0
    }
}

/// The unit slab: the live window of the units sent, in fixed-size chunks.
///
/// - Indices are handed out in send order and never reused.
/// - Each chunk counts its live units. A full chunk whose count reaches
///   zero is released: its `Vec` is emptied and becomes the one spare the
///   next chunk reuses, so a long run neither holds a record per unit ever
///   sent nor churns the allocator. The release waits for the next
///   [`push`](Self::push), because the caller of the transition that
///   finished a unit may still read it (the router-queued driver drains
///   the queues along a settled unit's path).
/// - [`live`](Self::live) is what to ask of an index that may have
///   finished: it is `false` for a finished unit and for a released chunk.
///   Indexing is for live units, and for a unit finished since the last
///   push.
///
/// Equal chunks are never moved. One `Vec` this large would be copied
/// every time it doubles, and peak memory would follow heap layout rather
/// than the unit count.
#[derive(Default)]
pub(crate) struct UnitSlab {
    /// Chunk `k` holds indices `k * CHUNK..`; a released chunk is empty.
    chunks: Vec<Vec<Unit>>,
    /// Live units per chunk.
    live: Vec<u32>,
    /// Units ever pushed.
    len: usize,
    /// Full chunks whose last live unit finished since the last push.
    drained: Vec<usize>,
    /// A released chunk's buffer, kept for the next chunk.
    spare: Option<Vec<Unit>>,
    /// Most chunk buffers ever held at once, the spare included.
    #[cfg(test)]
    peak_chunks: usize,
}

impl UnitSlab {
    /// Units per chunk (64 KiB of records).
    const CHUNK: usize = 1 << 11;

    /// Units ever sent: the next index handed out.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` while unit `i` holds a lock: sent, and not yet settled or
    /// refunded. `false` for an index whose chunk has been released.
    pub(crate) fn live(&self, i: usize) -> bool {
        (self.chunks.get(i / Self::CHUNK))
            .and_then(|chunk| chunk.get(i % Self::CHUNK))
            .is_some_and(Unit::live)
    }

    /// Appends a live `unit` and returns its index, first releasing the
    /// chunks drained since the last push.
    fn push(&mut self, unit: Unit) -> usize {
        debug_assert!(unit.live(), "a unit is sent holding a lock");
        for k in self.drained.drain(..) {
            let mut chunk = std::mem::take(&mut self.chunks[k]);
            chunk.clear();
            if self.spare.is_none() {
                self.spare = Some(chunk);
            }
        }
        let i = self.len;
        if i.is_multiple_of(Self::CHUNK) {
            let chunk = (self.spare.take()).unwrap_or_else(|| Vec::with_capacity(Self::CHUNK));
            self.chunks.push(chunk);
            self.live.push(0);
            #[cfg(test)]
            self.note_peak();
        }
        let k = i / Self::CHUNK;
        self.chunks[k].push(unit);
        self.live[k] += 1;
        self.len += 1;
        i
    }

    /// Marks live unit `i` settled or refunded — the only way `locked`
    /// becomes zero. Its chunk goes back at the next push once it is full
    /// and this was its last live unit.
    pub(crate) fn finish(&mut self, i: usize) {
        let k = i / Self::CHUNK;
        let unit = &mut self.chunks[k][i % Self::CHUNK];
        debug_assert!(unit.live(), "unit {i} finished twice");
        if !unit.live() {
            return;
        }
        unit.locked = 0;
        self.live[k] -= 1;
        if self.live[k] == 0 && self.chunks[k].len() == Self::CHUNK {
            self.drained.push(k);
        }
    }

    /// The live units with their indices, in index order.
    fn iter_live(&self) -> impl Iterator<Item = (usize, &Unit)> {
        (self.chunks.iter().zip(&self.live).enumerate())
            .filter(|(_, (_, &live))| live > 0)
            .flat_map(|(k, (chunk, _))| {
                let first = k * Self::CHUNK;
                (chunk.iter().enumerate()).map(move |(j, unit)| (first + j, unit))
            })
            .filter(|(_, unit)| unit.live())
    }

    /// Rebuilds an empty slab of `total` units sent from a checkpoint's
    /// live units, given in ascending index order below `total`. Only the
    /// chunks holding a live unit, and a partly filled last chunk that the
    /// next push appends to, are allocated; their other slots become
    /// tombstones — finished units (`locked == 0`) whose other fields
    /// nothing reads.
    fn restore(
        &mut self,
        total: usize,
        live: Vec<(usize, Unit)>,
        network: &Network,
    ) -> Result<(), SnapshotError> {
        if total == 0 {
            return Ok(());
        }
        // A tombstone needs some valid path, and any will do; a unit was
        // sent, so the network has a channel.
        let Some(ch) = network.channels().first() else {
            return corrupt("units in a network without channels".to_string());
        };
        let any_path = Path::new(network, vec![ch.a, ch.b])
            .map(Arc::new)
            .or_else(|e| corrupt(format!("tombstone path: {e}")))?;
        let tombstone = || Unit {
            path: Arc::clone(&any_path),
            amount: Amount::ZERO,
            payment: 0,
            locked: 0,
            fault: None,
        };
        let partial_tail = (!total.is_multiple_of(Self::CHUNK)).then_some(total / Self::CHUNK);
        let mut live = live.into_iter().peekable();
        for k in 0..total.div_ceil(Self::CHUNK) {
            let slots = k * Self::CHUNK..total.min((k + 1) * Self::CHUNK);
            let mut chunk = Vec::new();
            let mut count = 0;
            if live.peek().is_some_and(|(i, _)| slots.contains(i)) || partial_tail == Some(k) {
                chunk.reserve_exact(Self::CHUNK);
                for i in slots {
                    chunk.push(match live.next_if(|&(index, _)| index == i) {
                        Some((_, unit)) => {
                            count += 1;
                            unit
                        }
                        None => tombstone(),
                    });
                }
            }
            self.chunks.push(chunk);
            self.live.push(count);
        }
        self.len = total;
        #[cfg(test)]
        self.note_peak();
        Ok(())
    }

    /// Chunk buffers held now, the spare included.
    #[cfg(test)]
    fn held_chunks(&self) -> usize {
        let held = self.chunks.iter().filter(|c| c.capacity() > 0).count();
        held + usize::from(self.spare.is_some())
    }

    #[cfg(test)]
    fn note_peak(&mut self) {
        self.peak_chunks = self.peak_chunks.max(self.held_chunks());
    }
}

impl std::ops::Index<usize> for UnitSlab {
    type Output = Unit;
    fn index(&self, i: usize) -> &Unit {
        &self.chunks[i / Self::CHUNK][i % Self::CHUNK]
    }
}

impl std::ops::IndexMut<usize> for UnitSlab {
    fn index_mut(&mut self, i: usize) -> &mut Unit {
        &mut self.chunks[i / Self::CHUNK][i % Self::CHUNK]
    }
}

/// Per-(channel, direction) router queues and their statistics. Empty
/// (zero channels) under the source-queued driver.
#[derive(Default)]
pub(crate) struct RouterQueues {
    /// `(unit, time it joined the queue)` in arrival order.
    pub(crate) queues: Vec<[VecDeque<(usize, f64)>; 2]>,
    pub(crate) stats: QueueStats,
    pub(crate) total_wait: f64,
    pub(crate) dequeues: usize,
}

impl RouterQueues {
    pub(crate) fn new(num_channels: usize) -> Self {
        RouterQueues {
            queues: (0..num_channels).map(|_| Default::default()).collect(),
            ..Default::default()
        }
    }

    fn depth(&self, channel: ChannelId) -> u32 {
        self.queues
            .get(channel.index())
            .map_or(0, |[a, b]| (a.len() + b.len()) as u32)
    }
}

/// Caps engine-recorded release violations like the auditor caps its own.
pub(crate) const MAX_RELEASE_VIOLATIONS: usize = 32;

/// Records a refused over-release (see
/// [`AuditViolationKind::ExcessRelease`](crate::audit::AuditViolationKind))
/// so it surfaces in the report even when periodic auditing is off.
pub(crate) fn record_release(
    violations: &mut Vec<AuditViolation>,
    time: f64,
    event: &str,
    err: &CoreError,
) {
    if violations.len() < MAX_RELEASE_VIOLATIONS {
        if let Some(v) = AuditViolation::from_release_error(time, event, err) {
            violations.push(v);
        }
    }
}

/// One run's state. See the module docs.
pub(crate) struct Transport<'a> {
    pub(crate) network: &'a Network,
    pub(crate) tel: &'a Telemetry,
    end_time: f64,
    poll_interval: f64,
    /// Every payment's deadline window.
    window: f64,
    mtu: Amount,
    /// Payments are sent unit by unit until their deadline — everything
    /// but an atomic scheme, which delivers a payment whole at arrival or
    /// fails it.
    split: bool,
    pub(crate) ledger: Ledger,
    /// Every pending event but the arrivals (see [`pop`](Self::pop)).
    pub(crate) queue: EventQueue<Event>,
    /// The trace, sorted by arrival: row `i` holds payment `i`'s inputs.
    /// Transactions `next_arrival..arrivals_end` have yet to arrive; those
    /// past `arrivals_end` arrive after the window and never do. Arrival `i`
    /// pops as if it had been pushed at `(tx.arrival, seq i)`, which is
    /// what the queue once held.
    transactions: &'a [Transaction],
    next_arrival: usize,
    arrivals_end: usize,
    pub(crate) payments: Vec<PaymentState>,
    /// Payments that may still have value to send, plus stale entries that
    /// [`due_in_order`](Self::due_in_order) weeds out each tick, in no
    /// order any reader relies on.
    pending: Vec<usize>,
    /// Where blocked payments wait for a credit, when a tick services only
    /// the payments a credit woke; `None` when it polls every pending
    /// payment (the router-queued driver, and the source-queued one under
    /// congestion control or a fault plan).
    pub(crate) wake_lists: Option<WakeLists>,
    pub(crate) units: UnitSlab,
    /// Payments `..next_deadline` have had their deadline enforced. Every
    /// payment gets the same window, so deadlines pass in arrival order
    /// and a cursor over the payments is all the bookkeeping they need.
    next_deadline: usize,
    /// The channel/node mask, under a fault plan.
    pub(crate) faults: Option<FaultState>,
    /// Payment `i`'s fault recovery, under a fault plan (grows with
    /// arrivals; empty otherwise).
    pub(crate) recovery: Vec<Recovery>,
    pub(crate) audit: Option<LedgerAudit>,
    /// Refused over-releases (double settle/refund), surfaced in the report
    /// even when periodic auditing is off.
    pub(crate) release_violations: Vec<AuditViolation>,
    /// Scheduler ticks begun so far (checkpoint cadence, and a snapshot's
    /// progress).
    ticks: u64,
    network_series: Vec<NetworkSample>,
    /// Channel samples piggyback on ticks at this cadence; no events of
    /// their own are queued, so `(time, sequence)` ordering is the same
    /// with telemetry on or off.
    next_sample: f64,
    pub(crate) congestion: Option<CongestionControl>,
    pub(crate) rebalance_pending: Vec<bool>,
    pub(crate) rebalance: RebalanceTotals,
    pub(crate) router: RouterQueues,
}

impl<'a> Transport<'a> {
    /// Fresh state for one run over `transactions`; the drivers switch on
    /// the optional machinery (audit, congestion control, router queues, …)
    /// afterwards.
    ///
    /// # Panics
    /// If `transactions` is not sorted by arrival time: arrivals are read
    /// off the trace in order, so an unsorted trace would make time run
    /// backwards.
    pub(crate) fn new(
        network: &'a Network,
        transactions: &'a [Transaction],
        tel: &'a Telemetry,
        [end_time, poll_interval, window]: [f64; 3],
        mtu: Amount,
        split: bool,
        plan: Option<&FaultPlan>,
    ) -> Self {
        assert!(poll_interval > 0.0 && window > 0.0);
        assert!(mtu.is_positive(), "MTU must be positive");
        assert!(
            transactions.is_sorted_by(|a, b| a.arrival <= b.arrival),
            "transactions must be sorted by arrival time"
        );
        Transport {
            network,
            tel,
            end_time,
            poll_interval,
            window,
            mtu,
            split,
            ledger: Ledger::new(network),
            queue: EventQueue::new(),
            transactions,
            next_arrival: 0,
            arrivals_end: transactions.partition_point(|tx| tx.arrival <= end_time),
            payments: Vec::new(),
            pending: Vec::new(),
            wake_lists: None,
            units: UnitSlab::default(),
            next_deadline: 0,
            faults: plan.map(|plan| FaultState::new(plan, network)),
            recovery: Vec::new(),
            audit: None,
            release_violations: Vec::new(),
            ticks: 0,
            network_series: Vec::new(),
            next_sample: tel.sample_interval().unwrap_or(f64::INFINITY),
            congestion: None,
            rebalance_pending: vec![false; network.num_channels()],
            rebalance: RebalanceTotals::default(),
            router: RouterQueues::default(),
        }
    }

    /// Fresh start: numbers the arrivals inside the window `0..k` (the
    /// cursor pops them, see [`pop`](Self::pop)), then queues the first
    /// tick, the first rebalance check when routers rebalance, and the
    /// fault schedule behind them. (A resumed run restores the event queue
    /// and the cursor from the snapshot instead.)
    pub(crate) fn seed(&mut self, plan: Option<&FaultPlan>, rebalance: bool) {
        self.queue.set_next_seq(self.arrivals_end as u64);
        self.queue.push(self.poll_interval, Event::Tick);
        if rebalance {
            self.queue
                .push(rebalancer::CHECK_INTERVAL, Event::RebalanceCheck);
        }
        for (t, ev) in plan.iter().flat_map(|plan| &plan.events) {
            if *t <= self.end_time {
                self.queue.push(*t, Event::Fault(ev.clone()));
            }
        }
    }

    /// The resume prelude: reads and verifies the snapshot at `path`,
    /// restores this (freshly built) state from its `SEC_CORE` section and
    /// the caller's telemetry handle from `SEC_TELEMETRY`, and hands back
    /// the container so the driver can restore its routing state.
    pub(crate) fn load(
        &mut self,
        path: &std::path::Path,
        fingerprint: u32,
    ) -> Result<Snapshot, SnapshotError> {
        let snap = snapshot::read_snapshot(path)?;
        snap.check(fingerprint)?;
        self.decode(snap.progress, snap.section(snapshot::SEC_CORE)?)?;
        // The caller's handle is restored *in place* so clones of it keep
        // visibility into the resumed run's trace. The fingerprint already
        // pins the enabled flag and sampling cadence, so presence must
        // line up.
        let bytes = snap.section_opt(snapshot::SEC_TELEMETRY).unwrap_or(&[]);
        if let Some(state) = snapshot::decode_telemetry(bytes)? {
            self.tel
                .restore_from_state(state)
                .map_err(|e| SnapshotError::Unsupported {
                    what: format!("telemetry restore: {e}"),
                })?;
        } else if self.tel.is_enabled() {
            return corrupt("snapshot lacks telemetry state for an enabled handle".to_string());
        }
        Ok(snap)
    }

    /// Removes and returns the next event: the next arrival or the queue's
    /// head, whichever comes first by `(time, seq)` — the order of one
    /// queue holding both.
    pub(crate) fn pop(&mut self) -> Option<(f64, Event)> {
        if let Some(tx) = self.transactions[..self.arrivals_end].get(self.next_arrival) {
            let at = Time::new(tx.arrival);
            // Arrivals were numbered before anything was queued, so on a
            // time tie the arrival's seq is the smaller.
            let queued_first = (self.queue.peek_key()).is_some_and(|(time, seq)| {
                debug_assert!(seq >= self.arrivals_end as u64);
                time < at
            });
            if !queued_first {
                let i = self.next_arrival;
                self.next_arrival += 1;
                return Some((at.seconds(), Event::Arrival(i)));
            }
        }
        self.queue.pop()
    }

    /// Writes a crash-safe snapshot when `ckpt` asks for one at this tick.
    /// Called between events, after [`end_tick`](Self::end_tick), so the
    /// captured state is exactly what an uninterrupted run holds here.
    pub(crate) fn checkpoint(
        &self,
        ckpt: Option<&CheckpointSpec>,
        fingerprint: u32,
        scheme_state: impl FnOnce() -> Vec<u8>,
    ) -> Result<(), SnapshotError> {
        let Some(ck) = ckpt.filter(|_| self.checkpoint_due(ckpt)) else {
            return Ok(());
        };
        let sections = [
            (snapshot::SEC_CORE, self.encode()),
            (snapshot::SEC_SCHEME, scheme_state()),
            (
                snapshot::SEC_TELEMETRY,
                snapshot::encode_telemetry(self.tel),
            ),
        ];
        snapshot::write_snapshot(&ck.dir, fingerprint, self.ticks, &sections)?;
        #[cfg(test)]
        tests::check_derived(self, ck, fingerprint);
        Ok(())
    }

    /// `true` when `ckpt` asks for a snapshot at the end of the tick begun
    /// last.
    pub(crate) fn checkpoint_due(&self, ckpt: Option<&CheckpointSpec>) -> bool {
        ckpt.is_some_and(|ck| self.ticks.is_multiple_of(ck.every))
    }

    /// Trace row `i`: payment `i`'s inputs.
    pub(crate) fn row(&self, i: usize) -> &'a Transaction {
        &self.transactions[i]
    }

    /// Payment `i`'s absolute deadline: its arrival plus the window.
    pub(crate) fn deadline(&self, i: usize) -> f64 {
        self.row(i).arrival + self.window
    }

    /// Calls `route` with the balances payment `idx` routes against: the
    /// live ledger, with downed channels and those the payment blacklists
    /// reading as empty under fault injection.
    pub(crate) fn with_sender_view<R>(
        &self,
        idx: usize,
        now: f64,
        route: impl FnOnce(&dyn BalanceView) -> R,
    ) -> R {
        let view = LedgerView {
            network: self.network,
            ledger: &self.ledger,
        };
        match &self.faults {
            Some(faults) => route(&FaultView {
                inner: &view,
                faults,
                recovery: &self.recovery[idx],
                now,
            }),
            None => route(&view),
        }
    }

    // -- payment and unit transitions ---------------------------------------

    /// Payment `i`, trace row `i`, enters the system.
    pub(crate) fn arrive(&mut self, i: usize, now: f64) {
        debug_assert_eq!(i, self.payments.len(), "arrivals come in trace order");
        self.payments.push(PaymentState::ARRIVED);
        if self.faults.is_some() {
            self.recovery.push(Recovery::FRESH);
        }
        let [arrived, split] = arrival_trace(self.row(i), self.mtu, now);
        self.tel.emit(|| arrived);
        if self.split {
            self.tel.emit(|| split);
            self.pending.push(i);
        }
    }

    /// Records a unit whose first `locked` hops the caller has just locked
    /// in the ledger, and returns its slab index. It is unit
    /// `payments[idx].sent` of its payment, counted here.
    pub(crate) fn send(
        &mut self,
        idx: usize,
        path: Arc<Path>,
        amount: Amount,
        locked: usize,
        now: f64,
    ) -> usize {
        self.payments[idx].send(amount);
        self.tel.emit(|| TraceEvent::UnitSent {
            t: now,
            payment: self.row(idx).id.0,
            amount: tokens(amount),
            hops: path.len() as u32,
        });
        self.units.push(Unit {
            path,
            amount,
            payment: idx as u32,
            locked: locked as u32,
            fault: None,
        })
    }

    /// The receiver released the key: credits every hop's receiving side
    /// (the unit is fully locked by now), counts the value as delivered,
    /// and completes the payment once all of it is.
    pub(crate) fn settle(&mut self, ui: usize, now: f64) {
        let u = &self.units[ui];
        debug_assert_eq!(u.locked as usize, u.path.len());
        let (amount, payment) = (u.amount, u.payment());
        let res = (self.ledger).settle_path(self.network, &u.path, amount);
        if let (Ok(()), Some(wake)) = (&res, self.wake_lists.as_mut()) {
            wake.credit(u.path.hops().iter().map(|&(c, d)| (c, d.reverse())));
        }
        self.units.finish(ui);
        self.congestion_outcome(payment, true);
        if let Err(e) = res {
            return record_release(&mut self.release_violations, now, "settle", &e);
        }
        let tx = self.row(payment);
        let delay = now - tx.arrival;
        let completed = self.payments[payment].settle(amount, tx.amount, delay);
        let pid = tx.id.0;
        self.tel.emit(|| TraceEvent::UnitSettled {
            t: now,
            payment: pid,
            amount: tokens(amount),
        });
        if completed {
            self.tel.emit(|| TraceEvent::PaymentCompleted {
                t: now,
                payment: pid,
                delay,
            });
        }
    }

    /// Unit `ui` fails for `cause`: releases its locked prefix back to each
    /// hop's sender, returns the value to the payment's "remaining", and
    /// records the cause's event and the refund (an outage is counted in the
    /// fault stats). `false`, with a release violation recorded under the
    /// cause's label, if the ledger refuses.
    pub(crate) fn fail(&mut self, ui: usize, cause: FailCause, now: f64) -> bool {
        let u = &self.units[ui];
        let (amount, payment) = (u.amount, u.payment());
        // A router-queued unit holds only the prefix it has travelled.
        let locked = u.locked as usize;
        let res =
            (self.ledger).release_walk(self.network, &u.path, locked, amount, Release::Refund);
        if let (Ok(()), Some(wake)) = (&res, self.wake_lists.as_mut()) {
            wake.credit(u.path.hops()[..locked].iter().copied());
            // The refunded value is the payment's to send again.
            wake.woken.push(payment);
        }
        self.units.finish(ui);
        self.congestion_outcome(payment, false);
        if let Err(e) = res {
            let label = match cause {
                FailCause::Liquidity(_) => "queued-drop",
                FailCause::Outage(_) => "fault",
                FailCause::Dropped(_) | FailCause::Griefed(_) => "fault-expire",
            };
            record_release(&mut self.release_violations, now, label, &e);
            return false;
        }
        self.payments[payment].refund(amount);
        let pid = self.row(payment).id.0;
        // Only a fault plan deals a fate or takes a channel down.
        if let Some(faults) = self.faults.as_mut() {
            if let FailCause::Outage(_) = cause {
                faults.stats.units_refunded_by_outage += 1;
            }
            if let Some(ev) = cause.trace(now, pid, amount, faults.config.grief_hold) {
                self.tel.emit(|| ev);
            }
        }
        self.tel.emit(|| TraceEvent::UnitRefunded {
            t: now,
            payment: pid,
            amount: tokens(amount),
        });
        true
    }

    /// A unit of payment `idx` left flight, `delivered` or not: the pair's
    /// congestion window (set only for packet-switched senders) frees its
    /// slot and grows or shrinks.
    fn congestion_outcome(&mut self, idx: usize, delivered: bool) {
        if let Some(cc) = self.congestion.as_mut() {
            let tx = &self.transactions[idx];
            cc.on_outcome(tx.src, tx.dst, delivered);
        }
    }

    /// Gives up on a pending payment; value already settled stays delivered.
    pub(crate) fn abandon(&mut self, idx: usize, now: f64) {
        let pid = self.row(idx).id.0;
        if let Some(ev) = self.payments[idx].abandon(now, pid) {
            self.tel.emit(|| ev);
        }
    }

    /// Begins a scheduler tick: counts it and abandons, in arrival order,
    /// every split payment whose deadline has passed by `now`. (A
    /// backed-off payment needs no timer: it waits in the pending list
    /// until its `Recovery::not_before`.)
    pub(crate) fn begin_tick(&mut self, now: f64) {
        self.ticks += 1;
        while self.split
            && self.next_deadline < self.payments.len()
            && self.deadline(self.next_deadline) <= now
        {
            self.next_deadline += 1;
            self.abandon(self.next_deadline - 1, now);
        }
    }

    /// The payments this tick services, in `policy` order, and the asks it
    /// skips. Prunes the pending list. When payments are polled, every
    /// pending one is due and nothing is skipped. When they are woken,
    /// the due ones are those a credit woke since the last tick (or that
    /// could not be parked), and every other pending payment with value
    /// left to send is parked: it would ask once and hear `Unavailable`,
    /// so it is one skipped ask.
    pub(crate) fn due_in_order(&mut self, policy: SchedulePolicy) -> (Vec<usize>, u64) {
        let (payments, rows, window) = (&self.payments, self.transactions, self.window);
        let asks_anything = |i: usize| {
            let p = &payments[i];
            p.status == PaymentStatus::Pending && p.remaining(rows[i].amount).is_positive()
        };
        let Some(wake) = self.wake_lists.as_mut() else {
            self.pending
                .retain(|&i| payments[i].status == PaymentStatus::Pending);
            policy.order(payments, rows, window, &mut self.pending);
            return (self.pending.clone(), 0);
        };
        let mut asking = 0;
        self.pending.retain(|&i| {
            asking += u64::from(asks_anything(i));
            payments[i].status == PaymentStatus::Pending
        });
        let mut due = std::mem::take(&mut wake.woken);
        due.retain(|&i| asks_anything(i));
        policy.order(payments, rows, window, &mut due);
        // The order is total, so a payment woken twice sorts next to itself.
        due.dedup();
        let skipped = asking - due.len() as u64;
        (due, skipped)
    }

    /// Payment `idx` was just answered `Unavailable` for a `unit`: parks it
    /// on the sides `scheme` names as blocking it, or, if the scheme names
    /// none, wakes it for the next tick. Nothing to do when payments are
    /// polled.
    pub(crate) fn park(&mut self, scheme: &dyn RoutingScheme, idx: usize, unit: Amount) {
        let Some(wake) = self.wake_lists.as_mut() else {
            return;
        };
        let tx = &self.transactions[idx];
        let view = LedgerView {
            network: self.network,
            ledger: &self.ledger,
        };
        if scheme.blockers(&view, tx.src, tx.dst, unit, &mut wake.sides) {
            wake.park(idx, &self.payments);
        } else {
            wake.sides.clear();
            wake.woken.push(idx);
        }
    }

    /// Payment `idx` stopped sending for a reason no credit announces:
    /// wakes it for the next tick. Nothing to do when payments are polled.
    pub(crate) fn wake(&mut self, idx: usize) {
        if let Some(wake) = self.wake_lists.as_mut() {
            wake.woken.push(idx);
        }
    }

    /// Rebuilds the wake lists of a resumed run from the restored ledger:
    /// every pending payment with value left to send is parked where
    /// `scheme` names its blockers now, or woken. Its lists may then wake
    /// a payment where the uninterrupted run's would not; a wake never
    /// changes what a tick does, only which of its asks are real.
    pub(crate) fn repark(&mut self, scheme: &dyn RoutingScheme) {
        for k in 0..self.pending.len() {
            let i = self.pending[k];
            let p = &self.payments[i];
            let remaining = p.remaining(self.row(i).amount);
            if p.status == PaymentStatus::Pending && remaining.is_positive() {
                self.park(scheme, i, remaining.min(self.mtu));
            }
        }
    }

    // -- faults ---------------------------------------------------------------

    /// Applies a scheduled fault transition to the channel/node mask and
    /// records it; returns the channels that just went down.
    pub(crate) fn apply_fault(&mut self, ev: &FaultEvent, now: f64) -> Vec<ChannelId> {
        // Fault events are only scheduled when a plan is installed.
        let Some(faults) = self.faults.as_mut() else {
            return Vec::new();
        };
        self.tel.emit(|| ev.trace(now));
        faults.apply(self.network, ev)
    }

    /// Every live unit whose *locked prefix* crosses one of `down`, with
    /// the first such channel on its path: its HTLCs can no longer
    /// complete, so the locked funds must bounce back. (A unit merely
    /// queued in front of a downed channel holds no lock on it.)
    pub(crate) fn units_crossing(&self, down: &[ChannelId]) -> Vec<(usize, ChannelId)> {
        let crossed = |u: &Unit| {
            let locked = &u.path.hops()[..u.locked as usize];
            locked.iter().map(|&(c, _)| c).find(|c| down.contains(c))
        };
        (self.units.iter_live())
            .filter_map(|(ui, u)| Some((ui, crossed(u)?)))
            .collect()
    }

    // -- audit, sampling, ticks, report -------------------------------------

    /// Audits the ledger after a balance-mutating event, when auditing is on.
    pub(crate) fn audit_check(&mut self, now: f64, event: &str) {
        if let Some(a) = self.audit.as_mut() {
            a.check(&self.ledger, now, event);
        }
    }

    /// Emits one `ChannelSample` per channel plus one aggregate
    /// [`NetworkSample`].
    fn sample(&mut self, now: f64) {
        let mut max_depth: u32 = 0;
        for ch in self.network.channels() {
            let imbalance = self.ledger.relative_imbalance(ch.id);
            let depth = self.router.depth(ch.id);
            max_depth = max_depth.max(depth);
            let inflight = tokens(self.ledger.inflight(ch.id));
            self.tel.emit(|| TraceEvent::ChannelSample {
                t: now,
                channel: ch.id.index() as u32,
                imbalance,
                inflight,
                queue_depth: depth,
            });
        }
        let pending = (self.payments.iter())
            .filter(|p| p.status == PaymentStatus::Pending)
            .count() as u32;
        self.network_series.push(NetworkSample {
            t: now,
            mean_imbalance: self.ledger.mean_imbalance(),
            total_inflight: tokens(self.ledger.total_inflight()),
            pending,
            max_queue_depth: max_depth,
        });
    }

    /// Closes a scheduler tick: records the channel samples that are due
    /// and schedules the next tick.
    pub(crate) fn end_tick(&mut self, now: f64) {
        if now + 1e-12 >= self.next_sample {
            self.sample(now);
            let interval = self.tel.sample_interval().unwrap_or(f64::INFINITY);
            while self.next_sample <= now + 1e-12 {
                self.next_sample += interval;
            }
        }
        let next = now + self.poll_interval;
        if next <= self.end_time {
            self.queue.push(next, Event::Tick);
        }
    }

    /// Ends the run: the final audit and the report.
    pub(crate) fn finish(mut self, scheme: &str, policy: String) -> SimReport {
        debug_assert!(self.ledger.conserves_all(), "ledger must conserve funds");
        self.audit_check(self.end_time, "final");
        let mut audit_violations = Vec::new();
        let mut audit_checks = 0;
        if let Some(a) = self.audit {
            audit_checks = a.checks();
            audit_violations = a.into_violations();
        }
        audit_violations.extend(self.release_violations);
        let rows = (self.transactions.iter().map(|tx| tx.amount)).zip(&self.payments);
        SimReport {
            units_sent: self.units.len() as u64,
            final_mean_imbalance: self.ledger.mean_imbalance(),
            rebalance: self.rebalance.stats(),
            audit_checks,
            audit_violations,
            completion_delay_percentiles: self.tel.delay_percentiles("sim.completion_delay"),
            telemetry: self.tel.summarize(self.network_series),
            faults: self.faults.map(|faults| faults.stats),
            ..tally(scheme, policy, rows)
        }
    }
}

// ---------------------------------------------------------------------------
// The `SEC_CORE` codec. Any change to it is a format change and must bump
// `snapshot::FORMAT_VERSION`.

fn enc_event(e: &mut Enc, event: &Event) {
    let (tag, index) = match event {
        Event::Arrival(i) => (0, *i),
        Event::HopArrive { unit } => (1, *unit),
        Event::Settle { unit } => (2, *unit),
        Event::FaultExpire { unit } => (3, *unit),
        Event::Fault(ev) => {
            e.u8(4);
            return enc_fault_event(e, ev);
        }
        Event::Tick => return e.u8(5),
        Event::RebalanceCheck => return e.u8(6),
        Event::RebalanceApply { channel } => (7, channel.index()),
    };
    e.u8(tag);
    e.usize(index);
}

/// Decodes a queued event, bounds-checking the channel and node ids it
/// names. Unit indices are checked by the caller, which knows the number of
/// units sent. Tags 0 (arrival) and 1 (hop-arrive) are refused: no section
/// holds either (see [`Transport::encode`], part 3).
fn dec_event(d: &mut Dec, network: &Network) -> Result<Event, SnapshotError> {
    Ok(match d.u8()? {
        2 => Event::Settle { unit: d.usize()? },
        3 => Event::FaultExpire { unit: d.usize()? },
        4 => Event::Fault(dec_fault_event(d, network)?),
        5 => Event::Tick,
        6 => Event::RebalanceCheck,
        7 => Event::RebalanceApply {
            channel: ChannelId::from(dec_index(
                d,
                network.num_channels(),
                "rebalance of channel",
            )?),
        },
        other => return corrupt(format!("queued event tag {other}")),
    })
}

/// Writes what the run changed about a payment. A payment has a delay
/// exactly when it completed, so its status says whether one follows.
fn enc_payment(e: &mut Enc, p: &PaymentState) {
    debug_assert_eq!(p.delay.is_some(), p.status == PaymentStatus::Completed);
    e.i64(p.delivered.micros());
    e.i64(p.inflight.micros());
    snapshot::enc_status(e, p.status);
    if let Some(delay) = p.delay {
        e.f64(delay);
    }
    e.u32(p.sent);
}

/// Reads payment `i`'s record; its inputs are trace row `tx`. What it
/// delivered and holds in flight must be a split of the row's amount, and
/// a completed payment's delay must be finite and not negative.
fn dec_payment(d: &mut Dec, i: usize, tx: &Transaction) -> Result<PaymentState, SnapshotError> {
    let (delivered, inflight) = (d.i64()?, d.i64()?);
    let amount = tx.amount.micros();
    if delivered < 0 || inflight < 0 || delivered.checked_add(inflight).is_none_or(|v| v > amount) {
        return corrupt(format!(
            "payment {i} delivered {delivered} and holds {inflight} of {amount} micros"
        ));
    }
    let status = snapshot::dec_status(d)?;
    let delay = (status == PaymentStatus::Completed)
        .then(|| d.f64())
        .transpose()?;
    if let Some(t) = delay.filter(|t| !t.is_finite() || *t < 0.0) {
        return corrupt(format!("payment {i} completed with delay {t}"));
    }
    Ok(PaymentState {
        delivered: Amount::from_micros(delivered),
        inflight: Amount::from_micros(inflight),
        status,
        delay,
        sent: d.u32()?,
    })
}

fn enc_recovery(e: &mut Enc, r: &Recovery) {
    e.u32(r.failures);
    e.f64(r.not_before);
    e.seq(&r.blacklist, |e, &(c, until)| {
        e.usize(c.index());
        e.f64(until);
    });
}

/// Reads a payment's recovery record. A fresh one may send from `-∞`.
fn dec_recovery(d: &mut Dec, network: &Network) -> Result<Recovery, SnapshotError> {
    let (failures, not_before) = (d.u32()?, d.f64()?);
    if not_before.is_nan() || not_before == f64::INFINITY {
        return corrupt(format!("recovery not before {not_before}"));
    }
    let blacklist = dec_seq(d, |d| {
        let channel = dec_index(d, network.num_channels(), "blacklisted channel")?;
        Ok((ChannelId::from(channel), dec_time(d, "blacklist expiry")?))
    })?;
    Ok(Recovery {
        failures,
        not_before,
        blacklist,
    })
}

fn enc_unit(e: &mut Enc, u: &Unit) {
    e.usize(u.payment as usize);
    enc_path(e, &u.path);
    e.i64(u.amount.micros());
    let (tag, blamed) = match u.fault {
        Some(FailCause::Dropped(c)) => (1, c.0),
        Some(FailCause::Griefed(c)) => (2, c.0),
        // No unit is dealt another cause (see `Unit::fault`).
        _ => (0, 0),
    };
    e.u8(tag);
    e.u32(blamed);
    e.u32(u.locked);
}

fn dec_unit(d: &mut Dec, network: &Network, num_payments: usize) -> Result<Unit, SnapshotError> {
    let payment = dec_index(d, num_payments, "unit references payment")? as u32;
    let path = dec_path(d, network)?;
    let amount = Amount::from_micros(d.i64()?);
    let fault = match (d.u8()?, ChannelId(d.u32()?)) {
        (0, _) => None,
        (1, c) => Some(FailCause::Dropped(c)),
        (2, c) => Some(FailCause::Griefed(c)),
        (other, _) => return corrupt(format!("unit fault byte {other}")),
    };
    let locked = d.u32()?;
    if locked as usize > path.len() {
        return corrupt(format!("unit locks {locked} of {} hops", path.len()));
    }
    Ok(Unit {
        path,
        amount,
        payment,
        locked,
        fault,
    })
}

fn enc_sample(e: &mut Enc, s: &NetworkSample) {
    e.f64(s.t);
    e.f64(s.mean_imbalance);
    e.f64(s.total_inflight);
    e.u32(s.pending);
    e.u32(s.max_queue_depth);
}

impl Transport<'_> {
    /// Encodes the `SEC_CORE` section of a snapshot (SPSN v9): the run
    /// state that neither the inputs — the trace, the fault plan, the
    /// config — nor the fingerprint, the header or another stored field can
    /// say. The tick count is the header's progress. Integers are
    /// little-endian; `usize` travels as `u64`; a *seq* is a `u64` count
    /// followed by that many items; *json* is a length-prefixed UTF-8 JSON
    /// string. A part marked *when* is there exactly when the fingerprinted
    /// config has what it names. In order:
    ///
    /// 1. Ledger — four `i64` micro-amounts per channel of the network, in
    ///    channel order (`Ledger::export_channel`).
    /// 2. Event queue — seq of `(time: f64, seq: u64, event)` in pop order,
    ///    then `next_seq: u64`. An event is a tag byte and its argument:
    ///    2 settle, 3 fault-expire (unit index each), 4 fault (tag byte 0–3
    ///    for channel-down/up, node-down/up, then the `u32` id), 5 tick,
    ///    6 rebalance-check, 7 rebalance-apply (channel index). Pending
    ///    arrivals are not stored: they are the trace cursor (see
    ///    [`pop`](Self::pop)), which resume sets to the number of payments
    ///    (part 3), and they hold the seqs below `arrivals_end` (how many
    ///    transactions arrive by `end_time`). A channel's rebalance flag is
    ///    not stored either: it is set exactly while an apply for the
    ///    channel is queued. The decoder refuses tag 0 (arrival), tag 1
    ///    (hop-arrive: only the router-queued driver schedules one, and it
    ///    never checkpoints), any seq or `next_seq` below `arrivals_end`,
    ///    and any event naming a unit at or past `total` (part 4) or a
    ///    channel or node the network lacks.
    /// 3. Payments — seq of `delivered: i64, inflight: i64, status: u8`
    ///    (0 pending, 1 completed, 2 abandoned), then, only when completed,
    ///    `delay: f64` (seconds from arrival to completion), then `sent:
    ///    u32` (units sent, which numbers the next unit's fate). Record `i`
    ///    is payment `i`, whose inputs are trace row `i` and are not stored.
    ///    The pending list is not stored: it is the payments still pending,
    ///    when the scheme splits them (a tick prunes the others before it
    ///    reads the list, and no reader depends on its order). The decoder
    ///    refuses more records than arrive by `end_time`, a negative
    ///    `delivered` or `inflight` or a sum of the two above the row's
    ///    amount, and a delay that is not finite or is negative.
    /// 4. Units — a seq of the units still live (`locked > 0`) in index
    ///    order, each `index: usize, payment: usize`, path (seq of `u32`
    ///    node ids), `amount: i64`, fault (`u8` 0 none / 1 dropped / 2
    ///    griefed, then the blamed channel `u32`), `locked: u32` hops.
    ///    Every other slot is a settled or refunded unit: nothing reads one
    ///    past its `locked == 0`, so it is neither resident (its chunk of
    ///    the slab is released once every unit in it finished) nor stored.
    ///    On decode it is a tombstone in a chunk that holds a live unit, or
    ///    in the partly filled last chunk, and absent everywhere else. The
    ///    number ever sent, `total` (slab indices run `0..total`, and the
    ///    report counts them), is not stored: it is the sum of the
    ///    payments' `sent`.
    /// 5. `next_deadline: usize` (payments before it have had their
    ///    deadline enforced).
    /// 6. Faults, when the run has a fault plan — down-cause bytes
    ///    (length-prefixed), node-down seq of `bool`, stats json, then one
    ///    recovery record per payment of part 3: `failures: u32`,
    ///    `not_before: f64` and the blacklist, a seq of `(channel: usize,
    ///    until: f64)`. The decoder refuses a NaN or +∞ `not_before`, a
    ///    channel the network lacks and a non-finite expiry. Unit fates need
    ///    no generator state: each is a pure function of the plan's seed,
    ///    the payment and unit.
    /// 7. Audit state json, when auditing; release violations json.
    /// 8. Network samples — seq of `t, mean_imbalance, total_inflight: f64,
    ///    pending, max_queue_depth: u32`; `next_sample: f64`.
    /// 9. Congestion windows, when senders run one — seq of `src: u32,
    ///    dst: u32, window: f64`. A pair's outstanding count is not stored:
    ///    it is the pair's live units in part 4. The decoder refuses a node
    ///    the network lacks, a window outside `[1, 256]`, and a live unit
    ///    whose pair has no window.
    /// 10. Rebalancing totals — `transactions: u64, moved: i64, fees: i64`
    ///     (micro-units).
    fn encode(&self) -> Vec<u8> {
        debug_assert!(self.router.queues.is_empty(), "a router-queued checkpoint");
        let mut e = Enc::new();
        for i in 0..self.network.num_channels() {
            for v in self.ledger.export_channel(ChannelId::from(i)) {
                e.i64(v);
            }
        }
        e.seq(&self.queue.entries(), |e, &(t, seq, event)| {
            e.f64(t);
            e.u64(seq);
            enc_event(e, event);
        });
        e.u64(self.queue.next_seq());
        e.seq(&self.payments, enc_payment);
        let live: Vec<(usize, &Unit)> = self.units.iter_live().collect();
        e.seq(&live, |e, &(index, u)| {
            e.usize(index);
            enc_unit(e, u);
        });
        e.usize(self.next_deadline);
        if let Some(faults) = &self.faults {
            snapshot::enc_fault_state(&mut e, faults);
            for r in &self.recovery {
                enc_recovery(&mut e, r);
            }
        }
        if let Some(a) = &self.audit {
            snapshot::enc_json(&mut e, &a.export_state());
        }
        snapshot::enc_json(&mut e, &self.release_violations);
        e.seq(&self.network_series, enc_sample);
        e.f64(self.next_sample);
        if let Some(cc) = &self.congestion {
            e.seq(&cc.export_state(), |e, &(src, dst, window)| {
                e.u32(src.0);
                e.u32(dst.0);
                e.f64(window);
            });
        }
        e.u64(self.rebalance.transactions);
        e.i64(self.rebalance.moved.micros());
        e.i64(self.rebalance.fees.micros());
        e.into_bytes()
    }

    /// Restores a freshly built state at tick `ticks` (the snapshot's
    /// progress) from [`encode`](Self::encode)'s bytes, and rebuilds what
    /// they leave out. Every index is bounds-checked, so a damaged section
    /// is a [`SnapshotError`], never a panic later on.
    fn decode(&mut self, ticks: u64, bytes: &[u8]) -> Result<(), SnapshotError> {
        let network = self.network;
        let mut d = Dec::new(bytes);
        self.ticks = ticks;
        for i in 0..network.num_channels() {
            let raw = [d.i64()?, d.i64()?, d.i64()?, d.i64()?];
            self.ledger.restore_channel(ChannelId::from(i), raw);
        }
        let entries = dec_seq(&mut d, |d| {
            Ok((dec_time(d, "event")?, d.u64()?, dec_event(d, network)?))
        })?;
        let next_seq = d.u64()?;
        let num_payments = d.usize()?;
        if num_payments > self.arrivals_end {
            return corrupt(format!(
                "{num_payments} payments where {} arrive by the end",
                self.arrivals_end
            ));
        }
        self.payments = (0..num_payments)
            .map(|i| dec_payment(&mut d, i, self.row(i)))
            .collect::<Result<_, _>>()?;
        if self.split {
            self.pending = (0..num_payments)
                .filter(|&i| self.payments[i].status == PaymentStatus::Pending)
                .collect();
        }
        let num_units = (self.payments.iter()).map(|p| p.sent as usize).sum();
        let mut next_index = 0;
        let live = dec_seq(&mut d, |d| {
            let index = dec_index(d, num_units, "live unit at index")?;
            if index < next_index {
                return corrupt(format!("live unit {index} out of order"));
            }
            next_index = index + 1;
            let unit = dec_unit(d, network, num_payments)?;
            if !unit.live() {
                return corrupt(format!("stored unit {index} holds no lock"));
            }
            Ok((index, unit))
        })?;
        self.restore_queue(entries, next_seq, num_units)?;
        self.next_arrival = num_payments;
        self.next_deadline = dec_index(&mut d, num_payments + 1, "deadline cursor at payment")?;
        if let Some(faults) = self.faults.as_mut() {
            snapshot::dec_fault_state(&mut d, faults)?;
            self.recovery = (0..num_payments)
                .map(|_| dec_recovery(&mut d, network))
                .collect::<Result<_, _>>()?;
        }
        if self.audit.is_some() {
            self.audit = Some(LedgerAudit::from_state(snapshot::dec_json(&mut d)?));
        }
        self.release_violations = snapshot::dec_json(&mut d)?;
        self.units.restore(num_units, live, network)?;
        self.network_series = d.seq(|d| {
            Ok(NetworkSample {
                t: d.f64()?,
                mean_imbalance: d.f64()?,
                total_inflight: d.f64()?,
                pending: d.u32()?,
                max_queue_depth: d.u32()?,
            })
        })?;
        self.next_sample = d.f64()?;
        if let Some(cc) = self.congestion.as_mut() {
            let num_nodes = network.num_nodes();
            let node = |d: &mut Dec| match d.u32()? {
                n if (n as usize) < num_nodes => Ok(NodeId(n)),
                n => corrupt(format!("congestion window names node {n}")),
            };
            let windows = dec_seq(&mut d, |d| Ok((node(d)?, node(d)?, d.f64()?)))?;
            let rows = self.transactions;
            let live = (self.units.iter_live())
                .map(|(_, u)| (rows[u.payment()].src, rows[u.payment()].dst));
            cc.restore_state(&windows, live).or_else(corrupt)?;
        }
        self.rebalance = RebalanceTotals {
            transactions: d.u64()?,
            moved: Amount::from_micros(d.i64()?),
            fees: Amount::from_micros(d.i64()?),
        };
        d.expect_end()?;
        Ok(())
    }

    /// Restores part 2: every entry goes back on the queue with its
    /// original sequence number, which restores the exact drain order, and
    /// each queued rebalance apply sets its channel's flag. Refuses what
    /// `encode` cannot have written (see its part 2).
    fn restore_queue(
        &mut self,
        entries: Vec<(f64, u64, Event)>,
        next_seq: u64,
        num_units: usize,
    ) -> Result<(), SnapshotError> {
        let end = self.arrivals_end as u64;
        for (t, seq, event) in entries {
            match event {
                Event::Settle { unit } | Event::FaultExpire { unit } if unit >= num_units => {
                    return corrupt(format!("queued event names unit {unit} of {num_units}"));
                }
                _ if seq < end => {
                    return corrupt(format!("queued event seq {seq} within the {end} arrivals"));
                }
                Event::RebalanceApply { channel } => {
                    self.rebalance_pending[channel.index()] = true;
                    self.queue.push_with_seq(t, seq, event)
                }
                event => self.queue.push_with_seq(t, seq, event),
            }
        }
        if next_seq < end {
            return corrupt(format!("next seq {next_seq} within the {end} arrivals"));
        }
        self.queue.set_next_seq(next_seq);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::PaymentId;

    const CHUNK: usize = UnitSlab::CHUNK;

    /// A two-node network and its one-hop path.
    fn one_hop() -> (Network, Arc<Path>) {
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(1_000))
            .unwrap();
        let path = Arc::new(Path::new(&g, vec![NodeId(0), NodeId(1)]).unwrap());
        (g, path)
    }

    fn unit(path: &Arc<Path>, payment: usize) -> Unit {
        Unit {
            path: Arc::clone(path),
            amount: Amount::from_whole(1),
            payment: payment as u32,
            locked: 1,
            fault: None,
        }
    }

    /// The slab holds the units in flight, thousands at a time at the
    /// paper's ISP rate, so the record's size is still a memory budget.
    #[test]
    fn unit_record_stays_within_32_bytes() {
        assert!(std::mem::size_of::<Unit>() <= 32);
    }

    #[test]
    fn unit_slab_indexes_across_chunk_boundaries() {
        let (_, path) = one_hop();
        let mut slab = UnitSlab::default();
        assert_eq!(slab.len(), 0);
        let n = 2 * CHUNK + 3;
        for i in 0..n {
            assert_eq!(slab.push(unit(&path, i)), i);
        }
        assert_eq!(slab.len(), n);
        assert!((0..n).all(|i| slab[i].payment() == i));
        assert!(slab
            .iter_live()
            .map(|(i, u)| (i, u.payment()))
            .eq((0..n).map(|i| (i, i))));
        slab.finish(CHUNK);
        assert!(!slab.live(CHUNK) && slab.live(CHUNK - 1) && slab.live(CHUNK + 1));
        assert!(slab
            .iter_live()
            .map(|(i, _)| i)
            .eq((0..n).filter(|&i| i != CHUNK)));
        assert!(!slab.live(n), "an index not yet handed out");
    }

    #[test]
    fn finishing_in_send_order_holds_only_the_window() {
        let (_, path) = one_hop();
        for lag in [1, 2, 100, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5] {
            let mut slab = UnitSlab::default();
            for i in 0..8 * CHUNK + lag {
                // At most `lag` units in flight when the next is sent.
                if i >= lag {
                    slab.finish(i - lag);
                }
                assert_eq!(slab.push(unit(&path, i)), i);
            }
            let bound = lag.div_ceil(CHUNK) + 1;
            assert!(
                slab.peak_chunks <= bound,
                "lag {lag}: held {} chunks, bound {bound}",
                slab.peak_chunks
            );
        }
    }

    #[test]
    fn one_long_lived_unit_pins_only_its_own_chunk() {
        let (_, path) = one_hop();
        let mut slab = UnitSlab::default();
        let lag = 16;
        let n = 6 * CHUNK + 7;
        for i in 0..n {
            // Unit 0 never finishes; every other unit lives `lag` sends.
            if i > lag {
                slab.finish(i - lag);
            }
            slab.push(unit(&path, i));
        }
        assert!(slab.live(0));
        assert!(slab.chunks[0].capacity() > 0, "the pinned chunk is held");
        assert!((1..5).all(|k| slab.chunks[k].capacity() == 0), "released");
        assert!(slab.peak_chunks <= 1 + lag.div_ceil(CHUNK) + 1);
        assert!(slab.held_chunks() <= 3);
        // A released index reads as finished, and nothing hands it out
        // again: the next index is the next one in send order.
        assert!(!slab.live(1) && !slab.live(CHUNK) && !slab.live(3 * CHUNK + 5));
        assert_eq!(slab.push(unit(&path, n)), n);
        let live: Vec<usize> = slab.iter_live().map(|(i, _)| i).collect();
        assert_eq!(live[0], 0);
        assert_eq!(live[1..], ((n - lag)..=n).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn a_drained_chunk_stays_readable_until_the_next_push() {
        let (_, path) = one_hop();
        let mut slab = UnitSlab::default();
        for i in 0..=CHUNK {
            slab.push(unit(&path, i));
        }
        for i in 0..CHUNK {
            slab.finish(i);
        }
        // What the caller of a settle reads after the settle finished it.
        assert_eq!(slab[CHUNK - 1].payment(), CHUNK - 1);
        assert_eq!(slab.held_chunks(), 2);
        slab.push(unit(&path, CHUNK + 1));
        assert_eq!(slab.held_chunks(), 2, "chunk 0 became the spare");
        assert!(!slab.live(CHUNK - 1));
        for i in CHUNK + 2..2 * CHUNK + 1 {
            slab.push(unit(&path, i));
        }
        assert_eq!(slab.held_chunks(), 2, "the spare became chunk 2");
        assert_eq!(slab.peak_chunks, 2);
    }

    #[test]
    fn restore_allocates_only_chunks_holding_a_live_unit() {
        let (g, path) = one_hop();
        let total = 5 * CHUNK + 11;
        let live_at = [5, 3 * CHUNK + 7, 3 * CHUNK + 8];
        let mut slab = UnitSlab::default();
        let live = live_at.iter().map(|&i| (i, unit(&path, i))).collect();
        slab.restore(total, live, &g).unwrap();
        // Chunks 0 and 3 hold live units, chunk 5 is the partly filled tail.
        assert_eq!(slab.held_chunks(), 3);
        assert_eq!(slab.peak_chunks, 3);
        assert!([0, 3, 5].iter().all(|&k| slab.chunks[k].capacity() > 0));
        assert_eq!(slab.len(), total);
        assert!(slab.iter_live().map(|(i, _)| i).eq(live_at));
        assert!(!slab.live(4) && !slab.live(CHUNK + 1) && !slab.live(total - 1));
        assert_eq!(slab.push(unit(&path, total)), total);
        assert!(slab.live(total));

        // Nothing live and no partial chunk: nothing to allocate.
        let mut empty = UnitSlab::default();
        empty.restore(4 * CHUNK, Vec::new(), &g).unwrap();
        assert_eq!(empty.held_chunks(), 0);
        assert_eq!(empty.push(unit(&path, 0)), 4 * CHUNK);
    }

    // -- the arrival cursor -------------------------------------------------

    fn arrival(id: u64, at: f64) -> Transaction {
        Transaction {
            id: PaymentId(id),
            src: NodeId(0),
            dst: NodeId(1),
            amount: Amount::from_whole(1),
            arrival: at,
        }
    }

    const END: f64 = 3.0;
    const POLL: f64 = 0.1;
    const DELTA: f64 = 0.5;

    fn transport<'a>(g: &'a Network, txs: &'a [Transaction], tel: &'a Telemetry) -> Transport<'a> {
        Transport::new(
            g,
            txs,
            tel,
            [END, POLL, 5.0],
            Amount::from_whole(10),
            true,
            None,
        )
    }

    /// The old way: every arrival inside the window queued up front, in
    /// trace order, before the first tick.
    fn oracle(txs: &[Transaction]) -> EventQueue<Event> {
        let mut q = EventQueue::new();
        for (i, tx) in txs.iter().enumerate() {
            if tx.arrival <= END {
                q.push(tx.arrival, Event::Arrival(i));
            }
        }
        q.push(POLL, Event::Tick);
        q
    }

    fn event_bytes(event: &Event) -> Vec<u8> {
        let mut e = Enc::new();
        enc_event(&mut e, event);
        e.into_bytes()
    }

    /// Pops `t` and `oracle` in lockstep for up to `steps` events, and
    /// reacts to each identically in both: an arrival sends a unit that
    /// settles Δ later, a settle finishes it, a tick queues the next.
    /// Returns `false` once both are empty.
    fn lockstep(
        t: &mut Transport,
        oracle: &mut EventQueue<Event>,
        path: &Arc<Path>,
        steps: usize,
    ) -> bool {
        for _ in 0..steps {
            let (got, want) = (t.pop(), oracle.pop());
            let (Some((now, event)), Some((want_now, want_event))) = (got, want) else {
                assert!(
                    t.pop().is_none() && oracle.pop().is_none(),
                    "one side ran dry"
                );
                return false;
            };
            assert_eq!(
                (now.to_bits(), event_bytes(&event)),
                (want_now.to_bits(), event_bytes(&want_event)),
                "diverged at {now}"
            );
            match event {
                Event::Arrival(i) => {
                    t.arrive(i, now);
                    let unit = t.send(i, Arc::clone(path), t.row(i).amount, 1, now);
                    t.queue.push(now + DELTA, Event::Settle { unit });
                    oracle.push(now + DELTA, Event::Settle { unit });
                }
                Event::Settle { unit } => t.units.finish(unit),
                Event::Tick if now + POLL <= END => {
                    t.queue.push(now + POLL, Event::Tick);
                    oracle.push(now + POLL, Event::Tick);
                }
                _ => {}
            }
        }
        true
    }

    /// Arrivals at 0, tied with ticks and with settles at the same `f64`
    /// (computed by the same additions), several at one instant, and two
    /// past the end of the window.
    fn tied_trace() -> Vec<Transaction> {
        let ticks: Vec<f64> = std::iter::successors(Some(POLL), |t| Some(t + POLL))
            .take_while(|&t| t <= END)
            .collect();
        let mut times = vec![0.0, 0.0, 0.0 + DELTA, ticks[0], ticks[2], ticks[2]];
        times.extend([ticks[4], ticks[4] + DELTA, ticks[2] + DELTA, 1.234, 2.5]);
        times.extend([ticks[ticks.len() - 1], END, END + 0.1, END + 7.0]);
        times.sort_by(f64::total_cmp);
        (times.into_iter().enumerate())
            .map(|(i, t)| arrival(i as u64, t))
            .collect()
    }

    #[test]
    fn the_cursor_pops_what_one_queue_holding_every_arrival_pops() {
        let (g, path) = one_hop();
        let tel = Telemetry::disabled();
        let trace = tied_trace();
        assert!(
            trace.iter().any(|tx| tx.arrival == 0.5),
            "a tick/settle tie"
        );
        for txs in [&trace[..], &[]] {
            let mut t = transport(&g, txs, &tel);
            t.seed(None, false);
            let mut oracle = oracle(txs);
            assert!(!lockstep(&mut t, &mut oracle, &path, usize::MAX));
            assert_eq!(
                t.payments.len(),
                txs.iter().filter(|tx| tx.arrival <= END).count()
            );
        }
    }

    #[test]
    fn the_cursor_survives_an_encode_decode_round_trip_mid_run() {
        let (g, path) = one_hop();
        let tel = Telemetry::disabled();
        let txs = tied_trace();
        for stop in [0, 1, 3, 9, 17, 40] {
            let mut t = transport(&g, &txs, &tel);
            t.seed(None, false);
            let mut oracle = oracle(&txs);
            lockstep(&mut t, &mut oracle, &path, stop);
            let bytes = t.encode();
            let mut resumed = transport(&g, &txs, &tel);
            resumed.decode(t.ticks, &bytes).unwrap();
            assert_eq!(resumed.encode(), bytes, "stop {stop}: re-encoding");
            assert!(!lockstep(&mut resumed, &mut oracle, &path, usize::MAX));
        }
    }

    #[test]
    fn payments_past_the_arrivals_window_are_corrupt() {
        let (g, path) = one_hop();
        let tel = Telemetry::disabled();
        let txs = tied_trace();
        let mut t = transport(&g, &txs, &tel);
        t.seed(None, false);
        lockstep(&mut t, &mut oracle(&txs), &path, 17);
        assert!(t.payments.len() > 2);
        match transport(&g, &txs[..2], &tel).decode(t.ticks, &t.encode()) {
            Err(SnapshotError::Corrupt { what }) => assert!(what.contains("arrive by the end")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    // -- what resume derives ------------------------------------------------

    thread_local! {
        /// What [`check_derived`] has compared on this thread, summed over
        /// checkpoints: the checkpoints, pending payments, rebalance flags
        /// set and units outstanding. `None` while no test asks for it.
        static DERIVED_CHECKS: std::cell::Cell<Option<[usize; 4]>> =
            const { std::cell::Cell::new(None) };
    }

    /// Called by every checkpoint of a test build: when the running test
    /// asked for it, resumes the snapshot just written into a fresh
    /// transport and compares each value a v9 snapshot leaves out with the
    /// live one it replaces.
    pub(super) fn check_derived(live: &Transport, ck: &CheckpointSpec, fingerprint: u32) {
        let Some([checkpoints, waiting, flags, outstanding]) = DERIVED_CHECKS.get() else {
            return;
        };
        assert!(live.faults.is_none(), "a fault plan is not rebuilt here");
        let tel = if live.tel.is_enabled() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let timing = [live.end_time, live.poll_interval, live.window];
        let mut fresh = Transport::new(
            live.network,
            live.transactions,
            &tel,
            timing,
            live.mtu,
            live.split,
            None,
        );
        fresh.audit = live.audit.as_ref().map(|_| LedgerAudit::new(&fresh.ledger));
        fresh.congestion = live
            .congestion
            .as_ref()
            .map(|_| CongestionControl::default());
        let path = ck.dir.join(format!("snap-{:012}.spsn", live.ticks));
        fresh.load(&path, fingerprint).unwrap();
        let at = live.ticks;
        assert_eq!(fresh.ticks, at);
        assert_eq!(fresh.units.len(), live.units.len(), "tick {at}: units sent");
        let mut pending: Vec<usize> = (live.pending.iter().copied())
            .filter(|&i| live.payments[i].status == PaymentStatus::Pending)
            .collect();
        pending.sort_unstable();
        assert_eq!(fresh.pending, pending, "tick {at}: pending payments");
        assert_eq!(fresh.rebalance_pending, live.rebalance_pending, "tick {at}");
        let mut in_flight = 0;
        if let (Some(live_cc), Some(fresh_cc)) = (&live.congestion, &fresh.congestion) {
            let pairs = live_cc.export_state();
            assert_eq!(fresh_cc.export_state(), pairs, "tick {at}: windows");
            for (src, dst, _) in pairs {
                let units = live_cc.outstanding(src, dst);
                assert_eq!(fresh_cc.outstanding(src, dst), units, "tick {at}");
                in_flight += units as usize;
            }
        }
        let set = live.rebalance_pending.iter().filter(|&&f| f).count();
        DERIVED_CHECKS.set(Some([
            checkpoints + 1,
            waiting + pending.len(),
            flags + set,
            outstanding + in_flight,
        ]));
    }

    /// Runs `scheme` over `config` checkpointing every `every` ticks with
    /// [`check_derived`] on, and returns what it compared.
    fn derived_checks(
        network: &Network,
        txs: &[Transaction],
        scheme: &mut dyn RoutingScheme,
        config: &crate::SimConfig,
        every: u64,
        tag: &str,
    ) -> [usize; 4] {
        let dir = std::env::temp_dir().join(format!("spsn-derived-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DERIVED_CHECKS.set(Some([0; 4]));
        let spec = CheckpointSpec::new(every, &dir);
        crate::engine::run_checkpointed(network, txs, scheme, config, &spec).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        DERIVED_CHECKS.take().unwrap_or_default()
    }

    fn isp_scenario(
        capacity: i64,
        payments: usize,
        span: f64,
        seed: u64,
    ) -> (Network, Vec<Transaction>) {
        let network = spider_topology::isp_topology(Amount::from_whole(capacity));
        let mut trace =
            spider_workload::TraceConfig::isp_default(network.num_nodes(), payments, span);
        trace.seed = seed;
        (
            network,
            spider_workload::generate(&trace, &spider_workload::isp_sizes()),
        )
    }

    /// At every checkpoint of a run with congestion control and rebalancing
    /// on, and of runs whose payments mostly wait parked, the pending set,
    /// the rebalance flags, each pair's outstanding units, the tick count
    /// and the units sent that resume rebuilds equal the live ones.
    #[test]
    fn every_derived_value_equals_the_live_one() {
        use spider_routing::{ShortestPathScheme, WaterfillingScheme};
        let (network, txs) = isp_scenario(100, 250, 15.0, 7);
        let mut config = crate::SimConfig::new(18.0);
        config.audit = true;
        config.telemetry = Telemetry::enabled();
        config.congestion = true;
        config.rebalance = true;
        let mut scheme = WaterfillingScheme::new();
        let [checkpoints, waiting, flags, outstanding] =
            derived_checks(&network, &txs, &mut scheme, &config, 15, "cc-reb");
        assert_eq!(checkpoints, 12);
        assert!(
            waiting > 0 && flags > 0 && outstanding > 0,
            "nothing to derive"
        );

        // `resume_with_parked_payments_is_byte_identical`'s inputs.
        let (network, txs) = isp_scenario(100, 400, 10.0, 29);
        let mut config = crate::SimConfig::new(12.0);
        config.audit = true;
        config.telemetry = Telemetry::enabled();
        let mut scheme = ShortestPathScheme::new();
        let [checkpoints, waiting, ..] =
            derived_checks(&network, &txs, &mut scheme, &config, 10, "sp");
        // About a hundred payments wait at each snapshot.
        assert_eq!(checkpoints, 12);
        assert!(waiting >= 40 * 12, "{waiting} payments waiting in all");
        config.rebalance = true;
        let mut scheme = WaterfillingScheme::new();
        let [checkpoints, waiting, flags, _] =
            derived_checks(&network, &txs, &mut scheme, &config, 10, "wf");
        assert_eq!(checkpoints, 12);
        assert!(
            waiting >= 40 * 12 && flags > 0,
            "{waiting} waiting, {flags} flags"
        );
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn an_unsorted_trace_is_refused() {
        let (g, _) = one_hop();
        let tel = Telemetry::disabled();
        let txs = [arrival(0, 1.0), arrival(1, 0.5)];
        transport(&g, &txs, &tel);
    }
}
