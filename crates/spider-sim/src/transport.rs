//! The transport's run state and the lifecycle of a transaction unit (§4.1).
//!
//! The paper describes one transport: a payment is split into MTU-bounded
//! units, each unit locks funds hop by hop, and the locks are either
//! settled (the receiver released the key) or refunded (deadline, fault,
//! queue overflow). The only thing that varies is where a unit waits when a
//! channel is dry — at the sender (§6.1) or in a router queue (Fig. 3,
//! §4.2). [`Transport`] owns everything both placements share: the ledger,
//! the event queue, payments, the unit slab, timers, the fault runtime, the
//! telemetry series and counters, and the transitions over them (`arrive`,
//! `send`, `settle`, `refund`, `abandon`, fault bookkeeping, sampling, the
//! report, and the [`SEC_CORE`](snapshot::SEC_CORE) codec, which only the
//! source-queued driver uses). The drivers in [`crate::engine`] decide
//! *when* a transition fires, never *what* it does.
//!
//! The arithmetic under a transition is not written here: it is shared,
//! one copy each, with the sharded engine's handlers (which differ in when
//! and where a transition runs, ROADMAP item 4) — `Ledger::lock_walk` /
//! `release_walk` and [`FeeSchedule::hop_amounts`] for the funds,
//! [`unit_count`] for the split, the event table's kind → counter column
//! behind `Telemetry::emit` for the counters, `FaultConfig::unit_fate`
//! for a unit's fate, [`FaultEvent::trace`], `RetryPolicy::backoff`,
//! `RebalancePolicy::apply`, `CongestionConfig::{grown, shrunk}`,
//! `Ledger::relative_imbalance` and [`tokens`] for what is reported.
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
//! would pop. Payment records are still kept for the whole run: the report
//! and `SEC_CORE` read every one.

use crate::audit::{AuditViolation, LedgerAudit};
use crate::congestion::CongestionControl;
use crate::engine::QueueStats;
use crate::events::{EventQueue, Time};
use crate::faults::{Blacklist, FaultEvent, FaultPlan, FaultState, FaultView};
use crate::ledger::{tokens, HopAmounts, Ledger, LedgerView, Release};
use crate::metrics::{tally, SimReport};
use crate::payment::{unit_count, PaymentState, PaymentStatus};
use crate::rebalancer::RebalanceStats;
use crate::scheduler::SchedulePolicy;
use crate::snapshot::{
    self, corrupt, dec_fault_event, dec_index, dec_path, dec_present, dec_seq, dec_time,
    enc_fault_event, enc_path, CheckpointSpec, Snapshot, SnapshotError,
};
use spider_core::{
    Amount, BalanceView, ChannelId, CoreError, Dec, Enc, Network, NodeId, Path, PaymentId,
};
use spider_routing::FeeSchedule;
use spider_telemetry::{NetworkSample, Telemetry, TraceEvent};
use spider_workload::Transaction;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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
    /// Routers inspect channel skew (cadence: `RebalancePolicy::check_interval`).
    RebalanceCheck,
    /// A submitted on-chain rebalancing transaction confirms.
    RebalanceApply {
        channel: ChannelId,
    },
}

/// How a unit was marked to fail in flight, with the blamed channel.
#[derive(Clone, Copy, Debug)]
pub(crate) enum UnitFault {
    /// Dropped mid-path by the per-unit loss process.
    Dropped(ChannelId),
    /// HTLC griefed at the blamed hop: funds pinned until the hold expires.
    Griefed(ChannelId),
}

/// One transaction unit, live or just finished. Units live in a slab whose
/// chunks span the units in flight — at the paper's ISP rate that is
/// thousands of records at any moment, so the record is kept to 32 bytes —
/// and fault events find the units to refund by scanning its live ones.
pub(crate) struct Unit {
    pub(crate) path: Arc<Path>,
    /// The delivered amount. Under fees each hop locks this plus the
    /// downstream fees, a pure function of `(path, amount)` that is
    /// recomputed from the schedule rather than stored per unit.
    pub(crate) amount: Amount,
    payment: u32,
    /// Hops `0..locked` hold this unit's funds; a router-queued unit sits
    /// at `path.nodes()[locked]`. Zero once settled or refunded (only
    /// [`UnitSlab::finish`] writes the zero), which guards against a
    /// double release when a refund races a scheduled settle.
    pub(crate) locked: u32,
    pub(crate) fault: Option<UnitFault>,
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
///   [`push`](Self::push), because the transition that finished a unit
///   still reads it (`refund` → `emit_refunded`, `expire`).
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

/// Live fault-injection state: the channel/node mask, the sender blacklist,
/// and per-payment retry accounting (vectors grow with arrivals).
pub(crate) struct FaultRuntime {
    pub(crate) state: FaultState,
    pub(crate) blacklist: Blacklist,
    pub(crate) fail_count: Vec<u32>,
    pub(crate) not_before: Vec<f64>,
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
    deadline: f64,
    mtu: Amount,
    /// Routing fees every unit pays (never a free schedule).
    pub(crate) fees: Option<&'a FeeSchedule>,
    /// Payments are sent unit by unit until their deadline — everything
    /// but an atomic scheme, which delivers a payment whole at arrival or
    /// fails it.
    split: bool,
    pub(crate) ledger: Ledger,
    /// Every pending event but the arrivals (see [`pop`](Self::pop)).
    pub(crate) queue: EventQueue<Event>,
    /// The trace, sorted by arrival. Transactions `next_arrival..
    /// arrivals_end` have yet to arrive; those past `arrivals_end` arrive
    /// after the window and never do. Arrival `i` pops as if it had been
    /// pushed at `(tx.arrival, seq i)`, which is what the queue once held.
    transactions: &'a [Transaction],
    next_arrival: usize,
    arrivals_end: usize,
    pub(crate) payments: Vec<PaymentState>,
    /// Payments that may still have value to send, plus stale entries that
    /// [`pending_in_order`](Self::pending_in_order) weeds out.
    pending: Vec<usize>,
    pub(crate) units: UnitSlab,
    /// Payments `..next_deadline` have had their deadline enforced. Every
    /// payment gets the same window, so deadlines pass in arrival order
    /// and a cursor over the slab is all the bookkeeping they need.
    next_deadline: usize,
    /// Retry backoffs as a `(time, payment)` min-heap.
    retries: BinaryHeap<Reverse<(Time, usize)>>,
    pub(crate) faults: Option<FaultRuntime>,
    pub(crate) audit: Option<LedgerAudit>,
    /// Refused over-releases (double settle/refund), surfaced in the report
    /// even when periodic auditing is off.
    pub(crate) release_violations: Vec<AuditViolation>,
    routing_fees_paid: Amount,
    units_sent: u64,
    /// Scheduler ticks processed so far (checkpoint cadence).
    ticks: u64,
    network_series: Vec<NetworkSample>,
    /// Channel samples piggyback on ticks at this cadence; no events of
    /// their own are queued, so `(time, sequence)` ordering is the same
    /// with telemetry on or off.
    next_sample: f64,
    pub(crate) congestion: Option<CongestionControl>,
    pub(crate) rebalance_pending: Vec<bool>,
    pub(crate) rebalance_stats: RebalanceStats,
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
        [end_time, poll_interval, deadline]: [f64; 3],
        mtu: Amount,
        split: bool,
        plan: Option<&FaultPlan>,
    ) -> Self {
        assert!(poll_interval > 0.0 && deadline > 0.0);
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
            deadline,
            mtu,
            fees: None,
            split,
            ledger: Ledger::new(network),
            queue: EventQueue::new(),
            transactions,
            next_arrival: 0,
            arrivals_end: transactions.partition_point(|tx| tx.arrival <= end_time),
            payments: Vec::new(),
            pending: Vec::new(),
            units: UnitSlab::default(),
            next_deadline: 0,
            retries: BinaryHeap::new(),
            faults: plan.map(|plan| FaultRuntime {
                state: FaultState::new(plan, network),
                blacklist: Blacklist::new(network.num_channels()),
                fail_count: Vec::new(),
                not_before: Vec::new(),
            }),
            audit: None,
            release_violations: Vec::new(),
            routing_fees_paid: Amount::ZERO,
            units_sent: 0,
            ticks: 0,
            network_series: Vec::new(),
            next_sample: tel.sample_interval().unwrap_or(f64::INFINITY),
            congestion: None,
            rebalance_pending: vec![false; network.num_channels()],
            rebalance_stats: RebalanceStats::default(),
            router: RouterQueues::default(),
        }
    }

    /// Fresh start: numbers the arrivals inside the window `0..k` (the
    /// cursor pops them, see [`pop`](Self::pop)), then queues the first
    /// tick, the first rebalance check when routers rebalance, and the
    /// fault schedule behind them. (A resumed run restores the event queue
    /// and the cursor from the snapshot instead.)
    pub(crate) fn seed(&mut self, plan: Option<&FaultPlan>, first_rebalance_check: Option<f64>) {
        self.queue.set_next_seq(self.arrivals_end as u64);
        self.queue.push(self.poll_interval, Event::Tick);
        if let Some(at) = first_rebalance_check {
            self.queue.push(at, Event::RebalanceCheck);
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
        snap.check(snapshot::ENGINE_SEQ, fingerprint)?;
        self.decode(snap.section(snapshot::SEC_CORE)?)?;
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
        let Some(ck) = ckpt.filter(|ck| self.ticks.is_multiple_of(ck.every)) else {
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
        let engine = snapshot::ENGINE_SEQ;
        snapshot::write_snapshot(&ck.dir, engine, fingerprint, self.ticks, &sections)?;
        Ok(())
    }

    /// Calls `route` with the balances a sender routes against: the live
    /// ledger, with downed and blacklisted channels reading as empty under
    /// fault injection.
    pub(crate) fn with_sender_view<R>(
        &self,
        now: f64,
        route: impl FnOnce(&dyn BalanceView) -> R,
    ) -> R {
        let view = LedgerView {
            network: self.network,
            ledger: &self.ledger,
        };
        match &self.faults {
            Some(fr) => route(&FaultView {
                inner: &view,
                faults: &fr.state,
                blacklist: &fr.blacklist,
                now,
            }),
            None => route(&view),
        }
    }

    // -- payment and unit transitions ---------------------------------------

    /// A payment enters the system.
    pub(crate) fn arrive(&mut self, tx: &Transaction, now: f64) -> usize {
        let idx = self.payments.len();
        let deadline = tx.arrival + self.deadline;
        // What lets `fire_timers` walk deadlines with a cursor.
        debug_assert!(self.payments.last().is_none_or(|p| p.deadline <= deadline));
        self.payments.push(PaymentState {
            id: tx.id,
            src: tx.src,
            dst: tx.dst,
            amount: tx.amount,
            arrival: tx.arrival,
            deadline,
            delivered: Amount::ZERO,
            inflight: Amount::ZERO,
            status: PaymentStatus::Pending,
            completed_at: None,
        });
        if let Some(fr) = self.faults.as_mut() {
            fr.fail_count.push(0);
            fr.not_before.push(f64::NEG_INFINITY);
        }
        self.tel.emit(|| TraceEvent::PaymentArrived {
            t: now,
            payment: tx.id.0,
            src: tx.src.0,
            dst: tx.dst.0,
            amount: tokens(tx.amount),
        });
        if self.split {
            self.tel.emit(|| TraceEvent::PaymentSplit {
                t: now,
                payment: tx.id.0,
                units: unit_count(tx.amount, self.mtu),
            });
            self.pending.push(idx);
        }
        idx
    }

    /// Records a unit whose first `locked` hops the caller has just locked
    /// in the ledger, and returns its slab index.
    pub(crate) fn send(
        &mut self,
        idx: usize,
        path: Arc<Path>,
        amount: Amount,
        locked: usize,
        now: f64,
    ) -> usize {
        let p = &mut self.payments[idx];
        p.inflight = p.inflight.saturating_add(amount);
        self.units_sent += 1;
        self.tel.emit(|| TraceEvent::UnitSent {
            t: now,
            payment: p.id.0,
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
        let per_hop = (self.fees).and_then(|fees| fees.hop_amounts(&u.path, u.amount));
        let amounts = HopAmounts::of(u.amount, per_hop.as_deref());
        let res = (self.ledger).release_walk(
            self.network,
            &u.path,
            u.path.len(),
            amounts,
            Release::Settle,
        );
        let (amount, payment) = (u.amount, u.payment());
        self.units.finish(ui);
        let p = &mut self.payments[payment];
        if let Err(e) = res {
            return record_release(&mut self.release_violations, now, "settle", &e);
        }
        // The sender locked `per_hop[0]` and the receiver was paid `amount`.
        let fee = per_hop.map_or(Amount::ZERO, |a| a[0].saturating_sub(amount));
        self.routing_fees_paid = self.routing_fees_paid.saturating_add(fee);
        p.inflight = p.inflight.saturating_sub(amount);
        p.delivered = p.delivered.saturating_add(amount);
        let pid = p.id.0;
        self.tel.emit(|| TraceEvent::UnitSettled {
            t: now,
            payment: pid,
            amount: tokens(amount),
        });
        if p.status == PaymentStatus::Pending && p.fully_delivered() {
            p.status = PaymentStatus::Completed;
            p.completed_at = Some(now);
            let delay = now - p.arrival;
            self.tel.emit(|| TraceEvent::PaymentCompleted {
                t: now,
                payment: pid,
                delay,
            });
        }
    }

    /// Releases the unit's locked prefix back to each hop's sender and
    /// returns the value to the payment's "remaining". `false` (with a
    /// release violation recorded under `cause`) if the ledger refuses.
    fn unlock(&mut self, ui: usize, now: f64, cause: &str) -> bool {
        let u = &self.units[ui];
        let per_hop = (self.fees).and_then(|fees| fees.hop_amounts(&u.path, u.amount));
        let amounts = HopAmounts::of(u.amount, per_hop.as_deref());
        // A router-queued unit holds only the prefix it has travelled.
        let locked = u.locked as usize;
        let res =
            (self.ledger).release_walk(self.network, &u.path, locked, amounts, Release::Refund);
        let (amount, payment) = (u.amount, u.payment());
        self.units.finish(ui);
        match res {
            Ok(()) => {
                let p = &mut self.payments[payment];
                p.inflight = p.inflight.saturating_sub(amount);
                true
            }
            Err(e) => {
                record_release(&mut self.release_violations, now, cause, &e);
                false
            }
        }
    }

    fn emit_refunded(&self, ui: usize, now: f64) {
        let u = &self.units[ui];
        self.tel.emit(|| TraceEvent::UnitRefunded {
            t: now,
            payment: self.payments[u.payment as usize].id.0,
            amount: tokens(u.amount),
        });
    }

    /// Refunds a live unit (see [`unlock`](Self::unlock)) and records it.
    pub(crate) fn refund(&mut self, ui: usize, now: f64, cause: &str) -> bool {
        let ok = self.unlock(ui, now, cause);
        if ok {
            self.emit_refunded(ui, now);
        }
        ok
    }

    /// A dropped or griefed unit's failure reaches the sender: refunds it
    /// and returns the blamed channel.
    pub(crate) fn expire(&mut self, ui: usize, fault: UnitFault, now: f64) -> Option<ChannelId> {
        if !self.unlock(ui, now, "fault-expire") {
            return None;
        }
        let pid = self.payments[self.units[ui].payment()].id.0;
        let amount = tokens(self.units[ui].amount);
        let blamed = match fault {
            UnitFault::Dropped(c) => {
                self.tel.emit(|| TraceEvent::UnitDropped {
                    t: now,
                    payment: pid,
                    amount,
                    channel: c.index() as u32,
                });
                c
            }
            UnitFault::Griefed(c) => {
                let hold = self
                    .faults
                    .as_ref()
                    .map_or(0.0, |fr| fr.state.config.grief_hold);
                self.tel.emit(|| TraceEvent::UnitGriefed {
                    t: now,
                    payment: pid,
                    amount,
                    hold,
                });
                c
            }
        };
        self.emit_refunded(ui, now);
        Some(blamed)
    }

    /// Gives up on a payment; value already settled stays delivered.
    pub(crate) fn abandon(&mut self, idx: usize, now: f64) {
        let p = &mut self.payments[idx];
        p.status = PaymentStatus::Abandoned;
        self.tel.emit(|| TraceEvent::PaymentAbandoned {
            t: now,
            payment: p.id.0,
            delivered: tokens(p.delivered),
        });
    }

    // -- timers ---------------------------------------------------------------

    /// Schedules a retry of `payment` once its backoff expires at `time`.
    pub(crate) fn retry_at(&mut self, time: f64, payment: usize) {
        self.retries.push(Reverse((Time::new(time), payment)));
    }

    /// Fires every deadline and retry backoff due at `now` in
    /// `(time, payment)` order, a payment's deadline ahead of its retry.
    /// Deadlines are enforced here; what a retry does is up to the driver.
    pub(crate) fn fire_timers(&mut self, now: f64, mut retry: impl FnMut(&mut Self, usize)) {
        loop {
            let deadline = (self.payments.get(self.next_deadline))
                .filter(|_| self.split)
                .map(|p| (Time::new(p.deadline), self.next_deadline));
            let backoff = self.retries.peek().map(|&Reverse(r)| r);
            match (deadline, backoff) {
                (Some(d), r) if d.0.seconds() <= now && r.is_none_or(|r| d <= r) => {
                    self.next_deadline += 1;
                    // Its units in flight still settle or refund on their own.
                    if self.payments[d.1].status == PaymentStatus::Pending {
                        self.abandon(d.1, now);
                    }
                }
                (_, Some(r)) if r.0.seconds() <= now => {
                    self.retries.pop();
                    retry(self, r.1);
                }
                _ => break,
            }
        }
    }

    /// The payments that may still send, in `policy` service order.
    pub(crate) fn pending_in_order(&mut self, policy: SchedulePolicy) -> Vec<usize> {
        let payments = &self.payments;
        self.pending
            .retain(|&i| payments[i].status == PaymentStatus::Pending);
        policy.order(payments, &mut self.pending);
        self.pending.clone()
    }

    // -- faults ---------------------------------------------------------------

    /// Applies a scheduled fault transition to the channel/node mask and
    /// records it; returns the channels that just went down.
    pub(crate) fn apply_fault(&mut self, ev: &FaultEvent, now: f64) -> Vec<ChannelId> {
        // Fault events are only scheduled when a plan is installed.
        let Some(fr) = self.faults.as_mut() else {
            return Vec::new();
        };
        self.tel.emit(|| ev.trace(now));
        fr.state.apply(self.network, ev)
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

    /// Refunds a unit caught by an outage.
    pub(crate) fn refund_for_outage(&mut self, ui: usize, now: f64) -> bool {
        let ok = self.refund(ui, now, "fault");
        if let (true, Some(fr)) = (ok, self.faults.as_mut()) {
            fr.state.stats.units_refunded_by_outage += 1;
        }
        ok
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
        self.ticks += 1;
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
        let rows = (self.payments.iter()).map(|p| {
            let delay = p.completed_at.map(|t| t - p.arrival);
            (p.amount, p.delivered, p.status, delay)
        });
        SimReport {
            units_sent: self.units_sent,
            final_mean_imbalance: self.ledger.mean_imbalance(),
            rebalance: self.rebalance_stats,
            routing_fees_paid: tokens(self.routing_fees_paid),
            audit_checks,
            audit_violations,
            completion_delay_percentiles: self.tel.delay_percentiles("sim.completion_delay"),
            telemetry: self.tel.summarize(self.network_series),
            faults: self.faults.map(|fr| fr.state.stats),
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

/// Reads the count of a retired part, an always-empty seq; any other count
/// is `Corrupt`.
fn dec_retired(d: &mut Dec, what: &str) -> Result<(), SnapshotError> {
    match d.usize()? {
        0 => Ok(()),
        n => corrupt(format!("{n} {what} where the part is always empty")),
    }
}

/// Decodes an event, bounds-checking the channel and node ids it names.
/// Transaction and unit indices are checked by the caller, which knows the
/// trace and the number of units sent.
fn dec_event(d: &mut Dec, network: &Network) -> Result<Event, SnapshotError> {
    Ok(match d.u8()? {
        0 => Event::Arrival(d.usize()?),
        1 => Event::HopArrive { unit: d.usize()? },
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
        other => return corrupt(format!("event tag {other}")),
    })
}

fn enc_payment(e: &mut Enc, p: &PaymentState) {
    e.u64(p.id.0);
    e.u32(p.src.0);
    e.u32(p.dst.0);
    e.i64(p.amount.micros());
    e.f64(p.arrival);
    e.f64(p.deadline);
    e.i64(p.delivered.micros());
    e.i64(p.inflight.micros());
    snapshot::enc_status(e, p.status);
    e.opt(p.completed_at.map(|t| move |e: &mut Enc| e.f64(t)));
}

fn dec_payment(d: &mut Dec) -> Result<PaymentState, SnapshotError> {
    Ok(PaymentState {
        id: PaymentId(d.u64()?),
        src: NodeId(d.u32()?),
        dst: NodeId(d.u32()?),
        amount: Amount::from_micros(d.i64()?),
        arrival: dec_time(d, "arrival")?,
        deadline: dec_time(d, "deadline")?,
        delivered: Amount::from_micros(d.i64()?),
        inflight: Amount::from_micros(d.i64()?),
        status: snapshot::dec_status(d)?,
        completed_at: d.opt(|d| d.f64())?,
    })
}

fn enc_unit(e: &mut Enc, u: &Unit) {
    e.usize(u.payment as usize);
    enc_path(e, &u.path);
    e.i64(u.amount.micros());
    let (tag, blamed) = match u.fault {
        None => (0, 0),
        Some(UnitFault::Dropped(c)) => (1, c.0),
        Some(UnitFault::Griefed(c)) => (2, c.0),
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
        (1, c) => Some(UnitFault::Dropped(c)),
        (2, c) => Some(UnitFault::Griefed(c)),
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
    /// Encodes the `SEC_CORE` section of an [`ENGINE_SEQ`](snapshot::ENGINE_SEQ)
    /// snapshot. Integers are little-endian; `usize` travels as `u64`; a
    /// *seq* is a `u64` count followed by that many items; an *opt* is a
    /// presence byte (0/1) followed by the value when 1; *json* is a
    /// length-prefixed UTF-8 JSON string. In order:
    ///
    /// 1. `ticks: u64`.
    /// 2. Ledger — seq of channels, each four `i64` micro-amounts
    ///    (`Ledger::export_channel`).
    /// 3. Event queue — seq of `(time: f64, seq: u64, event)` in pop order,
    ///    then `next_seq: u64`. An event is a tag byte and its argument:
    ///    0 arrival (transaction index), 1 hop-arrive, 2 settle,
    ///    3 fault-expire (unit index each), 4 fault (tag byte 0–3 for
    ///    channel-down/up, node-down/up, then the `u32` id), 5 tick,
    ///    6 rebalance-check, 7 rebalance-apply (channel index).
    ///    Pending arrivals are not resident as queue entries — they are the
    ///    trace cursor (see [`pop`](Self::pop)) — and are encoded merged
    ///    into the list, as what one queue holding them would pop. So the
    ///    arrival entries are always the transactions `i` in
    ///    `first..arrivals_end` (`arrivals_end`: how many arrive by
    ///    `end_time`) with `seq == i` and `time ==` the trace's arrival,
    ///    in that order, where `first` is the number of payments; every
    ///    other entry and `next_seq` are at least `arrivals_end`. The
    ///    decoder refuses anything else, and any event naming a unit at or
    ///    past `total` (part 5), a channel or node the network lacks.
    /// 4. Payments — seq of `id: u64, src: u32, dst: u32, amount: i64,
    ///    arrival: f64, deadline: f64, delivered: i64, inflight: i64,
    ///    status: u8` (0 pending, 1 completed, 2 abandoned),
    ///    `completed_at: opt f64`; then the pending list, a seq of `usize`.
    /// 5. Units — `total: usize`, the number ever sent (slab indices run
    ///    `0..total`), then a seq of the units still live (`locked > 0`) in
    ///    index order, each `index: usize, payment: usize`, path (seq of
    ///    `u32` node ids), `amount: i64`, fault (`u8` 0 none / 1 dropped /
    ///    2 griefed, then the blamed channel `u32`), `locked: u32` hops.
    ///    Every other slot is a settled or refunded unit: nothing reads one
    ///    past its `locked == 0`, so it is neither resident (its chunk of
    ///    the slab is released once every unit in it finished) nor stored.
    ///    On decode it is a tombstone in a chunk that holds a live unit, or
    ///    in the partly filled last chunk, and absent everywhere else.
    ///    `total` must equal `units_sent` in part 9.
    /// 6. Timers — `next_deadline: usize` (payments before it have had
    ///    their deadline enforced), then the retry backoffs, a sorted seq of
    ///    `(time: f64, payment: usize)`.
    /// 7. Fault runtime — opt: down-cause bytes (length-prefixed),
    ///    node-down seq of `bool`, RNG state `u64`, stats json, blacklist
    ///    expiries seq of `f64`, per-payment fail counts seq of `u32` and
    ///    retry-not-before times seq of `f64`.
    /// 8. Audit state — opt json; release violations — json.
    /// 9. `routing_fees_paid: i64`, `units_sent: u64`.
    /// 10. An empty seq (the retired success series; a non-empty one is
    ///     refused); network samples — seq of `t, mean_imbalance,
    ///     total_inflight: f64, pending, max_queue_depth: u32`;
    ///     `next_sample: f64`.
    /// 11. Congestion windows — opt seq of `src: u32, dst: u32, window: f64,
    ///     outstanding: u32`.
    /// 12. Rebalancing — pending flags (seq of `bool`), then `transactions:
    ///     usize, moved_volume: f64, fees_paid: f64`.
    /// 13. An empty seq (the retired AMP holds; a non-empty one is refused).
    /// 14. Router queues — an empty seq (a non-empty one is refused), then
    ///     `units_queued, units_dropped, max_queue_len: usize, total_wait:
    ///     f64, dequeues: usize`, all zero: units queue at the source in
    ///     every run that checkpoints.
    ///
    /// The retired parts keep their place, so the layout is still SPSN v5.
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.ticks);
        e.usize(self.network.num_channels());
        for i in 0..self.network.num_channels() {
            for v in self.ledger.export_channel(ChannelId::from(i)) {
                e.i64(v);
            }
        }
        // The arrivals merge in by `pop`'s rule: an entry queued at the
        // same time as an arrival was queued after it.
        let queued = self.queue.entries();
        let arrivals = self.next_arrival..self.arrivals_end;
        e.usize(queued.len() + arrivals.len());
        let mut queued = queued.into_iter().peekable();
        let enc_entry = |e: &mut Enc, (t, seq, event): (f64, u64, &Event)| {
            e.f64(t);
            e.u64(seq);
            enc_event(e, event);
        };
        for i in arrivals {
            let at = self.transactions[i].arrival;
            while let Some(entry) = queued.next_if(|&(t, _, _)| t < at) {
                enc_entry(&mut e, entry);
            }
            enc_entry(&mut e, (at, i as u64, &Event::Arrival(i)));
        }
        queued.for_each(|entry| enc_entry(&mut e, entry));
        e.u64(self.queue.next_seq());
        e.seq(&self.payments, enc_payment);
        e.seq(&self.pending, |e, &i| e.usize(i));
        e.usize(self.units.len());
        let live: Vec<(usize, &Unit)> = self.units.iter_live().collect();
        e.seq(&live, |e, &(index, u)| {
            e.usize(index);
            enc_unit(e, u);
        });
        e.usize(self.next_deadline);
        // Heap iteration order is arbitrary, so sort the capture.
        let mut retries: Vec<_> = self.retries.iter().map(|&Reverse(r)| r).collect();
        retries.sort_unstable();
        e.seq(&retries, |e, &(t, payment)| {
            e.f64(t.seconds());
            e.usize(payment);
        });
        e.opt(self.faults.as_ref().map(|fr| {
            |e: &mut Enc| {
                snapshot::enc_fault_state(e, &fr.state);
                e.seq(fr.blacklist.slots(), |e, &t| e.f64(t));
                e.seq(&fr.fail_count, |e, &c| e.u32(c));
                e.seq(&fr.not_before, |e, &t| e.f64(t));
            }
        }));
        e.opt(
            (self.audit.as_ref()).map(|a| |e: &mut Enc| snapshot::enc_json(e, &a.export_state())),
        );
        snapshot::enc_json(&mut e, &self.release_violations);
        e.i64(self.routing_fees_paid.micros());
        e.u64(self.units_sent);
        e.usize(0);
        e.seq(&self.network_series, enc_sample);
        e.f64(self.next_sample);
        e.opt(self.congestion.as_ref().map(|cc| {
            |e: &mut Enc| {
                e.seq(&cc.export_state(), |e, &(src, dst, window, outstanding)| {
                    e.u32(src.0);
                    e.u32(dst.0);
                    e.f64(window);
                    e.u32(outstanding);
                })
            }
        }));
        e.seq(&self.rebalance_pending, |e, &b| e.bool(b));
        e.usize(self.rebalance_stats.transactions);
        e.f64(self.rebalance_stats.moved_volume);
        e.f64(self.rebalance_stats.fees_paid);
        e.usize(0);
        debug_assert!(self.router.queues.is_empty(), "a router-queued checkpoint");
        e.usize(0);
        e.usize(self.router.stats.units_queued);
        e.usize(self.router.stats.units_dropped);
        e.usize(self.router.stats.max_queue_len);
        e.f64(self.router.total_wait);
        e.usize(self.router.dequeues);
        e.into_bytes()
    }

    /// Restores a freshly built state from [`encode`](Self::encode)'s
    /// bytes. Optional parts must be present exactly when this run's
    /// configuration has them, and every index is bounds-checked, so a
    /// damaged section is a [`SnapshotError`], never a panic later on.
    fn decode(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let network = self.network;
        let mut d = Dec::new(bytes);
        self.ticks = d.u64()?;
        let num_channels = d.usize()?;
        if num_channels != network.num_channels() {
            return corrupt(format!(
                "snapshot has {num_channels} channels, network has {}",
                network.num_channels()
            ));
        }
        for i in 0..num_channels {
            let raw = [d.i64()?, d.i64()?, d.i64()?, d.i64()?];
            self.ledger.restore_channel(ChannelId::from(i), raw);
        }
        let entries = dec_seq(&mut d, |d| {
            Ok((dec_time(d, "event")?, d.u64()?, dec_event(d, network)?))
        })?;
        let next_seq = d.u64()?;
        self.payments = dec_seq(&mut d, dec_payment)?;
        let num_payments = self.payments.len();
        self.pending = dec_seq(&mut d, |d| dec_index(d, num_payments, "pending payment"))?;
        let num_units = d.usize()?;
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
        self.restore_queue(entries, next_seq, num_payments, num_units)?;
        self.next_deadline = dec_index(&mut d, num_payments + 1, "deadline cursor at payment")?;
        self.retries = dec_seq(&mut d, |d| {
            let time = Time::new(dec_time(d, "retry")?);
            Ok(Reverse((
                time,
                dec_index(d, num_payments, "retry of payment")?,
            )))
        })?
        .into();
        dec_present(&mut d, self.faults.is_some(), "a fault plan")?;
        if let Some(fr) = self.faults.as_mut() {
            snapshot::dec_fault_state(&mut d, &mut fr.state)?;
            (fr.blacklist.restore_slots(d.seq(|d| d.f64())?)).or_else(corrupt)?;
            fr.fail_count = d.seq(|d| d.u32())?;
            fr.not_before = d.seq(|d| d.f64())?;
            if fr.fail_count.len() != num_payments || fr.not_before.len() != num_payments {
                return corrupt("retry accounting does not cover every payment".to_string());
            }
        }
        if dec_present(&mut d, self.audit.is_some(), "auditing")? {
            self.audit = Some(LedgerAudit::from_state(snapshot::dec_json(&mut d)?));
        }
        self.release_violations = snapshot::dec_json(&mut d)?;
        self.routing_fees_paid = Amount::from_micros(d.i64()?);
        self.units_sent = d.u64()?;
        // Nothing bounds the chunk table about to be allocated (one entry
        // per `CHUNK` units) but the run's own count of the units it sent.
        if num_units as u64 != self.units_sent {
            return corrupt(format!(
                "{num_units} unit slots for {} units sent",
                self.units_sent
            ));
        }
        self.units.restore(num_units, live, network)?;
        dec_retired(&mut d, "success-series points")?;
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
        if dec_present(&mut d, self.congestion.is_some(), "congestion control")? {
            let windows =
                d.seq(|d| Ok((NodeId(d.u32()?), NodeId(d.u32()?), d.f64()?, d.u32()?)))?;
            if let Some(cc) = self.congestion.as_mut() {
                cc.restore_state(&windows);
            }
        }
        self.rebalance_pending = d.seq(|d| d.bool())?;
        if self.rebalance_pending.len() != num_channels {
            return corrupt("rebalance flags do not cover every channel".to_string());
        }
        self.rebalance_stats = RebalanceStats {
            transactions: d.usize()?,
            moved_volume: d.f64()?,
            fees_paid: d.f64()?,
        };
        dec_retired(&mut d, "AMP hold lists")?;
        dec_retired(&mut d, "router queues")?;
        self.router.stats = QueueStats {
            units_queued: d.usize()?,
            units_dropped: d.usize()?,
            max_queue_len: d.usize()?,
            mean_wait: 0.0,
        };
        self.router.total_wait = d.f64()?;
        self.router.dequeues = d.usize()?;
        d.expect_end()?;
        Ok(())
    }

    /// Restores part 3: the arrival entries become the trace cursor, the
    /// rest go back on the queue with their original sequence numbers,
    /// which restores the exact drain order. Refuses what `encode` cannot
    /// have written (see its part 3).
    fn restore_queue(
        &mut self,
        entries: Vec<(f64, u64, Event)>,
        next_seq: u64,
        num_payments: usize,
        num_units: usize,
    ) -> Result<(), SnapshotError> {
        let end = self.arrivals_end;
        let mut arrival = num_payments;
        for (t, seq, event) in entries {
            match event {
                Event::Arrival(i) => {
                    let expected = (arrival < end).then(|| self.transactions[arrival].arrival);
                    if i != arrival || seq != i as u64 || expected != Some(t) {
                        return corrupt(format!(
                            "queued arrival of transaction {i} (seq {seq}, at {t}) where \
                             transaction {arrival} of {end} arriving by the end was due"
                        ));
                    }
                    arrival += 1;
                }
                Event::HopArrive { unit }
                | Event::Settle { unit }
                | Event::FaultExpire { unit }
                    if unit >= num_units =>
                {
                    return corrupt(format!("queued event names unit {unit} of {num_units}"));
                }
                _ if seq < end as u64 => {
                    return corrupt(format!("queued event seq {seq} within the {end} arrivals"));
                }
                event => self.queue.push_with_seq(t, seq, event),
            }
        }
        if arrival != end {
            return corrupt(format!(
                "arrivals {arrival}..{end} are due but not queued ({num_payments} arrived)"
            ));
        }
        if next_seq < end as u64 {
            return corrupt(format!("next seq {next_seq} within the {end} arrivals"));
        }
        self.queue.set_next_seq(next_seq);
        self.next_arrival = num_payments;
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
        // What a refund reads after the unlock that finished the unit.
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
                    let tx = t.transactions[i];
                    let idx = t.arrive(&tx, now);
                    let unit = t.send(idx, Arc::clone(path), tx.amount, 1, now);
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
            t.seed(None, None);
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
            t.seed(None, None);
            let mut oracle = oracle(&txs);
            lockstep(&mut t, &mut oracle, &path, stop);
            let bytes = t.encode();
            let mut resumed = transport(&g, &txs, &tel);
            resumed.decode(&bytes).unwrap();
            assert_eq!(resumed.encode(), bytes, "stop {stop}: re-encoding");
            assert!(!lockstep(&mut resumed, &mut oracle, &path, usize::MAX));
        }
    }

    #[test]
    fn router_queues_in_a_core_section_are_corrupt() {
        let (g, path) = one_hop();
        let tel = Telemetry::disabled();
        let txs = tied_trace();
        let mut t = transport(&g, &txs, &tel);
        t.seed(None, None);
        lockstep(&mut t, &mut oracle(&txs), &path, 9);
        let mut bytes = t.encode();
        // Part 14 ends the section: the queue count, then four `usize`
        // statistics and one `f64`.
        let at = bytes.len() - 6 * 8;
        assert_eq!(bytes[at..at + 8], [0; 8]);
        bytes[at] = 1;
        match transport(&g, &txs, &tel).decode(&bytes) {
            Err(SnapshotError::Corrupt { what }) => assert!(what.contains("router queues")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn retired_series_and_amp_parts_in_a_core_section_are_corrupt() {
        let (g, path) = one_hop();
        let tel = Telemetry::disabled();
        let txs = tied_trace();
        let mut t = transport(&g, &txs, &tel);
        t.seed(None, None);
        lockstep(&mut t, &mut oracle(&txs), &path, 9);
        let bytes = t.encode();
        // From the end: part 14 (six 8-byte fields), part 13's count, the
        // rebalance totals (three), the one channel's rebalance flag seq,
        // the absent congestion windows, `next_sample`, the empty network
        // samples; part 10's count follows part 9's `units_sent`.
        let amp = bytes.len() - 7 * 8;
        let series = amp - (3 * 8 + (8 + 1) + 1 + 8 + 8 + 8);
        assert_eq!(bytes[series - 8..series], t.units_sent.to_le_bytes());
        for (at, part) in [(series, "success-series"), (amp, "AMP")] {
            assert_eq!(bytes[at..at + 8], [0; 8], "{part}: an empty seq");
            let mut forged = bytes.clone();
            forged[at] = 1;
            match transport(&g, &txs, &tel).decode(&forged) {
                Err(SnapshotError::Corrupt { what }) => assert!(what.contains(part), "{what}"),
                other => panic!("{part}: expected Corrupt, got {other:?}"),
            }
        }
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
