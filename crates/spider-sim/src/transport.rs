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
//! report, and the [`SEC_CORE`](snapshot::SEC_CORE) codec). The drivers in
//! [`crate::engine`] decide *when* a transition fires, never *what* it does.
//!
//! The arithmetic under a transition is not written here: it is shared,
//! one copy each, with the sharded engine's handlers (which differ in when
//! and where a transition runs, ROADMAP item 4) — `Ledger::lock_walk` /
//! `release_walk` and [`FeeSchedule::hop_amounts`] for the funds,
//! [`unit_count`] for the split, [`TraceEvent::counter`] behind
//! `Telemetry::emit` for the counters, [`FaultEvent::trace`],
//! [`RetryPolicy::backoff`], `RebalancePolicy::apply`,
//! `CongestionConfig::{grown, shrunk}`, `Ledger::relative_imbalance` and
//! [`tokens`] for what is reported.
//!
//! A unit records how many hops of its path are locked: a source-queued
//! unit is born with every hop locked, a router-queued unit with one.
//! Settling or refunding releases the locked prefix and leaves `locked == 0`,
//! which is also what "this unit is finished" means.

use crate::audit::{AuditViolation, LedgerAudit};
use crate::congestion::CongestionControl;
use crate::engine::QueueStats;
use crate::events::{EventQueue, Time};
use crate::faults::{Blacklist, FaultEvent, FaultPlan, FaultState, FaultView, RetryPolicy};
use crate::ledger::{tokens, HopAmounts, Ledger, LedgerView, Release};
use crate::metrics::SimReport;
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

/// One transaction unit, live or finished. Units live in a slab — the
/// slab *is* the resident set of a long run, so the record is kept to 32
/// bytes — and fault events find the units to refund by scanning it.
pub(crate) struct Unit {
    pub(crate) path: Arc<Path>,
    /// The delivered amount. Under fees each hop locks this plus the
    /// downstream fees, a pure function of `(path, amount)` that is
    /// recomputed from the schedule rather than stored per unit.
    pub(crate) amount: Amount,
    payment: u32,
    /// Hops `0..locked` hold this unit's funds; a router-queued unit sits
    /// at `path.nodes()[locked]`. Zero once settled or refunded, which
    /// guards against a double release when a refund races a scheduled
    /// settle.
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

/// The unit slab: append-only, in fixed-size chunks. One `Vec` this large
/// would be copied every time it doubles, and the allocator may or may not
/// find the copy a home in memory it already holds — peak memory would
/// follow heap layout rather than the unit count. Equal chunks are never
/// moved and are reused exactly by the next run in the same process.
#[derive(Default)]
pub(crate) struct UnitSlab {
    chunks: Vec<Vec<Unit>>,
}

impl UnitSlab {
    /// Units per chunk (64 KiB of records).
    const CHUNK: usize = 1 << 11;

    pub(crate) fn len(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * Self::CHUNK + last.len(),
            None => 0,
        }
    }

    /// Appends `unit` and returns its index.
    fn push(&mut self, unit: Unit) -> usize {
        if self.chunks.last().is_none_or(|c| c.len() == Self::CHUNK) {
            self.chunks.push(Vec::with_capacity(Self::CHUNK));
        }
        let last = self.chunks.len() - 1;
        self.chunks[last].push(unit);
        self.len() - 1
    }

    fn iter(&self) -> impl Iterator<Item = &Unit> {
        self.chunks.iter().flatten()
    }

    /// Fills an empty slab with `total` slots from a checkpoint's live
    /// units, given in index order. Every other slot becomes a tombstone: a
    /// finished unit (`locked == 0`), whose other fields nothing reads.
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
        let mut live = live.into_iter().peekable();
        for i in 0..total {
            let unit = match live.next_if(|&(index, _)| index == i) {
                Some((_, unit)) => unit,
                None => Unit {
                    path: Arc::clone(&any_path),
                    amount: Amount::ZERO,
                    payment: 0,
                    locked: 0,
                    fault: None,
                },
            };
            self.push(unit);
        }
        Ok(())
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
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) fail_count: Vec<u32>,
    pub(crate) not_before: Vec<f64>,
    grief_hold: f64,
}

/// Per-(channel, direction) router queues and their statistics. Empty
/// (zero channels) under the source-queued driver.
#[derive(Default)]
pub(crate) struct RouterQueues {
    /// `(unit, time it joined the queue)` in service order.
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
    pub(crate) queue: EventQueue<Event>,
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
    pub(crate) record_series: bool,
    series: Vec<(f64, f64, f64)>,
    network_series: Vec<NetworkSample>,
    /// Channel samples piggyback on ticks at this cadence; no events of
    /// their own are queued, so `(time, sequence)` ordering is the same
    /// with telemetry on or off.
    next_sample: f64,
    pub(crate) congestion: Option<CongestionControl>,
    pub(crate) rebalance_pending: Vec<bool>,
    pub(crate) rebalance_stats: RebalanceStats,
    /// AMP: units that reached the receiver but whose keys are withheld
    /// until the whole payment has arrived. Indexed by payment, grown on
    /// demand.
    amp_held: Vec<Vec<usize>>,
    pub(crate) router: RouterQueues,
}

impl<'a> Transport<'a> {
    /// Fresh state for one run; the drivers switch on the optional
    /// machinery (audit, congestion control, router queues, …) afterwards.
    pub(crate) fn new(
        network: &'a Network,
        tel: &'a Telemetry,
        [end_time, poll_interval, deadline]: [f64; 3],
        mtu: Amount,
        split: bool,
        plan: Option<&FaultPlan>,
    ) -> Self {
        assert!(poll_interval > 0.0 && deadline > 0.0);
        assert!(mtu.is_positive(), "MTU must be positive");
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
            payments: Vec::new(),
            pending: Vec::new(),
            units: UnitSlab::default(),
            next_deadline: 0,
            retries: BinaryHeap::new(),
            faults: plan.map(|plan| FaultRuntime {
                state: FaultState::new(plan, network),
                blacklist: Blacklist::new(network.num_channels()),
                retry: plan.config.retry.clone(),
                fail_count: Vec::new(),
                not_before: Vec::new(),
                grief_hold: plan.config.grief_hold,
            }),
            audit: None,
            release_violations: Vec::new(),
            routing_fees_paid: Amount::ZERO,
            units_sent: 0,
            ticks: 0,
            record_series: false,
            series: Vec::new(),
            network_series: Vec::new(),
            next_sample: tel.sample_interval().unwrap_or(f64::INFINITY),
            congestion: None,
            rebalance_pending: vec![false; network.num_channels()],
            rebalance_stats: RebalanceStats::default(),
            amp_held: Vec::new(),
            router: RouterQueues::default(),
        }
    }

    /// Fresh start: queues every arrival inside the window, the first tick,
    /// the first rebalance check when routers rebalance, and the fault
    /// schedule. (A resumed run restores the event queue wholesale from
    /// the snapshot instead.)
    pub(crate) fn seed(
        &mut self,
        transactions: &[Transaction],
        plan: Option<&FaultPlan>,
        first_rebalance_check: Option<f64>,
    ) {
        for (i, tx) in transactions.iter().enumerate() {
            if tx.arrival <= self.end_time {
                self.queue.push(tx.arrival, Event::Arrival(i));
            }
        }
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
        engine: u8,
        fingerprint: u32,
    ) -> Result<Snapshot, SnapshotError> {
        let snap = snapshot::read_snapshot(path)?;
        snap.check(engine, fingerprint)?;
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

    /// Writes a crash-safe snapshot when `ckpt` asks for one at this tick.
    /// Called between events, after [`end_tick`](Self::end_tick), so the
    /// captured state is exactly what an uninterrupted run holds here.
    pub(crate) fn checkpoint(
        &self,
        ckpt: Option<&CheckpointSpec>,
        engine: u8,
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
        let u = &mut self.units[ui];
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
        u.locked = 0;
        let amount = u.amount;
        let p = &mut self.payments[u.payment as usize];
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
        let u = &mut self.units[ui];
        let per_hop = (self.fees).and_then(|fees| fees.hop_amounts(&u.path, u.amount));
        let amounts = HopAmounts::of(u.amount, per_hop.as_deref());
        // A router-queued unit holds only the prefix it has travelled.
        let locked = u.locked as usize;
        let res =
            (self.ledger).release_walk(self.network, &u.path, locked, amounts, Release::Refund);
        u.locked = 0;
        match res {
            Ok(()) => {
                let p = &mut self.payments[u.payment as usize];
                p.inflight = p.inflight.saturating_sub(u.amount);
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
                let hold = self.faults.as_ref().map_or(0.0, |fr| fr.grief_hold);
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

    /// AMP: a unit reached the receiver, who cannot unlock any unit until
    /// every unit has arrived. Holds it, and settles the lot once the full
    /// amount is there; bounces it straight back if the deadline already
    /// passed (the sender withholds the key).
    pub(crate) fn amp_arrive(&mut self, ui: usize, now: f64) {
        let idx = self.units[ui].payment();
        if self.payments[idx].status == PaymentStatus::Abandoned {
            self.refund(ui, now, "amp-bounce");
            return self.audit_check(now, "amp-bounce");
        }
        if idx >= self.amp_held.len() {
            self.amp_held.resize_with(idx + 1, Vec::new);
        }
        self.amp_held[idx].push(ui);
        let arrived: Amount = (self.amp_held[idx].iter())
            .filter(|&&held| self.units[held].live())
            .map(|&held| self.units[held].amount)
            .sum();
        if arrived >= self.payments[idx].amount
            && self.payments[idx].status == PaymentStatus::Pending
        {
            for held in std::mem::take(&mut self.amp_held[idx]) {
                if self.units[held].live() {
                    self.settle(held, now);
                }
            }
        }
        self.audit_check(now, "settle");
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
                    self.deadline_passed(d.1, now);
                }
                (_, Some(r)) if r.0.seconds() <= now => {
                    self.retries.pop();
                    retry(self, r.1);
                }
                _ => break,
            }
        }
    }

    /// A still-pending payment whose deadline passed is abandoned, and
    /// under AMP everything the receiver was holding for it is refunded.
    fn deadline_passed(&mut self, idx: usize, now: f64) {
        if self.payments[idx].status != PaymentStatus::Pending {
            return;
        }
        self.abandon(idx, now);
        if let Some(held) = self.amp_held.get_mut(idx).map(std::mem::take) {
            for ui in held {
                if self.units[ui].live() {
                    self.refund(ui, now, "deadline-refund");
                }
            }
            self.audit_check(now, "deadline-refund");
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
        (self.units.iter().enumerate())
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

    /// Closes a scheduler tick: records the series point and the channel
    /// samples that are due, and schedules the next tick.
    pub(crate) fn end_tick(&mut self, now: f64) {
        if self.record_series {
            let (ratio, volume) = running_metrics(&self.payments);
            self.series.push((now, ratio, volume));
        }
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
        let count = |status| {
            (self.payments.iter())
                .filter(|p| p.status == status)
                .count()
        };
        let completed = (self.payments.iter()).filter(|p| p.status == PaymentStatus::Completed);
        let delays = completed
            .clone()
            .filter_map(|p| p.completed_at.map(|t| t - p.arrival));
        let num_completed = count(PaymentStatus::Completed);
        let mut audit_violations = Vec::new();
        let mut audit_checks = 0;
        if let Some(a) = self.audit {
            audit_checks = a.checks();
            audit_violations = a.into_violations();
        }
        audit_violations.extend(self.release_violations);
        SimReport {
            scheme: scheme.to_string(),
            policy,
            attempted: self.payments.len(),
            completed: num_completed,
            abandoned: count(PaymentStatus::Abandoned),
            pending_at_end: count(PaymentStatus::Pending),
            attempted_volume: self.payments.iter().map(|p| tokens(p.amount)).sum(),
            delivered_volume: self.payments.iter().map(|p| tokens(p.delivered)).sum(),
            completed_volume: completed.map(|p| tokens(p.amount)).sum(),
            units_sent: self.units_sent,
            mean_completion_delay: if num_completed == 0 {
                0.0
            } else {
                delays.sum::<f64>() / num_completed as f64
            },
            final_mean_imbalance: self.ledger.mean_imbalance(),
            rebalance: self.rebalance_stats,
            routing_fees_paid: tokens(self.routing_fees_paid),
            series: self.series,
            audit_checks,
            audit_violations,
            completion_delay_percentiles: self.tel.delay_percentiles("sim.completion_delay"),
            telemetry: self.tel.summarize(self.network_series),
            faults: self.faults.map(|fr| fr.state.stats),
            shards: None,
        }
    }
}

fn running_metrics(payments: &[PaymentState]) -> (f64, f64) {
    if payments.is_empty() {
        return (0.0, 0.0);
    }
    let completed = (payments.iter())
        .filter(|p| p.status == PaymentStatus::Completed)
        .count();
    let attempted_volume: f64 = payments.iter().map(|p| tokens(p.amount)).sum();
    let delivered_volume: f64 = payments.iter().map(|p| tokens(p.delivered)).sum();
    (
        completed as f64 / payments.len() as f64,
        if attempted_volume > 0.0 {
            delivered_volume / attempted_volume
        } else {
            0.0
        },
    )
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

fn dec_event(d: &mut Dec) -> Result<Event, SnapshotError> {
    Ok(match d.u8()? {
        0 => Event::Arrival(d.usize()?),
        1 => Event::HopArrive { unit: d.usize()? },
        2 => Event::Settle { unit: d.usize()? },
        3 => Event::FaultExpire { unit: d.usize()? },
        4 => Event::Fault(dec_fault_event(d)?),
        5 => Event::Tick,
        6 => Event::RebalanceCheck,
        7 => Event::RebalanceApply {
            channel: ChannelId::from(d.usize()?),
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
    /// Encodes the `SEC_CORE` section, the same layout under both engine
    /// kind bytes. Integers are little-endian; `usize` travels as `u64`; a
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
    ///    past its `locked == 0`, so it is not stored and decodes as a
    ///    tombstone. `total` must equal `units_sent` in part 9.
    /// 6. Timers — `next_deadline: usize` (payments before it have had
    ///    their deadline enforced), then the retry backoffs, a sorted seq of
    ///    `(time: f64, payment: usize)`.
    /// 7. Fault runtime — opt: down-cause bytes (length-prefixed),
    ///    node-down seq of `bool`, RNG state `u64`, stats json, blacklist
    ///    expiries seq of `f64`, per-payment fail counts seq of `u32` and
    ///    retry-not-before times seq of `f64`.
    /// 8. Audit state — opt json; release violations — json.
    /// 9. `routing_fees_paid: i64`, `units_sent: u64`.
    /// 10. Series — seq of three `f64`; network samples — seq of
    ///     `t, mean_imbalance, total_inflight: f64, pending, max_queue_depth:
    ///     u32`; `next_sample: f64`.
    /// 11. Congestion windows — opt seq of `src: u32, dst: u32, window: f64,
    ///     outstanding: u32`.
    /// 12. Rebalancing — pending flags (seq of `bool`), then `transactions:
    ///     usize, moved_volume: f64, fees_paid: f64`.
    /// 13. AMP — seq (by payment) of seqs of held unit indices.
    /// 14. Router queues — seq (by channel; empty when the units queue at
    ///     the source) of two seqs (A→B, B→A) of `(unit: usize, queued_at:
    ///     f64)`, live units only (whatever refunds a queued unit also takes
    ///     it out of its queue); then `units_queued, units_dropped,
    ///     max_queue_len: usize, total_wait: f64, dequeues: usize`.
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.ticks);
        e.usize(self.network.num_channels());
        for i in 0..self.network.num_channels() {
            for v in self.ledger.export_channel(ChannelId::from(i)) {
                e.i64(v);
            }
        }
        e.seq(&self.queue.entries(), |e, (t, seq, event)| {
            e.f64(*t);
            e.u64(*seq);
            enc_event(e, event);
        });
        e.u64(self.queue.next_seq());
        e.seq(&self.payments, enc_payment);
        e.seq(&self.pending, |e, &i| e.usize(i));
        e.usize(self.units.len());
        let live: Vec<(usize, &Unit)> = (self.units.iter().enumerate())
            .filter(|(_, u)| u.live())
            .collect();
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
        e.seq(&self.series, |e, &(t, ratio, volume)| {
            e.f64(t);
            e.f64(ratio);
            e.f64(volume);
        });
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
        e.seq(&self.amp_held, |e, held| e.seq(held, |e, &u| e.usize(u)));
        e.seq(&self.router.queues, |e, sides| {
            for q in sides {
                debug_assert!(q.iter().all(|&(unit, _)| self.units[unit].live()));
                e.usize(q.len());
                for &(unit, queued_at) in q {
                    e.usize(unit);
                    e.f64(queued_at);
                }
            }
        });
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
        // Re-pushing the entries with their original sequence numbers
        // restores the exact drain order.
        let entries = dec_seq(&mut d, |d| {
            Ok((dec_time(d, "event")?, d.u64()?, dec_event(d)?))
        })?;
        for (t, seq, event) in entries {
            self.queue.push_with_seq(t, seq, event);
        }
        self.queue.set_next_seq(d.u64()?);
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
        // Nothing bounds the tombstones about to be allocated but the
        // run's own count of the units it sent.
        if num_units as u64 != self.units_sent {
            return corrupt(format!(
                "{num_units} unit slots for {} units sent",
                self.units_sent
            ));
        }
        self.units.restore(num_units, live, network)?;
        self.series = d.seq(|d| Ok((d.f64()?, d.f64()?, d.f64()?)))?;
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
        self.amp_held = dec_seq(&mut d, |d| {
            dec_seq(d, |d| dec_index(d, num_units, "AMP holds unit"))
        })?;
        if self.amp_held.len() > num_payments {
            return corrupt("AMP holds units for payments that never arrived".to_string());
        }
        let units = &self.units;
        let side = |d: &mut Dec| {
            dec_seq(d, |d| {
                let unit = dec_index(d, num_units, "router queue holds unit")?;
                // Queue order is computed from the units' amounts and
                // deadlines, which a tombstone no longer has.
                if !units[unit].live() {
                    return corrupt(format!("router queue holds finished unit {unit}"));
                }
                Ok((unit, d.f64()?))
            })
            .map(VecDeque::from)
        };
        let queues = dec_seq(&mut d, |d| Ok([side(d)?, side(d)?]))?;
        if queues.len() != self.router.queues.len() {
            return corrupt(format!(
                "snapshot has {} router queues, this run has {}",
                queues.len(),
                self.router.queues.len()
            ));
        }
        self.router.queues = queues;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit slab is the resident set of a long run (one record per unit
    /// ever sent), so the record's size is a memory budget, not a detail.
    #[test]
    fn unit_record_stays_within_32_bytes() {
        assert!(std::mem::size_of::<Unit>() <= 32);
    }

    #[test]
    fn unit_slab_indexes_across_chunk_boundaries() {
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(1))
            .unwrap();
        let path = Arc::new(Path::new(&g, vec![NodeId(0), NodeId(1)]).unwrap());
        let mut slab = UnitSlab::default();
        assert_eq!(slab.len(), 0);
        let n = 2 * UnitSlab::CHUNK + 3;
        for i in 0..n {
            let unit = Unit {
                path: Arc::clone(&path),
                amount: Amount::ZERO,
                payment: i as u32,
                locked: 1,
                fault: None,
            };
            assert_eq!(slab.push(unit), i);
        }
        assert_eq!(slab.len(), n);
        assert!((0..n).all(|i| slab[i].payment() == i));
        assert!(slab.iter().map(Unit::payment).eq(0..n));
        slab[UnitSlab::CHUNK].locked = 0;
        assert!(!slab[UnitSlab::CHUNK].live() && slab[UnitSlab::CHUNK - 1].live());
    }
}
