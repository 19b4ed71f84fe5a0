//! The continuous-time discrete-event engine (§6.1) and its two drivers.
//!
//! Mirrors the paper's simulator semantics:
//!
//! - transactions arrive over time;
//! - routed value is locked along its path and settles `Δ = 0.5 s` after it
//!   reaches the receiver (funds are unavailable to everyone in between);
//! - atomic schemes deliver a payment entirely at arrival or fail it;
//! - packet-switched transport splits payments into MTU-bounded transaction
//!   units and keeps sending until the payment completes or its deadline
//!   passes — value already settled stays delivered (non-atomic transport),
//!   but an abandoned payment does not count as a success.
//!
//! That is one transport, and the `transport` module holds its state and the
//! unit lifecycle once. What the paper leaves open is where a unit waits
//! while a channel is dry, and this module has one thin driver per answer:
//!
//! - [`run`] queues at the **source** (§6.1, the paper's evaluation): a
//!   pluggable [`RoutingScheme`] picks each unit's path, the whole path is
//!   locked at once, and payments that cannot send wait at their source,
//!   served at each scheduler tick in scheduling-policy order (SRPT by
//!   default). A payment the scheme answers `Unavailable` is parked on the
//!   dry channel sides the scheme names ([`RoutingScheme::blockers`]) and
//!   served again only after a settle, a refund or an on-chain rebalance
//!   credits one of them; until then each tick counts the ask it skips
//!   ([`RoutingScheme::count_skipped`]), so reports and snapshots are those
//!   of a driver that asks every pending payment at every tick. A tick
//!   still asks every pending payment when the scheme names no blockers
//!   (Spider-LP and prices: an ask moves their state), under congestion
//!   control (an `Unavailable` moves the window) and under a fault plan
//!   (the mask changes with time). It is the driver that takes a fault
//!   plan, and the one whose senders can run an AIMD window
//!   ([`SimConfig::congestion`]) and whose routers can rebalance on chain
//!   ([`SimConfig::rebalance`]), each at one fixed setting;
//! - [`run_queued`] queues at the **routers** (Fig. 3 / §4.2): a unit is
//!   admitted as soon as its first hop can be funded, waits in a per-channel
//!   queue wherever the next hop is dry, and moves on when a settlement
//!   replenishes the channel — optimistic admission that absorbs transient
//!   imbalance in the network instead of at the sender.
//!
//! Both are single-threaded and completely deterministic: identical inputs
//! produce identical runs. The source-queued driver is the one engine that
//! checkpoints ([`run_checkpointed`], [`resume`]), and a run resumed from
//! a snapshot is byte-identical to an uninterrupted one.

use crate::audit::LedgerAudit;
use crate::congestion::{self, CongestionControl};
use crate::faults::{FaultPlan, UnitFate};
use crate::ledger::{sender_side, tokens};
use crate::metrics::SimReport;
use crate::payment::{FailCause, PaymentStatus};
use crate::rebalancer;
use crate::scheduler::{SchedulePolicy, WakeLists};
use crate::snapshot::{self, CheckpointSpec, SnapshotError};
use crate::transport::{record_release, Event, RouterQueues, Transport};
use serde::{Deserialize, Serialize};
use spider_core::{crc32, Amount, ChannelId, Direction, Enc, Network, Path};
use spider_routing::{waterfilling, PathCache, PathStrategy};
use spider_routing::{RoutingScheme, SchemeKind, UnitDecision};
use spider_telemetry::{Phase, Telemetry, TraceEvent};
use spider_workload::Transaction;
use std::sync::Arc;

/// Settlement delay Δ (seconds) the paper uses (§6.1): the default of
/// [`SimConfig::delta`], the router-queued driver's Δ, and the sharded
/// engine's, rounded to whole epochs.
pub(crate) const DELTA: f64 = 0.5;
/// Scheduler poll interval (seconds): the default of
/// [`SimConfig::poll_interval`], the router-queued driver's, and the
/// sharded engine's tick, rounded to whole epochs.
pub(crate) const POLL_INTERVAL: f64 = 0.1;
/// Per-hop propagation and processing delay of the router-queued driver
/// (seconds).
pub(crate) const HOP_DELAY: f64 = 0.05;
/// Candidate edge-disjoint paths per pair under the router-queued driver.
pub(crate) const NUM_PATHS: usize = 4;
/// Hard cap per channel-direction router queue of the router-queued
/// driver: a unit that finds its queue full is dropped (and refunded) on
/// arrival.
pub(crate) const MAX_QUEUE_LEN: usize = 4096;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Hard end of the measurement window (seconds); events after this are
    /// not processed.
    pub end_time: f64,
    /// Settlement delay Δ (seconds); the paper uses 0.5.
    pub delta: f64,
    /// Maximum transaction unit for packet-switched schemes.
    pub mtu: Amount,
    /// Scheduler poll interval (seconds).
    pub poll_interval: f64,
    /// Per-payment deadline window (seconds after arrival).
    pub deadline: f64,
    /// Service order for pending payments.
    pub policy: SchedulePolicy,
    /// On-chain rebalancing by routers (§5.2.3 / §7 extension), under the
    /// fixed policy the `rebalancer` module documents.
    pub rebalance: bool,
    /// AIMD congestion control at end hosts (§4.1 extension), with the
    /// fixed window parameters the `congestion` module documents.
    pub congestion: bool,
    /// Audit the ledger after every balance-mutating event: per-channel
    /// non-negativity and exact global conservation of funds, reported as
    /// [`SimReport::audit_violations`](crate::SimReport).
    pub audit: bool,
    /// Optional deterministic fault injection: channel outages, node churn,
    /// unit drops, settlement jitter, and HTLC griefing, plus the sender
    /// retry policy carried in the plan's [`FaultConfig`](crate::faults::FaultConfig).
    pub faults: Option<FaultPlan>,
    /// Telemetry handle. Disabled by default; when enabled the engine
    /// records payment-lifecycle trace events, a completion-delay histogram,
    /// and periodic channel samples (piggybacked on scheduler ticks so the
    /// event sequence — and therefore determinism — is unchanged).
    pub telemetry: Telemetry,
}

impl SimConfig {
    /// The paper's defaults with the given measurement window.
    pub fn new(end_time: f64) -> Self {
        SimConfig {
            end_time,
            delta: DELTA,
            mtu: Amount::from_whole(10),
            poll_interval: POLL_INTERVAL,
            deadline: 5.0,
            policy: SchedulePolicy::Srpt,
            rebalance: false,
            congestion: false,
            audit: false,
            faults: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Configuration for the router-queued driver ([`run_queued`]).
///
/// The paper's transport constants are fixed: funds settle `Δ = 0.5 s`
/// after a unit reaches the receiver, each hop takes 0.05 s, the source
/// polls every 0.1 s and serves its pending payments SRPT-first, and each
/// pair routes over 4 edge-disjoint paths. Router queues are served first
/// come, first served (§4.2 leaves other priorities to future work), and a
/// unit arriving at a queue already holding 4096 units is dropped and
/// refunded.
#[derive(Clone, Debug)]
pub struct QueuedConfig {
    /// Hard end of the measurement window (seconds).
    pub end_time: f64,
    /// Maximum transaction unit.
    pub mtu: Amount,
    /// Per-payment deadline window (seconds after arrival).
    pub deadline: f64,
    /// Telemetry handle (disabled by default). Channel samples — including
    /// real router-queue depths — piggyback on scheduler ticks, so enabling
    /// telemetry never changes the event order.
    pub telemetry: Telemetry,
}

impl QueuedConfig {
    /// Defaults mirroring [`crate::SimConfig::new`].
    pub fn new(end_time: f64) -> Self {
        QueuedConfig {
            end_time,
            mtu: Amount::from_whole(10),
            deadline: 5.0,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Router-queue statistics for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Units that ever waited in a router queue.
    pub units_queued: usize,
    /// Units dropped from queues (deadline or overflow).
    pub units_dropped: usize,
    /// Largest queue length observed on any channel direction.
    pub max_queue_len: usize,
    /// Mean time units spent waiting in queues (seconds, over dequeues).
    pub mean_wait: f64,
}

/// Result of a router-queue run: the standard report plus queue statistics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueuedReport {
    /// The standard metrics.
    pub report: SimReport,
    /// Router-queue behaviour.
    pub queues: QueueStats,
}

/// Runs one simulation of `transactions` over `network` with `scheme`,
/// queueing at the source.
///
/// Transactions must be sorted by arrival time, and an unsorted trace
/// panics (arrivals are read off the trace in order, not queued up front);
/// arrivals after `config.end_time` are ignored.
pub fn run(
    network: &Network,
    transactions: &[Transaction],
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
) -> SimReport {
    match run_source_queued(network, transactions, scheme, config, None, None) {
        Ok(report) => report,
        // No checkpoint spec and no resume state: no snapshot I/O happens,
        // so no snapshot error can arise.
        // spider-lint: allow(panic-reachability) — infallible wrapper; the Err arm is statically dead
        Err(e) => unreachable!("plain run cannot fail with a snapshot error: {e}"),
    }
}

/// Runs the simulation, writing a crash-safe snapshot into `ckpt.dir` every
/// `ckpt.every` scheduler ticks.
pub fn run_checkpointed(
    network: &Network,
    transactions: &[Transaction],
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
    ckpt: &CheckpointSpec,
) -> Result<SimReport, SnapshotError> {
    run_source_queued(network, transactions, scheme, config, None, Some(ckpt))
}

/// Resumes a run from a snapshot file written by [`run_checkpointed`] and
/// carries it to completion, optionally continuing to checkpoint.
///
/// The snapshot must come from the same inputs (network, transactions,
/// scheme, config) — a recorded fingerprint guards against mixups — and the
/// completed run's report and telemetry are byte-identical to an
/// uninterrupted run.
pub fn resume(
    network: &Network,
    transactions: &[Transaction],
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
    snapshot_path: &std::path::Path,
    ckpt: Option<&CheckpointSpec>,
) -> Result<SimReport, SnapshotError> {
    run_source_queued(
        network,
        transactions,
        scheme,
        config,
        Some(snapshot_path),
        ckpt,
    )
}

// ---------------------------------------------------------------------------
// Queueing at the source (§6.1): a unit leaves the sender only when its
// whole path can be locked, and a payment that cannot send waits in the
// pending list for a scheduler tick — the next one when it is polled, the
// first after a credit to a side blocking it when it is parked.

fn run_source_queued(
    network: &Network,
    transactions: &[Transaction],
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
    resume: Option<&std::path::Path>,
    ckpt: Option<&CheckpointSpec>,
) -> Result<SimReport, SnapshotError> {
    assert!(config.delta > 0.0);
    let tel = &config.telemetry;
    let timing = [config.end_time, config.poll_interval, config.deadline];
    let plan = config.faults.as_ref();
    // Atomic schemes deliver a payment whole at arrival or fail it; the
    // rest split it into units and keep sending until the deadline.
    let split = scheme.kind() == SchemeKind::PacketSwitched;
    let mut t = Transport::new(network, transactions, tel, timing, config.mtu, split, plan);
    t.audit = config.audit.then(|| LedgerAudit::new(&t.ledger));
    // Only packet-switched senders have units in flight to window.
    t.congestion = (config.congestion && split).then(CongestionControl::default);
    // A blocked payment waits for a credit, unless what it waits for moves
    // without one: its congestion window, or the fault mask.
    let polled = config.congestion || plan.is_some();
    t.wake_lists = (split && !polled).then(|| WakeLists::new(network.num_channels()));
    let fp = if ckpt.is_some() || resume.is_some() {
        fingerprint(network, transactions, config, scheme.name())
    } else {
        0
    };
    match resume {
        Some(path) => {
            let snap = t.load(path, fp)?;
            scheme
                .restore_state(network, snap.section(snapshot::SEC_SCHEME)?)
                .map_err(|e| SnapshotError::Unsupported {
                    what: format!("scheme state restore: {e}"),
                })?;
            t.repark(scheme);
        }
        None => t.seed(plan, config.rebalance),
    }

    while let Some((now, event)) = t.pop() {
        if now > config.end_time {
            break;
        }
        match event {
            Event::Arrival(i) => {
                let _span = tel.span_enter(Phase::RoutingDecision);
                t.arrive(i, now);
                if split {
                    pump_payment(&mut t, scheme, config, i, now);
                } else {
                    attempt_atomic(&mut t, scheme, config, i, now);
                }
            }
            Event::Settle { unit } => {
                // A fault may have refunded this unit while its settle was
                // already scheduled.
                if !t.units.live(unit) {
                    continue;
                }
                let _span = tel.span_enter(Phase::SettleRefund);
                t.settle(unit, now);
                t.audit_check(now, "settle");
            }
            Event::FaultExpire { unit } => {
                if !t.units.live(unit) {
                    continue;
                }
                let _span = tel.span_enter(Phase::FaultProcessing);
                // Only units created with a fate have a FaultExpire.
                let Some(cause) = t.units[unit].fault else {
                    continue;
                };
                let idx = t.units[unit].payment();
                if t.fail(unit, cause, now) {
                    sender_reaction(&mut t, idx, cause.blamed(), now, split);
                }
                t.audit_check(now, "fault-expire");
            }
            Event::Fault(ev) => {
                let _span = tel.span_enter(Phase::FaultProcessing);
                let down = t.apply_fault(&ev, now);
                if !down.is_empty() {
                    for (unit, blamed) in t.units_crossing(&down) {
                        let idx = t.units[unit].payment();
                        if t.fail(unit, FailCause::Outage(blamed), now) {
                            sender_reaction(&mut t, idx, blamed, now, split);
                        }
                    }
                    t.audit_check(now, "fault");
                }
            }
            Event::Tick => {
                let _span = tel.span_enter(Phase::QueueDrain);
                tel.counter_add("sim.scheduler.polls", 1);
                t.begin_tick(now);
                if split {
                    let (due, skipped) = t.due_in_order(config.policy);
                    scheme.count_skipped(skipped);
                    for idx in due {
                        pump_payment(&mut t, scheme, config, idx, now);
                    }
                }
                t.end_tick(now);
                t.checkpoint(ckpt, fp, || scheme.checkpoint_state().unwrap_or_default())?;
            }
            // Only seeded when routers rebalance.
            Event::RebalanceCheck => rebalance_check(&mut t, now, config.end_time),
            Event::RebalanceApply { channel } => rebalance_apply(&mut t, channel, now),
            // Units hop only under the router-queued driver.
            Event::HopArrive { .. } => {}
        }
    }

    for (name, value) in scheme.telemetry_stats() {
        tel.counter_add(name, value);
    }
    let policy = if split {
        config.policy.name()
    } else {
        "atomic"
    };
    Ok(t.finish(scheme.name(), policy.to_string()))
}

/// Sends as many transaction units of one pending payment as the scheme and
/// balances allow right now. Under fault injection the scheme routes
/// against the payment's masked view (downed channels and those it
/// blacklists read as empty), its retry backoff gates the whole pump, and
/// each sent unit is dealt its fate (deliver / drop / grief) by
/// `FaultConfig::unit_fate`.
fn pump_payment(
    t: &mut Transport,
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
    idx: usize,
    now: f64,
) {
    if t.faults.is_some() && now < t.recovery[idx].not_before {
        // Backing off after a fault failure.
        return;
    }
    let tel = t.tel;
    let _span = tel.span_enter(Phase::UnitDispatch);
    let tx = t.row(idx);
    let (src, dst) = (tx.src, tx.dst);
    loop {
        let remaining = t.payments[idx].remaining(tx.amount);
        if !remaining.is_positive() {
            break;
        }
        if t.congestion
            .as_mut()
            .is_some_and(|cc| !cc.may_send(src, dst))
        {
            tel.counter_add("sim.congestion.blocked", 1);
            break;
        }
        let unit = remaining.min(config.mtu);
        let decision = t.with_sender_view(idx, now, |view| {
            scheme.route_unit(t.network, view, src, dst, unit)
        });
        let path = match decision {
            UnitDecision::Route(path) => path,
            UnitDecision::Unavailable => {
                if let Some(cc) = t.congestion.as_mut() {
                    cc.on_unavailable(src, dst);
                }
                t.park(scheme, idx, unit);
                break;
            }
            UnitDecision::Never => {
                // Under fault injection "no path" may just mean every route
                // is currently masked out; keep the payment alive so it can
                // retry once channels recover or the blacklist expires.
                if t.faults.is_none() {
                    t.abandon(idx, now);
                }
                break;
            }
        };
        // Defensive re-check: a scheme with cached paths may ignore the
        // masked view; never lock across a dead or blacklisted channel.
        if (t.faults.as_ref()).is_some_and(|faults| {
            let recovery = &t.recovery[idx];
            faults.path_blocked(&path)
                || (path.hops().iter()).any(|&(c, _)| recovery.avoids(c, now))
        }) {
            break;
        }
        if t.ledger.lock_path(t.network, &path, unit).is_err() {
            // Scheme raced its own view; treat as temporarily unavailable.
            t.wake(idx);
            break;
        }
        if let Some(cc) = t.congestion.as_mut() {
            cc.on_send(src, dst);
        }
        let fate = match t.faults.as_mut() {
            Some(faults) => {
                let (config, stats) = (&faults.config, &mut faults.stats);
                config.unit_fate(tx.id.0, t.payments[idx].sent, &path, stats)
            }
            None => UnitFate::Deliver { jitter: 0.0 },
        };
        let (hops, num_hops) = (path.hops(), path.len());
        let (fault, fire_at) = match fate {
            UnitFate::Deliver { jitter } => (None, now + config.delta + jitter),
            UnitFate::Drop { at_frac, hop_index } => (
                Some(FailCause::Dropped(hops[hop_index.min(num_hops - 1)].0)),
                now + at_frac * config.delta,
            ),
            UnitFate::Grief { hold } => (
                Some(FailCause::Griefed(hops[num_hops - 1].0)),
                now + config.delta + hold,
            ),
        };
        let unit = t.send(idx, path, unit, num_hops, now);
        t.units[unit].fault = fault;
        let outcome = match fault {
            Some(_) => Event::FaultExpire { unit },
            None => Event::Settle { unit },
        };
        t.queue.push(fire_at, outcome);
    }
}

/// Attempts an atomic payment at arrival; fails it permanently if the
/// scheme cannot deliver the whole value now. Under fault injection the
/// scheme routes against the masked view, so it never plans across downed
/// channels.
fn attempt_atomic(
    t: &mut Transport,
    scheme: &mut dyn RoutingScheme,
    config: &SimConfig,
    idx: usize,
    now: f64,
) {
    let _span = t.tel.span_enter(Phase::UnitDispatch);
    let tx = t.row(idx);
    let (src, dst, amount) = (tx.src, tx.dst, tx.amount);
    let parts = t.with_sender_view(idx, now, |view| {
        scheme.route_payment(t.network, view, src, dst, amount)
    });
    let Some(parts) = parts else {
        return t.abandon(idx, now);
    };
    // Lock all parts; roll back everything if any lock fails (the schemes
    // pre-check with an overlay, so this is a defensive path).
    let mut locked: Vec<(Path, Amount)> = Vec::with_capacity(parts.len());
    for (path, amount) in parts {
        if t.ledger.lock_path(t.network, &path, amount).is_err() {
            for (done_path, done_amount) in locked {
                if let Err(e) = t.ledger.refund_path(t.network, &done_path, done_amount) {
                    record_release(&mut t.release_violations, now, "atomic-rollback", &e);
                }
            }
            return t.abandon(idx, now);
        }
        locked.push((path, amount));
    }
    for (path, amount) in locked {
        let hops = path.len();
        let unit = t.send(idx, Arc::new(path), amount, hops, now);
        t.queue.push(now + config.delta, Event::Settle { unit });
    }
}

/// Sender-side reaction to one failed unit: without a retry policy the
/// payment is abandoned on its first fault failure; with one, its recovery
/// record blacklists the blamed channel and the payment backs off
/// exponentially, serving again in policy order once the backoff has
/// passed — until the per-payment attempt budget runs out.
fn sender_reaction(t: &mut Transport, idx: usize, blamed: ChannelId, now: f64, split: bool) {
    let Some(faults) = t.faults.as_mut() else {
        return;
    };
    if t.payments[idx].status != PaymentStatus::Pending {
        return;
    }
    // Atomic senders have no unit-level retry machinery: the payment's
    // all-or-nothing guarantee is already broken, so it fails outright.
    let Some(policy) = (faults.config.retry.as_ref()).filter(|_| split) else {
        faults.stats.payments_failed += 1;
        return t.abandon(idx, now);
    };
    let until = now + policy.blacklist_duration;
    let recovery = &mut t.recovery[idx];
    let retry = recovery.fault(policy, blamed, now, until, &mut faults.stats);
    t.tel.emit(|| TraceEvent::ChannelBlacklisted {
        t: now,
        channel: blamed.index() as u32,
        until,
    });
    let Some((attempt, backoff)) = retry else {
        return t.abandon(idx, now);
    };
    recovery.not_before = recovery.not_before.max(now + backoff);
    t.tel.emit(|| TraceEvent::PaymentRetry {
        t: now,
        payment: t.row(idx).id.0,
        attempt,
        backoff,
    });
}

/// Routers inspect channel skew and submit an on-chain correction for
/// every channel past the policy's threshold.
fn rebalance_check(t: &mut Transport, now: f64, end_time: f64) {
    for ch in t.network.channels() {
        if t.rebalance_pending[ch.id.index()] {
            continue;
        }
        let (a, b) = t.ledger.balances(ch.id);
        if rebalancer::correction(a, b).is_some() {
            t.rebalance_pending[ch.id.index()] = true;
            let confirmed = now + rebalancer::CONFIRMATION_DELAY;
            t.queue
                .push(confirmed, Event::RebalanceApply { channel: ch.id });
        }
    }
    let next = now + rebalancer::CHECK_INTERVAL;
    if next <= end_time {
        t.queue.push(next, Event::RebalanceCheck);
    }
}

/// A submitted rebalancing transaction confirms.
fn rebalance_apply(t: &mut Transport, channel: ChannelId, now: f64) {
    t.rebalance_pending[channel.index()] = false;
    let (taken, fee_paid) =
        match rebalancer::apply(&mut t.ledger, t.network, channel, t.audit.as_mut(), now) {
            Ok(Some(moved)) => moved,
            Ok(None) => return,
            Err(e) => {
                return record_release(&mut t.release_violations, now, "rebalance-deposit", &e)
            }
        };
    t.rebalance.add((taken, fee_paid));
    if let Some(wake) = t.wake_lists.as_mut() {
        wake.credit([(channel, Direction::AtoB), (channel, Direction::BtoA)]);
    }
    t.tel.emit(|| TraceEvent::RebalanceApplied {
        t: now,
        channel: channel.index() as u32,
        moved: tokens(taken),
        fee: tokens(fee_paid),
    });
}

// ---------------------------------------------------------------------------
// Queueing at the routers (Fig. 3 / §4.2): a unit is admitted as soon as
// its first hop can be funded; at every router it either locks the next
// hop or waits in that channel direction's queue, which drains first come,
// first served whenever a settlement replenishes it. The paper's own
// evaluation "leave[s] implementing in-network queues … to future work".

/// Runs the router-queued transport over `transactions`.
///
/// Routing is waterfilling-style over 4 edge-disjoint shortest paths, but
/// a unit is admitted when its *first hop* can be funded. The trace must be
/// sorted by arrival time, as for [`run`].
pub fn run_queued(
    network: &Network,
    transactions: &[Transaction],
    config: &QueuedConfig,
) -> QueuedReport {
    let tel = &config.telemetry;
    let timing = [config.end_time, POLL_INTERVAL, config.deadline];
    let mut t = Transport::new(network, transactions, tel, timing, config.mtu, true, None);
    t.router = RouterQueues::new(network.num_channels());
    let mut paths = PathCache::new(PathStrategy::EdgeDisjoint(NUM_PATHS));
    t.seed(None, false);

    while let Some((now, event)) = t.pop() {
        if now > config.end_time {
            break;
        }
        match event {
            Event::Arrival(i) => {
                let _span = tel.span_enter(Phase::RoutingDecision);
                t.arrive(i, now);
                pump_source(&mut t, &mut paths, config, i, now);
            }
            Event::HopArrive { unit } => {
                let u = &t.units[unit];
                let _span = tel.span_enter(Phase::QueueDrain);
                if u.locked as usize == u.path.len() {
                    // Reached the destination; key released after Δ.
                    t.queue.push(now + DELTA, Event::Settle { unit });
                } else {
                    try_forward(&mut t, unit, now);
                }
            }
            Event::Settle { unit } => {
                let _span = tel.span_enter(Phase::SettleRefund);
                t.settle(unit, now);
                // Every hop's receiving side gained funds: drain the queues
                // that send *from* those sides.
                let path = Arc::clone(&t.units[unit].path);
                for &(c, d) in path.hops() {
                    drain_queue(&mut t, c, sender_side(d.reverse()), now);
                }
            }
            Event::Tick => {
                let _span = tel.span_enter(Phase::QueueDrain);
                tel.counter_add("sim.scheduler.polls", 1);
                t.begin_tick(now);
                sweep_expired(&mut t, now);
                for idx in t.due_in_order(SchedulePolicy::Srpt).0 {
                    pump_source(&mut t, &mut paths, config, idx, now);
                }
                t.end_tick(now);
            }
            // Faults and rebalancing exist only under the source-queued
            // driver.
            Event::Fault(_)
            | Event::FaultExpire { .. }
            | Event::RebalanceCheck
            | Event::RebalanceApply { .. } => {}
        }
    }

    let path_stats = paths.stats();
    tel.counter_add("routing.paths.lookups", path_stats.lookups);
    tel.counter_add("routing.paths.computed_pairs", path_stats.computed_pairs);
    tel.counter_add("routing.paths.computed", path_stats.computed_paths);
    let mut queues = t.router.stats;
    if t.router.dequeues > 0 {
        queues.mean_wait = t.router.total_wait / t.router.dequeues as f64;
    }
    let policy = format!("{}+Fifo", SchedulePolicy::Srpt.name());
    QueuedReport {
        report: t.finish("queued-waterfilling", policy),
        queues,
    }
}

/// First-hop admission: sends as many units of one pending payment as its
/// first hop can fund.
fn pump_source(
    t: &mut Transport,
    paths: &mut PathCache,
    config: &QueuedConfig,
    idx: usize,
    now: f64,
) {
    let _span = t.tel.span_enter(Phase::UnitDispatch);
    let tx = t.row(idx);
    let (src, dst) = (tx.src, tx.dst);
    loop {
        let remaining = t.payments[idx].remaining(tx.amount);
        if !remaining.is_positive() {
            break;
        }
        let amount = remaining.min(config.mtu);
        let candidates = paths.paths(t.network, src, dst);
        if candidates.is_empty() {
            t.abandon(idx, now);
            break;
        }
        // Waterfilling preference by full-path bottleneck, but admission
        // only requires the first hop to be fundable: downstream dry
        // spells are absorbed by router queues.
        let best = t.with_sender_view(idx, now, |view| {
            waterfilling::best_path(view, candidates).map(|(_, path)| Arc::clone(path))
        });
        let Some(best) = best else {
            break;
        };
        let (c0, _) = best.hops()[0];
        if t.ledger.lock_hop(t.network, c0, src, amount).is_err() {
            break;
        }
        let unit = t.send(idx, best, amount, 1, now);
        t.queue.push(now + HOP_DELAY, Event::HopArrive { unit });
    }
}

/// A unit at an intermediate router locks its next hop, or else joins the
/// back of that channel direction's queue.
fn try_forward(t: &mut Transport, unit: usize, now: f64) {
    let u = &t.units[unit];
    let at = u.locked as usize;
    let (c, d) = u.path.hops()[at];
    if (t.ledger)
        .lock_hop(t.network, c, u.path.nodes()[at], u.amount)
        .is_ok()
    {
        t.units[unit].locked += 1;
        t.queue.push(now + HOP_DELAY, Event::HopArrive { unit });
        return;
    }
    let q = &mut t.router.queues[c.index()][sender_side(d)];
    if q.len() >= MAX_QUEUE_LEN {
        return drop_unit(t, unit, now);
    }
    q.push_back((unit, now));
    let depth = q.len();
    t.router.stats.units_queued += 1;
    t.router.stats.max_queue_len = t.router.stats.max_queue_len.max(depth);
    t.tel.emit(|| TraceEvent::UnitQueued {
        t: now,
        payment: t.row(u.payment()).id.0,
        channel: c.index() as u32,
        depth: depth as u32,
    });
}

/// Services a channel direction's queue after its sending side gained
/// funds. The head blocks the rest (no bypass), so arrival order holds.
fn drain_queue(t: &mut Transport, channel: ChannelId, side: usize, now: f64) {
    while let Some(&(head, queued_at)) = t.router.queues[channel.index()][side].front() {
        if t.deadline(t.units[head].payment()) <= now {
            // Expired while waiting.
            t.router.queues[channel.index()][side].pop_front();
            drop_unit(t, head, now);
            continue;
        }
        let u = &t.units[head];
        let from = u.path.nodes()[u.locked as usize];
        if t.ledger
            .lock_hop(t.network, channel, from, u.amount)
            .is_err()
        {
            break;
        }
        t.router.queues[channel.index()][side].pop_front();
        t.router.total_wait += now - queued_at;
        t.router.dequeues += 1;
        t.units[head].locked += 1;
        t.queue
            .push(now + HOP_DELAY, Event::HopArrive { unit: head });
    }
}

/// Sweeps units whose payment deadline passed out of every router queue,
/// so their upstream locks are refunded promptly (not only when a
/// settlement happens to poke the queue).
fn sweep_expired(t: &mut Transport, now: f64) {
    let expired =
        |t: &Transport, &(unit, _): &(usize, f64)| t.deadline(t.units[unit].payment()) <= now;
    for c in 0..t.router.queues.len() {
        for side in 0..2 {
            if !t.router.queues[c][side].iter().any(|e| expired(t, e)) {
                continue;
            }
            // Out of the table while `expired` reads the transport.
            let mut q = std::mem::take(&mut t.router.queues[c][side]);
            let dropped: Vec<usize> = q.iter().filter(|e| expired(t, e)).map(|e| e.0).collect();
            q.retain(|e| !expired(t, e));
            t.router.queues[c][side] = q;
            for unit in dropped {
                drop_unit(t, unit, now);
            }
        }
    }
}

/// Drops a unit from the network: every upstream lock is refunded and the
/// value returns to the payment's "remaining", so the source can resend it
/// (until the payment's own deadline).
fn drop_unit(t: &mut Transport, unit: usize, now: f64) {
    let u = &t.units[unit];
    let (next_hop, _) = u.path.hops()[u.locked as usize];
    t.fail(unit, FailCause::Liquidity(next_hop), now);
    t.router.stats.units_dropped += 1;
}

// ---------------------------------------------------------------------------
// The snapshot fingerprint: a CRC-32 over the simulation inputs and every
// config field that shapes the run. A resume whose recomputed fingerprint
// differs from the snapshot's is rejected before any state is applied.

fn fingerprint(
    network: &Network,
    transactions: &[Transaction],
    config: &SimConfig,
    scheme_name: &str,
) -> u32 {
    let mut e = Enc::new();
    snapshot::enc_inputs(&mut e, network, transactions);
    e.str(scheme_name);
    for v in [
        config.end_time,
        config.delta,
        config.poll_interval,
        config.deadline,
    ] {
        e.f64(v);
    }
    e.i64(config.mtu.micros());
    e.opt(config.faults.as_ref().map(|plan| {
        |e: &mut Enc| {
            snapshot::enc_json(e, &plan.config);
            e.seq(&plan.events, |e, (t, ev)| {
                e.f64(*t);
                snapshot::enc_fault_event(e, ev);
            });
        }
    }));
    e.bool(config.telemetry.is_enabled());
    e.f64(config.telemetry.sample_interval().unwrap_or(f64::NAN));
    e.str(config.policy.name());
    e.bool(config.audit);
    e.opt(config.rebalance.then_some(rebalancer::fingerprint));
    e.opt(config.congestion.then_some(congestion::fingerprint));
    crc32(&e.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::{NodeId, PaymentId};
    use spider_routing::{MaxFlowScheme, ShortestPathScheme, WaterfillingScheme};

    fn line3(cap: i64) -> Network {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(cap))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(cap))
            .unwrap();
        g
    }

    fn tx(id: u64, src: u32, dst: u32, amount: i64, arrival: f64) -> Transaction {
        Transaction {
            id: PaymentId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            amount: Amount::from_whole(amount),
            arrival,
        }
    }

    #[test]
    fn single_payment_completes_packet_switched() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let mut scheme = ShortestPathScheme::new();
        let report = run(&g, &txs, &mut scheme, &SimConfig::new(10.0));
        assert_eq!(report.attempted, 1);
        assert_eq!(report.completed, 1);
        assert!((report.success_volume() - 1.0).abs() < 1e-9);
        // 30 tokens at MTU 10 = 3 units.
        assert_eq!(report.units_sent, 3);
        assert!(report.mean_completion_delay >= 0.5); // at least Δ
    }

    #[test]
    fn single_payment_completes_atomic() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let mut scheme = MaxFlowScheme::new();
        let report = run(&g, &txs, &mut scheme, &SimConfig::new(10.0));
        assert_eq!(report.completed, 1);
        assert_eq!(report.policy, "atomic");
    }

    #[test]
    fn atomic_fails_what_packet_switching_delivers() {
        // Each channel side holds 50. Two opposing 80-token payments:
        // atomic max-flow needs 80 at once in one direction (> 50) and
        // fails both; packet switching interleaves 10-token units whose
        // settlements continually refresh the opposite direction.
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 80, 0.1), tx(1, 2, 0, 80, 0.1)];
        let atomic = run(&g, &txs, &mut MaxFlowScheme::new(), &SimConfig::new(30.0));
        assert_eq!(atomic.completed, 0);
        assert_eq!(atomic.abandoned, 2);
        let mut cfg = SimConfig::new(30.0);
        cfg.deadline = 20.0;
        let packet = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(
            packet.completed, 2,
            "packet-switched should finish: {packet:?}"
        );
    }

    #[test]
    fn deadline_abandons_but_keeps_partial_volume() {
        // Only 20 spendable toward the destination; a 100-token payment
        // can deliver at most 20 + settled-refresh before the deadline.
        let mut g = Network::new(2);
        g.add_channel_with_balances(NodeId(0), NodeId(1), Amount::from_whole(20), Amount::ZERO)
            .unwrap();
        let txs = vec![tx(0, 0, 1, 100, 0.1)];
        let mut cfg = SimConfig::new(30.0);
        cfg.deadline = 2.0;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 0);
        assert_eq!(report.abandoned, 1);
        assert!(report.delivered_volume >= 20.0 - 1e-9, "{report:?}");
        assert!(report.success_volume() > 0.0);
        assert_eq!(report.strict_success_volume(), 0.0);
    }

    #[test]
    fn settlement_delay_gates_throughput() {
        // One channel, 10 spendable per side, MTU 10: each unit must wait
        // for the previous settle (Δ = 0.5 s) to free inflight... actually
        // lock is on sender side only, so the limit is sender balance 10 -> 1
        // unit per Δ once drained; 40 tokens need ~4 settles ≈ 2 s? No:
        // settles credit the RECEIVER, they never refresh the sender.
        // One-way flow drains after 1 unit of 10: delivered = 10 only.
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(20))
            .unwrap();
        let txs = vec![tx(0, 0, 1, 40, 0.1)];
        let mut cfg = SimConfig::new(20.0);
        cfg.deadline = 10.0;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.delivered_volume, 10.0);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn opposing_flows_sustain_each_other() {
        // Bidirectional demand keeps the channel balanced: both complete.
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(20))
            .unwrap();
        let txs = vec![tx(0, 0, 1, 40, 0.1), tx(1, 1, 0, 40, 0.1)];
        let mut cfg = SimConfig::new(60.0);
        cfg.deadline = 50.0;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 2, "{report:?}");
    }

    #[test]
    fn waterfilling_uses_multiple_paths() {
        // Diamond: two 2-hop paths between 0 and 3.
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(20))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(3), Amount::from_whole(20))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(2), Amount::from_whole(20))
            .unwrap();
        g.add_channel(NodeId(2), NodeId(3), Amount::from_whole(20))
            .unwrap();
        let txs = vec![tx(0, 0, 3, 20, 0.1)];
        let report = run(
            &g,
            &txs,
            &mut WaterfillingScheme::new(),
            &SimConfig::new(10.0),
        );
        assert_eq!(report.completed, 1);
        // 20 tokens across two paths of 10 spendable each: single-path
        // shortest-path in the same window would strand at 10.
        let sp = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(10.0),
        );
        assert!(sp.delivered_volume <= 10.0 + 1e-9);
    }

    #[test]
    fn arrivals_after_end_time_ignored() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 10, 0.1), tx(1, 0, 2, 10, 99.0)];
        let report = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(5.0),
        );
        assert_eq!(report.attempted, 1);
    }

    #[test]
    fn deterministic_runs() {
        let g = line3(50);
        let txs: Vec<Transaction> = (0..20)
            .map(|i| {
                tx(
                    i,
                    (i % 2) as u32 * 2,
                    2 - (i % 2) as u32 * 2,
                    15,
                    0.1 * i as f64,
                )
            })
            .collect();
        let a = run(
            &g,
            &txs,
            &mut WaterfillingScheme::new(),
            &SimConfig::new(10.0),
        );
        let b = run(
            &g,
            &txs,
            &mut WaterfillingScheme::new(),
            &SimConfig::new(10.0),
        );
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.units_sent, b.units_sent);
        assert_eq!(a.delivered_volume, b.delivered_volume);
    }

    #[test]
    fn rebalancing_rescues_one_way_traffic() {
        // One-way demand drains the channel; with on-chain rebalancing the
        // router keeps topping the sender side back up.
        let mut g = Network::new(2);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(40))
            .unwrap();
        let txs: Vec<Transaction> = (0..8)
            .map(|i| tx(i, 0, 1, 20, 1.0 + 4.0 * i as f64))
            .collect();
        let mut cfg = SimConfig::new(60.0);
        cfg.deadline = 30.0;
        let plain = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);

        cfg.rebalance = true;
        let rebalanced = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);

        assert!(
            rebalanced.delivered_volume > 2.0 * plain.delivered_volume,
            "rebalancing should unlock one-way flow: {} vs {}",
            rebalanced.delivered_volume,
            plain.delivered_volume
        );
        assert!(rebalanced.rebalance.transactions > 0);
        assert!(rebalanced.rebalance.fees_paid > 0.0);
        assert_eq!(plain.rebalance.transactions, 0);
    }

    #[test]
    fn rebalancing_idle_on_balanced_traffic() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 20, 0.1), tx(1, 2, 0, 20, 0.1)];
        let mut cfg = SimConfig::new(20.0);
        cfg.rebalance = true;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.completed, 2);
        assert_eq!(
            report.rebalance.transactions, 0,
            "balanced flows must not trigger on-chain transactions"
        );
    }

    #[test]
    fn congestion_window_limits_inflight() {
        // Large payment, small initial window: only about four units in
        // flight per settle round-trip, so delivery is window-paced.
        let g = line3(1000);
        let txs = vec![tx(0, 0, 2, 200, 0.1)];
        let mut cfg = SimConfig::new(30.0);
        cfg.deadline = 25.0;
        let unlimited = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);

        cfg.congestion = true;
        let windowed = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);

        assert_eq!(unlimited.completed, 1);
        assert_eq!(windowed.completed, 1, "windowing delays, not prevents");
        assert!(
            windowed.mean_completion_delay > 2.0 * unlimited.mean_completion_delay,
            "window pacing must slow the transfer: {} vs {}",
            windowed.mean_completion_delay,
            unlimited.mean_completion_delay
        );
    }

    #[test]
    fn congestion_backoff_under_contention() {
        // A drained channel generates Unavailable; the window must shrink
        // and the run must still terminate cleanly.
        let mut g = Network::new(2);
        g.add_channel_with_balances(NodeId(0), NodeId(1), Amount::from_whole(10), Amount::ZERO)
            .unwrap();
        let txs = vec![tx(0, 0, 1, 100, 0.1)];
        let mut cfg = SimConfig::new(10.0);
        cfg.deadline = 5.0;
        cfg.congestion = true;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        assert_eq!(report.abandoned, 1);
        assert!(report.delivered_volume >= 10.0 - 1e-9);
    }

    #[test]
    fn audit_clean_across_features() {
        // Exercise settles, deadline refunds and rebalancing in one run
        // each — the auditor must stay silent.
        let base_txs = vec![tx(0, 0, 2, 80, 0.1), tx(1, 2, 0, 80, 0.1)];
        let mut cfg = SimConfig::new(30.0);
        cfg.deadline = 20.0;
        cfg.audit = true;

        let g = line3(100);
        let plain = run(&g, &base_txs, &mut ShortestPathScheme::new(), &cfg);
        assert!(plain.audit_checks > 0);
        assert!(
            plain.audit_violations.is_empty(),
            "{:?}",
            plain.audit_violations
        );

        let mut reb_cfg = cfg.clone();
        reb_cfg.rebalance = true;
        let mut g2 = Network::new(2);
        g2.add_channel(NodeId(0), NodeId(1), Amount::from_whole(40))
            .unwrap();
        let one_way: Vec<Transaction> = (0..8)
            .map(|i| tx(i, 0, 1, 20, 1.0 + 4.0 * i as f64))
            .collect();
        let reb = run(&g2, &one_way, &mut ShortestPathScheme::new(), &reb_cfg);
        assert!(reb.rebalance.transactions > 0, "rebalancing must fire");
        assert!(
            reb.audit_violations.is_empty(),
            "{:?}",
            reb.audit_violations
        );
    }

    #[test]
    fn audit_disabled_reports_zero_checks() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let report = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(10.0),
        );
        assert_eq!(report.audit_checks, 0);
        assert!(report.audit_violations.is_empty());
    }

    #[test]
    fn unroutable_pair_abandons_immediately() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        let txs = vec![tx(0, 0, 2, 5, 0.1)];
        let report = run(
            &g,
            &txs,
            &mut ShortestPathScheme::new(),
            &SimConfig::new(5.0),
        );
        assert_eq!(report.abandoned, 1);
        assert_eq!(report.units_sent, 0);
    }

    #[test]
    fn scripted_outage_refunds_inflight_then_retry_recovers() {
        use crate::faults::{FaultConfig, FaultEvent, FaultPlan};
        use spider_core::ChannelId;
        // Channel 1 (the 1–2 hop) dies at t=0.3 with three 10-token units
        // in flight (settle would land at 0.6), then recovers at 1.0. The
        // sender must refund, blacklist, back off, and resend.
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let plan = FaultPlan::scripted(
            vec![
                (0.3, FaultEvent::ChannelDown(ChannelId(1))),
                (1.0, FaultEvent::ChannelUp(ChannelId(1))),
            ],
            FaultConfig::default(), // retry enabled by default
        );
        let mut cfg = SimConfig::new(15.0);
        cfg.deadline = 10.0;
        cfg.audit = true;
        cfg.faults = Some(plan);
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        let stats = report.faults.expect("fault stats present");
        assert_eq!(stats.outages, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.units_refunded_by_outage, 3, "{stats:?}");
        assert!(stats.retries >= 1, "{stats:?}");
        assert!(stats.blacklistings >= 1, "{stats:?}");
        assert_eq!(report.completed, 1, "retry must recover: {report:?}");
        assert!(report.audit_checks > 0);
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
    }

    /// A unit refunded by an outage leaves flight like a settled one: it
    /// frees its slot in the pair's window. (Before, only a settle did:
    /// four lost units, still counted in flight, filled the window of 4
    /// and stopped the pair for good.)
    #[test]
    fn failed_unit_frees_its_congestion_window() {
        use crate::faults::{FaultConfig, FaultEvent, FaultPlan};
        use spider_core::ChannelId;
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 40, 0.1), tx(1, 0, 2, 10, 3.0)];
        let plan = FaultPlan::scripted(
            vec![
                (0.3, FaultEvent::ChannelDown(ChannelId(1))),
                (0.4, FaultEvent::ChannelUp(ChannelId(1))),
            ],
            FaultConfig::default(),
        );
        let mut cfg = SimConfig::new(10.0);
        cfg.faults = Some(plan);
        cfg.congestion = true;
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        let stats = report.faults.expect("fault stats present");
        assert_eq!(stats.units_refunded_by_outage, 4, "{stats:?}");
        assert_eq!(report.completed, 2, "{report:?}");
    }

    #[test]
    fn node_crash_without_retry_abandons_on_first_fault() {
        use crate::faults::{FaultConfig, FaultEvent, FaultPlan};
        // Relay node 1 crashes mid-flight and the sender has no retry
        // policy: the payment is abandoned immediately (the recovery
        // baseline for the sweep in spider-experiments).
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let plan = FaultPlan::scripted(
            vec![
                (0.3, FaultEvent::NodeDown(NodeId(1))),
                (1.0, FaultEvent::NodeUp(NodeId(1))),
            ],
            FaultConfig {
                retry: None,
                ..FaultConfig::default()
            },
        );
        let mut cfg = SimConfig::new(15.0);
        cfg.deadline = 10.0;
        cfg.audit = true;
        cfg.faults = Some(plan);
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        let stats = report.faults.expect("fault stats present");
        assert_eq!(stats.node_crashes, 1);
        assert!(stats.units_refunded_by_outage > 0, "{stats:?}");
        assert_eq!(stats.payments_failed, 1, "{stats:?}");
        assert_eq!(report.completed, 0, "{report:?}");
        assert_eq!(report.abandoned, 1, "{report:?}");
        assert_eq!(report.delivered_volume, 0.0);
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
    }

    #[test]
    fn random_fault_storm_is_audit_clean_and_deterministic() {
        use crate::faults::{FaultConfig, FaultPlan};
        // Every fault class at once: outages, churn, drops, jitter, and
        // griefing, with auditing after every balance-mutating event. Two
        // identical runs must serialize byte-identically.
        let g = line3(200);
        let txs: Vec<Transaction> = (0..24)
            .map(|i| {
                tx(
                    i,
                    (i % 2) as u32 * 2,
                    2 - (i % 2) as u32 * 2,
                    15,
                    0.1 + 0.4 * i as f64,
                )
            })
            .collect();
        let fc = FaultConfig {
            seed: 7,
            channel_outage_rate: 1.0,
            outage_duration: 1.0,
            node_churn_rate: 0.5,
            node_downtime: 1.0,
            unit_drop_prob: 0.1,
            settle_jitter: 0.3,
            grief_prob: 0.05,
            ..FaultConfig::default()
        };
        let mut cfg = SimConfig::new(20.0);
        cfg.deadline = 8.0;
        cfg.audit = true;
        cfg.faults = Some(FaultPlan::from_config(&fc, &g, 20.0));
        let a = run(&g, &txs, &mut WaterfillingScheme::new(), &cfg);
        let b = run(&g, &txs, &mut WaterfillingScheme::new(), &cfg);
        assert!(a.audit_checks > 0);
        assert!(a.audit_violations.is_empty(), "{:?}", a.audit_violations);
        let stats = a.faults.expect("fault stats present");
        assert!(stats.outages > 0, "storm must produce outages: {stats:?}");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "fault runs must be fully deterministic"
        );
    }

    #[test]
    fn griefed_units_pin_funds_then_refund() {
        use crate::faults::{FaultConfig, FaultPlan};
        // With grief_prob = 1 every unit is griefed: nothing settles, funds
        // stay pinned for `grief_hold` past Δ, then everything refunds with
        // exact conservation.
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let fc = FaultConfig {
            seed: 3,
            grief_prob: 1.0,
            grief_hold: 1.0,
            retry: None,
            ..FaultConfig::default()
        };
        let mut cfg = SimConfig::new(10.0);
        cfg.deadline = 6.0;
        cfg.audit = true;
        cfg.faults = Some(FaultPlan::from_config(&fc, &g, 10.0));
        let report = run(&g, &txs, &mut ShortestPathScheme::new(), &cfg);
        let stats = report.faults.expect("fault stats present");
        assert!(stats.units_griefed > 0, "{stats:?}");
        assert_eq!(report.completed, 0);
        assert_eq!(report.delivered_volume, 0.0);
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
    }

    // -- queueing at the routers ---------------------------------------------

    #[test]
    fn simple_payment_completes() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let out = run_queued(&g, &txs, &QueuedConfig::new(10.0));
        assert_eq!(out.report.completed, 1);
        assert_eq!(out.report.units_sent, 3);
        assert_eq!(out.queues.units_dropped, 0);
    }

    #[test]
    fn optimistic_admission_uses_router_queue() {
        // Second hop starts empty toward node 2: units are admitted on hop
        // one and must WAIT at router 1 until opposing traffic arrives.
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::ZERO, Amount::from_whole(50))
            .unwrap();
        let txs = vec![
            tx(0, 0, 2, 20, 0.1), // must queue at router 1
            tx(1, 2, 0, 20, 1.0), // opposing flow refills 1->2 side at settle
        ];
        let mut cfg = QueuedConfig::new(30.0);
        cfg.deadline = 20.0;
        let out = run_queued(&g, &txs, &cfg);
        assert!(
            out.queues.units_queued > 0,
            "units should queue: {:?}",
            out.queues
        );
        assert_eq!(out.report.completed, 2, "{:?}", out.report);
        assert!(out.queues.mean_wait > 0.0);
    }

    #[test]
    fn queued_units_expire_and_refund() {
        // Downstream never refills; queued units must drop and refund their
        // first-hop locks (conservation holds, delivered = 0).
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::ZERO, Amount::from_whole(50))
            .unwrap();
        let txs = vec![tx(0, 0, 2, 20, 0.1)];
        let mut cfg = QueuedConfig::new(30.0);
        cfg.deadline = 2.0;
        let out = run_queued(&g, &txs, &cfg);
        assert_eq!(out.report.completed, 0);
        assert_eq!(out.report.delivered_volume, 0.0);
        // The Tick sweep must refund expired queued units even with no
        // opposing traffic to poke the queue.
        assert!(out.queues.units_dropped > 0, "{:?}", out.queues);
    }

    #[test]
    fn queue_beats_source_queueing_under_transient_imbalance() {
        // Bursty opposing flows: optimistic admission pipelines better than
        // full-bottleneck gating. Both must complete everything eventually;
        // the queued engine should not be slower.
        let g = line3(60);
        let mut txs = Vec::new();
        for i in 0..10u64 {
            txs.push(tx(2 * i, 0, 2, 25, 0.1 + i as f64));
            txs.push(tx(2 * i + 1, 2, 0, 25, 0.6 + i as f64));
        }
        let mut cfg = QueuedConfig::new(60.0);
        cfg.deadline = 30.0;
        let queued = run_queued(&g, &txs, &cfg);
        assert!(
            queued.report.success_ratio() > 0.9,
            "queued transport should deliver nearly everything: {}",
            queued.report.summary()
        );
    }

    #[test]
    fn router_queues_serve_first_come_first() {
        // The 1 -> 2 side is dry, so units reaching router 1 queue there. A
        // 5-token unit due at t = 9 queues first; a 1-token unit due at
        // t = 2 (smaller and more urgent) still queues behind it.
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::ZERO, Amount::from_whole(50))
            .unwrap();
        let tel = Telemetry::disabled();
        let txs = [tx(0, 0, 2, 1, 0.0), tx(1, 0, 2, 5, 7.0)];
        let mut t = Transport::new(
            &g,
            &txs,
            &tel,
            [20.0, 0.1, 2.0],
            Amount::from_whole(10),
            true,
            None,
        );
        t.router = RouterQueues::new(g.num_channels());
        let path = Arc::new(Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap());
        let mut sent = Vec::new();
        for (i, tx) in txs.iter().enumerate() {
            t.arrive(i, tx.arrival);
            sent.push(t.send(i, Arc::clone(&path), tx.amount, 1, tx.arrival));
        }
        try_forward(&mut t, sent[1], 7.05);
        try_forward(&mut t, sent[0], 7.05);
        let queued: Vec<usize> = t.router.queues[1][0].iter().map(|&(u, _)| u).collect();
        assert_eq!(queued, [sent[1], sent[0]]);
        assert_eq!(t.router.stats.units_queued, 2);
    }

    #[test]
    fn router_queued_runs_are_deterministic() {
        let g = line3(50);
        let txs: Vec<Transaction> = (0..20)
            .map(|i| {
                tx(
                    i,
                    (i % 2) as u32 * 2,
                    2 - (i % 2) as u32 * 2,
                    15,
                    0.1 * i as f64,
                )
            })
            .collect();
        let a = run_queued(&g, &txs, &QueuedConfig::new(15.0));
        let b = run_queued(&g, &txs, &QueuedConfig::new(15.0));
        assert_eq!(a.report.completed, b.report.completed);
        assert_eq!(a.report.units_sent, b.report.units_sent);
        assert_eq!(a.queues.units_queued, b.queues.units_queued);
    }
}
