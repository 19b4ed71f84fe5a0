//! The partition-parallel (sharded) simulation engine.
//!
//! One simulation is split across `partition.num_shards()` OS threads
//! advancing in **lockstep epochs** of [`EPOCH`] seconds (a BSP loop with
//! two [`std::sync::Barrier`] crossings per epoch). Each shard owns
//!
//! - the **payments** whose id hashes to it (`payment_id % num_shards` —
//!   topology-free, so sender skew cannot imbalance the pump work), and
//! - the **ledger slots** of the channels the [`Partition`] assigns to it:
//!   only the owner shard ever mutates a channel's two balances, enforced
//!   at run time by the
//!   [`ForeignSlotMutation`](crate::audit::AuditViolationKind) guard in
//!   debug *and* release builds.
//!
//! Transaction units travel hop by hop as messages: the payment owner
//! routes a unit against a barrier-frozen balance snapshot and sends a
//! lock request to the first hop's owner; each successful hop lock
//! forwards to the next owner one epoch later; the final hop schedules
//! settles (or a fault schedules refunds) on every hop owner plus a
//! notification to the payment owner. Within an epoch every shard
//! processes its due messages in a globally deterministic
//! `(kind, payment, unit, hop)` order, and all cross-shard state (balance
//! snapshots, messages) is exchanged only at barriers.
//!
//! **The epoch agenda** is where a shard keeps those messages until they
//! are due: a calendar whose *slot* is the fire epoch and whose slot holds
//! one *list* per message kind, in processing rank (settle, refund, lock,
//! delivered, failed). A list grows in arrival order; when its epoch comes
//! it is put in `(payment, unit, hop)` order — the key sits in the entry,
//! and the list is already a few sorted runs — and handled front to back,
//! rank after rank, which is the global order above. Every message is due
//! at least one epoch after the one that sends it, so a shard files a
//! message *to itself* in its slot on the spot: nobody reads that slot
//! before the next barrier, and the sort makes arrival order irrelevant.
//! Only messages for other shards wait for the exchange, and land in the
//! same lists. Slots up to `NEAR` epochs ahead sit in a ring; a later one
//! (a grief hold) waits in a sparse map until the ring reaches it.
//!
//! **Fates.** A unit's fate (delivered with jitter, dropped, or griefed) is
//! dealt at send time by the continuous-time engine's rule
//! (`FaultConfig::unit_fate`) from the unit's own [`SplitMix64`], seeded by
//! `(fault seed, payment, unit)`: a shared stream's draw order would depend
//! on the partition. The final hop's lock turns it into epochs.
//!
//! **Partition independence** is the engine's defining property: handlers
//! touch only state they own, cross-shard reads go through the frozen
//! snapshot, and every merge at the end of the run (trace, report sums,
//! histograms) is keyed by content, never by thread arrival order. The
//! merged [`SimReport`] and trace are therefore *byte-identical* at any
//! shard count — `tests/shard_equivalence.rs` locks this down against
//! shard counts {1, 2, 4, 7}.
//!
//! The sharded engine supports the full sequential feature set: the core
//! packet-switched loop (waterfilling / shortest-path routing, deadlines,
//! fault injection with sender retry, auditing, telemetry) plus the
//! extensions that used to be sequential-engine-only, each mapped onto an
//! unambiguous owner so partition independence survives:
//!
//! - **Router queues** ([`ShardPolicy::Queued`]): a unit that cannot lock
//!   a hop waits in a per-`(channel, direction)` queue *at the channel's
//!   owner shard* instead of failing. Queues drain head-of-line each epoch;
//!   queued units ride out outages and expire at their payment's deadline.
//!   Units join a queue only while the epoch's lock list is handled in
//!   order, so appending keeps it FIFO. [`ShardPolicy::Direct`] is the same
//!   lock path with queues that hold no unit: a refused lock fails.
//! - **Fees**: hop amounts are a pure function of the fee schedule and the
//!   unit's path, computed once at send time and carried with the unit;
//!   the payment owner accrues `routing_fees_paid` when a unit settles.
//! - **Congestion control**: a per-payment AIMD window at the payment
//!   owner gates how many units may be outstanding, driven by the same
//!   delivered/failed notifications that already flow to the owner.
//! - **Rebalancing**: each shard checks and corrects only the channels it
//!   owns, publishing the new balances through the ordinary dirty-balance
//!   exchange.
//!
//! The engine does not checkpoint: snapshots and resume belong to the
//! continuous-time engine ([`crate::engine::run_checkpointed`]), the one
//! that reproduces the paper's figures.

use crate::audit::{AuditViolation, AuditViolationKind, LedgerAudit};
use crate::congestion::CongestionConfig;
use crate::engine::{DELTA, MAX_QUEUE_LEN, POLL_INTERVAL};
use crate::faults::{FaultEvent, FaultPlan, FaultState, FaultStats, SplitMix64, UnitFate};
use crate::ledger::{sender_side, tokens, Ledger};
use crate::metrics::{tally, SimReport};
use crate::payment::{unit_count, PaymentStatus};
use crate::rebalancer::{RebalancePolicy, RebalanceStats};
use crate::transport::{record_release, MAX_RELEASE_VIOLATIONS};
use serde::{Deserialize, Serialize};
use spider_core::{Amount, BalanceView, ChannelId, Direction, Network, NodeId, Path};
use spider_routing::{
    FeeSchedule, RoutingScheme, ShortestPathScheme, UnitDecision, WaterfillingScheme,
};
use spider_telemetry::{HistogramSnapshot, NetworkSample, Phase, Telemetry, TraceEvent};
use spider_topology::Partition;
use spider_workload::Transaction;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex};

/// Epoch width in simulation seconds: the lockstep window all shards
/// advance by together. One hop lock, one message delay.
pub const EPOCH: f64 = 0.05;

/// Routing scheme selector for the sharded engine. Each shard instantiates
/// its own scheme; path caches are pure functions of the topology, so
/// per-shard instances route identically regardless of the partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardScheme {
    /// Cached BFS shortest path per pair.
    ShortestPath,
    /// The paper's waterfilling heuristic over 4 edge-disjoint paths.
    Waterfilling,
}

impl ShardScheme {
    fn build(&self) -> Box<dyn RoutingScheme> {
        match self {
            ShardScheme::ShortestPath => Box::new(ShortestPathScheme::new()),
            ShardScheme::Waterfilling => Box::new(WaterfillingScheme::new()),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ShardScheme::ShortestPath => "sharded-shortest-path",
            ShardScheme::Waterfilling => "sharded-waterfilling",
        }
    }
}

/// What a unit does when a hop lock cannot be granted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Circuit-style: a failed lock refunds the unit immediately (the
    /// original sharded-engine behavior).
    #[default]
    Direct,
    /// Packet-style: the unit waits in a router queue at the channel's
    /// owner shard and retries head-of-line each epoch until its
    /// payment's deadline.
    Queued,
}

/// Configuration for [`run_sharded`]. Mirrors the sequential
/// [`SimConfig`](crate::SimConfig) core; durations are quantized to whole
/// epochs internally.
///
/// The paper's transport constants are fixed: funds settle `Δ = 0.5 s`
/// after a unit reaches the receiver, and the scheduler ticks every 0.1 s.
/// Under [`ShardPolicy::Queued`] a router queue serves its units in the
/// order they arrived and holds at most 4096 of them: a unit arriving at a
/// full queue fails as a liquidity refusal.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Hard end of the measurement window (seconds).
    pub end_time: f64,
    /// Maximum transaction unit.
    pub mtu: Amount,
    /// Per-payment deadline window (seconds after arrival).
    pub deadline: f64,
    /// Routing scheme run by every payment owner.
    pub scheme: ShardScheme,
    /// Audit every shard's ledger copy once per epoch plus once at the end.
    pub audit: bool,
    /// Optional deterministic fault injection (outages, churn, drops,
    /// griefing, jitter, sender retry policy).
    pub faults: Option<FaultPlan>,
    /// Telemetry handle; when enabled, per-shard traces are merged into a
    /// deterministic global trace at the end of the run.
    pub telemetry: Telemetry,
    /// What a unit does when a hop lock fails: refund ([`ShardPolicy::Direct`])
    /// or wait in the owner shard's router queue ([`ShardPolicy::Queued`]).
    pub policy: ShardPolicy,
    /// Optional per-channel fee schedule; hop amounts then carry the
    /// downstream fees and settled units accrue `routing_fees_paid`.
    pub fees: Option<FeeSchedule>,
    /// Optional per-payment AIMD window limiting outstanding units.
    pub congestion: Option<CongestionConfig>,
    /// Optional on-chain rebalancing of owned channels.
    pub rebalance: Option<RebalancePolicy>,
}

impl ShardedConfig {
    /// The paper's defaults with the given measurement window.
    pub fn new(end_time: f64) -> Self {
        ShardedConfig {
            end_time,
            mtu: Amount::from_whole(10),
            deadline: 5.0,
            scheme: ShardScheme::Waterfilling,
            audit: false,
            faults: None,
            telemetry: Telemetry::disabled(),
            policy: ShardPolicy::Direct,
            fees: None,
            congestion: None,
            rebalance: None,
        }
    }
}

/// Simulation time of an epoch. The product is the *only* way epochs
/// become seconds, so every shard computes identical timestamps.
#[inline]
fn t_of(epoch: u64) -> f64 {
    epoch as f64 * EPOCH
}

/// A duration in whole epochs, at least one.
fn epochs_of(seconds: f64) -> u64 {
    ((seconds / EPOCH).round() as i64).max(1) as u64
}

/// The epoch in which something scheduled for time `t` happens: the first
/// one that ends at or after `t`, and never epoch zero.
fn epoch_of(t: f64) -> u64 {
    ((t / EPOCH).ceil() as i64).max(1) as u64
}

/// Locks a mutex, recovering the data from a poisoned lock (a panicking
/// sibling shard already aborts the run via its join handle).
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Total order on trace events: `(epoch, kind rank, id, sub-id)`. Keys are
/// unique by construction, so the merged sort is a pure function of the
/// run's content — never of shard interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    epoch: u64,
    rank: u8,
    a: u64,
    b: u64,
}

/// Where `event` sorts within its epoch in the merged trace: the merge
/// policy, also the semantic phase order.
fn merge_rank(event: &TraceEvent) -> u8 {
    use TraceEvent as E;
    match event {
        E::ChannelOutage { .. }
        | E::ChannelRecovered { .. }
        | E::NodeCrashed { .. }
        | E::NodeRecovered { .. } => 0,
        E::UnitSettled { .. } => 1,
        E::PaymentCompleted { .. } => 2,
        E::UnitDropped { .. } => 3,
        E::UnitGriefed { .. } => 4,
        E::UnitRefunded { .. } => 5,
        E::ChannelBlacklisted { .. } => 6,
        E::PaymentRetry { .. } => 7,
        E::PaymentArrived { .. } => 8,
        E::PaymentSplit { .. } => 9,
        E::PaymentAbandoned { .. } => 10,
        E::UnitSent { .. } => 11,
        E::ChannelSample { .. } => 12,
        E::UnitQueued { .. } => 13,
        E::RebalanceApplied { .. } => 14,
        E::SolverSample { .. } => 15, // never emitted by this engine
    }
}

/// Immutable per-unit routing state shared by every message about the unit.
#[derive(Debug)]
struct UnitInfo {
    payment: u64,
    seq: u32,
    amount: Amount,
    path: Arc<Path>,
    /// Dealt at send time by the shared rule (module docs, *Fates*).
    fate: UnitFate,
    /// Per-hop locked amounts when a fee schedule is active: the delivered
    /// amount plus all downstream fees. `None` means every hop locks
    /// exactly `amount`.
    hop_amounts: Option<Vec<Amount>>,
    /// The owning payment's deadline epoch, carried with the unit so the
    /// channel owner can expire queued units without payment state.
    deadline_epoch: u64,
}

impl UnitInfo {
    /// The one place a unit comes into being, at the pump. The fate and
    /// the per-hop amounts are pure functions of the config and the unit's
    /// identity, derived here; the fate is counted in `stats`.
    fn new(
        cfg: &ShardedConfig,
        stats: &mut FaultStats,
        payment: u64,
        seq: u32,
        amount: Amount,
        path: Arc<Path>,
        deadline_epoch: u64,
    ) -> UnitInfo {
        let fate = match cfg.faults.as_ref() {
            Some(plan) => {
                let mut rng = SplitMix64::new(
                    plan.config.seed
                        ^ payment.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ (u64::from(seq) << 20)
                        ^ 0xd1b5_4a32_d192_ed03,
                );
                let _ = rng.next_u64(); // decorrelate the seed mix
                plan.config.unit_fate(&mut rng, &path, stats)
            }
            None => UnitFate::Deliver { jitter: 0.0 },
        };
        let hop_amounts = (cfg.fees.as_ref()).and_then(|fees| fees.hop_amounts(&path, amount));
        UnitInfo {
            payment,
            seq,
            amount,
            path,
            fate,
            hop_amounts,
            deadline_epoch,
        }
    }

    /// The amount locked on `hop`: the delivered amount plus downstream
    /// fees when a fee schedule is active.
    fn hop_amount(&self, hop: u32) -> Amount {
        match &self.hop_amounts {
            Some(amounts) => amounts[hop as usize],
            None => self.amount,
        }
    }
}

/// Why a unit failed, as reported to the payment owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FailCause {
    /// A hop lock found insufficient spendable balance (snapshot raced
    /// in-epoch traffic). Not a fault: no blacklist, no retry budget.
    Liquidity,
    /// A hop lock hit a downed channel.
    Outage,
    /// Dropped mid-path by the per-unit loss process.
    Dropped,
    /// HTLC griefed at the final hop: funds pinned, then refunded.
    Griefed,
}

#[derive(Debug)]
enum MsgBody {
    /// Settle hop `hop` of the unit's path (to the hop channel's owner).
    SettleHop { hop: u32 },
    /// Refund hop `hop` of the unit's path (to the hop channel's owner).
    RefundHop { hop: u32 },
    /// Try to lock hop `hop` (to the hop channel's owner).
    LockHop { hop: u32 },
    /// The unit settled end-to-end (to the payment owner).
    UnitDelivered,
    /// The unit failed and its locked prefix was refunded (to the payment
    /// owner).
    UnitFailed { blamed: ChannelId, cause: FailCause },
}

impl MsgBody {
    fn rank(&self) -> u8 {
        match self {
            MsgBody::SettleHop { .. } => 0,
            MsgBody::RefundHop { .. } => 1,
            MsgBody::LockHop { .. } => 2,
            MsgBody::UnitDelivered => 3,
            MsgBody::UnitFailed { .. } => 4,
        }
    }

    fn hop(&self) -> u32 {
        match self {
            MsgBody::SettleHop { hop } | MsgBody::RefundHop { hop } | MsgBody::LockHop { hop } => {
                *hop
            }
            _ => 0,
        }
    }
}

/// One message about a unit, as it waits in its [`Agenda`] list. The
/// ordering key within the list — `(payment, seq, hop)`, the hop in `body` —
/// sits inline, so putting a list in order never reads through the `Arc`.
#[derive(Debug)]
struct Msg {
    payment: u64,
    seq: u32,
    body: MsgBody,
    unit: Arc<UnitInfo>,
}

impl Msg {
    fn new(body: MsgBody, unit: Arc<UnitInfo>) -> Msg {
        let (payment, seq) = (unit.payment, unit.seq);
        Msg {
            payment,
            seq,
            body,
            unit,
        }
    }

    /// Deterministic processing key within one rank list.
    fn order(&self) -> (u64, u32, u32) {
        (self.payment, self.seq, self.body.hop())
    }
}

/// How many epochs ahead the agenda keeps a slot ready. Lock forwards fire
/// one epoch out and settles Δ plus jitter out; a longer wait (a grief
/// hold) sits in the sparse overflow until it comes this close.
const NEAR: u64 = 64;

/// The messages due in one epoch: one list per [`MsgBody::rank`].
type Slot = [Vec<Msg>; 5];

/// One shard's future messages as a calendar (module docs, *The epoch
/// agenda*): slot = fire epoch, list = rank.
struct Agenda {
    /// The last epoch taken: every message held fires after it.
    now: u64,
    /// `near[f % NEAR]` is the slot of fire epoch `f`, `now < f <= now + NEAR`.
    near: Vec<Slot>,
    /// The slots of fire epochs beyond `now + NEAR`.
    far: BTreeMap<u64, Slot>,
}

impl Agenda {
    fn new(now: u64) -> Self {
        Agenda {
            now,
            near: (0..NEAR).map(|_| Slot::default()).collect(),
            far: BTreeMap::new(),
        }
    }

    /// Files `msg` under `fire_epoch`, which must lie ahead: no handler may
    /// add to the epoch it is running in.
    fn push(&mut self, fire_epoch: u64, msg: Msg) {
        let now = self.now;
        assert!(
            fire_epoch > now,
            "message due at epoch {fire_epoch} filed at {now}"
        );
        let slot = if fire_epoch.saturating_sub(now) <= NEAR {
            &mut self.near[(fire_epoch % NEAR) as usize]
        } else {
            self.far.entry(fire_epoch).or_default()
        };
        slot[usize::from(msg.body.rank())].push(msg);
    }

    /// Removes the slot of `epoch`, the one after `now`. The ring position
    /// it vacates stands for `epoch + NEAR` from here on and takes over
    /// that epoch's overflow, if any.
    fn take(&mut self, epoch: u64) -> Slot {
        assert_eq!(epoch, self.now.saturating_add(1), "epochs are consecutive");
        self.now = epoch;
        let horizon = self.far.remove(&epoch.saturating_add(NEAR));
        let vacated = &mut self.near[(epoch % NEAR) as usize];
        std::mem::replace(vacated, horizon.unwrap_or_default())
    }
}

/// A payment owned by this shard.
struct LocalPayment {
    id: u64,
    src: NodeId,
    dst: NodeId,
    amount: Amount,
    arrival_epoch: u64,
    deadline_epoch: u64,
    delivered: Amount,
    inflight: Amount,
    status: PaymentStatus,
    /// Completion delay in seconds, once completed.
    delay: Option<f64>,
    next_seq: u32,
    /// Per-payment blamed-channel blacklist: `(channel, blocked-until
    /// epoch)`. Payment-local so routing never depends on which other
    /// payments share the shard.
    blacklist: Vec<(ChannelId, u64)>,
    fail_count: u32,
    not_before_epoch: u64,
    /// AIMD congestion window (units); only consulted when congestion
    /// control is configured.
    window: f64,
    /// Units sent but not yet reported delivered or failed, gated against
    /// `window` at pump time.
    outstanding: u32,
}

/// A unit parked at an owned `(channel, direction)` router queue, waiting
/// for liquidity.
#[derive(Debug)]
struct QueuedUnit {
    unit: Arc<UnitInfo>,
    hop: u32,
}

/// Per-shard epoch metrics surfaced by [`run_sharded`] through
/// [`ShardObservability`]; each shard accumulates its own record as it
/// runs. Every counter field is a pure function of the simulation inputs
/// and the partition, so identically-configured runs always produce
/// identical counters; `barrier_wait_ms` is wall-clock and present only
/// when the run used a profiled telemetry handle.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardEpochMetrics {
    /// Shard rank.
    pub shard: u32,
    /// Epochs executed (same for every shard — the BSP loop is lockstep).
    pub epochs: u64,
    /// Payments owned by this shard (`payment_id % num_shards`).
    pub owned_payments: u64,
    /// Ledger channel slots owned by this shard.
    pub owned_channels: u64,
    /// Cross-shard messages processed (all kinds).
    pub events_processed: u64,
    /// Hop-settle messages handled.
    pub settle_msgs: u64,
    /// Hop-refund messages handled.
    pub refund_msgs: u64,
    /// Hop-lock messages handled.
    pub lock_msgs: u64,
    /// Payment-owner notifications handled (delivered / failed).
    pub control_msgs: u64,
    /// Dirty-balance publications at exchange barriers.
    pub dirty_published: u64,
    /// Transaction units dispatched by payments this shard owns.
    pub units_sent: u64,
    /// Wall-clock barrier-wait distribution (milliseconds per wait), from
    /// the span profiler. `None` unless the run profiled.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub barrier_wait_ms: Option<HistogramSnapshot>,
}

/// Cross-shard observability for one sharded run: per-shard work counters
/// plus load-imbalance summaries. Attached to [`SimReport`] **in memory
/// only** (the field is `#[serde(skip)]`): per-shard detail necessarily
/// varies with the shard count while report JSON must not.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardObservability {
    /// Shards the run was partitioned into.
    pub num_shards: u32,
    /// Per-shard metrics, indexed by rank.
    pub shards: Vec<ShardEpochMetrics>,
    /// `max / mean` of per-shard messages processed (1.0 = perfectly
    /// balanced; 0.0 when no shard processed any messages).
    pub event_imbalance: f64,
    /// `max / mean` of per-shard owned payments.
    pub payment_imbalance: f64,
}

impl ShardObservability {
    /// Multi-line human-readable rendering for CLI output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "shards={} event_imbalance={:.3} payment_imbalance={:.3}\n",
            self.num_shards, self.event_imbalance, self.payment_imbalance
        );
        out.push_str(
            "  shard payments channels   events   settle   refund     lock  control  published    units\n",
        );
        for s in &self.shards {
            out.push_str(&format!(
                "  {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}",
                s.shard,
                s.owned_payments,
                s.owned_channels,
                s.events_processed,
                s.settle_msgs,
                s.refund_msgs,
                s.lock_msgs,
                s.control_msgs,
                s.dirty_published,
                s.units_sent,
            ));
            if let Some(h) = &s.barrier_wait_ms {
                out.push_str(&format!(
                    "  barrier p50={:.3}ms p99={:.3}ms n={}",
                    h.p50, h.p99, h.count
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// `max / mean` of a sequence (0.0 when empty or all-zero).
fn imbalance_of(values: impl Iterator<Item = u64> + Clone) -> f64 {
    let max = values.clone().max().unwrap_or(0);
    let (sum, n) = values.fold((0u64, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 || sum == 0 {
        0.0
    } else {
        max as f64 / (sum as f64 / n as f64)
    }
}

/// Per-sample-epoch telemetry partial: per-owned-channel figures plus the
/// shard's pending-payment count.
#[derive(Clone, Debug)]
struct SamplePartial {
    epoch: u64,
    pending: u32,
    /// `(channel, |a-b|/(a+b), |a-b|/capacity, inflight micros, queue depth)`.
    channels: Vec<(u32, f64, f64, i64, u32)>,
}

/// Balance view for routing: the barrier-frozen global snapshot with this
/// payment's in-pump debits applied, masked by downed and
/// payment-blacklisted channels.
struct SnapshotView<'a> {
    network: &'a Network,
    avail: &'a [[i64; 2]],
    faults: Option<&'a FaultState>,
    blacklist: &'a [(ChannelId, u64)],
    epoch: u64,
}

impl SnapshotView<'_> {
    #[inline]
    fn masked(&self, channel: ChannelId) -> bool {
        if let Some(f) = self.faults {
            if f.is_channel_down(channel) {
                return true;
            }
        }
        self.blacklist
            .iter()
            .any(|&(c, until)| c == channel && until > self.epoch)
    }
}

impl BalanceView for SnapshotView<'_> {
    fn available(&self, channel: ChannelId, from: NodeId) -> Amount {
        if self.masked(channel) {
            return Amount::ZERO;
        }
        let ch = self.network.channel(channel);
        let side = if from == ch.a { 0 } else { 1 };
        Amount::from_micros(self.avail[channel.index()][side])
    }

    fn available_dir(&self, channel: ChannelId, from: NodeId, dir: Direction) -> Amount {
        let _ = from;
        if self.masked(channel) {
            return Amount::ZERO;
        }
        Amount::from_micros(self.avail[channel.index()][sender_side(dir)])
    }
}

/// Quantized engine parameters shared by every shard.
#[derive(Clone, Copy, Debug)]
struct Clockwork {
    end_epoch: u64,
    delta_epochs: u64,
    poll_epochs: u64,
    deadline_epochs: u64,
    sample_epochs: u64,
}

impl Clockwork {
    fn new(config: &ShardedConfig) -> Self {
        Clockwork {
            end_epoch: (config.end_time / EPOCH + 1e-9).floor() as u64,
            delta_epochs: epochs_of(DELTA),
            poll_epochs: epochs_of(POLL_INTERVAL),
            deadline_epochs: epochs_of(config.deadline),
            sample_epochs: config
                .telemetry
                .sample_interval()
                .map_or(u64::MAX, epochs_of),
        }
    }
}

/// A scheduled fault transition: `(epoch, plan index, event)`.
type PlanEvent = (u64, u64, FaultEvent);

/// One shard's published dirty-balance slot: `(channel index, micros a,
/// micros b)` triples, cleared and rewritten by the owning shard each epoch.
type PublishSlot = Mutex<Vec<(u32, i64, i64)>>;

/// Everything the shard threads share while the run is in flight. All of
/// it is exchanged only between barriers: a shard fills other shards'
/// inboxes and its own publish slot after the compute barrier and reads
/// them after the exchange barrier.
struct Exchange {
    /// Per destination shard, `(fire epoch, message)` from the *other*
    /// shards; a shard's messages to itself never come here.
    inboxes: Vec<Mutex<Vec<(u64, Msg)>>>,
    published: Vec<PublishSlot>,
    barrier: Barrier,
}

impl Exchange {
    fn new(num_shards: usize) -> Self {
        Exchange {
            inboxes: (0..num_shards).map(|_| Mutex::default()).collect(),
            published: (0..num_shards).map(|_| Mutex::default()).collect(),
            barrier: Barrier::new(num_shards),
        }
    }
}

/// One shard's run state for its whole life: built on the host thread by
/// [`ShardCtx::new`], run on its worker thread, and consumed by
/// [`merge_outputs`] when the run ends.
struct ShardCtx<'a> {
    shard: u16,
    network: &'a Network,
    partition: &'a Partition,
    cfg: &'a ShardedConfig,
    clock: Clockwork,
    scheme: Box<dyn RoutingScheme>,
    ledger: Ledger,
    audit: Option<LedgerAudit>,
    faults: Option<FaultState>,
    /// The run's quantized fault schedule, in epoch order.
    plan_events: &'a [PlanEvent],
    plan_cursor: usize,
    /// Frozen global balances in micro-tokens, per channel `[a, b]`.
    snapshot: Vec<[i64; 2]>,
    /// Channels this shard mutated since the last publish.
    dirty: Vec<u32>,
    /// Future messages for this shard, its own and the other shards'.
    agenda: Agenda,
    /// `(fire epoch, message)` staged this epoch for each *other* shard.
    staged: Vec<Vec<(u64, Msg)>>,
    /// Payments owned by this shard, sorted by id.
    payments: Vec<LocalPayment>,
    /// Indices of still-pending payments.
    pending: Vec<usize>,
    /// Scratch, empty between pumps: a pump's snapshot debits `(channel,
    /// side, micros)`.
    undo: Vec<(usize, usize, i64)>,
    /// `(arrival epoch, payment index)` cursor into `payments`.
    arrivals: Vec<(u64, usize)>,
    arrival_cursor: usize,
    trace: Vec<(Key, TraceEvent)>,
    tel_on: bool,
    samples: Vec<SamplePartial>,
    violations: Vec<AuditViolation>,
    /// Fault statistics, each counted at one unambiguous owner so a
    /// field-wise sum over shards is partition-independent.
    stats: FaultStats,
    /// This shard's work counters (and, once merged, its barrier waits).
    metrics: ShardEpochMetrics,
    /// Router queues at owned channels, keyed `(channel, sender side)`,
    /// each in arrival order (module docs, *Router queues*). `BTreeMap`
    /// iteration gives the deterministic drain order.
    queues: BTreeMap<(u32, u8), Vec<QueuedUnit>>,
    /// Most units a router queue holds: zero under [`ShardPolicy::Direct`].
    queue_cap: usize,
    /// Exact fee micros accrued by payments this shard owns.
    routing_fees_micros: i64,
    /// Owned channels with a scheduled, not-yet-applied correction.
    rebalance_pending: Vec<bool>,
    /// Scheduled corrections `(apply epoch, channel)`; appended in check
    /// order, which is naturally sorted by apply epoch.
    rebalance_applies: Vec<(u64, u32)>,
    // Rebalancing totals over owned channels, in exact micros.
    rebal_transactions: u64,
    rebal_moved_micros: i64,
    rebal_fees_micros: i64,
    #[cfg(test)]
    order_log: tests::OrderLog,
}

impl<'a> ShardCtx<'a> {
    /// The state of shard `shard` before its first epoch. Payment ids are
    /// dealt round-robin (`id % num_shards`); the slab is sorted by id so
    /// [`payment_index`](Self::payment_index) can binary-search.
    fn new(
        shard: u16,
        network: &'a Network,
        transactions: &[Transaction],
        partition: &'a Partition,
        cfg: &'a ShardedConfig,
        plan_events: &'a [PlanEvent],
    ) -> Self {
        let clock = Clockwork::new(cfg);
        let num_shards = partition.num_shards();
        let initial_window = cfg.congestion.as_ref().map_or(0.0, |cc| cc.initial_window);
        let mut payments: Vec<LocalPayment> = transactions
            .iter()
            .filter(|tx| tx.id.0 % num_shards as u64 == u64::from(shard))
            .filter_map(|tx| {
                let arrival_epoch = epoch_of(tx.arrival);
                (arrival_epoch <= clock.end_epoch).then(|| LocalPayment {
                    id: tx.id.0,
                    src: tx.src,
                    dst: tx.dst,
                    amount: tx.amount,
                    arrival_epoch,
                    deadline_epoch: arrival_epoch + clock.deadline_epochs,
                    delivered: Amount::ZERO,
                    inflight: Amount::ZERO,
                    status: PaymentStatus::Pending,
                    delay: None,
                    next_seq: 0,
                    blacklist: Vec::new(),
                    fail_count: 0,
                    not_before_epoch: 0,
                    window: initial_window,
                    outstanding: 0,
                })
            })
            .collect();
        payments.sort_by_key(|p| p.id);
        let mut arrivals: Vec<(u64, usize)> = payments
            .iter()
            .enumerate()
            .map(|(i, p)| (p.arrival_epoch, i))
            .collect();
        arrivals.sort_unstable();

        let ledger = Ledger::new(network);
        let snapshot = network
            .channels()
            .iter()
            .map(|ch| {
                let (a, b) = ledger.balances(ch.id);
                [a.micros(), b.micros()]
            })
            .collect();
        let owned_channels = partition
            .channel_owners()
            .iter()
            .filter(|&&s| s == shard)
            .count() as u64;
        ShardCtx {
            shard,
            network,
            partition,
            cfg,
            clock,
            scheme: cfg.scheme.build(),
            audit: cfg.audit.then(|| LedgerAudit::new(&ledger)),
            ledger,
            faults: cfg
                .faults
                .as_ref()
                .map(|plan| FaultState::new(plan, network)),
            plan_events,
            plan_cursor: 0,
            snapshot,
            dirty: Vec::new(),
            agenda: Agenda::new(0),
            staged: (0..num_shards).map(|_| Vec::new()).collect(),
            metrics: ShardEpochMetrics {
                shard: u32::from(shard),
                epochs: clock.end_epoch,
                owned_payments: payments.len() as u64,
                owned_channels,
                ..ShardEpochMetrics::default()
            },
            payments,
            pending: Vec::new(),
            undo: Vec::new(),
            arrivals,
            arrival_cursor: 0,
            trace: Vec::new(),
            tel_on: cfg.telemetry.is_enabled(),
            samples: Vec::new(),
            violations: Vec::new(),
            stats: FaultStats::default(),
            queues: BTreeMap::new(),
            queue_cap: match cfg.policy {
                ShardPolicy::Direct => 0,
                ShardPolicy::Queued => MAX_QUEUE_LEN,
            },
            routing_fees_micros: 0,
            rebalance_pending: vec![false; network.num_channels()],
            rebalance_applies: Vec::new(),
            rebal_transactions: 0,
            rebal_moved_micros: 0,
            rebal_fees_micros: 0,
            #[cfg(test)]
            order_log: tests::OrderLog::default(),
        }
    }

    /// Records a trace event under its key `(epoch, merge_rank, a, b)`.
    fn emit(&mut self, epoch: u64, a: u64, b: u64, event: TraceEvent) {
        if self.tel_on {
            let rank = merge_rank(&event);
            self.trace.push((Key { epoch, rank, a, b }, event));
        }
    }

    /// Owner guard for every ledger mutation: refuses (and records) writes
    /// to channels this shard does not own. Active in release builds.
    fn own(&mut self, c: ChannelId, epoch: u64, event: &str) -> bool {
        let owner = self.partition.channel_owner(c) as u16;
        if owner == self.shard {
            return true;
        }
        if self.violations.len() < MAX_RELEASE_VIOLATIONS {
            self.violations.push(AuditViolation {
                time: t_of(epoch),
                event: event.to_string(),
                kind: AuditViolationKind::ForeignSlotMutation {
                    channel: c,
                    owner_shard: u32::from(owner),
                    mutating_shard: u32::from(self.shard),
                },
            });
        }
        false
    }

    /// Sends `body` about `unit` to shard `to`, due at `fire_epoch`: into the
    /// agenda when `to` is this shard (the epoch lies ahead, so no barrier is
    /// needed), else into the batch the next exchange hands over.
    fn stage(&mut self, to: usize, fire_epoch: u64, body: MsgBody, unit: Arc<UnitInfo>) {
        if fire_epoch > self.clock.end_epoch {
            return;
        }
        let msg = Msg::new(body, unit);
        #[cfg(test)]
        self.order_log.stage(to, self.agenda.now, fire_epoch, &msg);
        if to == usize::from(self.shard) {
            self.agenda.push(fire_epoch, msg);
        } else {
            self.staged[to].push((fire_epoch, msg));
        }
    }

    fn stage_hop(&mut self, unit: Arc<UnitInfo>, hop: u32, fire_epoch: u64, body: MsgBody) {
        let (c, _) = unit.path.hops()[hop as usize];
        self.stage(self.partition.channel_owner(c), fire_epoch, body, unit);
    }

    fn stage_to_payment_owner(&mut self, unit: Arc<UnitInfo>, fire_epoch: u64, body: MsgBody) {
        let to = (unit.payment % self.partition.num_shards() as u64) as usize;
        self.stage(to, fire_epoch, body, unit);
    }

    /// Applies the fault transitions scheduled for `epoch`. Every shard
    /// updates its own full-network mask; only the owning shard (of the
    /// channel, or of the node) emits the trace event and counts the
    /// transition.
    fn apply_faults(&mut self, epoch: u64) {
        let t = t_of(epoch);
        let plan_events = self.plan_events;
        while let Some((_, plan_idx, ev)) = plan_events
            .get(self.plan_cursor)
            .filter(|&&(at, ..)| at == epoch)
        {
            self.plan_cursor += 1;
            let (owner, counter) = match *ev {
                FaultEvent::ChannelDown(c) => {
                    let owner = self.partition.channel_owner(c);
                    (owner, Some(&mut self.stats.outages))
                }
                FaultEvent::ChannelUp(c) => {
                    let owner = self.partition.channel_owner(c);
                    (owner, Some(&mut self.stats.recoveries))
                }
                FaultEvent::NodeDown(n) => {
                    let was_down = self.faults.as_ref().is_some_and(|f| f.is_node_down(n));
                    let crashes = (!was_down).then_some(&mut self.stats.node_crashes);
                    (self.partition.node_shard(n), crashes)
                }
                FaultEvent::NodeUp(n) => (self.partition.node_shard(n), None),
            };
            if owner == usize::from(self.shard) {
                if let Some(count) = counter {
                    *count += 1;
                }
                self.emit(epoch, *plan_idx, 0, ev.trace(t));
            }
            if let Some(f) = self.faults.as_mut() {
                let _ = f.apply(self.network, ev);
            }
        }
    }

    /// Processes every message due this epoch in deterministic key order:
    /// rank by rank, each list in [`Msg::order`]. A list is a few sorted runs
    /// laid end to end (forwarded locks in processing order, a settle batch
    /// unit by unit with hops ascending), which the stable sort detects; keys
    /// are unique, so stability itself decides nothing. Each list is freed
    /// once handled — keeping them for reuse cost 16 % of peak RSS.
    fn process_messages(&mut self, epoch: u64) {
        let slot = self.agenda.take(epoch);
        let due = slot.iter().map(|list| list.len() as u64).sum();
        if due == 0 {
            return;
        }
        let (tel, lane) = (&self.cfg.telemetry, u32::from(self.shard));
        let _span = tel.span_enter_lane(Phase::MessageMerge, lane);
        tel.span_items_lane(Phase::MessageMerge, lane, due);
        tel.span_sim(Phase::MessageMerge, t_of(epoch));
        self.metrics.events_processed += due;
        for mut list in slot {
            let counter = match list.first().map(|msg| &msg.body) {
                Some(MsgBody::SettleHop { .. }) => &mut self.metrics.settle_msgs,
                Some(MsgBody::RefundHop { .. }) => &mut self.metrics.refund_msgs,
                Some(MsgBody::LockHop { .. }) => &mut self.metrics.lock_msgs,
                _ => &mut self.metrics.control_msgs,
            };
            *counter += list.len() as u64;
            list.sort_by_key(Msg::order);
            for msg in list {
                #[cfg(test)]
                self.order_log.handle(epoch, &msg);
                match msg.body {
                    MsgBody::SettleHop { hop } => self.on_settle_hop(&msg.unit, hop, epoch),
                    MsgBody::RefundHop { hop } => self.on_refund_hop(&msg.unit, hop, epoch),
                    MsgBody::LockHop { hop } => self.on_lock_hop(msg.unit, hop, epoch),
                    MsgBody::UnitDelivered => self.on_unit_delivered(&msg.unit, epoch),
                    MsgBody::UnitFailed { blamed, cause } => {
                        self.on_unit_failed(&msg.unit, blamed, cause, epoch)
                    }
                }
            }
        }
    }

    fn on_settle_hop(&mut self, unit: &Arc<UnitInfo>, hop: u32, epoch: u64) {
        let (c, _) = unit.path.hops()[hop as usize];
        if !self.own(c, epoch, "settle-hop") {
            return;
        }
        let to = unit.path.nodes()[hop as usize + 1];
        if let Err(e) = self
            .ledger
            .settle_hop(self.network, c, to, unit.hop_amount(hop))
        {
            record_release(&mut self.violations, t_of(epoch), "settle-hop", &e);
            return;
        }
        self.dirty.push(c.index() as u32);
    }

    fn on_refund_hop(&mut self, unit: &Arc<UnitInfo>, hop: u32, epoch: u64) {
        let (c, _) = unit.path.hops()[hop as usize];
        if !self.own(c, epoch, "refund-hop") {
            return;
        }
        let from = unit.path.nodes()[hop as usize];
        if let Err(e) = self
            .ledger
            .refund_hop(self.network, c, from, unit.hop_amount(hop))
        {
            record_release(&mut self.violations, t_of(epoch), "refund-hop", &e);
            return;
        }
        self.dirty.push(c.index() as u32);
    }

    /// Fails a unit at `hop`: refunds the locked prefix (`0..hop`, plus
    /// `hop` itself when `locked_current`) next epoch and notifies the
    /// payment owner.
    fn fail_unit(
        &mut self,
        unit: &Arc<UnitInfo>,
        hop: u32,
        locked_current: bool,
        blamed: ChannelId,
        cause: FailCause,
        fire_epoch: u64,
    ) {
        let last_refund = if locked_current { hop + 1 } else { hop };
        for hop in 0..last_refund {
            self.stage_hop(
                Arc::clone(unit),
                hop,
                fire_epoch,
                MsgBody::RefundHop { hop },
            );
        }
        let failed = MsgBody::UnitFailed { blamed, cause };
        self.stage_to_payment_owner(Arc::clone(unit), fire_epoch, failed);
    }

    /// Takes over the lock request's hold on the unit, so that a forwarded
    /// lock or a queue entry carries it on without a new one.
    fn on_lock_hop(&mut self, unit: Arc<UnitInfo>, hop: u32, epoch: u64) {
        let (c, dir) = unit.path.hops()[hop as usize];
        if !self.own(c, epoch, "lock-hop") {
            return;
        }
        let down = self.faults.as_ref().is_some_and(|f| f.is_channel_down(c));
        if down {
            self.fail_unit(&unit, hop, false, c, FailCause::Outage, epoch + 1);
            return;
        }
        let key = (c.index() as u32, sender_side(dir) as u8);
        // No overtaking: a backlog on this direction queues the unit even if
        // the lock would succeed right now.
        let backlog = self.queues.get(&key).is_some_and(|q| !q.is_empty());
        let refused = if backlog {
            Err(unit)
        } else {
            self.lock_and_advance(unit, hop, epoch)
        };
        if let Err(unit) = refused {
            self.enqueue_unit(unit, hop, epoch, key);
        }
    }

    /// Attempts the ledger lock for `hop`; on success advances the unit
    /// (forward, settle, or fault staging). A refused lock leaves no ledger
    /// effect and hands the unit back.
    fn lock_and_advance(
        &mut self,
        unit: Arc<UnitInfo>,
        hop: u32,
        epoch: u64,
    ) -> Result<(), Arc<UnitInfo>> {
        let (c, _) = unit.path.hops()[hop as usize];
        if !self.own(c, epoch, "lock-advance") {
            // Unreachable for owned queues/messages; recorded and swallowed.
            return Ok(());
        }
        let from = unit.path.nodes()[hop as usize];
        if self
            .ledger
            .lock_hop(self.network, c, from, unit.hop_amount(hop))
            .is_err()
        {
            return Err(unit);
        }
        self.dirty.push(c.index() as u32);
        let hops = unit.path.hops().len() as u32;
        // A mid-path drop fails the unit right after the blamed hop locks.
        if matches!(unit.fate, UnitFate::Drop { hop_index, .. } if hop_index == hop as usize) {
            self.fail_unit(&unit, hop, true, c, FailCause::Dropped, epoch + 1);
            return Ok(());
        }
        if hop + 1 < hops {
            self.stage_hop(unit, hop + 1, epoch + 1, MsgBody::LockHop { hop: hop + 1 });
            return Ok(());
        }
        // Final hop locked: the unit reached the receiver. Jitter is
        // floored to whole epochs and a grief hold rounded.
        match unit.fate {
            UnitFate::Deliver { jitter } => {
                let se = epoch + self.clock.delta_epochs + (jitter / EPOCH).floor() as u64;
                for h in 0..hops {
                    self.stage_hop(Arc::clone(&unit), h, se, MsgBody::SettleHop { hop: h });
                }
                self.stage_to_payment_owner(unit, se, MsgBody::UnitDelivered);
            }
            UnitFate::Grief { hold } => {
                let rf = epoch + self.clock.delta_epochs + (hold / EPOCH).round() as u64;
                for h in 0..hops {
                    self.stage_hop(Arc::clone(&unit), h, rf, MsgBody::RefundHop { hop: h });
                }
                let cause = FailCause::Griefed;
                self.stage_to_payment_owner(unit, rf, MsgBody::UnitFailed { blamed: c, cause });
            }
            UnitFate::Drop { .. } => {
                // Drop at an out-of-range hop index cannot happen: the
                // index is drawn modulo the hop count.
            }
        }
        Ok(())
    }

    /// Parks a unit at the back of the owned `(channel, sender side)`
    /// router queue, or fails it as a liquidity refusal when the queue is
    /// full — always, under [`ShardPolicy::Direct`].
    fn enqueue_unit(&mut self, unit: Arc<UnitInfo>, hop: u32, epoch: u64, key: (u32, u8)) {
        let len = self.queues.get(&key).map_or(0, Vec::len);
        if len >= self.queue_cap {
            let (c, _) = unit.path.hops()[hop as usize];
            self.fail_unit(&unit, hop, false, c, FailCause::Liquidity, epoch + 1);
            return;
        }
        let (payment, seq) = (unit.payment, unit.seq);
        let q = self.queues.entry(key).or_default();
        q.push(QueuedUnit { unit, hop });
        let depth = q.len() as u32;
        self.emit(
            epoch,
            payment,
            u64::from(seq),
            TraceEvent::UnitQueued {
                t: t_of(epoch),
                payment,
                channel: key.0,
                depth,
            },
        );
    }

    /// One epoch of router-queue service at this shard's owned channels:
    /// expire units whose payment deadline passed, then drain head-of-line
    /// while liquidity lasts. Queues are visited in `(channel, direction)`
    /// order; downed channels keep their queues intact (queued units ride
    /// out outages until their deadline).
    fn drain_queues(&mut self, epoch: u64) {
        let keys: Vec<(u32, u8)> = self.queues.keys().copied().collect();
        for key in keys {
            let Some(mut q) = self.queues.remove(&key) else {
                continue;
            };
            let down = self
                .faults
                .as_ref()
                .is_some_and(|f| f.is_channel_down(ChannelId(key.0)));
            let mut kept: Vec<QueuedUnit> = Vec::with_capacity(q.len());
            for e in q.drain(..) {
                if e.unit.deadline_epoch <= epoch {
                    let (c, _) = e.unit.path.hops()[e.hop as usize];
                    self.fail_unit(&e.unit, e.hop, false, c, FailCause::Liquidity, epoch + 1);
                    continue;
                }
                // Head-of-line: after the first unit that cannot lock (or
                // during an outage) the rest of the queue just waits.
                let refused = if down || !kept.is_empty() {
                    Err(e.unit)
                } else {
                    self.lock_and_advance(e.unit, e.hop, epoch)
                };
                if let Err(unit) = refused {
                    kept.push(QueuedUnit { unit, ..e });
                }
            }
            if !kept.is_empty() {
                self.queues.insert(key, kept);
            }
        }
    }

    /// One epoch of on-chain rebalancing over this shard's owned channels:
    /// apply the corrections whose confirmation delay elapsed, then (on the
    /// check cadence) schedule new ones. Mirrors the sequential engine's
    /// check/apply split; the new balances travel through the ordinary
    /// dirty-balance exchange, so remote routing sees them next epoch.
    fn rebalance_step(&mut self, epoch: u64) {
        let Some(policy) = self.cfg.rebalance.clone() else {
            return;
        };
        let check_epochs = epochs_of(policy.check_interval);
        let confirm_epochs = epochs_of(policy.confirmation_delay);
        // Due corrections were scheduled in apply-epoch order; channels
        // within one epoch were appended in id order.
        let mut due = Vec::new();
        self.rebalance_applies.retain(|&(fire, c)| {
            if fire == epoch {
                due.push(c);
                false
            } else {
                true
            }
        });
        for cidx in due {
            let channel = ChannelId(cidx);
            self.rebalance_pending[channel.index()] = false;
            if !self.own(channel, epoch, "rebalance-apply") {
                continue;
            }
            let (audit, at) = (self.audit.as_mut(), t_of(epoch));
            let (taken, fee_paid) =
                match policy.apply(&mut self.ledger, self.network, channel, audit, at) {
                    Ok(Some(moved)) => moved,
                    Ok(None) => continue,
                    Err(e) => {
                        record_release(&mut self.violations, at, "rebalance-deposit", &e);
                        continue;
                    }
                };
            self.rebal_transactions += 1;
            self.rebal_moved_micros = self.rebal_moved_micros.saturating_add(taken.micros());
            self.rebal_fees_micros = self.rebal_fees_micros.saturating_add(fee_paid.micros());
            self.dirty.push(cidx);
            self.emit(
                epoch,
                u64::from(cidx),
                0,
                TraceEvent::RebalanceApplied {
                    t: t_of(epoch),
                    channel: cidx,
                    moved: tokens(taken),
                    fee: tokens(fee_paid),
                },
            );
        }
        if epoch.is_multiple_of(check_epochs) {
            for ch in self.network.channels() {
                if self.partition.channel_owner(ch.id) as u16 != self.shard {
                    continue;
                }
                if self.rebalance_pending[ch.id.index()] {
                    continue;
                }
                let (a, b) = self.ledger.balances(ch.id);
                if policy.correction(a, b).is_some() {
                    self.rebalance_pending[ch.id.index()] = true;
                    self.rebalance_applies
                        .push((epoch + confirm_epochs, ch.id.index() as u32));
                }
            }
        }
    }

    /// AIMD window update at the payment owner when a unit's outcome
    /// arrives: the unit is no longer outstanding, and the window grows
    /// (delivered) or shrinks multiplicatively (failed).
    fn congestion_on_outcome(&mut self, pidx: usize, delivered: bool) {
        let Some(cc) = self.cfg.congestion.as_ref() else {
            return;
        };
        let p = &mut self.payments[pidx];
        p.outstanding = p.outstanding.saturating_sub(1);
        p.window = if delivered {
            cc.grown(p.window)
        } else {
            cc.shrunk(p.window)
        };
    }

    fn on_unit_delivered(&mut self, unit: &Arc<UnitInfo>, epoch: u64) {
        let pidx = self.payment_index(unit.payment);
        self.congestion_on_outcome(pidx, true);
        // The sender locked `hop_amounts[0]` and the receiver was paid
        // `amount`; the difference is the routing fee, accrued exactly.
        if let Some(first) = unit.hop_amounts.as_ref().and_then(|a| a.first()) {
            let fee = first.micros().saturating_sub(unit.amount.micros());
            self.routing_fees_micros = self.routing_fees_micros.saturating_add(fee);
        }
        let t = t_of(epoch);
        let p = &mut self.payments[pidx];
        p.inflight = p.inflight.saturating_sub(unit.amount);
        p.delivered = p.delivered.saturating_add(unit.amount);
        let pid = p.id;
        let amount_tokens = tokens(unit.amount);
        let completed_now = p.status == PaymentStatus::Pending && p.delivered >= p.amount;
        let delay = (epoch - p.arrival_epoch) as f64 * EPOCH;
        if completed_now {
            p.status = PaymentStatus::Completed;
            p.delay = Some(delay);
        }
        self.emit(
            epoch,
            pid,
            u64::from(unit.seq),
            TraceEvent::UnitSettled {
                t,
                payment: pid,
                amount: amount_tokens,
            },
        );
        if completed_now {
            self.emit(
                epoch,
                pid,
                0,
                TraceEvent::PaymentCompleted {
                    t,
                    payment: pid,
                    delay,
                },
            );
        }
    }

    fn on_unit_failed(
        &mut self,
        unit: &Arc<UnitInfo>,
        blamed: ChannelId,
        cause: FailCause,
        epoch: u64,
    ) {
        let pidx = self.payment_index(unit.payment);
        self.congestion_on_outcome(pidx, false);
        let t = t_of(epoch);
        let amount_tokens = tokens(unit.amount);
        let pid;
        {
            let p = &mut self.payments[pidx];
            p.inflight = p.inflight.saturating_sub(unit.amount);
            pid = p.id;
        }
        let seq = u64::from(unit.seq);
        match cause {
            FailCause::Dropped => {
                self.emit(
                    epoch,
                    pid,
                    seq,
                    TraceEvent::UnitDropped {
                        t,
                        payment: pid,
                        amount: amount_tokens,
                        channel: blamed.index() as u32,
                    },
                );
            }
            FailCause::Griefed => {
                let hold = self
                    .cfg
                    .faults
                    .as_ref()
                    .map_or(0.0, |plan| plan.config.grief_hold);
                self.emit(
                    epoch,
                    pid,
                    seq,
                    TraceEvent::UnitGriefed {
                        t,
                        payment: pid,
                        amount: amount_tokens,
                        hold,
                    },
                );
            }
            FailCause::Outage => self.stats.units_refunded_by_outage += 1,
            FailCause::Liquidity => {}
        }
        self.emit(
            epoch,
            pid,
            seq,
            TraceEvent::UnitRefunded {
                t,
                payment: pid,
                amount: amount_tokens,
            },
        );
        if cause != FailCause::Liquidity {
            self.handle_fault_failure(pidx, unit.seq, blamed, epoch);
        }
    }

    /// Sender-side recovery after a fault-caused unit failure: abandon
    /// without a retry policy, otherwise blacklist + exponential backoff
    /// within the per-payment attempt budget.
    fn handle_fault_failure(&mut self, pidx: usize, seq: u32, blamed: ChannelId, epoch: u64) {
        if self.payments[pidx].status != PaymentStatus::Pending {
            return;
        }
        let t = t_of(epoch);
        let retry = self
            .cfg
            .faults
            .as_ref()
            .and_then(|plan| plan.config.retry.clone());
        let pid = self.payments[pidx].id;
        let Some(policy) = retry else {
            self.abandon(pidx, epoch, true);
            return;
        };
        let until_epoch = epoch + epochs_of(policy.blacklist_duration);
        let p = &mut self.payments[pidx];
        p.blacklist.retain(|&(_, until)| until > epoch);
        p.blacklist.push((blamed, until_epoch));
        p.fail_count += 1;
        let fails = p.fail_count;
        self.stats.blacklistings += 1;
        self.emit(
            epoch,
            pid,
            u64::from(seq),
            TraceEvent::ChannelBlacklisted {
                t,
                channel: blamed.index() as u32,
                until: t_of(until_epoch),
            },
        );
        let Some(backoff) = policy.backoff(fails) else {
            self.abandon(pidx, epoch, true);
            return;
        };
        let backoff_epochs = epochs_of(backoff);
        let p = &mut self.payments[pidx];
        p.not_before_epoch = p.not_before_epoch.max(epoch + backoff_epochs);
        self.stats.retries += 1;
        self.emit(
            epoch,
            pid,
            u64::from(seq),
            TraceEvent::PaymentRetry {
                t,
                payment: pid,
                attempt: fails,
                backoff: backoff_epochs as f64 * EPOCH,
            },
        );
    }

    fn abandon(&mut self, pidx: usize, epoch: u64, fault_caused: bool) {
        let p = &mut self.payments[pidx];
        if p.status != PaymentStatus::Pending {
            return;
        }
        p.status = PaymentStatus::Abandoned;
        if fault_caused {
            self.stats.payments_failed += 1;
        }
        let pid = self.payments[pidx].id;
        let delivered = tokens(self.payments[pidx].delivered);
        self.emit(
            epoch,
            pid,
            0,
            TraceEvent::PaymentAbandoned {
                t: t_of(epoch),
                payment: pid,
                delivered,
            },
        );
    }

    /// Index of the payment with global id `pid` in this shard's slab.
    /// Ids are assigned to shards round-robin, so the local index is the
    /// arrival rank — recovered by binary search over the (sorted) ids.
    fn payment_index(&self, pid: u64) -> usize {
        match self.payments.binary_search_by_key(&pid, |p| p.id) {
            Ok(i) => i,
            // spider-lint: allow(panic-reachability) — shards only message ids they were dealt; a miss is a routing-table corruption we must not mask
            Err(_) => unreachable!("message for unknown payment {pid}"),
        }
    }

    /// Sends as many MTU units of payment `pidx` as the frozen snapshot
    /// allows. Each routed unit debits a private copy of the snapshot
    /// (restored afterwards), so concurrent payments this epoch route
    /// independently of each other — over-subscription is resolved by the
    /// deterministic lock order at channel owners next epoch.
    fn pump(&mut self, pidx: usize, epoch: u64) {
        if self.payments[pidx].status != PaymentStatus::Pending
            || epoch < self.payments[pidx].not_before_epoch
        {
            return;
        }
        let mut undo = std::mem::take(&mut self.undo);
        loop {
            let p = &self.payments[pidx];
            let remaining = (p.amount.saturating_sub(p.delivered)).saturating_sub(p.inflight);
            if !remaining.is_positive() {
                break;
            }
            // Congestion window gate: at most floor(window) units may be
            // outstanding per payment.
            if self.cfg.congestion.is_some() && f64::from(p.outstanding) >= p.window.floor() {
                break;
            }
            let unit_amount = remaining.min(self.cfg.mtu);
            let (src, dst, pid) = (p.src, p.dst, p.id);
            let decision = {
                let view = SnapshotView {
                    network: self.network,
                    avail: &self.snapshot,
                    faults: self.faults.as_ref(),
                    blacklist: &self.payments[pidx].blacklist,
                    epoch,
                };
                self.scheme
                    .route_unit(self.network, &view, src, dst, unit_amount)
            };
            match decision {
                UnitDecision::Route(path) => {
                    let p = &mut self.payments[pidx];
                    let seq = p.next_seq;
                    p.next_seq += 1;
                    p.inflight = p.inflight.saturating_add(unit_amount);
                    if self.cfg.congestion.is_some() {
                        p.outstanding += 1;
                    }
                    let (deadline, stats) = (p.deadline_epoch, &mut self.stats);
                    let unit =
                        UnitInfo::new(self.cfg, stats, pid, seq, unit_amount, path, deadline);
                    for (i, &(c, dir)) in unit.path.hops().iter().enumerate() {
                        let slot = &mut self.snapshot[c.index()][sender_side(dir)];
                        let micros = unit.hop_amount(i as u32).micros();
                        *slot = slot.saturating_sub(micros);
                        undo.push((c.index(), sender_side(dir), micros));
                    }
                    self.metrics.units_sent += 1;
                    self.emit(
                        epoch,
                        pid,
                        u64::from(seq),
                        TraceEvent::UnitSent {
                            t: t_of(epoch),
                            payment: pid,
                            amount: tokens(unit_amount),
                            hops: unit.path.len() as u32,
                        },
                    );
                    self.stage_hop(Arc::new(unit), 0, epoch + 1, MsgBody::LockHop { hop: 0 });
                }
                UnitDecision::Unavailable => {
                    // No spendable route right now: back the window off so
                    // the payment probes gently once liquidity returns.
                    if let Some(cc) = self.cfg.congestion.as_ref() {
                        let p = &mut self.payments[pidx];
                        p.window = cc.shrunk(p.window);
                    }
                    break;
                }
                UnitDecision::Never => {
                    // Under faults, "no path" may only mean "all masked":
                    // stay pending and retry once channels recover.
                    if self.faults.is_none() {
                        self.abandon(pidx, epoch, false);
                    }
                    break;
                }
            }
        }
        for (c, side, micros) in undo.drain(..) {
            self.snapshot[c][side] = self.snapshot[c][side].saturating_add(micros);
        }
        self.undo = undo;
    }

    /// Processes the payments arriving this epoch.
    fn process_arrivals(&mut self, epoch: u64) {
        while self.arrival_cursor < self.arrivals.len()
            && self.arrivals[self.arrival_cursor].0 == epoch
        {
            let pidx = self.arrivals[self.arrival_cursor].1;
            self.arrival_cursor += 1;
            let p = &self.payments[pidx];
            let (pid, src, dst, amount) = (p.id, p.src, p.dst, p.amount);
            self.emit(
                epoch,
                pid,
                0,
                TraceEvent::PaymentArrived {
                    t: t_of(epoch),
                    payment: pid,
                    src: src.0,
                    dst: dst.0,
                    amount: tokens(amount),
                },
            );
            self.emit(
                epoch,
                pid,
                0,
                TraceEvent::PaymentSplit {
                    t: t_of(epoch),
                    payment: pid,
                    units: unit_count(amount, self.cfg.mtu),
                },
            );
            self.pending.push(pidx);
            self.pump(pidx, epoch);
        }
    }

    /// The scheduler tick: expire deadlines, pump every pending payment.
    /// The order cannot change an outcome: every pump routes against the
    /// same barrier-frozen snapshot and undoes its own debits.
    fn tick(&mut self, epoch: u64) {
        for k in 0..self.pending.len() {
            let i = self.pending[k];
            if self.payments[i].deadline_epoch <= epoch {
                self.abandon(i, epoch, false);
            }
            // `pump` passes over a payment that is no longer pending.
            self.pump(i, epoch);
        }
        self.pending
            .retain(|&i| self.payments[i].status == PaymentStatus::Pending);
    }

    /// Emits `ChannelSample`s for owned channels and stores the partial
    /// used to rebuild the merged `NetworkSample` series.
    fn sample(&mut self, epoch: u64) {
        if !self.tel_on {
            return;
        }
        let t = t_of(epoch);
        let mut channels = Vec::new();
        for ch in self.network.channels() {
            if self.partition.channel_owner(ch.id) as u16 != self.shard {
                continue;
            }
            let (a, b) = self.ledger.balances(ch.id);
            let imbalance = self.ledger.relative_imbalance(ch.id);
            let mean_ratio = (a - b).abs().ratio_of(self.ledger.capacity(ch.id));
            let inflight = self.ledger.inflight(ch.id);
            let cid = ch.id.index() as u32;
            // Both directions' router queues live at this owner shard.
            let queue_depth: u32 = self
                .queues
                .range((cid, 0)..=(cid, 1))
                .map(|(_, q)| q.len() as u32)
                .sum();
            channels.push((cid, imbalance, mean_ratio, inflight.micros(), queue_depth));
            self.emit(
                epoch,
                ch.id.index() as u64,
                0,
                TraceEvent::ChannelSample {
                    t,
                    channel: cid,
                    imbalance,
                    inflight: tokens(inflight),
                    queue_depth,
                },
            );
        }
        // Arrived and not yet finished: `pending` holds the arrivals, pruned
        // of finished payments only at a tick.
        let pending = (self.pending.iter())
            .filter(|&&i| self.payments[i].status == PaymentStatus::Pending)
            .count() as u32;
        self.samples.push(SamplePartial {
            epoch,
            pending,
            channels,
        });
    }

    /// Takes in what the other shards handed over at the last exchange:
    /// inbox messages go into their agenda slots and published balances
    /// into the frozen snapshot.
    fn intake(&mut self, ex: &Exchange) {
        for (fire_epoch, msg) in lock_ok(&ex.inboxes[usize::from(self.shard)]).drain(..) {
            self.agenda.push(fire_epoch, msg);
        }
        for slot in &ex.published {
            for &(c, a, b) in lock_ok(slot).iter() {
                self.snapshot[c as usize] = [a, b];
            }
        }
    }

    /// This shard's whole run: the BSP epoch loop over intake → compute →
    /// exchange from epoch 1 to the end, then the final audit.
    fn run(mut self, ex: &Exchange) -> Self {
        let me = usize::from(self.shard);
        let lane = u32::from(self.shard);
        let tel = &self.cfg.telemetry;
        for epoch in 1..=self.clock.end_epoch {
            // Intake: messages and balance updates published last epoch.
            {
                let _span = tel.span_enter_lane(Phase::MessageMerge, lane);
                self.intake(ex);
            }

            // Compute: everything here touches only shard-owned state.
            {
                let _span = tel.span_enter_lane(Phase::EpochCompute, lane);
                tel.span_sim(Phase::EpochCompute, t_of(epoch));
                self.apply_faults(epoch);
                self.process_messages(epoch);
                self.rebalance_step(epoch);
                self.drain_queues(epoch);
                self.process_arrivals(epoch);
                if epoch % self.clock.poll_epochs == 0 {
                    self.tick(epoch);
                }
                if epoch % self.clock.sample_epochs == 0 {
                    self.sample(epoch);
                }
                if let Some(a) = self.audit.as_mut() {
                    a.check(&self.ledger, t_of(epoch), "epoch");
                }
            }

            {
                let _span = tel.span_enter_lane(Phase::BarrierWait, lane);
                ex.barrier.wait();
            }

            // Exchange: publish dirty balances, deliver staged messages.
            {
                let mut slot = lock_ok(&ex.published[me]);
                slot.clear();
                self.dirty.sort_unstable();
                self.dirty.dedup();
                for &c in &self.dirty {
                    let (a, b) = self.ledger.balances(ChannelId(c));
                    slot.push((c, a.micros(), b.micros()));
                }
                self.metrics.dirty_published += slot.len() as u64;
                self.dirty.clear();
            }
            for (to, staged) in self.staged.iter_mut().enumerate() {
                if !staged.is_empty() {
                    #[cfg(test)]
                    self.order_log.mail(staged.len());
                    lock_ok(&ex.inboxes[to]).append(staged);
                }
            }

            {
                let _span = tel.span_enter_lane(Phase::BarrierWait, lane);
                ex.barrier.wait();
            }
        }

        if let Some(mut a) = self.audit.take() {
            a.check(&self.ledger, self.cfg.end_time, "final");
            self.violations.extend(a.into_violations());
        }
        // The merge reads results, not routing state. Release the path
        // caches, the bulk of a shard's footprint, on the thread whose
        // allocator arena holds them: freed after the merge by the host
        // thread they cost ripple400-sharded1 2 MB of a 19 MB peak RSS.
        self.scheme = self.cfg.scheme.build();
        self
    }
}

/// Runs one sharded simulation of `transactions` over `network`, split
/// according to `partition`. See the module docs for the execution model.
///
/// The result is byte-identical for any shard count: `partition` only
/// decides *where* work happens, never *what* happens.
pub fn run_sharded(
    network: &Network,
    transactions: &[Transaction],
    partition: &Partition,
    config: &ShardedConfig,
) -> SimReport {
    assert!(config.end_time > 0.0, "end_time must be positive");
    assert!(config.deadline > 0.0, "durations must be positive");
    assert!(config.mtu.is_positive(), "MTU must be positive");
    assert_eq!(
        partition.node_shards().len(),
        network.num_nodes(),
        "partition must match the network"
    );
    assert_eq!(partition.channel_owners().len(), network.num_channels());
    if let Some(fees) = config.fees.as_ref() {
        assert_eq!(
            fees.per_channel().len(),
            network.num_channels(),
            "fee schedule must cover the network"
        );
    }
    if let Some(cc) = config.congestion.as_ref() {
        cc.validate();
    }
    if let Some(rb) = config.rebalance.as_ref() {
        rb.validate();
    }

    let plan = quantized_plan(config);
    let shards = run_shards(network, transactions, partition, config, &plan);
    merge_outputs(network, partition, config, shards)
}

/// The run's fault schedule in whole epochs, shared by every shard.
fn quantized_plan(config: &ShardedConfig) -> Vec<PlanEvent> {
    let end_epoch = Clockwork::new(config).end_epoch;
    (config.faults.iter())
        .flat_map(|plan| plan.events.iter().enumerate())
        .map(|(i, (t, ev))| (epoch_of(*t), i as u64, ev.clone()))
        .filter(|&(epoch, ..)| epoch <= end_epoch)
        .collect()
}

/// Builds the shards and runs each on its own thread to the end epoch.
fn run_shards<'a>(
    network: &'a Network,
    transactions: &[Transaction],
    partition: &'a Partition,
    config: &'a ShardedConfig,
    plan_events: &'a [PlanEvent],
) -> Vec<ShardCtx<'a>> {
    let num_shards = partition.num_shards();
    let shards: Vec<ShardCtx> = (0..num_shards)
        .map(|shard| {
            let shard = shard as u16;
            ShardCtx::new(shard, network, transactions, partition, config, plan_events)
        })
        .collect();
    let exchange = Exchange::new(num_shards);

    std::thread::scope(|scope| {
        let exchange = &exchange;
        let handles: Vec<_> = shards
            .into_iter()
            .map(|ctx| scope.spawn(move || ctx.run(exchange)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(ctx) => ctx,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

/// Deterministically merges the shard outputs into one [`SimReport`].
/// Every reduction is either an exact integer sum (commutative) or a
/// float fold over data sorted by content id — never by shard order.
fn merge_outputs(
    network: &Network,
    partition: &Partition,
    config: &ShardedConfig,
    mut outputs: Vec<ShardCtx>,
) -> SimReport {
    let tel = &config.telemetry;
    let clock = Clockwork::new(config);

    // Trace: k-way merge by key (keys are globally unique), replayed into
    // the telemetry handle — `emit` rebuilds the counters and the
    // completion-delay histogram from the merged order, so they cannot
    // depend on shard interleaving.
    let mut all_events: Vec<(Key, TraceEvent)> =
        outputs.iter_mut().flat_map(|o| o.trace.drain(..)).collect();
    all_events.sort_unstable_by_key(|x| x.0);
    if tel.is_enabled() {
        tel.counter_add("sim.scheduler.polls", clock.end_epoch / clock.poll_epochs);
        for (_, ev) in &all_events {
            let cloned = ev.clone();
            tel.emit(move || cloned);
        }
    }

    // Per-shard observability: deterministic counters per rank, plus
    // wall-clock barrier-wait histograms when the run profiled. Kept in
    // memory only (`SimReport.shards` is `#[serde(skip)]`).
    let shard_metrics: Vec<ShardEpochMetrics> = outputs
        .iter()
        .map(|o| ShardEpochMetrics {
            barrier_wait_ms: tel.profiler().and_then(|p| p.barrier_wait(o.metrics.shard)),
            ..o.metrics.clone()
        })
        .collect();
    let observability = ShardObservability {
        num_shards: partition.num_shards() as u32,
        event_imbalance: imbalance_of(shard_metrics.iter().map(|s| s.events_processed)),
        payment_imbalance: imbalance_of(shard_metrics.iter().map(|s| s.owned_payments)),
        shards: shard_metrics,
    };

    // Violations: merged by content, capped like the sequential auditor.
    let mut audit_violations: Vec<AuditViolation> = outputs
        .iter_mut()
        .flat_map(|o| o.violations.drain(..))
        .collect();
    audit_violations.sort_by(|x, y| {
        x.time
            .total_cmp(&y.time)
            .then_with(|| x.event.cmp(&y.event))
            .then_with(|| format!("{:?}", x.kind).cmp(&format!("{:?}", y.kind)))
    });
    audit_violations.truncate(MAX_RELEASE_VIOLATIONS);

    // Payment rows, folded in id order.
    let mut payments: Vec<&LocalPayment> = outputs.iter().flat_map(|o| &o.payments).collect();
    payments.sort_unstable_by_key(|p| p.id);
    let rows = (payments.into_iter()).map(|p| (p.amount, p.delivered, p.status, p.delay));

    // Merged final ledger: each channel's state from its owner shard.
    let mut final_ledger = Ledger::new(network);
    for ch in network.channels() {
        let owner = partition.channel_owner(ch.id);
        final_ledger.copy_channel_state_from(&outputs[owner].ledger, ch.id);
    }

    // Network samples: per-channel figures folded in channel-id order.
    let network_series: Vec<NetworkSample> = if tel.is_enabled() {
        let count = outputs.first().map_or(0, |o| o.samples.len());
        (0..count)
            .map(|k| {
                let epoch = outputs[0].samples[k].epoch;
                let mut pending = 0u32;
                let mut per_channel: Vec<(u32, f64, i64, u32)> = Vec::new();
                for o in &outputs {
                    let s = &o.samples[k];
                    debug_assert_eq!(s.epoch, epoch);
                    pending += s.pending;
                    per_channel.extend(
                        s.channels
                            .iter()
                            .map(|&(c, _, ratio, inflight, qdepth)| (c, ratio, inflight, qdepth)),
                    );
                }
                per_channel.sort_unstable_by_key(|&(c, ..)| c);
                let mean_imbalance = if per_channel.is_empty() {
                    0.0
                } else {
                    per_channel.iter().map(|&(_, r, _, _)| r).sum::<f64>()
                        / per_channel.len() as f64
                };
                let inflight_micros: i64 = per_channel.iter().map(|&(_, _, i, _)| i).sum();
                let max_queue_depth = per_channel.iter().map(|&(_, _, _, q)| q).max().unwrap_or(0);
                NetworkSample {
                    t: t_of(epoch),
                    mean_imbalance,
                    total_inflight: tokens(Amount::from_micros(inflight_micros)),
                    pending,
                    max_queue_depth,
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    // Fault stats: each field counted at exactly one owner, so the sum is
    // partition-independent.
    let fault_stats: Option<FaultStats> = config.faults.as_ref().map(|_| {
        let mut s = FaultStats::default();
        for o in &outputs {
            s.outages += o.stats.outages;
            s.recoveries += o.stats.recoveries;
            s.node_crashes += o.stats.node_crashes;
            s.units_refunded_by_outage += o.stats.units_refunded_by_outage;
            s.units_dropped += o.stats.units_dropped;
            s.units_jittered += o.stats.units_jittered;
            s.units_griefed += o.stats.units_griefed;
            s.retries += o.stats.retries;
            s.blacklistings += o.stats.blacklistings;
            s.payments_failed += o.stats.payments_failed;
        }
        s
    });

    // Feature totals: exact integer sums over shard partials, converted to
    // display tokens exactly once.
    let routing_fees_paid = tokens(Amount::from_micros(
        outputs.iter().map(|o| o.routing_fees_micros).sum(),
    ));
    let rebal_transactions: u64 = outputs.iter().map(|o| o.rebal_transactions).sum();
    let rebalance = RebalanceStats {
        transactions: rebal_transactions as usize,
        moved_volume: tokens(Amount::from_micros(
            outputs.iter().map(|o| o.rebal_moved_micros).sum(),
        )),
        fees_paid: tokens(Amount::from_micros(
            outputs.iter().map(|o| o.rebal_fees_micros).sum(),
        )),
    };

    let policy = match config.policy {
        ShardPolicy::Direct => "epoch-bsp".to_string(),
        ShardPolicy::Queued => "epoch-bsp+queued-Fifo".to_string(),
    };

    SimReport {
        units_sent: outputs.iter().map(|o| o.metrics.units_sent).sum(),
        final_mean_imbalance: final_ledger.mean_imbalance(),
        rebalance,
        routing_fees_paid,
        // One audited pass per epoch, plus the final check, plus one check
        // per applied rebalance — a property of the run, not of how many
        // shards audited their own copy.
        audit_checks: if config.audit {
            clock.end_epoch + 1 + rebal_transactions
        } else {
            0
        },
        audit_violations,
        completion_delay_percentiles: tel.delay_percentiles("sim.completion_delay"),
        telemetry: tel.summarize(network_series),
        faults: fault_stats,
        shards: Some(observability),
        ..tally(config.scheme.name(), policy, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use spider_core::PaymentId;

    /// A message's whole within-epoch processing key `(rank, payment, seq,
    /// hop)`: what the flat bucket was sorted by.
    type MsgKey = (u8, u64, u32, u32);

    fn key(msg: &Msg) -> MsgKey {
        (msg.body.rank(), msg.payment, msg.seq, msg.body.hop())
    }

    /// What a shard notes down, in test builds, about every message it
    /// sends and handles — the order oracle's input.
    #[derive(Default)]
    pub(super) struct OrderLog {
        /// `(destination shard, epoch staged in, fire epoch, key)` per
        /// message staged.
        pub(super) staged: Vec<(usize, u64, u64, MsgKey)>,
        /// `(epoch, key)` per message handled, in handling order.
        pub(super) handled: Vec<(u64, MsgKey)>,
        /// Messages this shard put into any of `Exchange::inboxes`.
        pub(super) inbox_appends: usize,
    }

    impl OrderLog {
        pub(super) fn stage(&mut self, to: usize, staged_at: u64, fire_epoch: u64, msg: &Msg) {
            self.staged.push((to, staged_at, fire_epoch, key(msg)));
        }

        pub(super) fn handle(&mut self, epoch: u64, msg: &Msg) {
            self.handled.push((epoch, key(msg)));
        }

        pub(super) fn mail(&mut self, messages: usize) {
            self.inbox_appends += messages;
        }
    }

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
    fn single_payment_completes() {
        let g = line3(100);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let mut cfg = ShardedConfig::new(10.0);
        cfg.audit = true;
        let p = Partition::single(&g);
        let report = run_sharded(&g, &txs, &p, &cfg);
        assert_eq!(report.attempted, 1);
        assert_eq!(report.completed, 1, "report: {report:?}");
        assert_eq!(report.units_sent, 3, "30 tokens at MTU 10 = 3 units");
        assert!((report.success_volume() - 1.0).abs() < 1e-9);
        assert!(report.audit_violations.is_empty(), "{report:?}");
        assert!(report.audit_checks > 0);
    }

    #[test]
    fn insufficient_capacity_fails_cleanly() {
        let g = line3(5);
        let txs = vec![tx(0, 0, 2, 30, 0.1)];
        let cfg = ShardedConfig::new(3.0);
        let p = Partition::single(&g);
        let report = run_sharded(&g, &txs, &p, &cfg);
        assert_eq!(report.completed, 0);
        // Deadline (5s) is past end (3s): payment still pending at end.
        assert_eq!(report.pending_at_end + report.abandoned, 1);
    }

    #[test]
    fn two_shards_match_one_shard_exactly() {
        let g = line3(100);
        let txs = vec![
            tx(0, 0, 2, 30, 0.1),
            tx(1, 2, 0, 20, 0.2),
            tx(2, 0, 1, 10, 0.3),
        ];
        let mut cfg = ShardedConfig::new(10.0);
        cfg.audit = true;
        let r1 = run_sharded(&g, &txs, &Partition::single(&g), &cfg);
        let r2 = run_sharded(&g, &txs, &Partition::build(&g, 2, 7), &cfg);
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn foreign_slot_mutation_is_refused_and_recorded() {
        let g = line3(100);
        let partition = Partition::build(&g, 2, 0);
        // Find a channel NOT owned by shard 0.
        let foreign = g
            .channels()
            .iter()
            .find(|ch| partition.channel_owner(ch.id) != 0)
            .map(|ch| ch.id);
        let Some(foreign) = foreign else {
            // Tiny graph collapsed to one owner; nothing to test.
            return;
        };
        let cfg = ShardedConfig::new(1.0);
        let mut ctx = ShardCtx::new(0, &g, &[], &partition, &cfg, &[]);
        assert!(!ctx.own(foreign, 1, "test-mutation"));
        assert_eq!(ctx.violations.len(), 1);
        assert!(matches!(
            ctx.violations[0].kind,
            AuditViolationKind::ForeignSlotMutation { .. }
        ));
        // Owned channels pass the guard without recording anything.
        let owned = g
            .channels()
            .iter()
            .find(|ch| partition.channel_owner(ch.id) == 0)
            .map(|ch| ch.id)
            .unwrap();
        assert!(ctx.own(owned, 1, "test-mutation"));
        assert_eq!(ctx.violations.len(), 1);
    }

    #[test]
    fn deadline_abandons_unroutable_payment() {
        // No path from 0 to 2 once the only route lacks capacity.
        let g = line3(1);
        let txs = vec![tx(0, 0, 2, 50, 0.1)];
        let mut cfg = ShardedConfig::new(20.0);
        cfg.deadline = 2.0;
        let report = run_sharded(&g, &txs, &Partition::single(&g), &cfg);
        assert_eq!(report.abandoned, 1);
        assert_eq!(report.pending_at_end, 0);
    }

    // -----------------------------------------------------------------------
    // The order oracle: the agenda against the flat bucket it replaced.

    /// Runs the shards (no report merge) and returns each one's log.
    fn logged_run(
        network: &Network,
        txs: &[Transaction],
        partition: &Partition,
        cfg: &ShardedConfig,
    ) -> Vec<OrderLog> {
        let plan = quantized_plan(cfg);
        let shards = run_shards(network, txs, partition, cfg, &plan);
        for shard in &shards {
            assert!(shard.violations.is_empty(), "{:?}", shard.violations);
        }
        shards.into_iter().map(|s| s.order_log).collect()
    }

    /// What the engine did before the agenda, kept as the oracle: every
    /// message for `(destination shard, fire epoch)` goes into one flat
    /// bucket, and `sort_unstable` by [`key`] is the handling order.
    /// Each shard must have handled, epoch by epoch, exactly that sequence:
    /// nothing lost, duplicated, early, late or out of order.
    fn assert_flat_bucket_order(logs: &[OrderLog], tag: &str) {
        let mut buckets: BTreeMap<(usize, u64), Vec<MsgKey>> = BTreeMap::new();
        for log in logs {
            for &(to, staged_at, fire_epoch, key) in &log.staged {
                assert!(
                    fire_epoch > staged_at,
                    "{tag}: {key:?} due in its own epoch"
                );
                buckets.entry((to, fire_epoch)).or_default().push(key);
            }
        }
        let mut handled: BTreeMap<(usize, u64), Vec<MsgKey>> = BTreeMap::new();
        for (shard, log) in logs.iter().enumerate() {
            assert!(
                log.handled.windows(2).all(|w| w[0].0 <= w[1].0),
                "{tag}: shard {shard} went back an epoch"
            );
            for &(epoch, key) in &log.handled {
                handled.entry((shard, epoch)).or_default().push(key);
            }
        }
        for ((shard, epoch), bucket) in &mut buckets {
            bucket.sort_unstable();
            assert!(
                bucket.windows(2).all(|w| w[0] < w[1]),
                "{tag}: shard {shard} epoch {epoch}: a key was staged twice"
            );
            let got = handled.remove(&(*shard, *epoch)).unwrap_or_default();
            if let Some(i) = (0..bucket.len().max(got.len())).find(|&i| bucket.get(i) != got.get(i))
            {
                panic!(
                    "{tag}: shard {shard} epoch {epoch} message #{i}: handled {:?}, the flat \
                     bucket has {:?}",
                    got.get(i),
                    bucket.get(i)
                );
            }
        }
        assert!(
            handled.is_empty(),
            "{tag}: handled with nothing staged: {:?}",
            handled.keys().next()
        );
    }

    fn isp_scenario(capacity: i64, payments: usize, seed: u64) -> (Network, Vec<Transaction>) {
        let network = spider_topology::isp_topology(Amount::from_whole(capacity));
        let mut trace =
            spider_workload::TraceConfig::isp_default(network.num_nodes(), payments, 8.0);
        trace.seed = seed;
        let txs = spider_workload::generate(&trace, &spider_workload::isp_sizes());
        (network, txs)
    }

    /// Drops, griefs (held 5 s = 100 epochs, past the near ring) and settle
    /// jitter: one epoch's settles and refunds come from many source epochs,
    /// so its rank lists are *not* presorted.
    fn unit_faults(network: &Network, end_time: f64) -> FaultPlan {
        let faults = FaultConfig {
            seed: 9,
            unit_drop_prob: 0.05,
            grief_prob: 0.05,
            settle_jitter: 0.5,
            retry: Some(Default::default()),
            ..FaultConfig::default()
        };
        assert!(epochs_of(faults.grief_hold) > NEAR);
        FaultPlan::from_config(&faults, network, end_time)
    }

    fn partition_of(network: &Network, shards: usize) -> Partition {
        if shards == 1 {
            Partition::single(network)
        } else {
            Partition::build(network, shards, 7)
        }
    }

    #[test]
    fn agenda_hands_out_messages_in_flat_bucket_order() {
        let (network, txs) = isp_scenario(60, 250, 3);
        let plain = ShardedConfig::new(12.0);
        let mut faulty = plain.clone();
        faulty.faults = Some(unit_faults(&network, 12.0));
        let mut queued = plain.clone();
        queued.policy = ShardPolicy::Queued;
        let mut featured = plain.clone();
        featured.fees = Some(FeeSchedule::uniform(
            &network,
            Amount::from_micros(10),
            1_000,
        ));
        featured.congestion = Some(CongestionConfig::default());
        featured.rebalance = Some(RebalancePolicy::aggressive());
        let cases = [
            ("plain", plain),
            ("unit faults", faulty),
            ("queued", queued),
            ("fees + congestion + rebalance", featured),
        ];
        for (name, cfg) in &cases {
            let mut handled_at_one_shard = 0;
            for shards in [1, 2, 4, 7] {
                let tag = format!("{name}, {shards} shards");
                let logs = logged_run(&network, &txs, &partition_of(&network, shards), cfg);
                assert_flat_bucket_order(&logs, &tag);
                let handled: usize = logs.iter().map(|l| l.handled.len()).sum();
                assert!(handled > 1_000, "{tag}: only {handled} messages");
                let mailed: usize = logs.iter().map(|l| l.inbox_appends).sum();
                if shards == 1 {
                    // A shard's messages to itself never ride the mailbox.
                    assert_eq!(mailed, 0, "{tag}");
                    handled_at_one_shard = handled;
                } else {
                    let to_others = (logs.iter().enumerate())
                        .flat_map(|(from, l)| l.staged.iter().map(move |s| (from, s.0)))
                        .filter(|(from, to)| from != to)
                        .count();
                    assert_eq!(mailed, to_others, "{tag}");
                    assert_eq!(handled, handled_at_one_shard, "{tag}");
                }
                if cfg.faults.is_some() {
                    let far = (logs.iter().flat_map(|l| &l.staged))
                        .filter(|&&(_, staged_at, fire_epoch, _)| fire_epoch - staged_at > NEAR)
                        .count();
                    assert!(far > 0, "{tag}: no grief hold reached past the near ring");
                }
            }
        }
    }

    #[test]
    fn far_future_message_waits_in_the_overflow_without_filling_the_ring() {
        let unit = |payment| {
            let path = Arc::new(Path::new(&line3(1), vec![NodeId(0), NodeId(1)]).expect("a path"));
            let (cfg, mut stats) = (ShardedConfig::new(1.0), FaultStats::default());
            let amount = Amount::from_whole(1);
            Arc::new(UnitInfo::new(&cfg, &mut stats, payment, 0, amount, path, 9))
        };
        let msg = |payment| Msg::new(MsgBody::UnitDelivered, unit(payment));
        // The payments of the messages in the ring, in ring order.
        let in_ring = |agenda: &Agenda| -> Vec<u64> {
            (agenda.near.iter().flatten().flatten())
                .map(|m| m.payment)
                .collect()
        };
        let mut agenda = Agenda::new(10);
        agenda.push(50_000, msg(1));
        agenda.push(10 + NEAR, msg(2));
        agenda.push(11 + NEAR, msg(3));
        assert_eq!(agenda.near.len() as u64, NEAR);
        assert_eq!(
            agenda.far.keys().copied().collect::<Vec<_>>(),
            [11 + NEAR, 50_000]
        );
        assert_eq!(in_ring(&agenda), [2]);
        assert_eq!(agenda.near[((10 + NEAR) % NEAR) as usize][3].len(), 1);
        // Stepping to the horizon moves the overflow slot into the ring,
        // where a later message for the same epoch joins it.
        assert!(agenda.take(11).iter().all(Vec::is_empty));
        assert_eq!(agenda.far.len(), 1);
        agenda.push(11 + NEAR, msg(4));
        for epoch in 12..11 + NEAR {
            let slot = agenda.take(epoch);
            assert_eq!(
                slot[3].len(),
                usize::from(epoch == 10 + NEAR),
                "epoch {epoch}"
            );
        }
        let slot = agenda.take(11 + NEAR);
        assert_eq!(
            slot[3].iter().map(|m| m.payment).collect::<Vec<_>>(),
            [3, 4]
        );
        assert_eq!(in_ring(&agenda), Vec::<u64>::new());
        assert_eq!(agenda.far.keys().copied().collect::<Vec<_>>(), [50_000]);
    }
}
