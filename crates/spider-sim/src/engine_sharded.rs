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
//! settles on every hop owner plus a notification to the payment owner,
//! and a refused lock schedules refunds of the locked prefix instead.
//! Within an epoch every shard processes its due messages in a globally
//! deterministic `(kind, payment, unit, hop)` order, and all cross-shard
//! state (balance snapshots, messages) is exchanged only at barriers.
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
//! same lists. No message is due more than Δ ahead, so the slots form a
//! ring of `NEAR` epochs.
//!
//! **Partition independence** is the engine's defining property: handlers
//! touch only state they own, cross-shard reads go through the frozen
//! snapshot, and every merge at the end of the run (trace, report sums,
//! histograms) is keyed by content, never by thread arrival order. The
//! merged [`SimReport`] and trace are therefore *byte-identical* at any
//! shard count — `tests/shard_equivalence.rs` locks this down against
//! shard counts {1, 2, 4, 7}.
//!
//! The sharded engine runs the core packet-switched loop: waterfilling or
//! shortest-path routing, deadlines, auditing and telemetry. A refused hop
//! lock fails the unit. Router queues, congestion windows, on-chain
//! rebalancing and fault injection belong to the continuous-time engine
//! alone.
//!
//! The engine does not checkpoint: snapshots and resume belong to the
//! continuous-time engine ([`crate::engine::run_checkpointed`]), the one
//! that reproduces the paper's figures.

use crate::audit::{AuditViolation, AuditViolationKind, LedgerAudit};
use crate::engine::{DELTA, POLL_INTERVAL};
use crate::ledger::{sender_side, tokens, Ledger};
use crate::metrics::{tally, SimReport};
use crate::payment::{arrival_trace, PaymentState, PaymentStatus};
use crate::transport::{record_release, MAX_RELEASE_VIOLATIONS};
use serde::{Deserialize, Serialize};
use spider_core::{Amount, BalanceView, ChannelId, Direction, Network, NodeId, Path};
use spider_routing::{RoutingScheme, ShortestPathScheme, UnitDecision, WaterfillingScheme};
use spider_telemetry::{HistogramSnapshot, NetworkSample, Phase, Telemetry, TraceEvent};
use spider_topology::Partition;
use spider_workload::Transaction;
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

/// Configuration for [`run_sharded`]. Mirrors the sequential
/// [`SimConfig`](crate::SimConfig) core; durations are quantized to whole
/// epochs internally.
///
/// The paper's transport constants are fixed: funds settle `Δ = 0.5 s`
/// after a unit reaches the receiver, and the scheduler ticks every 0.1 s.
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
    /// Telemetry handle; when enabled, per-shard traces are merged into a
    /// deterministic global trace at the end of the run.
    pub telemetry: Telemetry,
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
            telemetry: Telemetry::disabled(),
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
        E::UnitSettled { .. } => 1,
        E::PaymentCompleted { .. } => 2,
        E::UnitRefunded { .. } => 5,
        E::PaymentArrived { .. } => 8,
        E::PaymentSplit { .. } => 9,
        E::PaymentAbandoned { .. } => 10,
        E::UnitSent { .. } => 11,
        E::ChannelSample { .. } => 12,
        // Never emitted by this engine: it injects no fault and has no
        // router queues, no rebalancing and no solver.
        E::ChannelOutage { .. }
        | E::ChannelRecovered { .. }
        | E::NodeCrashed { .. }
        | E::NodeRecovered { .. }
        | E::UnitDropped { .. }
        | E::UnitGriefed { .. }
        | E::ChannelBlacklisted { .. }
        | E::PaymentRetry { .. }
        | E::UnitQueued { .. }
        | E::RebalanceApplied { .. }
        | E::SolverSample { .. } => 13,
    }
}

/// Immutable per-unit routing state shared by every message about the unit.
#[derive(Debug)]
struct UnitInfo {
    payment: u64,
    seq: u32,
    /// The payment's index in its owner's slab. The owner sent the unit,
    /// and its outcome comes back to the owner.
    local: u32,
    amount: Amount,
    path: Arc<Path>,
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
    /// A hop lock was refused and the unit's locked prefix refunded (to the
    /// payment owner).
    UnitFailed,
}

impl MsgBody {
    fn rank(&self) -> u8 {
        match self {
            MsgBody::SettleHop { .. } => 0,
            MsgBody::RefundHop { .. } => 1,
            MsgBody::LockHop { .. } => 2,
            MsgBody::UnitDelivered => 3,
            MsgBody::UnitFailed => 4,
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

/// How many epochs ahead the agenda keeps a slot: the furthest a message
/// may be due. Lock forwards and failures fire one epoch out and settles Δ
/// (10 epochs) out, counted from the epoch that sends them.
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
}

impl Agenda {
    fn new(now: u64) -> Self {
        Agenda {
            now,
            near: (0..NEAR).map(|_| Slot::default()).collect(),
        }
    }

    /// Files `msg` under `fire_epoch`, which must lie ahead, at most `NEAR`
    /// epochs: no handler may add to the epoch it is running in.
    fn push(&mut self, fire_epoch: u64, msg: Msg) {
        let now = self.now;
        assert!(
            fire_epoch > now && fire_epoch - now <= NEAR,
            "message due at epoch {fire_epoch} filed at {now}"
        );
        self.near[(fire_epoch % NEAR) as usize][usize::from(msg.body.rank())].push(msg);
    }

    /// Removes the slot of `epoch`, the one after `now`. The ring position
    /// it vacates stands for `epoch + NEAR` from here on.
    fn take(&mut self, epoch: u64) -> Slot {
        assert_eq!(epoch, self.now.saturating_add(1), "epochs are consecutive");
        self.now = epoch;
        std::mem::take(&mut self.near[(epoch % NEAR) as usize])
    }
}

/// A payment owned by this shard: what the run changes about trace row
/// `row`, which holds its inputs — the record both engines keep, plus the
/// epochs.
struct LocalPayment {
    row: u32,
    arrival_epoch: u64,
    deadline_epoch: u64,
    state: PaymentState,
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
    /// `(channel, |a-b|/capacity, inflight micros)`.
    channels: Vec<(u32, f64, i64)>,
}

/// Balance view for routing: the barrier-frozen global snapshot with this
/// payment's in-pump debits applied.
struct SnapshotView<'a> {
    network: &'a Network,
    avail: &'a [[i64; 2]],
}

impl BalanceView for SnapshotView<'_> {
    fn available(&self, channel: ChannelId, from: NodeId) -> Amount {
        let ch = self.network.channel(channel);
        let side = if from == ch.a { 0 } else { 1 };
        Amount::from_micros(self.avail[channel.index()][side])
    }

    fn available_dir(&self, channel: ChannelId, _from: NodeId, dir: Direction) -> Amount {
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
    /// Frozen global balances in micro-tokens, per channel `[a, b]`.
    snapshot: Vec<[i64; 2]>,
    /// Channels this shard mutated since the last publish.
    dirty: Vec<u32>,
    /// Future messages for this shard, its own and the other shards'.
    agenda: Agenda,
    /// `(fire epoch, message)` staged this epoch for each *other* shard.
    staged: Vec<Vec<(u64, Msg)>>,
    /// The trace: row `i` holds the inputs of the payment whose `row` is `i`.
    transactions: &'a [Transaction],
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
    /// This shard's work counters (and, once merged, its barrier waits).
    metrics: ShardEpochMetrics,
    #[cfg(test)]
    order_log: tests::OrderLog,
}

impl<'a> ShardCtx<'a> {
    /// The state of shard `shard` before its first epoch. Payment ids are
    /// dealt round-robin (`id % num_shards`), and the slab is sorted by id.
    fn new(
        shard: u16,
        network: &'a Network,
        transactions: &'a [Transaction],
        partition: &'a Partition,
        cfg: &'a ShardedConfig,
    ) -> Self {
        let clock = Clockwork::new(cfg);
        let num_shards = partition.num_shards();
        let mut payments: Vec<LocalPayment> = (transactions.iter().enumerate())
            .filter(|(_, tx)| tx.id.0 % num_shards as u64 == u64::from(shard))
            .filter_map(|(row, tx)| {
                let arrival_epoch = epoch_of(tx.arrival);
                (arrival_epoch <= clock.end_epoch).then(|| LocalPayment {
                    row: row as u32,
                    arrival_epoch,
                    deadline_epoch: arrival_epoch + clock.deadline_epochs,
                    state: PaymentState::ARRIVED,
                })
            })
            .collect();
        payments.sort_by_key(|p| transactions[p.row as usize].id);
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
            transactions,
            payments,
            pending: Vec::new(),
            undo: Vec::new(),
            arrivals,
            arrival_cursor: 0,
            trace: Vec::new(),
            tel_on: cfg.telemetry.is_enabled(),
            samples: Vec::new(),
            violations: Vec::new(),
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

    /// Processes every message due this epoch in deterministic key order:
    /// rank by rank, each list in [`Msg::order`]. A list is a few sorted runs
    /// laid end to end (forwarded locks in processing order, a settle batch
    /// unit by unit with hops ascending), which the stable sort detects; keys
    /// are unique, so stability itself decides nothing. Each list is freed
    /// once handled — keeping them for reuse cost 16 % of peak RSS.
    fn process_messages(&mut self, epoch: u64) {
        let slot = self.agenda.take(epoch);
        let due: u64 = slot.iter().map(|list| list.len() as u64).sum();
        if due == 0 {
            return;
        }
        let (tel, lane) = (&self.cfg.telemetry, u32::from(self.shard));
        let _span = tel.span_enter_lane(Phase::MessageMerge, lane);
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
                    MsgBody::UnitFailed => self.on_unit_failed(&msg.unit, epoch),
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
        if let Err(e) = self.ledger.settle_hop(self.network, c, to, unit.amount) {
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
        if let Err(e) = self.ledger.refund_hop(self.network, c, from, unit.amount) {
            record_release(&mut self.violations, t_of(epoch), "refund-hop", &e);
            return;
        }
        self.dirty.push(c.index() as u32);
    }

    /// Fails a unit whose lock at `hop` was refused: refunds the locked
    /// prefix `0..hop` at `fire_epoch` and notifies the payment owner.
    fn fail_unit(&mut self, unit: &Arc<UnitInfo>, hop: u32, fire_epoch: u64) {
        for hop in 0..hop {
            let refund = MsgBody::RefundHop { hop };
            self.stage_hop(Arc::clone(unit), hop, fire_epoch, refund);
        }
        self.stage_to_payment_owner(Arc::clone(unit), fire_epoch, MsgBody::UnitFailed);
    }

    /// Locks `hop` and advances the unit: forwards the lock, or schedules
    /// the settles once the final hop is locked. A refused lock fails the
    /// unit with no ledger effect. Takes over the lock request's hold on
    /// the unit, so that a forwarded lock carries it on without a new one.
    fn on_lock_hop(&mut self, unit: Arc<UnitInfo>, hop: u32, epoch: u64) {
        let (c, _) = unit.path.hops()[hop as usize];
        if !self.own(c, epoch, "lock-hop") {
            return;
        }
        let from = unit.path.nodes()[hop as usize];
        if (self.ledger)
            .lock_hop(self.network, c, from, unit.amount)
            .is_err()
        {
            self.fail_unit(&unit, hop, epoch + 1);
            return;
        }
        self.dirty.push(c.index() as u32);
        let hops = unit.path.hops().len() as u32;
        if hop + 1 < hops {
            self.stage_hop(unit, hop + 1, epoch + 1, MsgBody::LockHop { hop: hop + 1 });
            return;
        }
        // Final hop locked: the unit reached the receiver.
        let se = epoch + self.clock.delta_epochs;
        for h in 0..hops {
            self.stage_hop(Arc::clone(&unit), h, se, MsgBody::SettleHop { hop: h });
        }
        self.stage_to_payment_owner(unit, se, MsgBody::UnitDelivered);
    }

    fn on_unit_delivered(&mut self, unit: &Arc<UnitInfo>, epoch: u64) {
        let pidx = unit.local as usize;
        let (t, tx) = (t_of(epoch), self.row(pidx));
        let p = &mut self.payments[pidx];
        let delay = (epoch - p.arrival_epoch) as f64 * EPOCH;
        let completed = p.state.settle(unit.amount, tx.amount, delay);
        let (pid, amount) = (tx.id.0, tokens(unit.amount));
        let settled = TraceEvent::UnitSettled {
            t,
            payment: pid,
            amount,
        };
        self.emit(epoch, pid, u64::from(unit.seq), settled);
        if completed {
            let event = TraceEvent::PaymentCompleted {
                t,
                payment: pid,
                delay,
            };
            self.emit(epoch, pid, 0, event);
        }
    }

    /// The payment owner's half of the sequential `Transport::fail`:
    /// the locked prefix is already being refunded hop by hop.
    fn on_unit_failed(&mut self, unit: &Arc<UnitInfo>, epoch: u64) {
        let pidx = unit.local as usize;
        self.payments[pidx].state.refund(unit.amount);
        let (t, pid, amount) = (t_of(epoch), self.row(pidx).id.0, tokens(unit.amount));
        let refunded = TraceEvent::UnitRefunded {
            t,
            payment: pid,
            amount,
        };
        self.emit(epoch, pid, u64::from(unit.seq), refunded);
    }

    fn abandon(&mut self, pidx: usize, epoch: u64) {
        let pid = self.row(pidx).id.0;
        if let Some(event) = self.payments[pidx].state.abandon(t_of(epoch), pid) {
            self.emit(epoch, pid, 0, event);
        }
    }

    /// The trace row holding local payment `pidx`'s inputs.
    fn row(&self, pidx: usize) -> &'a Transaction {
        &self.transactions[self.payments[pidx].row as usize]
    }

    /// Sends as many MTU units of payment `pidx` as the frozen snapshot
    /// allows. Each routed unit debits a private copy of the snapshot
    /// (restored afterwards), so concurrent payments this epoch route
    /// independently of each other — over-subscription is resolved by the
    /// deterministic lock order at channel owners next epoch.
    fn pump(&mut self, pidx: usize, epoch: u64) {
        if self.payments[pidx].state.status != PaymentStatus::Pending {
            return;
        }
        let mut undo = std::mem::take(&mut self.undo);
        let tx = self.row(pidx);
        let (src, dst, pid) = (tx.src, tx.dst, tx.id.0);
        loop {
            let p = &self.payments[pidx];
            let remaining = p.state.remaining(tx.amount);
            if !remaining.is_positive() {
                break;
            }
            let unit_amount = remaining.min(self.cfg.mtu);
            let view = SnapshotView {
                network: self.network,
                avail: &self.snapshot,
            };
            match (self.scheme).route_unit(self.network, &view, src, dst, unit_amount) {
                UnitDecision::Route(path) => {
                    let seq = self.payments[pidx].state.send(unit_amount);
                    let unit = UnitInfo {
                        payment: pid,
                        seq,
                        local: pidx as u32,
                        amount: unit_amount,
                        path,
                    };
                    let micros = unit_amount.micros();
                    for &(c, dir) in unit.path.hops() {
                        let slot = &mut self.snapshot[c.index()][sender_side(dir)];
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
                UnitDecision::Unavailable => break,
                UnitDecision::Never => {
                    self.abandon(pidx, epoch);
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
            let tx = self.row(pidx);
            for event in arrival_trace(tx, self.cfg.mtu, t_of(epoch)) {
                self.emit(epoch, tx.id.0, 0, event);
            }
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
                self.abandon(i, epoch);
            }
            // `pump` passes over a payment that is no longer pending.
            self.pump(i, epoch);
        }
        self.pending
            .retain(|&i| self.payments[i].state.status == PaymentStatus::Pending);
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
            channels.push((cid, mean_ratio, inflight.micros()));
            self.emit(
                epoch,
                ch.id.index() as u64,
                0,
                TraceEvent::ChannelSample {
                    t,
                    channel: cid,
                    imbalance,
                    inflight: tokens(inflight),
                    // No router queues in this engine.
                    queue_depth: 0,
                },
            );
        }
        // Arrived and not yet finished: `pending` holds the arrivals, pruned
        // of finished payments only at a tick.
        let pending = (self.pending.iter())
            .filter(|&&i| self.payments[i].state.status == PaymentStatus::Pending)
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
                self.process_messages(epoch);
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

    let shards = run_shards(network, transactions, partition, config);
    merge_outputs(network, partition, config, shards)
}

/// Builds the shards and runs each on its own thread to the end epoch.
fn run_shards<'a>(
    network: &'a Network,
    transactions: &'a [Transaction],
    partition: &'a Partition,
    config: &'a ShardedConfig,
) -> Vec<ShardCtx<'a>> {
    let num_shards = partition.num_shards();
    let shards: Vec<ShardCtx> = (0..num_shards)
        .map(|shard| ShardCtx::new(shard as u16, network, transactions, partition, config))
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
    let mut payments: Vec<(&Transaction, &LocalPayment)> = (outputs.iter())
        .flat_map(|o| {
            o.payments
                .iter()
                .map(|p| (&o.transactions[p.row as usize], p))
        })
        .collect();
    payments.sort_unstable_by_key(|(tx, _)| tx.id);
    let rows = (payments.into_iter()).map(|(tx, p)| (tx.amount, &p.state));

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
                let mut per_channel: Vec<(u32, f64, i64)> = Vec::new();
                for o in &outputs {
                    let s = &o.samples[k];
                    debug_assert_eq!(s.epoch, epoch);
                    pending += s.pending;
                    per_channel.extend_from_slice(&s.channels);
                }
                per_channel.sort_unstable_by_key(|&(c, ..)| c);
                let mean_imbalance = if per_channel.is_empty() {
                    0.0
                } else {
                    per_channel.iter().map(|&(_, r, _)| r).sum::<f64>() / per_channel.len() as f64
                };
                let inflight_micros: i64 = per_channel.iter().map(|&(_, _, i)| i).sum();
                NetworkSample {
                    t: t_of(epoch),
                    mean_imbalance,
                    total_inflight: tokens(Amount::from_micros(inflight_micros)),
                    pending,
                    max_queue_depth: 0,
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    SimReport {
        units_sent: outputs.iter().map(|o| o.metrics.units_sent).sum(),
        final_mean_imbalance: final_ledger.mean_imbalance(),
        // One audited pass per epoch plus the final check — a property of
        // the run, not of how many shards audited their own copy.
        audit_checks: if config.audit { clock.end_epoch + 1 } else { 0 },
        audit_violations,
        completion_delay_percentiles: tel.delay_percentiles("sim.completion_delay"),
        telemetry: tel.summarize(network_series),
        shards: Some(observability),
        ..tally(config.scheme.name(), "epoch-bsp".to_string(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::PaymentId;
    use std::collections::BTreeMap;

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
        let mut ctx = ShardCtx::new(0, &g, &[], &partition, &cfg);
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
        let shards = run_shards(network, txs, partition, cfg);
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
        let cfg = ShardedConfig::new(12.0);
        let mut handled_at_one_shard = 0;
        for shards in [1, 2, 4, 7] {
            let tag = format!("{shards} shards");
            let logs = logged_run(&network, &txs, &partition_of(&network, shards), &cfg);
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
        }
    }

    /// The ring holds every epoch a message may be due in; one due past it
    /// would land on a slot of an earlier epoch, so it is refused.
    #[test]
    #[should_panic(expected = "message due at epoch 75 filed at 10")]
    fn message_due_past_the_ring_is_refused() {
        let path = Arc::new(Path::new(&line3(1), vec![NodeId(0), NodeId(1)]).expect("a path"));
        let unit = UnitInfo {
            payment: 1,
            seq: 0,
            local: 0,
            amount: Amount::from_whole(1),
            path,
        };
        let (unit, mut agenda) = (Arc::new(unit), Agenda::new(10));
        let delivered = |unit| Msg::new(MsgBody::UnitDelivered, unit);
        agenda.push(10 + NEAR, delivered(Arc::clone(&unit)));
        agenda.push(11 + NEAR, delivered(unit));
    }
}
