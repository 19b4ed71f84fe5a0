//! Deterministic fault injection and sender-side recovery.
//!
//! The paper evaluates routing on an ideal network; a production PCN must
//! keep conserving value — and degrade gracefully — when channels go down,
//! nodes churn, units are delayed or dropped in flight, and counterparties
//! grief HTLCs. This module provides:
//!
//! - [`FaultConfig`] — a seeded description of the disturbance process
//!   (channel outage rate, node churn, per-unit drop/jitter/grief
//!   probabilities) plus an optional sender [`RetryPolicy`];
//! - [`FaultPlan`] — the config expanded into an explicit, sorted schedule
//!   of [`FaultEvent`]s for one run, built either from the seeded process
//!   (SplitMix64, no wall clock) or scripted directly;
//! - [`FaultState`] — the runtime mask consumed by the engines: per-channel
//!   down-cause counts, per-node liveness, the per-unit fate RNG, and
//!   [`FaultStats`];
//! - [`FaultView`] — a [`BalanceView`] wrapper that reports zero spendable
//!   balance on downed or blacklisted channels, so every routing scheme's
//!   existing path machinery avoids dead channels without modification.
//!
//! Everything is a pure function of the seed: the same config produces the
//! same schedule, unit fates, and trace on any host or worker count.

use serde::{Deserialize, Serialize};
use spider_core::{Amount, BalanceView, ChannelId, Direction, Network, NodeId, Path};
use spider_telemetry::TraceEvent;

/// SplitMix64 (Steele, Lea & Flood 2014): a tiny, high-quality,
/// fully deterministic 64-bit generator. Used for both schedule expansion
/// and per-unit fate draws.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    /// A generator seeded at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        Self::mix(self.state)
    }

    /// The `n`-th output (from 0) of the generator seeded at `seed`, without
    /// drawing the ones before it.
    pub fn nth(seed: u64, n: u64) -> u64 {
        Self::mix(seed.wrapping_add(n.wrapping_add(1).wrapping_mul(Self::GAMMA)))
    }

    /// The output function: a bijective scramble of one 64-bit word, also
    /// usable on its own to derive one seed from another.
    pub fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `0..n` (`n` must be positive).
    pub fn next_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// The raw generator state, for checkpointing.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// A generator resumed at a previously captured raw state. Unlike
    /// [`new`](Self::new), the argument is the internal counter itself, not
    /// a seed: `from_state(g.state())` continues `g`'s stream exactly.
    pub fn from_state(state: u64) -> Self {
        SplitMix64 { state }
    }
}

/// Sender-side recovery policy: exponential backoff with a per-payment
/// fault-failure budget and failed-hop blacklisting.
///
/// Without a retry policy, a payment is abandoned on its first fault
/// failure (the sender gives up); with one, the sender backs off, avoids
/// the blamed channel, and re-routes through the scheme's path machinery.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Fault failures tolerated per payment before it is abandoned.
    pub max_attempts: u32,
    /// First backoff delay after a fault failure (seconds).
    pub backoff_base: f64,
    /// Multiplier applied to the backoff on every subsequent failure.
    pub backoff_mult: f64,
    /// How long a blamed channel stays blacklisted (seconds).
    pub blacklist_duration: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            backoff_base: 0.2,
            backoff_mult: 2.0,
            blacklist_duration: 2.0,
        }
    }
}

impl RetryPolicy {
    /// The backoff (seconds) before retrying after a payment's `attempt`-th
    /// fault failure (1-based), or `None` once the budget is spent and the
    /// payment is to be abandoned.
    pub fn backoff(&self, attempt: u32) -> Option<f64> {
        (attempt <= self.max_attempts)
            .then(|| self.backoff_base * self.backoff_mult.powi(attempt as i32 - 1))
    }
}

/// Seeded description of the disturbance process for one run.
///
/// Rates are interpreted as follows:
///
/// - `channel_outage_rate` — expected outages *per channel* over the run
///   (fractional rates Bernoulli-round deterministically per channel);
/// - `node_churn_rate` — probability that each node crashes once during
///   the run;
/// - `unit_drop_prob` / `grief_prob` — per-unit probabilities, drawn at
///   send time from the seeded stream;
/// - `settle_jitter` — maximum extra settlement delay per unit (uniform
///   in `[0, settle_jitter]`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for schedule expansion and per-unit fate draws.
    #[serde(default)]
    pub seed: u64,
    /// Expected outages per channel over the run.
    #[serde(default)]
    pub channel_outage_rate: f64,
    /// How long each channel outage lasts (seconds).
    #[serde(default = "default_outage_duration")]
    pub outage_duration: f64,
    /// Probability that each node crashes once during the run.
    #[serde(default)]
    pub node_churn_rate: f64,
    /// How long a crashed node stays down (seconds).
    #[serde(default = "default_node_downtime")]
    pub node_downtime: f64,
    /// Per-unit probability of being dropped in flight.
    #[serde(default)]
    pub unit_drop_prob: f64,
    /// Maximum extra per-unit settlement delay (seconds).
    #[serde(default)]
    pub settle_jitter: f64,
    /// Per-unit probability of an HTLC grief (funds pinned, then refunded).
    #[serde(default)]
    pub grief_prob: f64,
    /// How long griefed funds stay pinned past the normal settle time
    /// (seconds).
    #[serde(default = "default_grief_hold")]
    pub grief_hold: f64,
    /// Sender recovery policy; `None` abandons a payment on its first
    /// fault failure.
    #[serde(default)]
    pub retry: Option<RetryPolicy>,
}

fn default_outage_duration() -> f64 {
    5.0
}

fn default_node_downtime() -> f64 {
    5.0
}

fn default_grief_hold() -> f64 {
    5.0
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            channel_outage_rate: 0.0,
            outage_duration: default_outage_duration(),
            node_churn_rate: 0.0,
            node_downtime: default_node_downtime(),
            unit_drop_prob: 0.0,
            settle_jitter: 0.0,
            grief_prob: 0.0,
            grief_hold: default_grief_hold(),
            retry: Some(RetryPolicy::default()),
        }
    }
}

/// Most outages a config may schedule per channel. A plan holds two events
/// per outage, so this is what bounds the size of an expanded plan.
const MAX_OUTAGE_RATE: f64 = 1000.0;

impl FaultConfig {
    /// Checks a config that came from outside the program (a `--faults`
    /// file, an `--outage-rates` value) before it is expanded into a plan:
    /// probabilities in `[0, 1]` with drop + grief at most 1, every rate
    /// and duration finite and non-negative, and the outage rate small
    /// enough that the plan stays bounded. The message names the field.
    pub fn validate(&self) -> Result<(), String> {
        let retry = self.retry.clone().unwrap_or_default();
        for (field, p) in [
            ("node_churn_rate", self.node_churn_rate),
            ("unit_drop_prob", self.unit_drop_prob),
            ("grief_prob", self.grief_prob),
            (
                "unit_drop_prob + grief_prob",
                self.unit_drop_prob + self.grief_prob,
            ),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{field} is {p:?}, not a probability in [0, 1]"));
            }
        }
        for (field, v) in [
            ("channel_outage_rate", self.channel_outage_rate),
            ("outage_duration", self.outage_duration),
            ("node_downtime", self.node_downtime),
            ("settle_jitter", self.settle_jitter),
            ("grief_hold", self.grief_hold),
            ("retry.backoff_base", retry.backoff_base),
            ("retry.backoff_mult", retry.backoff_mult),
            ("retry.blacklist_duration", retry.blacklist_duration),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "{field} is {v:?}, not a finite non-negative number"
                ));
            }
        }
        if self.channel_outage_rate > MAX_OUTAGE_RATE {
            return Err(format!(
                "channel_outage_rate is {:?}, above the limit of {MAX_OUTAGE_RATE} outages per channel",
                self.channel_outage_rate
            ));
        }
        Ok(())
    }

    /// A named scenario preset, or `None` for an unknown name.
    ///
    /// - `"outages"` — one outage per channel on average;
    /// - `"churn"` — 20% of nodes crash once;
    /// - `"drops"` — 5% of units dropped in flight;
    /// - `"jitter"` — up to 0.5 s extra settlement delay per unit;
    /// - `"griefing"` — 3% of units griefed (funds pinned 5 s);
    /// - `"stress"` — all of the above at once.
    pub fn scenario(name: &str) -> Option<FaultConfig> {
        let mut cfg = FaultConfig::default();
        match name {
            "outages" => cfg.channel_outage_rate = 1.0,
            "churn" => cfg.node_churn_rate = 0.2,
            "drops" => cfg.unit_drop_prob = 0.05,
            "jitter" => cfg.settle_jitter = 0.5,
            "griefing" => cfg.grief_prob = 0.03,
            "stress" => {
                cfg.channel_outage_rate = 0.5;
                cfg.node_churn_rate = 0.1;
                cfg.unit_drop_prob = 0.02;
                cfg.settle_jitter = 0.25;
                cfg.grief_prob = 0.01;
            }
            _ => return None,
        }
        Some(cfg)
    }

    /// The one rule for a unit's fate, shared by both engines: draws it for
    /// a unit on `path` from `rng` and counts it in `stats`. One roll picks
    /// the fate; a drop then draws its hop and detection point, a delivery
    /// its jitter when jitter is on.
    pub(crate) fn unit_fate(
        &self,
        rng: &mut SplitMix64,
        path: &Path,
        stats: &mut FaultStats,
    ) -> UnitFate {
        let roll = rng.next_f64();
        if roll < self.unit_drop_prob {
            let hop_index = rng.next_below(path.hops().len().max(1));
            // Deterministic detection point strictly inside (0, Δ).
            let at_frac = 0.25 + 0.5 * rng.next_f64();
            stats.units_dropped += 1;
            return UnitFate::Drop { at_frac, hop_index };
        }
        if roll < self.unit_drop_prob + self.grief_prob {
            stats.units_griefed += 1;
            return UnitFate::Grief {
                hold: self.grief_hold,
            };
        }
        let jitter = if self.settle_jitter > 0.0 {
            let j = self.settle_jitter * rng.next_f64();
            if j > 0.0 {
                stats.units_jittered += 1;
            }
            j
        } else {
            0.0
        };
        UnitFate::Deliver { jitter }
    }
}

/// One scripted fault transition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The channel goes down: capacity masked, in-flight units crossing it
    /// refunded.
    ChannelDown(ChannelId),
    /// The channel comes back up.
    ChannelUp(ChannelId),
    /// The node crashes: every incident channel goes down.
    NodeDown(NodeId),
    /// The node rejoins.
    NodeUp(NodeId),
}

impl FaultEvent {
    /// The trace record of this transition taking effect at time `t`.
    pub fn trace(&self, t: f64) -> TraceEvent {
        match *self {
            FaultEvent::ChannelDown(c) => TraceEvent::ChannelOutage { t, channel: c.0 },
            FaultEvent::ChannelUp(c) => TraceEvent::ChannelRecovered { t, channel: c.0 },
            FaultEvent::NodeDown(n) => TraceEvent::NodeCrashed { t, node: n.0 },
            FaultEvent::NodeUp(n) => TraceEvent::NodeRecovered { t, node: n.0 },
        }
    }
}

/// The expanded fault schedule for one run: scripted `(time, event)` pairs
/// sorted by time, plus the per-unit disturbance parameters.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Scheduled transitions, sorted by time (ties keep insertion order).
    pub events: Vec<(f64, FaultEvent)>,
    /// The originating config (per-unit probabilities, retry policy, seed).
    pub config: FaultConfig,
}

impl FaultPlan {
    /// Expands `config` into a schedule for `network` over `[0, end_time]`
    /// using the config's SplitMix64 seed. Channels and nodes are visited
    /// in id order, so the schedule is a pure function of the inputs.
    ///
    /// # Panics
    /// Panics on a config that fails [`FaultConfig::validate`]; whatever
    /// reads one from outside the program validates it first.
    pub fn from_config(config: &FaultConfig, network: &Network, end_time: f64) -> Self {
        assert!(end_time > 0.0, "fault plan needs a positive horizon");
        assert_eq!(config.validate(), Ok(()), "invalid fault config");
        let mut rng = SplitMix64::new(config.seed);
        let mut events: Vec<(f64, FaultEvent)> = Vec::new();
        for ch in network.channels() {
            let rate = config.channel_outage_rate.max(0.0);
            let mut count = rate.floor() as u64;
            if rng.next_f64() < rate.fract() {
                count += 1;
            }
            for _ in 0..count {
                let start = rng.next_f64() * end_time;
                events.push((start, FaultEvent::ChannelDown(ch.id)));
                events.push((
                    start + config.outage_duration.max(0.0),
                    FaultEvent::ChannelUp(ch.id),
                ));
            }
        }
        for node in 0..network.num_nodes() {
            if rng.next_f64() < config.node_churn_rate {
                let id = NodeId(node as u32);
                let start = rng.next_f64() * end_time;
                events.push((start, FaultEvent::NodeDown(id)));
                events.push((
                    start + config.node_downtime.max(0.0),
                    FaultEvent::NodeUp(id),
                ));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        FaultPlan {
            events,
            config: config.clone(),
        }
    }

    /// A plan from explicit scripted events (times need not be sorted).
    pub fn scripted(mut events: Vec<(f64, FaultEvent)>, config: FaultConfig) -> Self {
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        FaultPlan { events, config }
    }
}

/// Fault-injection and recovery statistics for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Channel-outage transitions applied (direct outages only).
    #[serde(default)]
    pub outages: u64,
    /// Channel recoveries applied.
    #[serde(default)]
    pub recoveries: u64,
    /// Node crashes applied.
    #[serde(default)]
    pub node_crashes: u64,
    /// In-flight units refunded because a channel on their path went down.
    #[serde(default)]
    pub units_refunded_by_outage: u64,
    /// Units dropped in flight by the per-unit drop process.
    #[serde(default)]
    pub units_dropped: u64,
    /// Units whose settlement was delayed by jitter.
    #[serde(default)]
    pub units_jittered: u64,
    /// Units griefed (funds pinned until the hold expired).
    #[serde(default)]
    pub units_griefed: u64,
    /// Retries scheduled by the sender recovery policy.
    #[serde(default)]
    pub retries: u64,
    /// Channel blacklistings applied by the recovery policy.
    #[serde(default)]
    pub blacklistings: u64,
    /// Payments abandoned because their fault-failure budget ran out (or,
    /// with retries disabled, on their first fault failure).
    #[serde(default)]
    pub payments_failed: u64,
}

/// The fate drawn for one freshly sent unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnitFate {
    /// Settles normally, `jitter` seconds late.
    Deliver {
        /// Extra settlement delay (seconds, `>= 0`).
        jitter: f64,
    },
    /// Dropped mid-flight: refunded at `at_frac` of the settlement delay,
    /// blaming hop `hop_index` of its path.
    Drop {
        /// Fraction of Δ after which the drop is detected, in `(0, 1)`.
        at_frac: f64,
        /// Index of the blamed hop on the unit's path.
        hop_index: usize,
    },
    /// HTLC griefed: never settles; refunded `hold` seconds after the
    /// normal settle time, pinning the locked funds in between.
    Grief {
        /// Extra pin time past the normal settle instant (seconds).
        hold: f64,
    },
}

/// Runtime fault mask consumed by the engines.
///
/// Tracks why each channel is down (a direct outage and each downed
/// endpoint are independent causes), which nodes are down, and owns the
/// per-unit fate RNG. Single-threaded, consumed strictly in event order,
/// so runs are deterministic.
#[derive(Clone, Debug)]
pub struct FaultState {
    /// Per-channel count of active down-causes (outage + downed endpoints).
    down_causes: Vec<u8>,
    node_down: Vec<bool>,
    rng: SplitMix64,
    /// The plan's config: the per-unit odds and the retry policy.
    pub(crate) config: FaultConfig,
    /// Run statistics.
    pub stats: FaultStats,
}

impl FaultState {
    /// Fresh state for `network` from `plan`'s config. The fate RNG is
    /// decoupled from the schedule stream so adding scripted events never
    /// shifts unit fates.
    pub fn new(plan: &FaultPlan, network: &Network) -> Self {
        FaultState {
            down_causes: vec![0; network.num_channels()],
            node_down: vec![false; network.num_nodes()],
            rng: SplitMix64::new(plan.config.seed ^ 0xd1b5_4a32_d192_ed03),
            config: plan.config.clone(),
            stats: FaultStats::default(),
        }
    }

    /// `true` while `channel` has at least one active down-cause.
    #[inline]
    pub fn is_channel_down(&self, channel: ChannelId) -> bool {
        self.down_causes[channel.index()] > 0
    }

    /// `true` while `node` is crashed.
    #[inline]
    pub fn is_node_down(&self, node: NodeId) -> bool {
        self.node_down[node.index()]
    }

    /// Applies one fault transition, returning the channels that just went
    /// from up to down (so the engine can refund the units crossing them).
    pub fn apply(&mut self, network: &Network, event: &FaultEvent) -> Vec<ChannelId> {
        let mut newly_down = Vec::new();
        let mut bump = |causes: &mut Vec<u8>, c: ChannelId, up: bool| {
            let n = &mut causes[c.index()];
            if up {
                *n = n.saturating_sub(1);
            } else {
                *n = n.saturating_add(1);
                if *n == 1 {
                    newly_down.push(c);
                }
            }
        };
        match event {
            FaultEvent::ChannelDown(c) => {
                self.stats.outages += 1;
                bump(&mut self.down_causes, *c, false);
            }
            FaultEvent::ChannelUp(c) => {
                self.stats.recoveries += 1;
                bump(&mut self.down_causes, *c, true);
            }
            FaultEvent::NodeDown(n) => {
                if !self.node_down[n.index()] {
                    self.stats.node_crashes += 1;
                    self.node_down[n.index()] = true;
                    for &(_, c) in network.neighbors(*n) {
                        bump(&mut self.down_causes, c, false);
                    }
                }
            }
            FaultEvent::NodeUp(n) => {
                if self.node_down[n.index()] {
                    self.node_down[n.index()] = false;
                    for &(_, c) in network.neighbors(*n) {
                        bump(&mut self.down_causes, c, true);
                    }
                }
            }
        }
        newly_down
    }

    /// Draws the fate of one freshly sent unit on `path` from the run's
    /// stream, so fates depend only on the send sequence.
    pub fn unit_fate(&mut self, path: &Path) -> UnitFate {
        self.config.unit_fate(&mut self.rng, path, &mut self.stats)
    }

    /// `true` if any hop of `path` is currently down.
    pub fn path_blocked(&self, path: &Path) -> bool {
        path.hops().iter().any(|&(c, _)| self.is_channel_down(c))
    }

    /// Captures the mutable runtime — down-cause counts, node liveness,
    /// fate-RNG position, and stats — for a checkpoint. The config is not
    /// captured: a restore starts from a state built for the same plan.
    pub fn export_state(&self) -> FaultStateSnapshot {
        FaultStateSnapshot {
            down_causes: self.down_causes.clone(),
            node_down: self.node_down.clone(),
            rng_state: self.rng.state(),
            stats: self.stats,
        }
    }

    /// Restores a capture from [`export_state`](Self::export_state) into a
    /// state freshly built for the same plan and network. Fails (changing
    /// nothing) when the vector lengths do not match this network.
    pub fn restore_state(&mut self, snap: FaultStateSnapshot) -> Result<(), String> {
        if snap.down_causes.len() != self.down_causes.len() {
            return Err(format!(
                "fault state has {} channels, network has {}",
                snap.down_causes.len(),
                self.down_causes.len()
            ));
        }
        if snap.node_down.len() != self.node_down.len() {
            return Err(format!(
                "fault state has {} nodes, network has {}",
                snap.node_down.len(),
                self.node_down.len()
            ));
        }
        self.down_causes = snap.down_causes;
        self.node_down = snap.node_down;
        self.rng = SplitMix64::from_state(snap.rng_state);
        self.stats = snap.stats;
        Ok(())
    }
}

/// Plain-data capture of a [`FaultState`]'s mutable runtime, produced by
/// [`FaultState::export_state`] and consumed by
/// [`FaultState::restore_state`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultStateSnapshot {
    /// Per-channel count of active down-causes.
    pub down_causes: Vec<u8>,
    /// Per-node crashed flag.
    pub node_down: Vec<bool>,
    /// Raw SplitMix64 state of the per-unit fate RNG.
    pub rng_state: u64,
    /// Run statistics so far.
    pub stats: FaultStats,
}

/// Per-channel blacklist: a sender avoids a blamed channel until the
/// recorded time.
#[derive(Clone, Debug)]
pub struct Blacklist {
    until: Vec<f64>,
}

impl Blacklist {
    /// An empty blacklist over `num_channels` channels.
    pub fn new(num_channels: usize) -> Self {
        Blacklist {
            until: vec![f64::NEG_INFINITY; num_channels],
        }
    }

    /// Blacklists `channel` until `until` (extends, never shortens).
    pub fn block(&mut self, channel: ChannelId, until: f64) {
        let slot = &mut self.until[channel.index()];
        if until > *slot {
            *slot = until;
        }
    }

    /// `true` while `channel` is blacklisted at time `now`.
    #[inline]
    pub fn blocked(&self, channel: ChannelId, now: f64) -> bool {
        self.until[channel.index()] > now
    }

    /// `true` if any hop of `path` is blacklisted at `now`.
    pub fn path_blocked(&self, path: &Path, now: f64) -> bool {
        path.hops().iter().any(|&(c, _)| self.blocked(c, now))
    }

    /// Raw per-channel expiry times (`NEG_INFINITY` = never blocked), for
    /// checkpointing.
    pub fn slots(&self) -> &[f64] {
        &self.until
    }

    /// Restores slots captured by [`slots`](Self::slots). Fails (changing
    /// nothing) when the length does not match this network.
    pub fn restore_slots(&mut self, slots: Vec<f64>) -> Result<(), String> {
        if slots.len() != self.until.len() {
            return Err(format!(
                "blacklist has {} channels, network has {}",
                slots.len(),
                self.until.len()
            ));
        }
        self.until = slots;
        Ok(())
    }
}

/// A [`BalanceView`] that reports zero spendable balance on downed or
/// blacklisted channels, so k-shortest / waterfilling / LP schemes route
/// around failures with their existing bottleneck machinery.
pub struct FaultView<'a, V: BalanceView> {
    /// The unmasked view.
    pub inner: &'a V,
    /// Live fault mask.
    pub faults: &'a FaultState,
    /// Sender blacklist.
    pub blacklist: &'a Blacklist,
    /// Current simulation time (for blacklist expiry).
    pub now: f64,
}

impl<V: BalanceView> BalanceView for FaultView<'_, V> {
    fn available(&self, channel: ChannelId, from: NodeId) -> Amount {
        if self.faults.is_channel_down(channel) || self.blacklist.blocked(channel, self.now) {
            Amount::ZERO
        } else {
            self.inner.available(channel, from)
        }
    }

    fn available_dir(&self, channel: ChannelId, from: NodeId, dir: Direction) -> Amount {
        if self.faults.is_channel_down(channel) || self.blacklist.blocked(channel, self.now) {
            Amount::ZERO
        } else {
            self.inner.available_dir(channel, from, dir)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Network {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(10))
            .unwrap();
        g
    }

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
        for _ in 0..1000 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn plan_expansion_is_deterministic_and_sorted() {
        let g = line3();
        let cfg = FaultConfig {
            seed: 7,
            channel_outage_rate: 2.0,
            node_churn_rate: 0.5,
            ..FaultConfig::default()
        };
        let a = FaultPlan::from_config(&cfg, &g, 100.0);
        let b = FaultPlan::from_config(&cfg, &g, 100.0);
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
        }
        for w in a.events.windows(2) {
            assert!(w[0].0 <= w[1].0, "schedule must be sorted");
        }
        // Rate 2.0 => exactly 2 outages (4 events) per channel, plus churn.
        let downs = a
            .events
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::ChannelDown(_)))
            .count();
        assert_eq!(downs, 4, "2 channels x rate 2.0");
    }

    #[test]
    fn zero_rate_plan_is_empty() {
        let g = line3();
        let cfg = FaultConfig::default();
        let plan = FaultPlan::from_config(&cfg, &g, 50.0);
        assert!(plan.events.is_empty());
    }

    #[test]
    fn down_causes_stack_outage_and_node_crash() {
        let g = line3();
        let plan = FaultPlan::scripted(Vec::new(), FaultConfig::default());
        let mut st = FaultState::new(&plan, &g);
        let c01 = g.channels()[0].id;
        let c12 = g.channels()[1].id;

        let newly = st.apply(&g, &FaultEvent::ChannelDown(c01));
        assert_eq!(newly, vec![c01]);
        assert!(st.is_channel_down(c01));

        // Node 1 crashing takes BOTH channels down; c01 is already down so
        // only c12 is newly down.
        let newly = st.apply(&g, &FaultEvent::NodeDown(NodeId(1)));
        assert_eq!(newly, vec![c12]);
        assert!(st.is_node_down(NodeId(1)));

        // Outage recovery alone does not revive c01 (node 1 still down).
        let up = st.apply(&g, &FaultEvent::ChannelUp(c01));
        assert!(up.is_empty());
        assert!(st.is_channel_down(c01));

        st.apply(&g, &FaultEvent::NodeUp(NodeId(1)));
        assert!(!st.is_channel_down(c01));
        assert!(!st.is_channel_down(c12));
        assert_eq!(st.stats.outages, 1);
        assert_eq!(st.stats.node_crashes, 1);
    }

    #[test]
    fn duplicate_node_down_is_idempotent() {
        let g = line3();
        let plan = FaultPlan::scripted(Vec::new(), FaultConfig::default());
        let mut st = FaultState::new(&plan, &g);
        st.apply(&g, &FaultEvent::NodeDown(NodeId(1)));
        st.apply(&g, &FaultEvent::NodeDown(NodeId(1)));
        st.apply(&g, &FaultEvent::NodeUp(NodeId(1)));
        assert!(!st.is_channel_down(g.channels()[0].id));
        assert_eq!(st.stats.node_crashes, 1);
    }

    #[test]
    fn unit_fates_follow_probabilities() {
        let g = line3();
        let path = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let cfg = FaultConfig {
            unit_drop_prob: 0.3,
            grief_prob: 0.2,
            settle_jitter: 0.5,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::scripted(Vec::new(), cfg);
        let mut st = FaultState::new(&plan, &g);
        let (mut drops, mut griefs, mut delivers) = (0u32, 0u32, 0u32);
        for _ in 0..2000 {
            match st.unit_fate(&path) {
                UnitFate::Drop { at_frac, hop_index } => {
                    assert!((0.0..1.0).contains(&at_frac));
                    assert!(hop_index < path.hops().len());
                    drops += 1;
                }
                UnitFate::Grief { hold } => {
                    assert_eq!(hold, plan.config.grief_hold);
                    griefs += 1;
                }
                UnitFate::Deliver { jitter } => {
                    assert!((0.0..=0.5).contains(&jitter));
                    delivers += 1;
                }
            }
        }
        assert!((500..700).contains(&drops), "drops {drops}");
        assert!((300..500).contains(&griefs), "griefs {griefs}");
        assert!(delivers > 800);
        assert_eq!(st.stats.units_dropped as u32, drops);
        assert_eq!(st.stats.units_griefed as u32, griefs);
    }

    #[test]
    fn fault_view_masks_down_and_blacklisted_channels() {
        let g = line3();
        let ledger = crate::ledger::Ledger::new(&g);
        let inner = crate::ledger::LedgerView {
            network: &g,
            ledger: &ledger,
        };
        let plan = FaultPlan::scripted(Vec::new(), FaultConfig::default());
        let mut st = FaultState::new(&plan, &g);
        let mut bl = Blacklist::new(g.num_channels());
        let c01 = g.channels()[0].id;
        let c12 = g.channels()[1].id;

        st.apply(&g, &FaultEvent::ChannelDown(c01));
        bl.block(c12, 10.0);
        let view = FaultView {
            inner: &inner,
            faults: &st,
            blacklist: &bl,
            now: 5.0,
        };
        assert_eq!(view.available(c01, NodeId(0)), Amount::ZERO);
        assert_eq!(view.available(c12, NodeId(1)), Amount::ZERO);
        // After expiry the blacklist no longer masks.
        let later = FaultView {
            inner: &inner,
            faults: &st,
            blacklist: &bl,
            now: 11.0,
        };
        assert!(later.available(c12, NodeId(1)).is_positive());
    }

    /// The two files ISSUE 23 found: one used to run the push loop out of
    /// memory, the other ran to exit 0 on nonsense probabilities.
    #[test]
    fn validate_names_the_offending_field() {
        let parse = |text: &str| serde_json::from_str::<FaultConfig>(text).unwrap();
        let err = parse(r#"{"channel_outage_rate": 1e300}"#).validate();
        assert!(err.unwrap_err().contains("channel_outage_rate"));
        let err = parse(r#"{"unit_drop_prob": -3.0, "grief_prob": 7}"#).validate();
        assert!(err.unwrap_err().contains("unit_drop_prob"));
        let err = parse(r#"{"unit_drop_prob": 0.6, "grief_prob": 0.6}"#).validate();
        assert!(err.unwrap_err().contains("unit_drop_prob + grief_prob"));
        let nan_backoff = FaultConfig {
            retry: Some(RetryPolicy {
                backoff_mult: f64::NAN,
                ..RetryPolicy::default()
            }),
            ..FaultConfig::default()
        };
        assert!(nan_backoff.validate().unwrap_err().contains("backoff_mult"));
        for name in ["outages", "churn", "drops", "jitter", "griefing", "stress"] {
            assert_eq!(FaultConfig::scenario(name).unwrap().validate(), Ok(()));
        }
    }

    /// Text that is mostly noise but often enough is a JSON object with a
    /// known field and a troublesome number.
    fn text_from_bytes(bytes: &[u8]) -> String {
        const VOCAB: [&str; 16] = [
            "{",
            "}",
            "\"channel_outage_rate\":",
            "\"unit_drop_prob\":",
            "\"grief_prob\":",
            "\"outage_duration\":",
            "\"retry\":",
            "\"backoff_mult\":",
            "null",
            ",",
            "1e300",
            "-3.0",
            "0.5",
            "999",
            "7",
            "1e-9",
        ];
        let mut out = String::new();
        for &b in bytes {
            match b {
                0..=127 => out.push(b as char),
                _ => out.push_str(VOCAB[(b - 128) as usize % VOCAB.len()]),
            }
        }
        out
    }

    proptest::proptest! {
        /// Any text is rejected or parses to a config that either fails
        /// validation or expands — without a panic — to a plan no larger
        /// than the outage-rate limit allows.
        #[test]
        fn prop_fault_config_text_never_panics(
            bytes in proptest::collection::vec(0u8..=255, 0..80),
        ) {
            let parsed = serde_json::from_str::<FaultConfig>(&text_from_bytes(&bytes));
            if let Some(cfg) = parsed.ok().filter(|cfg| cfg.validate().is_ok()) {
                let g = line3();
                let plan = FaultPlan::from_config(&cfg, &g, 10.0);
                let per_channel = 2 * (MAX_OUTAGE_RATE as usize + 1);
                let bound = g.num_channels() * per_channel + 2 * g.num_nodes();
                proptest::prop_assert!(plan.events.len() <= bound);
            }
        }
    }

    #[test]
    fn scenarios_parse() {
        for name in ["outages", "churn", "drops", "jitter", "griefing", "stress"] {
            let cfg = FaultConfig::scenario(name).unwrap_or_else(|| panic!("scenario {name}"));
            assert_ne!(cfg, FaultConfig::default(), "{name} must perturb something");
        }
        assert!(FaultConfig::scenario("nope").is_none());
    }

    #[test]
    fn config_round_trips_through_json() {
        let mut cfg = FaultConfig::scenario("stress").unwrap();
        cfg.seed = 99;
        cfg.retry = Some(RetryPolicy {
            max_attempts: 3,
            backoff_base: 0.1,
            backoff_mult: 1.5,
            blacklist_duration: 1.0,
        });
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        // Sparse JSON fills defaults.
        let sparse: FaultConfig = serde_json::from_str(r#"{"channel_outage_rate":0.5}"#).unwrap();
        assert_eq!(sparse.channel_outage_rate, 0.5);
        assert_eq!(sparse.outage_duration, 5.0);
        assert!(sparse.retry.is_none());
    }
}
