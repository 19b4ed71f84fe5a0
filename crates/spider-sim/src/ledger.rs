//! The live channel ledger: spendable balances plus in-flight (HTLC-locked)
//! funds.
//!
//! Sending `m` tokens along a path locks `m` on the sender side of every hop
//! (the funds are "pending" until the receiver releases the hash-lock key,
//! §4.2 / Fig. 3). Settlement `Δ` seconds later credits the receiving side
//! of every hop. Conservation is exact: for every channel,
//! `available_a + available_b + inflight == capacity` at all times.
//!
//! Every path transition is one of two walks, [`Ledger::lock_path`] and
//! `Ledger::release_walk` (settle or refund, over a whole path or the
//! prefix a router-queued unit has locked); every hop carries the same
//! amount, and [`settle_path`](Ledger::settle_path) /
//! [`refund_path`](Ledger::refund_path) spell out the whole-path release.
//! A walk **validates every hop before it commits any**: a lock that the
//! sender side holds the amount, a release that the channel's in-flight
//! pool does. A refusal therefore leaves the ledger as it was — no
//! half-locked path to unwind, and a double settle or refund (an engine
//! bug) cannot corrupt balances in release builds, where `debug_assert!`
//! is compiled out: it comes back as [`CoreError::ExcessRelease`] for the
//! caller to report.

use spider_core::{Amount, BalanceView, ChannelId, CoreError, Direction, Network, NodeId, Path};

/// Which side (`0` = `a`, `1` = `b`) of a channel *sends* when the channel
/// is crossed in `dir`. A path hop's direction therefore resolves the
/// sender/receiver sides without touching the `Network` at all; the router
/// queues of a channel are indexed the same way.
#[inline]
pub(crate) fn sender_side(dir: Direction) -> usize {
    match dir {
        Direction::AtoB => 0,
        Direction::BtoA => 1,
    }
}

/// Converts an exact fixed-point amount to display tokens — the single
/// conversion point for every report/trace value the engines emit.
/// (`#[inline]`: the sharded engine builds its trace events eagerly, so
/// this sits on its per-unit path — out of line it cost ≈ 10 %.)
#[inline]
pub(crate) fn tokens(a: Amount) -> f64 {
    // spider-lint: allow(money-safety) — one conversion boundary for reports/traces
    a.as_tokens()
}

/// Which side of each hop a release credits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Release {
    /// The receiving side: the receiver released the key.
    Settle,
    /// The sending side: the HTLC expired or failed.
    Refund,
}

/// Live balance state for one channel.
#[derive(Clone, Debug)]
struct ChannelState {
    capacity: Amount,
    /// Spendable by endpoint `a` / endpoint `b`.
    available: [Amount; 2],
    /// Funds locked in flight (sum over both directions).
    inflight: Amount,
}

impl ChannelState {
    /// Moves `amount` from `available[side]` into the in-flight pool.
    ///
    /// Callers validate `amount <= available[side]` before committing, and
    /// conservation bounds `inflight + amount` by `capacity`, so neither
    /// side can leave range; saturating arithmetic keeps a (statically
    /// impossible) overflow from wrapping silently in release builds.
    fn move_to_inflight(&mut self, side: usize, amount: Amount) {
        self.available[side] = self.available[side].saturating_sub(amount);
        self.inflight = self.inflight.saturating_add(amount);
    }

    /// Releases `amount` from the in-flight pool into `available[side]`.
    /// Same bounds argument as [`move_to_inflight`](Self::move_to_inflight),
    /// with `amount <= inflight` validated by the caller.
    fn release_from_inflight(&mut self, side: usize, amount: Amount) {
        self.available[side] = self.available[side].saturating_add(amount);
        self.inflight = self.inflight.saturating_sub(amount);
    }
}

/// The live ledger for a whole network.
///
/// Cloneable so experiments can snapshot and restart from the initial state.
#[derive(Clone, Debug)]
pub struct Ledger {
    channels: Vec<ChannelState>,
}

impl Ledger {
    /// Initializes the ledger from the network's initial balances.
    pub fn new(network: &Network) -> Self {
        let channels = network
            .channels()
            .iter()
            .map(|ch| ChannelState {
                capacity: ch.capacity(),
                available: [ch.balance_a, ch.balance_b],
                inflight: Amount::ZERO,
            })
            .collect();
        Ledger { channels }
    }

    /// Which side (`0` = `a`, `1` = `b`) of `channel` belongs to `node`,
    /// or [`CoreError::NotAnEndpoint`] when `node` is neither endpoint.
    fn try_side(network: &Network, channel: ChannelId, node: NodeId) -> Result<usize, CoreError> {
        let ch = network.channel(channel);
        if node == ch.a {
            Ok(0)
        } else if node == ch.b {
            Ok(1)
        } else {
            Err(CoreError::NotAnEndpoint { node, channel })
        }
    }

    /// Panicking variant of [`try_side`](Self::try_side), for the
    /// infallible-signature entry points ([`BalanceView`], deposits).
    fn side(network: &Network, channel: ChannelId, node: NodeId) -> usize {
        match Self::try_side(network, channel, node) {
            Ok(side) => side,
            // spider-lint: allow(panic-reachability) — documented panicking variant backing infallible BalanceView signatures; callers pass endpoints taken from the channel itself
            Err(e) => panic!("{e}"),
        }
    }

    /// Locks `amount` on the sender side of every hop of `path`, returning
    /// an error (and changing nothing) if any hop lacks funds.
    pub fn lock_path(
        &mut self,
        network: &Network,
        path: &Path,
        amount: Amount,
    ) -> Result<(), CoreError> {
        if amount.is_negative() {
            return Err(CoreError::NegativeAmount);
        }
        // Validation pass: because a trail never repeats a channel, per-hop
        // checks cannot double-count within one path. The hop direction
        // resolves the sender side directly (validated at Path construction).
        for (i, &(c, dir)) in path.hops().iter().enumerate() {
            let side = sender_side(dir);
            debug_assert_eq!(Self::try_side(network, c, path.nodes()[i]), Ok(side));
            let have = self.channels[c.index()].available[side];
            if have < amount {
                return Err(CoreError::InsufficientFunds {
                    channel: c,
                    from: path.nodes()[i],
                    available: have.micros(),
                    requested: amount.micros(),
                });
            }
        }
        // Commit pass.
        for &(c, dir) in path.hops() {
            self.channels[c.index()].move_to_inflight(sender_side(dir), amount);
            debug_assert!(self.conserves(c));
        }
        Ok(())
    }

    /// Releases `amount` from the in-flight funds of each of the first
    /// `hops` hops of `path` to the side `to` names. Returns
    /// [`CoreError::ExcessRelease`] — and changes nothing — if any of those
    /// hops holds less in flight than `amount` (a double settle or double
    /// refund in the caller).
    pub(crate) fn release_walk(
        &mut self,
        network: &Network,
        path: &Path,
        hops: usize,
        amount: Amount,
        to: Release,
    ) -> Result<(), CoreError> {
        if amount.is_negative() {
            return Err(CoreError::NegativeAmount);
        }
        let prefix = &path.hops()[..hops];
        for &(c, _) in prefix {
            let inflight = self.channels[c.index()].inflight;
            if inflight < amount {
                return Err(CoreError::ExcessRelease {
                    channel: c,
                    inflight: inflight.micros(),
                    requested: amount.micros(),
                });
            }
        }
        // Hop `i` runs from `nodes[i]` (its sender) to `nodes[i + 1]`.
        let receiver = usize::from(to == Release::Settle);
        for (i, &(c, dir)) in prefix.iter().enumerate() {
            let side = sender_side(dir) ^ receiver;
            debug_assert_eq!(
                Self::try_side(network, c, path.nodes()[i + receiver]),
                Ok(side)
            );
            self.channels[c.index()].release_from_inflight(side, amount);
            debug_assert!(self.conserves(c));
        }
        Ok(())
    }

    /// Settles a previously locked transfer: credits the receiving side of
    /// every hop and releases the in-flight funds. Returns
    /// [`CoreError::ExcessRelease`] — and changes nothing — on a double settle.
    pub fn settle_path(
        &mut self,
        network: &Network,
        path: &Path,
        amount: Amount,
    ) -> Result<(), CoreError> {
        self.release_walk(network, path, path.len(), amount, Release::Settle)
    }

    /// Cancels a previously locked transfer: refunds the sender side of
    /// every hop (an expired/failed HTLC). All-or-nothing like
    /// [`settle_path`](Self::settle_path).
    pub fn refund_path(
        &mut self,
        network: &Network,
        path: &Path,
        amount: Amount,
    ) -> Result<(), CoreError> {
        self.release_walk(network, path, path.len(), amount, Release::Refund)
    }

    /// Locks `amount` on `from`'s side of a single channel (hop-by-hop
    /// forwarding, used by the router-queue engine).
    pub fn lock_hop(
        &mut self,
        network: &Network,
        channel: ChannelId,
        from: NodeId,
        amount: Amount,
    ) -> Result<(), CoreError> {
        if amount.is_negative() {
            return Err(CoreError::NegativeAmount);
        }
        let side = Self::try_side(network, channel, from)?;
        let st = &mut self.channels[channel.index()];
        if st.available[side] < amount {
            return Err(CoreError::InsufficientFunds {
                channel,
                from,
                available: st.available[side].micros(),
                requested: amount.micros(),
            });
        }
        st.move_to_inflight(side, amount);
        debug_assert!(self.conserves(channel));
        Ok(())
    }

    /// Settles a single previously locked hop: credits `to`'s side.
    ///
    /// Returns [`CoreError::ExcessRelease`] — and changes nothing — if the
    /// settlement exceeds the channel's recorded in-flight funds.
    pub fn settle_hop(
        &mut self,
        network: &Network,
        channel: ChannelId,
        to: NodeId,
        amount: Amount,
    ) -> Result<(), CoreError> {
        if amount.is_negative() {
            return Err(CoreError::NegativeAmount);
        }
        let side = Self::try_side(network, channel, to)?;
        let st = &mut self.channels[channel.index()];
        if st.inflight < amount {
            return Err(CoreError::ExcessRelease {
                channel,
                inflight: st.inflight.micros(),
                requested: amount.micros(),
            });
        }
        st.release_from_inflight(side, amount);
        debug_assert!(self.conserves(channel));
        Ok(())
    }

    /// Refunds a single previously locked hop back to `from`'s side.
    /// Error behaviour matches [`settle_hop`](Self::settle_hop).
    pub fn refund_hop(
        &mut self,
        network: &Network,
        channel: ChannelId,
        from: NodeId,
        amount: Amount,
    ) -> Result<(), CoreError> {
        self.settle_hop(network, channel, from, amount)
    }

    /// Deposits `amount` of fresh on-chain funds on `node`'s side of
    /// `channel` (an on-chain rebalancing/top-up transaction; §5.2.3).
    /// Increases the channel's capacity.
    ///
    /// Unlike the lock/settle/refund family, deposits are not bounded by an
    /// existing escrow, so the additions can genuinely overflow; a deposit
    /// that would is refused with [`CoreError::Overflow`], changing nothing.
    pub fn deposit(
        &mut self,
        network: &Network,
        channel: ChannelId,
        node: NodeId,
        amount: Amount,
    ) -> Result<(), CoreError> {
        if amount.is_negative() {
            return Err(CoreError::NegativeAmount);
        }
        let side = Self::try_side(network, channel, node)?;
        let st = &mut self.channels[channel.index()];
        let overflow = CoreError::Overflow {
            channel,
            op: "deposit",
        };
        let available = st.available[side]
            .checked_add(amount)
            .ok_or(overflow.clone())?;
        let capacity = st.capacity.checked_add(amount).ok_or(overflow)?;
        st.available[side] = available;
        st.capacity = capacity;
        Ok(())
    }

    /// Withdraws up to `amount` from `node`'s side of `channel` back on
    /// chain, returning what was actually withdrawn. Decreases capacity.
    pub fn withdraw(
        &mut self,
        network: &Network,
        channel: ChannelId,
        node: NodeId,
        amount: Amount,
    ) -> Amount {
        assert!(!amount.is_negative());
        let side = Self::side(network, channel, node);
        let st = &mut self.channels[channel.index()];
        // `taken <= available[side] <= capacity` (conservation), so the
        // saturation never engages; it only keeps a bug from wrapping.
        let taken = amount.min(st.available[side]);
        st.available[side] = st.available[side].saturating_sub(taken);
        st.capacity = st.capacity.saturating_sub(taken);
        taken
    }

    /// Current spendable balances `(side_a, side_b)` of `channel`, where
    /// side `a` is the channel's lower-id endpoint.
    pub fn balances(&self, channel: ChannelId) -> (Amount, Amount) {
        let st = &self.channels[channel.index()];
        (st.available[0], st.available[1])
    }

    /// Funds currently in flight on `channel`.
    pub fn inflight(&self, channel: ChannelId) -> Amount {
        self.channels[channel.index()].inflight
    }

    /// Current capacity of `channel` (initial escrow plus net deposits).
    pub fn capacity(&self, channel: ChannelId) -> Amount {
        self.channels[channel.index()].capacity
    }

    /// `true` when `available_a + available_b + inflight == capacity`.
    /// A sum that overflows the micro-token range is reported as
    /// non-conserving rather than wrapping into a false positive.
    pub fn conserves(&self, channel: ChannelId) -> bool {
        let st = &self.channels[channel.index()];
        st.available[0]
            .checked_add(st.available[1])
            .and_then(|s| s.checked_add(st.inflight))
            == Some(st.capacity)
    }

    /// `true` when every channel conserves funds exactly.
    pub fn conserves_all(&self) -> bool {
        (0..self.channels.len()).all(|i| self.conserves(ChannelId(i as u32)))
    }

    /// Relative imbalance `|a − b| / (a + b)` of `channel`'s spendable
    /// balances in display tokens (what a `ChannelSample` reports); zero
    /// for a channel with nothing spendable.
    pub(crate) fn relative_imbalance(&self, channel: ChannelId) -> f64 {
        let (a, b) = self.balances(channel);
        let total = tokens(a.saturating_add(b));
        if total > 0.0 {
            (tokens(a) - tokens(b)).abs() / total
        } else {
            0.0
        }
    }

    /// Mean relative imbalance across channels:
    /// `|available_a − available_b| / capacity`, averaged.
    pub fn mean_imbalance(&self) -> f64 {
        if self.channels.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .channels
            .iter()
            .map(|st| {
                // Both sides are bounded by capacity, so the difference
                // stays in range; saturate instead of wrapping regardless.
                let diff = st.available[0].saturating_sub(st.available[1]).abs();
                diff.ratio_of(st.capacity)
            })
            .sum();
        sum / self.channels.len() as f64
    }

    /// Total funds currently locked in flight across the network.
    pub fn total_inflight(&self) -> Amount {
        self.channels.iter().map(|st| st.inflight).sum()
    }

    /// Total spendable funds across the network (both sides of every
    /// channel).
    pub fn total_available(&self) -> Amount {
        self.channels
            .iter()
            .map(|st| st.available[0].saturating_add(st.available[1]))
            .sum()
    }

    /// Total escrowed capacity across the network (initial escrow plus net
    /// on-chain deposits).
    pub fn total_capacity(&self) -> Amount {
        self.channels.iter().map(|st| st.capacity).sum()
    }

    /// Number of channels tracked by this ledger.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Copies channel `c`'s full state (balances, in-flight, capacity) from
    /// `other`. Used by the sharded engine to assemble the merged final
    /// ledger out of each owner shard's copy.
    pub(crate) fn copy_channel_state_from(&mut self, other: &Ledger, c: ChannelId) {
        self.channels[c.index()] = other.channels[c.index()].clone();
    }

    /// Raw channel state `[capacity, available_a, available_b, inflight]`
    /// in micro-tokens, for checkpointing.
    pub(crate) fn export_channel(&self, c: ChannelId) -> [i64; 4] {
        let st = &self.channels[c.index()];
        [
            st.capacity.micros(),
            st.available[0].micros(),
            st.available[1].micros(),
            st.inflight.micros(),
        ]
    }

    /// Overwrites one channel's raw state with micros captured by
    /// [`export_channel`](Self::export_channel).
    pub(crate) fn restore_channel(&mut self, c: ChannelId, raw: [i64; 4]) {
        self.channels[c.index()] = ChannelState {
            capacity: Amount::from_micros(raw[0]),
            available: [Amount::from_micros(raw[1]), Amount::from_micros(raw[2])],
            inflight: Amount::from_micros(raw[3]),
        };
    }
}

/// A [`BalanceView`] of a ledger bound to its network (needed to resolve
/// which endpoint a node is).
pub struct LedgerView<'a> {
    /// The static topology.
    pub network: &'a Network,
    /// The live ledger.
    pub ledger: &'a Ledger,
}

impl BalanceView for LedgerView<'_> {
    fn available(&self, channel: ChannelId, from: NodeId) -> Amount {
        let side = Ledger::side(self.network, channel, from);
        self.ledger.channels[channel.index()].available[side]
    }

    fn available_dir(&self, channel: ChannelId, from: NodeId, dir: Direction) -> Amount {
        let side = sender_side(dir);
        debug_assert_eq!(Ledger::try_side(self.network, channel, from), Ok(side));
        self.ledger.channels[channel.index()].available[side]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spider_core::NodeId;

    fn line3() -> Network {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(10))
            .unwrap();
        g
    }

    fn path02(g: &Network) -> Path {
        Path::new(g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap()
    }

    #[test]
    fn lock_settle_moves_funds() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let p = path02(&g);
        ledger.lock_path(&g, &p, Amount::from_whole(3)).unwrap();
        let view = LedgerView {
            network: &g,
            ledger: &ledger,
        };
        let c01 = g.channel_between(NodeId(0), NodeId(1)).unwrap().id;
        let c12 = g.channel_between(NodeId(1), NodeId(2)).unwrap().id;
        assert_eq!(view.available(c01, NodeId(0)), Amount::from_whole(2));
        assert_eq!(view.available(c01, NodeId(1)), Amount::from_whole(5));
        assert_eq!(ledger.inflight(c01), Amount::from_whole(3));
        assert!(ledger.conserves_all());

        ledger.settle_path(&g, &p, Amount::from_whole(3)).unwrap();
        let view = LedgerView {
            network: &g,
            ledger: &ledger,
        };
        assert_eq!(view.available(c01, NodeId(1)), Amount::from_whole(8));
        assert_eq!(view.available(c12, NodeId(2)), Amount::from_whole(8));
        assert_eq!(ledger.inflight(c01), Amount::ZERO);
        assert!(ledger.conserves_all());
    }

    #[test]
    fn lock_fails_atomically_on_insufficient_hop() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::from_whole(1), Amount::ZERO)
            .unwrap();
        let mut ledger = Ledger::new(&g);
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let err = ledger.lock_path(&g, &p, Amount::from_whole(3)).unwrap_err();
        assert!(matches!(err, CoreError::InsufficientFunds { .. }));
        // First hop must NOT have been debited.
        let view = LedgerView {
            network: &g,
            ledger: &ledger,
        };
        let c01 = g.channel_between(NodeId(0), NodeId(1)).unwrap().id;
        assert_eq!(view.available(c01, NodeId(0)), Amount::from_whole(5));
        assert!(ledger.conserves_all());
    }

    #[test]
    fn refund_restores_sender() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let p = path02(&g);
        ledger.lock_path(&g, &p, Amount::from_whole(4)).unwrap();
        ledger.refund_path(&g, &p, Amount::from_whole(4)).unwrap();
        let view = LedgerView {
            network: &g,
            ledger: &ledger,
        };
        let c01 = g.channel_between(NodeId(0), NodeId(1)).unwrap().id;
        assert_eq!(view.available(c01, NodeId(0)), Amount::from_whole(5));
        assert_eq!(ledger.total_inflight(), Amount::ZERO);
        assert!(ledger.conserves_all());
    }

    #[test]
    fn deposit_and_withdraw_adjust_capacity() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let c01 = g.channel_between(NodeId(0), NodeId(1)).unwrap().id;
        ledger
            .deposit(&g, c01, NodeId(0), Amount::from_whole(5))
            .unwrap();
        assert_eq!(ledger.capacity(c01), Amount::from_whole(15));
        assert!(ledger.conserves_all());
        let taken = ledger.withdraw(&g, c01, NodeId(0), Amount::from_whole(100));
        assert_eq!(taken, Amount::from_whole(10)); // 5 initial + 5 deposited
        assert!(ledger.conserves_all());
    }

    #[test]
    fn mean_imbalance_reflects_skew() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        assert_eq!(ledger.mean_imbalance(), 0.0);
        let p = path02(&g);
        ledger.lock_path(&g, &p, Amount::from_whole(5)).unwrap();
        ledger.settle_path(&g, &p, Amount::from_whole(5)).unwrap();
        // Both channels fully one-sided now.
        assert!((ledger.mean_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_settles_supported() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let p = path02(&g);
        ledger.lock_path(&g, &p, Amount::from_whole(4)).unwrap();
        ledger.settle_path(&g, &p, Amount::from_whole(1)).unwrap();
        ledger.refund_path(&g, &p, Amount::from_whole(3)).unwrap();
        assert_eq!(ledger.total_inflight(), Amount::ZERO);
        assert!(ledger.conserves_all());
    }

    #[test]
    fn excess_release_is_rejected_without_corruption() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let p = path02(&g);
        ledger.lock_path(&g, &p, Amount::from_whole(2)).unwrap();
        let before = (
            ledger.balances(g.channels()[0].id),
            ledger.balances(g.channels()[1].id),
            ledger.total_inflight(),
        );

        // Over-settling and over-refunding are both refused in full —
        // no partial hop mutation — and the ledger still conserves.
        let err = ledger
            .settle_path(&g, &p, Amount::from_whole(3))
            .unwrap_err();
        assert!(matches!(err, CoreError::ExcessRelease { .. }));
        let err = ledger
            .refund_path(&g, &p, Amount::from_whole(3))
            .unwrap_err();
        assert!(matches!(err, CoreError::ExcessRelease { .. }));
        let c01 = g.channels()[0].id;
        let err = ledger
            .settle_hop(&g, c01, NodeId(1), Amount::from_whole(3))
            .unwrap_err();
        assert!(matches!(err, CoreError::ExcessRelease { .. }));
        let err = ledger
            .refund_hop(&g, c01, NodeId(0), Amount::from_whole(3))
            .unwrap_err();
        assert!(matches!(err, CoreError::ExcessRelease { .. }));

        assert_eq!(
            before,
            (
                ledger.balances(g.channels()[0].id),
                ledger.balances(g.channels()[1].id),
                ledger.total_inflight(),
            ),
            "failed releases must not move any funds"
        );
        assert!(ledger.conserves_all());

        // The legitimate settle still goes through afterwards.
        ledger.settle_path(&g, &p, Amount::from_whole(2)).unwrap();
        assert_eq!(ledger.total_inflight(), Amount::ZERO);
        assert!(ledger.conserves_all());
    }

    proptest! {
        /// Conservation holds under arbitrary interleavings of lock,
        /// settle, and refund along the two directions of a line network.
        #[test]
        fn prop_conservation_under_random_ops(ops in proptest::collection::vec((0u8..4, 1i64..4), 1..60)) {
            let g = line3();
            let mut ledger = Ledger::new(&g);
            let fwd = path02(&g);
            let rev = Path::new(&g, vec![NodeId(2), NodeId(1), NodeId(0)]).unwrap();
            // Track outstanding locks so settles/refunds stay legal.
            let mut outstanding: Vec<(bool, Amount)> = Vec::new();
            for (op, amt) in ops {
                let amount = Amount::from_whole(amt);
                match op {
                    0 => {
                        if ledger.lock_path(&g, &fwd, amount).is_ok() {
                            outstanding.push((true, amount));
                        }
                    }
                    1 => {
                        if ledger.lock_path(&g, &rev, amount).is_ok() {
                            outstanding.push((false, amount));
                        }
                    }
                    2 => {
                        if let Some((is_fwd, a)) = outstanding.pop() {
                            let p = if is_fwd { &fwd } else { &rev };
                            ledger.settle_path(&g, p, a).unwrap();
                        }
                    }
                    _ => {
                        if let Some((is_fwd, a)) = outstanding.pop() {
                            let p = if is_fwd { &fwd } else { &rev };
                            ledger.refund_path(&g, p, a).unwrap();
                        }
                    }
                }
                prop_assert!(ledger.conserves_all());
            }
        }

        /// Conservation holds — exactly, globally — when random channel
        /// outages and node crashes are interleaved with lock/settle/refund.
        /// An outage or crash forces an immediate refund of every
        /// outstanding unit whose path crosses an affected channel, exactly
        /// as the engines do, and the total escrow never moves.
        #[test]
        fn prop_conservation_under_faults(
            ops in proptest::collection::vec((0u8..7, 1i64..4), 1..80),
        ) {
            use crate::faults::{FaultConfig, FaultEvent, FaultPlan, FaultState};
            let g = line3();
            let mut ledger = Ledger::new(&g);
            let total = ledger.total_capacity();
            let fwd = path02(&g);
            let rev = Path::new(&g, vec![NodeId(2), NodeId(1), NodeId(0)]).unwrap();
            let short = Path::new(&g, vec![NodeId(0), NodeId(1)]).unwrap();
            let plan = FaultPlan::scripted(Vec::new(), FaultConfig::default());
            let mut faults = FaultState::new(&plan, &g);
            // Outstanding units: (path index 0=fwd 1=rev 2=short, amount).
            let mut outstanding: Vec<(u8, Amount)> = Vec::new();
            let paths = [&fwd, &rev, &short];
            let crosses = |p: &Path, newly: &[spider_core::ChannelId]| {
                p.hops().iter().any(|(c, _)| newly.contains(c))
            };
            for (op, amt) in ops {
                let amount = Amount::from_whole(amt);
                match op {
                    0..=2 => {
                        let which = op;
                        let p = paths[which as usize];
                        // Senders refuse paths through downed channels, as
                        // the engines do via FaultView masking.
                        if !faults.path_blocked(p)
                            && ledger.lock_path(&g, p, amount).is_ok()
                        {
                            outstanding.push((which, amount));
                        }
                    }
                    3 => {
                        if let Some((which, a)) = outstanding.pop() {
                            ledger.settle_path(&g, paths[which as usize], a).unwrap();
                        }
                    }
                    4 => {
                        if let Some((which, a)) = outstanding.pop() {
                            ledger.refund_path(&g, paths[which as usize], a).unwrap();
                        }
                    }
                    5 => {
                        // Channel outage (channel picked by amount parity),
                        // followed eventually by recovery; refund every
                        // outstanding unit crossing a newly-down channel.
                        let c = g.channels()[amt as usize % 2].id;
                        let newly = faults.apply(&g, &FaultEvent::ChannelDown(c));
                        let mut kept = Vec::new();
                        for (which, a) in outstanding.drain(..) {
                            if crosses(paths[which as usize], &newly) {
                                ledger
                                    .refund_path(&g, paths[which as usize], a)
                                    .unwrap();
                            } else {
                                kept.push((which, a));
                            }
                        }
                        outstanding = kept;
                        faults.apply(&g, &FaultEvent::ChannelUp(c));
                    }
                    _ => {
                        // Node crash takes all incident channels down.
                        let n = NodeId(amt as u32 % 3);
                        let newly = faults.apply(&g, &FaultEvent::NodeDown(n));
                        let mut kept = Vec::new();
                        for (which, a) in outstanding.drain(..) {
                            if crosses(paths[which as usize], &newly) {
                                ledger
                                    .refund_path(&g, paths[which as usize], a)
                                    .unwrap();
                            } else {
                                kept.push((which, a));
                            }
                        }
                        outstanding = kept;
                        faults.apply(&g, &FaultEvent::NodeUp(n));
                    }
                }
                prop_assert!(ledger.conserves_all());
                prop_assert_eq!(
                    ledger.total_available() + ledger.total_inflight(),
                    total,
                    "global escrow must never move under faults"
                );
            }
            // Drain everything; the network must return to full liquidity.
            while let Some((which, a)) = outstanding.pop() {
                ledger.refund_path(&g, paths[which as usize], a).unwrap();
            }
            prop_assert_eq!(ledger.total_inflight(), Amount::ZERO);
            prop_assert_eq!(ledger.total_available(), total);
        }

        /// The ledger auditor finds no violations under arbitrary
        /// interleavings of lock/settle/refund plus on-chain deposits and
        /// withdrawals, as long as the on-chain moves are reported to it.
        /// Extends `prop_conservation_under_random_ops` with the capacity-
        /// changing operations and the exact global-sum invariant.
        #[test]
        fn prop_audit_is_clean_under_random_ops(ops in proptest::collection::vec((0u8..6, 1i64..4), 1..60)) {
            let g = line3();
            let mut ledger = Ledger::new(&g);
            let mut audit = crate::audit::LedgerAudit::new(&ledger);
            let fwd = path02(&g);
            let rev = Path::new(&g, vec![NodeId(2), NodeId(1), NodeId(0)]).unwrap();
            let c01 = g.channel_between(NodeId(0), NodeId(1)).unwrap().id;
            let mut outstanding: Vec<(bool, Amount)> = Vec::new();
            let mut time = 0.0;
            for (op, amt) in ops {
                let amount = Amount::from_whole(amt);
                let event = match op {
                    0 => {
                        if ledger.lock_path(&g, &fwd, amount).is_ok() {
                            outstanding.push((true, amount));
                        }
                        "lock"
                    }
                    1 => {
                        if ledger.lock_path(&g, &rev, amount).is_ok() {
                            outstanding.push((false, amount));
                        }
                        "lock"
                    }
                    2 => {
                        if let Some((is_fwd, a)) = outstanding.pop() {
                            ledger
                                .settle_path(&g, if is_fwd { &fwd } else { &rev }, a)
                                .unwrap();
                        }
                        "settle"
                    }
                    3 => {
                        if let Some((is_fwd, a)) = outstanding.pop() {
                            ledger
                                .refund_path(&g, if is_fwd { &fwd } else { &rev }, a)
                                .unwrap();
                        }
                        "refund"
                    }
                    4 => {
                        ledger.deposit(&g, c01, NodeId(amt as u32 % 2), amount).unwrap();
                        audit.on_deposit(amount);
                        "deposit"
                    }
                    _ => {
                        let taken = ledger.withdraw(&g, c01, NodeId(amt as u32 % 2), amount);
                        audit.on_withdraw(taken);
                        "withdraw"
                    }
                };
                time += 0.5;
                audit.check(&ledger, time, event);
                prop_assert!(
                    audit.violations().is_empty(),
                    "violations after {event}: {:?}",
                    audit.violations()
                );
            }
            prop_assert!(audit.checks() > 0);
            prop_assert!(audit.suppressed() == 0);
        }
    }
}
