//! The routing-scheme interface shared by all six evaluated schemes.
//!
//! Atomic schemes (SilentWhispers, SpeedyMurmurs, max-flow) must deliver a
//! whole payment in one shot across one or more paths, or not at all.
//! Packet-switched schemes (shortest-path, Spider waterfilling, Spider LP)
//! are asked for a route one *transaction unit* at a time and may defer.

use crate::paths::path_bottleneck;
use spider_core::{Amount, BalanceView, ChannelId, CoreError, Direction, Network, NodeId, Path};
use std::sync::Arc;

/// Whether a scheme delivers payments atomically or unit-by-unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// Whole payment in one shot (`route_payment`).
    Atomic,
    /// One transaction unit at a time (`route_unit`).
    PacketSwitched,
}

/// Outcome of asking a packet-switched scheme for a unit route.
#[derive(Clone, Debug, PartialEq)]
pub enum UnitDecision {
    /// Send the unit on this path now. The path is shared with the scheme's
    /// cache, so routing a unit costs one refcount bump, not a deep clone.
    Route(Arc<Path>),
    /// No capacity right now; retry after balances change.
    Unavailable,
    /// This pair can never be routed by this scheme (e.g. the LP assigned it
    /// zero rate, or no path exists). The payment should be abandoned.
    Never,
}

/// A routing scheme under evaluation.
///
/// Implementations may keep per-pair caches and internal round-robin state
/// (hence `&mut self`), but must be deterministic. Schemes are `Send` so
/// the experiment runner can move each (scheme, trial) cell onto a worker
/// thread; they run single-threaded within a simulation, so `Sync` is not
/// required.
pub trait RoutingScheme: Send {
    /// Short display name used in reports ("spider-waterfilling", ...).
    fn name(&self) -> &'static str;

    /// Atomic or packet-switched.
    fn kind(&self) -> SchemeKind;

    /// Atomic routing: find paths (with per-path amounts summing to
    /// `amount`) that can all be funded *simultaneously* under `balances`.
    /// Returns `None` when the payment cannot be delivered in full.
    ///
    /// Only meaningful for [`SchemeKind::Atomic`] schemes; the default
    /// declines everything.
    fn route_payment(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        amount: Amount,
    ) -> Option<Vec<(Path, Amount)>> {
        let _ = (network, balances, src, dst, amount);
        None
    }

    /// Packet-switched routing: choose a path for one unit of `unit` tokens.
    ///
    /// Only meaningful for [`SchemeKind::PacketSwitched`] schemes; the
    /// default gives up.
    fn route_unit(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
    ) -> UnitDecision {
        let _ = (network, balances, src, dst, unit);
        UnitDecision::Never
    }

    /// Called after [`route_unit`](RoutingScheme::route_unit) answered
    /// [`UnitDecision::Unavailable`] for a `unit` from `src` to `dst`:
    /// `true` promises that, until one of the channel sides pushed to `out`
    /// — `(channel, direction crossed)`, the side that sends that way — is
    /// credited, every further ask for that pair and unit (or a larger one)
    /// answers `Unavailable` again and changes no state of the scheme. The
    /// engine may then skip those asks (see
    /// [`count_skipped`](RoutingScheme::count_skipped)). Must not count as
    /// an ask. The default, `false`, means "keep asking me": a scheme
    /// whose asks move its own state (deficit round robin, prices) keeps
    /// it.
    fn blockers(
        &self,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
        out: &mut Vec<(ChannelId, Direction)>,
    ) -> bool {
        let _ = (balances, src, dst, unit, out);
        false
    }

    /// The engine skipped `asks` calls to
    /// [`route_unit`](RoutingScheme::route_unit) that
    /// [`blockers`](RoutingScheme::blockers) proved would answer
    /// `Unavailable`. A scheme whose counters count asks counts these as
    /// made, so its [`telemetry_stats`](RoutingScheme::telemetry_stats) do
    /// not depend on which asks were skipped. The default ignores them.
    fn count_skipped(&mut self, asks: u64) {
        let _ = asks;
    }

    /// Deterministic work counters accumulated by this scheme (path-cache
    /// activity, solver invocations, ...), as `(metric name, value)` pairs
    /// for a telemetry registry. Counters must be pure functions of the
    /// routing calls made — never wall-clock derived. The default reports
    /// nothing.
    fn telemetry_stats(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Serializes scheme-internal state for an engine checkpoint, or `None`
    /// when the scheme keeps no resumable state (the default). Schemes that
    /// return `Some` here must accept the same bytes in
    /// [`restore_state`](RoutingScheme::restore_state) and continue exactly
    /// as if the run had never been interrupted.
    fn checkpoint_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by
    /// [`checkpoint_state`](RoutingScheme::checkpoint_state). The default
    /// accepts only an empty blob (matching the default `None` checkpoint).
    fn restore_state(&mut self, network: &Network, bytes: &[u8]) -> Result<(), CoreError> {
        let _ = network;
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(CoreError::Internal(format!(
                "scheme {} does not support state restore",
                self.name()
            )))
        }
    }
}

/// A scratch overlay over a [`BalanceView`] that tracks hypothetical
/// deductions.
///
/// Atomic schemes use this to verify that *all* parts of a multi-path
/// payment can be funded at once: each candidate part is debited in the
/// overlay before checking the next.
pub struct BalanceOverlay<'a> {
    base: &'a dyn BalanceView,
    /// Per-channel debit slots, indexed by `ChannelId`. A channel has exactly
    /// two endpoints, so each record holds two `(spender, debit)` slots;
    /// [`NO_NODE`] marks an unused slot. Grown lazily to the highest debited
    /// channel id.
    debits: Vec<[(NodeId, Amount); 2]>,
}

/// Sentinel for an unused debit slot (no real node id this large).
const NO_NODE: NodeId = NodeId(u32::MAX);

impl<'a> BalanceOverlay<'a> {
    /// Wraps a balance view with an empty overlay.
    pub fn new(base: &'a dyn BalanceView) -> Self {
        BalanceOverlay {
            base,
            debits: Vec::new(),
        }
    }

    /// Records a hypothetical spend of `amount` from `from` on every hop of
    /// `path`.
    pub fn debit_path(&mut self, path: &Path, amount: Amount) {
        for (i, &(c, _)) in path.hops().iter().enumerate() {
            let from = path.nodes()[i];
            if c.index() >= self.debits.len() {
                self.debits
                    .resize(c.index() + 1, [(NO_NODE, Amount::ZERO); 2]);
            }
            let slots = &mut self.debits[c.index()];
            let slot = match slots.iter().position(|&(n, _)| n == from) {
                Some(i) => i,
                // Claim the first free slot for this spender.
                None => slots.iter().position(|&(n, _)| n == NO_NODE).unwrap_or(0),
            };
            slots[slot] = (from, slots[slot].1 + amount);
        }
    }

    /// Bottleneck of `path` under the overlay.
    pub fn bottleneck(&self, path: &Path) -> Amount {
        path_bottleneck(self, path)
    }
}

impl BalanceOverlay<'_> {
    fn debit_for(&self, channel: ChannelId, from: NodeId) -> Amount {
        self.debits
            .get(channel.index())
            .and_then(|slots| slots.iter().find(|&&(n, _)| n == from))
            .map(|&(_, d)| d)
            .unwrap_or(Amount::ZERO)
    }
}

impl BalanceView for BalanceOverlay<'_> {
    fn available(&self, channel: ChannelId, from: NodeId) -> Amount {
        let debit = self.debit_for(channel, from);
        (self.base.available(channel, from) - debit).max(Amount::ZERO)
    }

    fn available_dir(&self, channel: ChannelId, from: NodeId, dir: Direction) -> Amount {
        let debit = self.debit_for(channel, from);
        (self.base.available_dir(channel, from, dir) - debit).max(Amount::ZERO)
    }
}

/// Splits `amount` into `parts` near-equal shares that sum exactly to
/// `amount` (the remainder lands on the first share). Shares are all
/// positive when `amount >= parts` micro-units.
pub fn split_evenly(amount: Amount, parts: usize) -> Vec<Amount> {
    assert!(parts > 0);
    let base = amount / parts as i64;
    let mut out = vec![base; parts];
    out[0] += amount - base * parts as i64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hop_net() -> Network {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(10))
            .unwrap();
        g
    }

    #[test]
    fn overlay_reduces_available() {
        let g = two_hop_net();
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let mut overlay = BalanceOverlay::new(&g);
        assert_eq!(overlay.bottleneck(&p), Amount::from_whole(5));
        overlay.debit_path(&p, Amount::from_whole(3));
        assert_eq!(overlay.bottleneck(&p), Amount::from_whole(2));
        overlay.debit_path(&p, Amount::from_whole(3));
        // Clamped at zero, never negative.
        assert_eq!(overlay.bottleneck(&p), Amount::ZERO);
    }

    #[test]
    fn overlay_is_directional() {
        let g = two_hop_net();
        let fwd = Path::new(&g, vec![NodeId(0), NodeId(1)]).unwrap();
        let rev = Path::new(&g, vec![NodeId(1), NodeId(0)]).unwrap();
        let mut overlay = BalanceOverlay::new(&g);
        overlay.debit_path(&fwd, Amount::from_whole(4));
        assert_eq!(overlay.bottleneck(&fwd), Amount::from_whole(1));
        // Reverse direction untouched.
        assert_eq!(overlay.bottleneck(&rev), Amount::from_whole(5));
    }

    #[test]
    fn split_evenly_sums_exactly() {
        let total = Amount::from_micros(10);
        let parts = split_evenly(total, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().copied().sum::<Amount>(), total);
        assert_eq!(parts[0], Amount::from_micros(4));
        assert_eq!(parts[1], Amount::from_micros(3));
    }

    #[test]
    fn split_single_part() {
        let total = Amount::from_whole(7);
        assert_eq!(split_evenly(total, 1), vec![total]);
    }

    #[test]
    fn default_trait_impls_decline() {
        struct Nop;
        impl RoutingScheme for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn kind(&self) -> SchemeKind {
                SchemeKind::Atomic
            }
        }
        let g = two_hop_net();
        let mut s = Nop;
        assert!(s
            .route_payment(&g, &g, NodeId(0), NodeId(2), Amount::ONE)
            .is_none());
        assert_eq!(
            s.route_unit(&g, &g, NodeId(0), NodeId(2), Amount::ONE),
            UnitDecision::Never
        );
    }
}
