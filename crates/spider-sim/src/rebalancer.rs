//! On-chain rebalancing inside the discrete-event simulation.
//!
//! The paper analyzes on-chain rebalancing only in the fluid model
//! (§5.2.3); this module brings it into the packet-level simulator as the
//! §7 extension: routers periodically inspect their channels and, when the
//! balance split is skewed past a threshold, submit an on-chain transaction
//! that moves funds from the rich side back to the poor side. The
//! transaction pays a miner fee (burned from the channel's capital) and
//! confirms only after a blockchain delay — both reasons the paper gives
//! for why routing should avoid needing it.
//!
//! The policy is fixed: routers inspect every channel each second, correct
//! a channel whose sides differ by more than half its capacity back to an
//! even split, pay a 1-token miner fee per transaction (skipping a
//! correction the fee would consume), and the chain confirms after 10 s.

use crate::audit::LedgerAudit;
use crate::ledger::{tokens, Ledger};
use serde::{Deserialize, Serialize};
use spider_core::{Amount, ChannelId, CoreError, Enc, Network};

/// How often routers inspect their channels (seconds).
pub(crate) const CHECK_INTERVAL: f64 = 1.0;
/// A channel is corrected when `|balance_a − balance_b| / capacity`
/// exceeds this.
const IMBALANCE_THRESHOLD: f64 = 0.5;
/// Flat miner fee per on-chain transaction, burned from the channel.
const FEE: Amount = Amount::from_whole(1);
/// Blockchain confirmation delay before the moved funds are usable
/// (seconds) — orders of magnitude above the payment delay Δ.
pub(crate) const CONFIRMATION_DELAY: f64 = 10.0;

/// Writes the policy into a snapshot fingerprint, in the layout of SPSN v8
/// fingerprints; the third value is the fraction of the skew a correction
/// removes, all of it.
pub(crate) fn fingerprint(e: &mut Enc) {
    e.f64(CHECK_INTERVAL);
    e.f64(IMBALANCE_THRESHOLD);
    e.f64(1.0);
    e.i64(FEE.micros());
    e.f64(CONFIRMATION_DELAY);
}

/// Given a channel's current sides, decides how much to move from the
/// richer side to the poorer side (before the fee), or `None` if the
/// channel is within tolerance.
pub(crate) fn correction(balance_a: Amount, balance_b: Amount) -> Option<Amount> {
    let capacity = balance_a.checked_add(balance_b)?;
    if !capacity.is_positive() {
        return None;
    }
    let skew = (balance_a.max(balance_b)).saturating_sub(balance_a.min(balance_b));
    if skew.ratio_of(capacity) <= IMBALANCE_THRESHOLD {
        return None;
    }
    // Moving half the absolute difference equalizes the sides.
    let move_amount = skew / 2;
    // Not worth a transaction that the fee would consume.
    (move_amount > FEE).then_some(move_amount)
}

/// A submitted correction of `channel` confirms at `now`. The skew is
/// re-evaluated first — interim traffic may have healed (or deepened) it —
/// and `Ok(None)` means nothing was moved. Otherwise the correction is
/// withdrawn from the rich side, redeposited less the miner fee on the
/// poor side, reported to `audit` (which then checks), and returned as
/// `(withdrawn, fee burned)`. A refused redeposit (it cannot overflow a
/// channel the funds just left) is the caller's to record.
pub(crate) fn apply(
    ledger: &mut Ledger,
    network: &Network,
    channel: ChannelId,
    audit: Option<&mut LedgerAudit>,
    now: f64,
) -> Result<Option<(Amount, Amount)>, CoreError> {
    let (a, b) = ledger.balances(channel);
    let Some(amount) = correction(a, b) else {
        return Ok(None);
    };
    let ch = network.channel(channel);
    let (rich, poor) = if a >= b { (ch.a, ch.b) } else { (ch.b, ch.a) };
    let taken = ledger.withdraw(network, channel, rich, amount);
    let redeposit = taken.saturating_sub(FEE).max(Amount::ZERO);
    ledger.deposit(network, channel, poor, redeposit)?;
    if let Some(audit) = audit {
        audit.on_withdraw(taken);
        audit.on_deposit(redeposit);
        audit.check(ledger, now, "rebalance");
    }
    Ok(Some((taken, taken.saturating_sub(redeposit))))
}

/// Aggregate rebalancing activity over a run (reported in [`crate::SimReport`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RebalanceStats {
    /// On-chain transactions submitted.
    pub transactions: usize,
    /// Total value moved between channel sides (tokens).
    pub moved_volume: f64,
    /// Total miner fees burned (tokens).
    pub fees_paid: f64,
}

/// The applied corrections both engines count: exact micro-unit sums,
/// converted to the reported [`RebalanceStats`] once, at the end of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct RebalanceTotals {
    pub(crate) transactions: u64,
    pub(crate) moved: Amount,
    pub(crate) fees: Amount,
}

impl RebalanceTotals {
    /// Counts one applied correction that withdrew `taken` and burned `fee`
    /// (what [`apply`] returns).
    pub(crate) fn add(&mut self, (taken, fee): (Amount, Amount)) {
        self.transactions += 1;
        self.moved = self.moved.saturating_add(taken);
        self.fees = self.fees.saturating_add(fee);
    }

    /// The report's view, in tokens.
    pub(crate) fn stats(self) -> RebalanceStats {
        RebalanceStats {
            transactions: self.transactions as usize,
            moved_volume: tokens(self.moved),
            fees_paid: tokens(self.fees),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::NodeId;

    #[test]
    fn no_correction_when_balanced() {
        assert_eq!(
            correction(Amount::from_whole(50), Amount::from_whole(50)),
            None
        );
        // 70/30 split = 0.4 skew, below the 0.5 threshold; 75/25 sits on it.
        assert_eq!(
            correction(Amount::from_whole(70), Amount::from_whole(30)),
            None
        );
        assert_eq!(
            correction(Amount::from_whole(75), Amount::from_whole(25)),
            None
        );
    }

    #[test]
    fn corrects_heavy_skew() {
        // 95/5 split: skew 0.9 > 0.5 -> move (90/2) = 45.
        let m = correction(Amount::from_whole(95), Amount::from_whole(5)).unwrap();
        assert_eq!(m, Amount::from_whole(45));
        // Symmetric.
        let m2 = correction(Amount::from_whole(5), Amount::from_whole(95)).unwrap();
        assert_eq!(m2, m);
        // Just past the threshold: 76/24 = 0.52 skew -> move 26.
        assert_eq!(
            correction(Amount::from_whole(76), Amount::from_whole(24)),
            Some(Amount::from_whole(26))
        );
    }

    /// A confirmed correction moves half the skew and burns the fee on
    /// the way: the sides end even but for the fee.
    #[test]
    fn applied_correction_evens_the_split_less_the_fee() {
        let mut g = Network::new(2);
        let c = g
            .add_channel_with_balances(
                NodeId(0),
                NodeId(1),
                Amount::from_whole(95),
                Amount::from_whole(5),
            )
            .unwrap();
        let mut ledger = Ledger::new(&g);
        let moved = apply(&mut ledger, &g, c, None, 0.0).unwrap();
        assert_eq!(moved, Some((Amount::from_whole(45), FEE)));
        assert_eq!(
            ledger.balances(c),
            (Amount::from_whole(50), Amount::from_whole(49))
        );
        assert_eq!(apply(&mut ledger, &g, c, None, 1.0).unwrap(), None);
    }

    #[test]
    fn skips_dust_corrections() {
        // Moving 1 would cost the whole 1-token fee: skip.
        assert_eq!(correction(Amount::from_whole(2), Amount::ZERO), None);
        // Moving 1.5 is worth it.
        assert_eq!(
            correction(Amount::from_whole(3), Amount::ZERO),
            Some(Amount::from_tokens(1.5))
        );
    }

    #[test]
    fn empty_channel_is_ignored() {
        assert_eq!(correction(Amount::ZERO, Amount::ZERO), None);
    }
}
