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

use crate::audit::LedgerAudit;
use crate::ledger::{tokens, Ledger};
use serde::{Deserialize, Serialize};
use spider_core::{Amount, ChannelId, CoreError, Network};

/// When and how routers rebalance channels on chain.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RebalancePolicy {
    /// How often channels are inspected (seconds).
    pub check_interval: f64,
    /// Trigger when `|balance_a − balance_b| / capacity` exceeds this.
    pub imbalance_threshold: f64,
    /// Fraction of the imbalance corrected per on-chain transaction
    /// (1.0 restores a perfect 50/50 split).
    pub correction_fraction: f64,
    /// Flat miner fee per on-chain transaction, burned from the channel.
    pub fee: Amount,
    /// Blockchain confirmation delay before the moved funds are usable
    /// (seconds) — orders of magnitude above the payment delay Δ.
    pub confirmation_delay: f64,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            check_interval: 5.0,
            imbalance_threshold: 0.8,
            correction_fraction: 1.0,
            fee: Amount::from_whole(1),
            confirmation_delay: 60.0,
        }
    }
}

impl RebalancePolicy {
    /// A policy tuned for experiments: aggressive threshold, fast chain.
    pub fn aggressive() -> Self {
        RebalancePolicy {
            check_interval: 1.0,
            imbalance_threshold: 0.5,
            correction_fraction: 1.0,
            fee: Amount::from_whole(1),
            confirmation_delay: 10.0,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    /// Panics on nonsensical values (used by the engine at startup).
    pub fn validate(&self) {
        assert!(self.check_interval > 0.0, "check_interval must be positive");
        assert!(
            (0.0..=1.0).contains(&self.imbalance_threshold),
            "imbalance_threshold must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.correction_fraction),
            "correction_fraction must be in [0, 1]"
        );
        assert!(!self.fee.is_negative(), "fee cannot be negative");
        assert!(
            self.confirmation_delay >= 0.0,
            "confirmation_delay cannot be negative"
        );
    }

    /// Given a channel's current sides, decides how much to move from the
    /// richer side to the poorer side (before fees), or `None` if the
    /// channel is within tolerance.
    pub fn correction(&self, balance_a: Amount, balance_b: Amount) -> Option<Amount> {
        let capacity = balance_a + balance_b;
        if !capacity.is_positive() {
            return None;
        }
        let skew = (balance_a - balance_b).abs();
        if skew.ratio_of(capacity) <= self.imbalance_threshold {
            return None;
        }
        // Moving half the absolute difference equalizes the sides.
        let move_amount = (skew / 2).scale(self.correction_fraction);
        // Not worth a transaction that the fee would consume.
        if move_amount <= self.fee {
            return None;
        }
        Some(move_amount)
    }

    /// A submitted correction of `channel` confirms at `now`. The skew is
    /// re-evaluated first — interim traffic may have healed (or deepened)
    /// it — and `Ok(None)` means nothing was moved. Otherwise the correction
    /// is withdrawn from the rich side, redeposited less the miner fee on
    /// the poor side, reported to `audit` (which then checks), and returned
    /// as `(withdrawn, fee burned)`. A refused redeposit (it cannot overflow
    /// a channel the funds just left) is the caller's to record.
    pub fn apply(
        &self,
        ledger: &mut Ledger,
        network: &Network,
        channel: ChannelId,
        audit: Option<&mut LedgerAudit>,
        now: f64,
    ) -> Result<Option<(Amount, Amount)>, CoreError> {
        let (a, b) = ledger.balances(channel);
        let Some(amount) = self.correction(a, b) else {
            return Ok(None);
        };
        let ch = network.channel(channel);
        let (rich, poor) = if a >= b { (ch.a, ch.b) } else { (ch.b, ch.a) };
        let taken = ledger.withdraw(network, channel, rich, amount);
        let redeposit = taken.saturating_sub(self.fee).max(Amount::ZERO);
        ledger.deposit(network, channel, poor, redeposit)?;
        if let Some(audit) = audit {
            audit.on_withdraw(taken);
            audit.on_deposit(redeposit);
            audit.check(ledger, now, "rebalance");
        }
        Ok(Some((taken, taken.saturating_sub(redeposit))))
    }
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
    /// (what [`RebalancePolicy::apply`] returns).
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

    #[test]
    fn no_correction_when_balanced() {
        let p = RebalancePolicy::default();
        assert_eq!(
            p.correction(Amount::from_whole(50), Amount::from_whole(50)),
            None
        );
        // 70/30 split = 0.4 skew, below the 0.8 threshold.
        assert_eq!(
            p.correction(Amount::from_whole(70), Amount::from_whole(30)),
            None
        );
    }

    #[test]
    fn corrects_heavy_skew() {
        let p = RebalancePolicy::default();
        // 95/5 split: skew 0.9 > 0.8 -> move (90/2) = 45.
        let m = p
            .correction(Amount::from_whole(95), Amount::from_whole(5))
            .unwrap();
        assert_eq!(m, Amount::from_whole(45));
        // Symmetric.
        let m2 = p
            .correction(Amount::from_whole(5), Amount::from_whole(95))
            .unwrap();
        assert_eq!(m2, m);
    }

    #[test]
    fn partial_correction_fraction() {
        let p = RebalancePolicy {
            correction_fraction: 0.5,
            ..RebalancePolicy::default()
        };
        let m = p
            .correction(Amount::from_whole(95), Amount::from_whole(5))
            .unwrap();
        assert_eq!(m, Amount::from_tokens(22.5));
    }

    #[test]
    fn skips_dust_corrections() {
        let p = RebalancePolicy {
            fee: Amount::from_whole(10),
            ..Default::default()
        };
        // Moving 4.5 would cost a 10-token fee: skip.
        assert_eq!(p.correction(Amount::from_whole(9), Amount::ZERO), None);
    }

    #[test]
    fn empty_channel_is_ignored() {
        let p = RebalancePolicy::default();
        assert_eq!(p.correction(Amount::ZERO, Amount::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "imbalance_threshold")]
    fn validate_rejects_bad_threshold() {
        RebalancePolicy {
            imbalance_threshold: 1.5,
            ..Default::default()
        }
        .validate();
    }
}
