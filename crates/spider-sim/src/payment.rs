//! Per-payment simulation state, and the payment side of a unit's life
//! (§4.1): sending, settling and refunding a unit, completing and
//! abandoning a payment, why a unit failed, and how the sender recovers
//! from a fault. Both engines call the [`PaymentState`] transitions; they
//! differ only in *when* one fires (continuous time or epochs). A failure's
//! cause and the fault recovery belong to the continuous-time engine, the
//! one that injects faults.

use crate::faults::{FaultStats, RetryPolicy};
use crate::ledger::tokens;
use spider_core::{Amount, ChannelId};
use spider_telemetry::TraceEvent;
use spider_workload::Transaction;

/// Lifecycle of a payment in the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaymentStatus {
    /// Still being (or waiting to be) transmitted.
    Pending,
    /// Fully delivered before its deadline.
    Completed,
    /// Given up: atomic routing failed, the scheme declared it unroutable,
    /// or the deadline passed. Partially delivered funds stay delivered.
    Abandoned,
}

/// What a run changes about a payment. Its inputs — id, sender, receiver,
/// amount, arrival — are its row of the trace, read from there and never
/// copied here: payment `i` is trace row `i`.
#[derive(Clone, Debug)]
pub struct PaymentState {
    /// Value already settled at the receiver.
    pub delivered: Amount,
    /// Value locked in flight.
    pub inflight: Amount,
    /// Current lifecycle state.
    pub status: PaymentStatus,
    /// Seconds from arrival to completion, once completed. The engine
    /// measures it on its own clock: continuous time, or whole epochs.
    pub delay: Option<f64>,
    /// Units sent so far. Unit `sent` is the next one, and what it is
    /// dealt under fault injection is a function of that number (the fate
    /// rule in [`crate::faults`]).
    pub sent: u32,
}

impl PaymentState {
    /// A payment that has just arrived.
    pub(crate) const ARRIVED: PaymentState = PaymentState {
        delivered: Amount::ZERO,
        inflight: Amount::ZERO,
        status: PaymentStatus::Pending,
        delay: None,
        sent: 0,
    };

    /// Value of a payment of `amount` not yet sent (neither delivered nor
    /// in flight).
    pub fn remaining(&self, amount: Amount) -> Amount {
        (amount.saturating_sub(self.delivered)).saturating_sub(self.inflight)
    }

    /// Puts a unit of `amount` in flight and returns its number.
    pub(crate) fn send(&mut self, amount: Amount) -> u32 {
        self.inflight = self.inflight.saturating_add(amount);
        self.sent += 1;
        self.sent - 1
    }

    /// A unit of `amount` settled at the receiver. Completes a pending
    /// payment of `total` once all of it is delivered, `delay` seconds
    /// after its arrival; `true` when this unit completed it.
    pub(crate) fn settle(&mut self, amount: Amount, total: Amount, delay: f64) -> bool {
        self.inflight = self.inflight.saturating_sub(amount);
        self.delivered = self.delivered.saturating_add(amount);
        let completed = self.status == PaymentStatus::Pending && self.delivered >= total;
        if completed {
            self.status = PaymentStatus::Completed;
            self.delay = Some(delay);
        }
        completed
    }

    /// A unit of `amount` was refunded: its value is "remaining" again.
    pub(crate) fn refund(&mut self, amount: Amount) {
        self.inflight = self.inflight.saturating_sub(amount);
    }

    /// Gives up on a pending payment, the one with id `payment`, at time
    /// `t`, and returns the event that says so. Value already settled stays
    /// delivered, and units in flight still settle or refund on their own.
    /// A finished payment is left alone: `None`.
    pub(crate) fn abandon(&mut self, t: f64, payment: u64) -> Option<TraceEvent> {
        (self.status == PaymentStatus::Pending).then(|| {
            self.status = PaymentStatus::Abandoned;
            TraceEvent::PaymentAbandoned {
                t,
                payment,
                delivered: tokens(self.delivered),
            }
        })
    }
}

/// The two events of payment `tx` arriving at time `t`: it arrived, and it
/// splits into `⌈amount / mtu⌉` units.
pub(crate) fn arrival_trace(tx: &Transaction, mtu: Amount, t: f64) -> [TraceEvent; 2] {
    let payment = tx.id.0;
    [
        TraceEvent::PaymentArrived {
            t,
            payment,
            src: tx.src.0,
            dst: tx.dst.0,
            amount: tokens(tx.amount),
        },
        TraceEvent::PaymentSplit {
            t,
            payment,
            units: unit_count(tx.amount, mtu),
        },
    ]
}

/// How many MTU-bounded units a payment of `amount` splits into:
/// `⌈amount / mtu⌉` in exact micro-units (`mtu` is positive).
fn unit_count(amount: Amount, mtu: Amount) -> u64 {
    let mtu = mtu.micros();
    (amount.micros().saturating_add(mtu.saturating_sub(1)) / mtu).max(0) as u64
}

/// Why a unit failed, with the channel it blames. Its locked prefix is
/// refunded and the value returns to the payment either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FailCause {
    /// A hop lock found too little balance, or the unit waited in a full
    /// or expired router queue. Not a fault: no blacklist, no retry budget.
    Liquidity(ChannelId),
    /// A channel on the unit's path went down.
    Outage(ChannelId),
    /// Dropped mid-path by the per-unit loss process.
    Dropped(ChannelId),
    /// HTLC griefed at the final hop: funds pinned, then refunded.
    Griefed(ChannelId),
}

impl FailCause {
    /// The channel the sender blames.
    pub(crate) fn blamed(self) -> ChannelId {
        match self {
            FailCause::Liquidity(c)
            | FailCause::Outage(c)
            | FailCause::Dropped(c)
            | FailCause::Griefed(c) => c,
        }
    }

    /// The event recording a unit of `amount` of payment `payment` lost to
    /// a fate at time `t` (`hold` is the plan's grief hold); `None` for the
    /// causes whose refund is the whole story.
    pub(crate) fn trace(
        self,
        t: f64,
        payment: u64,
        amount: Amount,
        hold: f64,
    ) -> Option<TraceEvent> {
        let amount = tokens(amount);
        match self {
            FailCause::Dropped(c) => Some(TraceEvent::UnitDropped {
                t,
                payment,
                amount,
                channel: c.index() as u32,
            }),
            FailCause::Griefed(_) => Some(TraceEvent::UnitGriefed {
                t,
                payment,
                amount,
                hold,
            }),
            FailCause::Liquidity(_) | FailCause::Outage(_) => None,
        }
    }
}

/// A payment's fault recovery under a fault plan: the failures it has
/// had, when it may send again, and the channels it blames for them. The
/// continuous-time engine keeps one per payment, reads it through
/// `FaultView` and changes it only through [`fault`](Self::fault). Times
/// are seconds of simulation time.
#[derive(Clone, Debug)]
pub(crate) struct Recovery {
    /// Fault failures so far: the retry budget spent.
    pub(crate) failures: u32,
    /// The payment sends nothing before this time (its retry backoff).
    pub(crate) not_before: f64,
    /// `(channel, until)`: the payment routes around `channel` while the
    /// time is before `until`.
    pub(crate) blacklist: Vec<(ChannelId, f64)>,
}

impl Recovery {
    /// A payment that has had no fault failure.
    pub(crate) const FRESH: Recovery = Recovery {
        failures: 0,
        not_before: f64::NEG_INFINITY,
        blacklist: Vec::new(),
    };

    /// `true` while the payment blacklists `channel` at time `now`.
    pub(crate) fn avoids(&self, channel: ChannelId, now: f64) -> bool {
        (self.blacklist.iter()).any(|&(c, until)| c == channel && until > now)
    }

    /// A unit failed at `now` for a fault blamed on `blamed`: drops the
    /// expired blacklist entries, blacklists `blamed` until `until` and
    /// counts the blacklisting. Returns the failure's number and the
    /// backoff before the payment may send again, counting a retry — or
    /// `None` once `policy`'s budget is spent, counting a failed payment
    /// for the caller to abandon.
    pub(crate) fn fault(
        &mut self,
        policy: &RetryPolicy,
        blamed: ChannelId,
        now: f64,
        until: f64,
        stats: &mut FaultStats,
    ) -> Option<(u32, f64)> {
        self.blacklist.retain(|&(_, t)| t > now);
        self.blacklist.push((blamed, until));
        stats.blacklistings += 1;
        self.failures += 1;
        let backoff = policy.backoff(self.failures);
        match backoff {
            Some(_) => stats.retries += 1,
            None => stats.payments_failed += 1,
        }
        Some((self.failures, backoff?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_accounts_for_inflight() {
        let amount = Amount::from_whole(10);
        let mut p = PaymentState::ARRIVED;
        assert_eq!(p.remaining(amount), amount);
        p.inflight = Amount::from_whole(4);
        p.delivered = Amount::from_whole(2);
        assert_eq!(p.remaining(amount), Amount::from_whole(4));
    }

    /// A payment completes once, on the unit that delivers its last value,
    /// and a finished payment cannot be abandoned.
    #[test]
    fn transitions_complete_once_and_abandon_only_pending() {
        let (unit, total) = (Amount::from_whole(5), Amount::from_whole(10));
        let mut p = PaymentState::ARRIVED;
        assert_eq!([p.send(unit), p.send(unit), p.send(unit)], [0, 1, 2]);
        p.refund(unit);
        assert!(!p.settle(unit, total, 1.0));
        assert!(p.settle(unit, total, 2.0));
        assert_eq!(
            (p.status, p.delay, p.inflight),
            (PaymentStatus::Completed, Some(2.0), Amount::ZERO)
        );
        assert!(p.abandon(3.0, 7).is_none());
        let mut q = PaymentState::ARRIVED;
        assert!(matches!(
            q.abandon(3.0, 7),
            Some(TraceEvent::PaymentAbandoned { payment: 7, .. })
        ));
        assert_eq!(q.status, PaymentStatus::Abandoned);
    }

    /// A blacklisted channel is avoided until its expiry, expired entries
    /// go at the next failure, and the budget's last failure abandons.
    #[test]
    fn recovery_blacklists_backs_off_and_spends_its_budget() {
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let (mut r, mut stats) = (Recovery::FRESH, FaultStats::default());
        let (a, b) = (ChannelId(3), ChannelId(5));
        assert_eq!(r.fault(&policy, a, 1.0, 3.0, &mut stats), Some((1, 0.2)));
        assert!(r.avoids(a, 2.9) && !r.avoids(a, 3.0) && !r.avoids(b, 2.0));
        assert_eq!(r.fault(&policy, b, 3.5, 5.5, &mut stats), Some((2, 0.4)));
        assert_eq!(r.blacklist, vec![(b, 5.5)], "the expired entry is gone");
        assert_eq!(r.fault(&policy, a, 4.0, 6.0, &mut stats), None);
        assert!(r.avoids(a, 5.0) && r.avoids(b, 5.0));
        assert_eq!(
            (stats.blacklistings, stats.retries, stats.payments_failed),
            (3, 2, 1)
        );
    }

    /// One record per payment of the run, all kept to the end: the inputs
    /// stay in the trace, so the record is what a run changes and no more
    /// (37 bytes of fields, padded to 40).
    #[test]
    fn payment_record_is_40_bytes() {
        assert_eq!(std::mem::size_of::<PaymentState>(), 40);
    }
}
