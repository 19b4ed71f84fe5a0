//! Per-payment simulation state.

use spider_core::Amount;

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
    /// Completion time, once completed.
    pub completed_at: Option<f64>,
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
        completed_at: None,
        sent: 0,
    };

    /// Value of a payment of `amount` not yet sent (neither delivered nor
    /// in flight).
    pub fn remaining(&self, amount: Amount) -> Amount {
        (amount.saturating_sub(self.delivered)).saturating_sub(self.inflight)
    }
}

/// How many MTU-bounded units a payment of `amount` splits into:
/// `⌈amount / mtu⌉` in exact micro-units (`mtu` is positive).
#[inline]
pub(crate) fn unit_count(amount: Amount, mtu: Amount) -> u64 {
    let mtu = mtu.micros();
    (amount.micros().saturating_add(mtu.saturating_sub(1)) / mtu).max(0) as u64
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

    /// One record per payment of the run, all kept to the end: the inputs
    /// stay in the trace, so the record is what a run changes and no more
    /// (37 bytes of fields, padded to 40).
    #[test]
    fn payment_record_is_40_bytes() {
        assert_eq!(std::mem::size_of::<PaymentState>(), 40);
    }
}
