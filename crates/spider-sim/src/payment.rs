//! Per-payment simulation state.

use spider_core::{Amount, NodeId, PaymentId};

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

/// Mutable state the engine tracks for each payment.
#[derive(Clone, Debug)]
pub struct PaymentState {
    /// The payment id from the input trace.
    pub id: PaymentId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Total payment value.
    pub amount: Amount,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Absolute deadline (seconds).
    pub deadline: f64,
    /// Value already settled at the receiver.
    pub delivered: Amount,
    /// Value locked in flight.
    pub inflight: Amount,
    /// Current lifecycle state.
    pub status: PaymentStatus,
    /// Completion time, once completed.
    pub completed_at: Option<f64>,
}

impl PaymentState {
    /// Value not yet sent (neither delivered nor in flight).
    pub fn remaining(&self) -> Amount {
        self.amount - self.delivered - self.inflight
    }

    /// `true` once every token has been settled.
    pub fn fully_delivered(&self) -> bool {
        self.delivered >= self.amount
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

    fn state() -> PaymentState {
        PaymentState {
            id: PaymentId(1),
            src: NodeId(0),
            dst: NodeId(1),
            amount: Amount::from_whole(10),
            arrival: 0.0,
            deadline: 5.0,
            delivered: Amount::ZERO,
            inflight: Amount::ZERO,
            status: PaymentStatus::Pending,
            completed_at: None,
        }
    }

    #[test]
    fn remaining_accounts_for_inflight() {
        let mut p = state();
        assert_eq!(p.remaining(), Amount::from_whole(10));
        p.inflight = Amount::from_whole(4);
        p.delivered = Amount::from_whole(2);
        assert_eq!(p.remaining(), Amount::from_whole(4));
        assert!(!p.fully_delivered());
        p.delivered = Amount::from_whole(10);
        assert!(p.fully_delivered());
    }
}
