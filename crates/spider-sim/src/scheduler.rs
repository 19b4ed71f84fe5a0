//! Payment scheduling policies (§4.2, §6.1).
//!
//! Incomplete non-atomic payments are polled periodically and serviced in
//! policy order. The paper schedules by *shortest remaining processing
//! time* (SRPT, after pFabric \[8\]); FIFO, LIFO, and earliest-deadline-first
//! are provided for ablations.

use crate::payment::PaymentState;
use serde::{Deserialize, Serialize};

/// Order in which pending payments are serviced each scheduler tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// Shortest remaining processing time (the paper's choice).
    #[default]
    Srpt,
    /// Oldest arrival first.
    Fifo,
    /// Newest arrival first.
    Lifo,
    /// Earliest deadline first.
    Edf,
}

impl SchedulePolicy {
    /// Sorts pending payment indices into service order (stable and
    /// deterministic: ties break by payment id).
    pub fn order(&self, payments: &[PaymentState], pending: &mut [usize]) {
        match self {
            SchedulePolicy::Srpt => pending.sort_by(|&a, &b| {
                payments[a]
                    .remaining()
                    .cmp(&payments[b].remaining())
                    .then(payments[a].id.cmp(&payments[b].id))
            }),
            SchedulePolicy::Fifo => pending.sort_by(|&a, &b| {
                payments[a]
                    .arrival
                    .total_cmp(&payments[b].arrival)
                    .then(payments[a].id.cmp(&payments[b].id))
            }),
            SchedulePolicy::Lifo => pending.sort_by(|&a, &b| {
                payments[b]
                    .arrival
                    .total_cmp(&payments[a].arrival)
                    .then(payments[a].id.cmp(&payments[b].id))
            }),
            SchedulePolicy::Edf => pending.sort_by(|&a, &b| {
                payments[a]
                    .deadline
                    .total_cmp(&payments[b].deadline)
                    .then(payments[a].id.cmp(&payments[b].id))
            }),
        }
    }

    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::Srpt => "srpt",
            SchedulePolicy::Fifo => "fifo",
            SchedulePolicy::Lifo => "lifo",
            SchedulePolicy::Edf => "edf",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payment::PaymentStatus;
    use spider_core::{Amount, NodeId, PaymentId};

    fn payment(id: u64, amount: i64, arrival: f64, deadline: f64) -> PaymentState {
        PaymentState {
            id: PaymentId(id),
            src: NodeId(0),
            dst: NodeId(1),
            amount: Amount::from_whole(amount),
            arrival,
            deadline,
            delivered: Amount::ZERO,
            inflight: Amount::ZERO,
            status: PaymentStatus::Pending,
            completed_at: None,
        }
    }

    fn fixture() -> Vec<PaymentState> {
        vec![
            payment(0, 50, 0.0, 9.0),
            payment(1, 10, 1.0, 3.0),
            payment(2, 30, 2.0, 6.0),
        ]
    }

    #[test]
    fn srpt_orders_by_remaining() {
        let mut payments = fixture();
        // Payment 0 has delivered most of its value: smallest remaining.
        payments[0].delivered = Amount::from_whole(45);
        let mut order = vec![0, 1, 2];
        SchedulePolicy::Srpt.order(&payments, &mut order);
        assert_eq!(order, vec![0, 1, 2]); // remaining: 5, 10, 30
    }

    #[test]
    fn fifo_and_lifo() {
        let payments = fixture();
        let mut order = vec![2, 0, 1];
        SchedulePolicy::Fifo.order(&payments, &mut order);
        assert_eq!(order, vec![0, 1, 2]);
        SchedulePolicy::Lifo.order(&payments, &mut order);
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn edf_orders_by_deadline() {
        let payments = fixture();
        let mut order = vec![0, 1, 2];
        SchedulePolicy::Edf.order(&payments, &mut order);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_id() {
        let payments = vec![payment(5, 10, 0.0, 1.0), payment(3, 10, 0.0, 1.0)];
        let mut order = vec![0, 1];
        SchedulePolicy::Srpt.order(&payments, &mut order);
        assert_eq!(order, vec![1, 0]); // id 3 before id 5
    }

    #[test]
    fn names() {
        assert_eq!(SchedulePolicy::default().name(), "srpt");
        assert_eq!(SchedulePolicy::Edf.name(), "edf");
    }
}
