//! Payment scheduling policies (§4.2, §6.1).
//!
//! Incomplete non-atomic payments are polled periodically and serviced in
//! policy order. The paper schedules by *shortest remaining processing
//! time* (SRPT, after pFabric \[8\]); FIFO, LIFO, and earliest-deadline-first
//! are provided for ablations.

use crate::payment::PaymentState;
use serde::{Deserialize, Serialize};
use spider_workload::Transaction;

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
    /// deterministic: ties break by payment id). Payment `i` is trace row
    /// `i`, due `window` seconds after it arrives.
    pub fn order(
        &self,
        payments: &[PaymentState],
        trace: &[Transaction],
        window: f64,
        pending: &mut [usize],
    ) {
        let by_id = |a: usize, b: usize| trace[a].id.cmp(&trace[b].id);
        match self {
            // Every tick sorts thousands of payments: each key is read
            // once, not once a comparison.
            SchedulePolicy::Srpt => pending
                .sort_by_cached_key(|&i| (payments[i].remaining(trace[i].amount), trace[i].id)),
            SchedulePolicy::Fifo => pending.sort_by(|&a, &b| {
                (trace[a].arrival)
                    .total_cmp(&trace[b].arrival)
                    .then(by_id(a, b))
            }),
            SchedulePolicy::Lifo => pending.sort_by(|&a, &b| {
                (trace[b].arrival)
                    .total_cmp(&trace[a].arrival)
                    .then(by_id(a, b))
            }),
            SchedulePolicy::Edf => pending.sort_by(|&a, &b| {
                (trace[a].arrival + window)
                    .total_cmp(&(trace[b].arrival + window))
                    .then(by_id(a, b))
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
    use spider_core::{Amount, NodeId, PaymentId};

    const WINDOW: f64 = 5.0;

    fn row(id: u64, amount: i64, arrival: f64) -> Transaction {
        Transaction {
            id: PaymentId(id),
            src: NodeId(0),
            dst: NodeId(1),
            amount: Amount::from_whole(amount),
            arrival,
        }
    }

    fn arrived(n: usize) -> Vec<PaymentState> {
        vec![PaymentState::ARRIVED; n]
    }

    fn order(
        policy: SchedulePolicy,
        payments: &[PaymentState],
        trace: &[Transaction],
    ) -> Vec<usize> {
        let mut order: Vec<usize> = (0..trace.len()).rev().collect();
        policy.order(payments, trace, WINDOW, &mut order);
        order
    }

    #[test]
    fn srpt_orders_by_remaining() {
        let trace = [row(0, 50, 0.0), row(1, 10, 1.0), row(2, 30, 2.0)];
        let mut payments = arrived(3);
        // Payment 0 has delivered most of its value: smallest remaining.
        payments[0].delivered = Amount::from_whole(45);
        // remaining: 5, 10, 30
        assert_eq!(order(SchedulePolicy::Srpt, &payments, &trace), [0, 1, 2]);
    }

    /// Every payment gets the same window, so deadlines fall in arrival
    /// order and EDF serves as FIFO does; arrival ties break by id.
    #[test]
    fn fifo_lifo_and_edf_follow_arrival() {
        let trace = [
            row(0, 50, 0.0),
            row(3, 10, 1.0),
            row(2, 30, 1.0),
            row(1, 5, 2.5),
        ];
        let payments = arrived(4);
        let fifo = order(SchedulePolicy::Fifo, &payments, &trace);
        assert_eq!(fifo, [0, 2, 1, 3]);
        assert_eq!(order(SchedulePolicy::Edf, &payments, &trace), fifo);
        assert_eq!(order(SchedulePolicy::Lifo, &payments, &trace), [3, 2, 1, 0]);
    }

    #[test]
    fn ties_break_by_id() {
        let trace = [row(5, 10, 0.0), row(3, 10, 0.0)];
        // id 3 before id 5
        assert_eq!(order(SchedulePolicy::Srpt, &arrived(2), &trace), [1, 0]);
    }

    #[test]
    fn names() {
        assert_eq!(SchedulePolicy::default().name(), "srpt");
        assert_eq!(SchedulePolicy::Edf.name(), "edf");
    }
}
