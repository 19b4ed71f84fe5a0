//! Payment scheduling policies (§4.2, §6.1), and the source queue's wake
//! lists.
//!
//! Incomplete non-atomic payments wait at their source and are serviced at
//! each scheduler tick in policy order. The paper schedules by *shortest
//! remaining processing time* (SRPT, after pFabric \[8\]); FIFO, LIFO, and
//! earliest-deadline-first are provided for ablations.
//!
//! A tick services only the payments that may send. A payment the scheme
//! answered `Unavailable` whose blocking channel sides the scheme can name
//! (`RoutingScheme::blockers`) is *parked* on those sides, and only a
//! credit to one of them — a settle, a refund or an on-chain rebalance —
//! *wakes* it for the next tick. Until then every ask would answer
//! `Unavailable` again without a side effect, so skipping it changes
//! nothing but the scheme's ask counters, which the caller settles with
//! `RoutingScheme::count_skipped`.

use crate::ledger::sender_side;
use crate::payment::{PaymentState, PaymentStatus};
use serde::{Deserialize, Serialize};
use spider_core::{ChannelId, Direction};
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
    /// Sorts pending payment indices into service order. Payment `i` is
    /// trace row `i`, due `window` seconds after it arrives. Ties break by
    /// trace row, so the order is total for any trace — payment ids need
    /// not be unique — and any subset of the indices sorts to the order
    /// the whole set gives it.
    pub fn order(
        &self,
        payments: &[PaymentState],
        trace: &[Transaction],
        window: f64,
        pending: &mut [usize],
    ) {
        match self {
            // Every tick sorts thousands of payments: each key is read
            // once, not once a comparison.
            SchedulePolicy::Srpt => {
                pending.sort_by_cached_key(|&i| (payments[i].remaining(trace[i].amount), i))
            }
            SchedulePolicy::Fifo => pending.sort_by(|&a, &b| {
                (trace[a].arrival)
                    .total_cmp(&trace[b].arrival)
                    .then(a.cmp(&b))
            }),
            SchedulePolicy::Lifo => pending.sort_by(|&a, &b| {
                (trace[b].arrival)
                    .total_cmp(&trace[a].arrival)
                    .then(a.cmp(&b))
            }),
            SchedulePolicy::Edf => pending.sort_by(|&a, &b| {
                (trace[a].arrival + window)
                    .total_cmp(&(trace[b].arrival + window))
                    .then(a.cmp(&b))
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

/// Which pending payments wait on which dry channel side, and which a
/// credit has woken since the last tick (see the module docs).
///
/// Both lists may hold stale entries — a payment since woken through
/// another side and parked again, or no longer pending — and duplicates.
/// Neither costs more than a spurious wake, which pumps a payment that
/// asks and parks again: the tick drops what is no longer pending and
/// what appears twice.
pub(crate) struct WakeLists {
    /// Per channel side (`2 * channel + sender side`), the payments parked
    /// on it.
    parked: Vec<Vec<u32>>,
    /// Entries in `parked`, so that a credit while nothing is parked costs
    /// one comparison.
    entries: usize,
    /// Payments woken since the last tick.
    pub(crate) woken: Vec<usize>,
    /// The blocking sides of the payment being parked, reused.
    pub(crate) sides: Vec<(ChannelId, Direction)>,
}

impl WakeLists {
    /// A list below this length is never compacted.
    const MIN_COMPACT: usize = 16;

    /// Empty lists for a network of `num_channels` channels.
    pub(crate) fn new(num_channels: usize) -> Self {
        WakeLists {
            parked: vec![Vec::new(); 2 * num_channels],
            entries: 0,
            woken: Vec::new(),
            sides: Vec::new(),
        }
    }

    /// Parks payment `idx` on every side in [`sides`](Self::sides), which
    /// it leaves empty. A side's list that is full is first compacted —
    /// what is no longer pending in `payments` and what appears twice
    /// goes — so the list of a dry side that is never credited stays
    /// within twice the pending payments parked on it.
    pub(crate) fn park(&mut self, idx: usize, payments: &[PaymentState]) {
        for (channel, dir) in self.sides.drain(..) {
            let list = &mut self.parked[2 * channel.index() + sender_side(dir)];
            if list.len() == list.capacity() && list.len() >= Self::MIN_COMPACT {
                self.entries -= list.len();
                list.retain(|&p| payments[p as usize].status == PaymentStatus::Pending);
                list.sort_unstable();
                list.dedup();
                self.entries += list.len();
            }
            list.push(idx as u32);
            self.entries += 1;
        }
    }

    /// The sides in `sides` gained funds — `(channel, dir)` is the side of
    /// `channel` that sends in direction `dir` — so every payment parked
    /// on one of them wakes.
    pub(crate) fn credit(&mut self, sides: impl IntoIterator<Item = (ChannelId, Direction)>) {
        if self.entries == 0 {
            return;
        }
        for (channel, dir) in sides {
            let list = &mut self.parked[2 * channel.index() + sender_side(dir)];
            if !list.is_empty() {
                self.entries -= list.len();
                self.woken.extend(list.drain(..).map(|p| p as usize));
            }
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
    /// order and EDF serves as FIFO does; arrival ties break by row.
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
        assert_eq!(fifo, [0, 1, 2, 3]);
        assert_eq!(order(SchedulePolicy::Edf, &payments, &trace), fifo);
        assert_eq!(order(SchedulePolicy::Lifo, &payments, &trace), [3, 1, 2, 0]);
    }

    /// Ties break by trace row, not by payment id: ids need not be unique
    /// or in row order.
    #[test]
    fn ties_break_by_row() {
        let trace = [row(5, 10, 0.0), row(3, 10, 0.0)];
        assert_eq!(order(SchedulePolicy::Srpt, &arrived(2), &trace), [0, 1]);
    }

    /// The order is total for any trace: every permutation of the indices
    /// sorts to one list under each policy — rows sharing an id, an
    /// amount and an arrival included — so sorting a subset gives the
    /// subsequence the whole set's order holds.
    #[test]
    fn any_permutation_sorts_to_one_order() {
        let trace = [
            row(7, 10, 0.0),
            row(7, 10, 0.0),
            row(2, 30, 1.0),
            row(9, 10, 1.0),
            row(2, 5, 2.0),
        ];
        let mut payments = arrived(trace.len());
        payments[2].delivered = Amount::from_whole(20);
        let policies = [
            SchedulePolicy::Srpt,
            SchedulePolicy::Fifo,
            SchedulePolicy::Lifo,
            SchedulePolicy::Edf,
        ];
        for policy in policies {
            let want = order(policy, &payments, &trace);
            // Heap's algorithm over all 120 orders of five indices.
            let mut perm: Vec<usize> = (0..trace.len()).collect();
            let mut c = vec![0; perm.len()];
            let mut i = 0;
            let mut seen = 1;
            while i < perm.len() {
                if c[i] < i {
                    perm.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                    let mut sorted = perm.clone();
                    policy.order(&payments, &trace, WINDOW, &mut sorted);
                    assert_eq!(sorted, want, "{policy:?} from {perm:?}");
                    seen += 1;
                    c[i] += 1;
                    i = 0;
                } else {
                    c[i] = 0;
                    i += 1;
                }
            }
            assert_eq!(seen, 120);
            let subset: Vec<usize> = want.iter().copied().filter(|&i| i != 1).collect();
            let mut sorted = vec![4, 3, 2, 0];
            policy.order(&payments, &trace, WINDOW, &mut sorted);
            assert_eq!(sorted, subset, "{policy:?} on a subset");
        }
    }

    #[test]
    fn names() {
        assert_eq!(SchedulePolicy::default().name(), "srpt");
        assert_eq!(SchedulePolicy::Edf.name(), "edf");
    }
}
