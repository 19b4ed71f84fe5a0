//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)` — the sequence number breaks
//! time ties in insertion order, so runs are exactly reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A strictly ordered event timestamp (seconds). NaN is rejected at
/// construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Time(f64);

impl Time {
    /// Wraps a finite timestamp.
    ///
    /// # Panics
    /// Panics on NaN or infinite values.
    pub fn new(t: f64) -> Self {
        assert!(t.is_finite(), "event time must be finite, got {t}");
        Time(t)
    }

    /// The timestamp in seconds.
    pub fn seconds(self) -> f64 {
        self.0
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("Time is always finite")
    }
}

struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour in BinaryHeap.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-ordered event queue with deterministic tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at time `t` (seconds).
    pub fn push(&mut self, t: f64, event: E) {
        let entry = Entry {
            time: Time::new(t),
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        self.heap.push(entry);
    }

    /// Removes and returns the earliest event with its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time.seconds(), e.event))
    }

    /// The `(time, seq)` of the entry [`pop`](Self::pop) would return next,
    /// so a caller can merge another ordered source with this queue.
    pub(crate) fn peek_key(&self) -> Option<(Time, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The sequence number the next [`push`](Self::push) will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every pending entry as `(time, seq, &event)`, sorted by
    /// `(time, seq)` — exactly the order [`pop`](Self::pop) would drain
    /// them. Non-destructive, for checkpointing.
    pub fn entries(&self) -> Vec<(f64, u64, &E)> {
        let mut v: Vec<(f64, u64, &E)> = self
            .heap
            .iter()
            .map(|e| (e.time.seconds(), e.seq, &e.event))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        v
    }

    /// Schedules `event` at `t` with an explicit sequence number, advancing
    /// the internal counter past it. Restore path for
    /// [`entries`](Self::entries): re-pushing captured entries with their
    /// original sequence numbers reproduces the exact drain order.
    pub fn push_with_seq(&mut self, t: f64, seq: u64, event: E) {
        self.heap.push(Entry {
            time: Time::new(t),
            seq,
            event,
        });
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Raises the next-sequence counter to at least `seq` (restore path;
    /// never lowers it, so future pushes cannot collide with restored
    /// entries).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        q.push(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(5.0, ());
        q.push(2.0, ());
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        q.push(4.0, 4);
        assert_eq!(q.pop(), Some((1.0, 1)));
        q.push(2.0, 2);
        q.push(3.0, 3);
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert_eq!(q.pop(), Some((4.0, 4)));
    }
}
