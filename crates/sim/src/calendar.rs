//! The pending-event set.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: fire time plus a tie-breaking sequence number.
#[derive(Debug)]
struct Entry<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        // Times are finite by construction (asserted on push), so IEEE
        // total order agrees with the numeric order.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue of future events.
///
/// Events with equal times pop in the order they were pushed (FIFO), which
/// keeps simulations deterministic regardless of heap internals.
#[derive(Debug)]
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence number of the next push, which is also the lifetime push
    /// count.
    next_seq: u64,
    popped: u64,
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub fn new() -> Calendar<E> {
        Calendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
        }
    }

    /// Schedules a payload at an absolute time.
    ///
    /// Panics on non-finite times (NaN would corrupt heap ordering).
    pub fn push(&mut self, time: f64, payload: E) {
        assert!(time.is_finite(), "event time must be finite");
        self.heap.push(Entry {
            time,
            seq: self.next_seq,
            payload,
        });
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let e = self.heap.pop()?;
        self.popped += 1;
        Some((e.time, e.payload))
    }

    /// The fire time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Lifetime counters `(pushed, popped)` — cheap sanity probes for tests
    /// and progress reporting.
    pub fn counters(&self) -> (u64, u64) {
        (self.next_seq, self.popped)
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut c = Calendar::new();
        c.push(3.0, "c");
        c.push(1.0, "a");
        c.push(2.0, "b");
        assert_eq!(c.pop(), Some((1.0, "a")));
        assert_eq!(c.pop(), Some((2.0, "b")));
        assert_eq!(c.pop(), Some((3.0, "c")));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut c = Calendar::new();
        for i in 0..100 {
            c.push(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(c.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut c = Calendar::new();
        c.push(10.0, 10);
        c.push(1.0, 1);
        assert_eq!(c.pop(), Some((1.0, 1)));
        c.push(5.0, 5);
        c.push(0.5, 0); // earlier than anything pending
        assert_eq!(c.pop(), Some((0.5, 0)));
        assert_eq!(c.pop(), Some((5.0, 5)));
        assert_eq!(c.pop(), Some((10.0, 10)));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut c = Calendar::new();
        c.push(2.0, ());
        assert_eq!(c.peek_time(), Some(2.0));
        assert_eq!(c.len(), 1);
        c.pop();
        assert_eq!(c.peek_time(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn counters_track_throughput() {
        let mut c = Calendar::new();
        c.push(1.0, ());
        c.push(2.0, ());
        c.pop();
        assert_eq!(c.counters(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut c = Calendar::new();
        c.push(f64::NAN, ());
    }
}
