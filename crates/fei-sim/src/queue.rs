//! A stable timestamped event queue.
//!
//! Ties in simulated time are broken by insertion order (FIFO), which keeps
//! event delivery deterministic — two events scheduled for the same instant
//! are always delivered in the order they were scheduled.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event queue ordered by `(time, insertion sequence)`.
///
/// # Example
///
/// ```
/// use fei_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(3), "late");
/// q.push(SimTime::from_millis(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<Ev> {
    heap: BinaryHeap<Entry<Ev>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<Ev> {
    time: SimTime,
    seq: u64,
    event: Ev,
}

impl<Ev> PartialEq for Entry<Ev> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<Ev> Eq for Entry<Ev> {}

impl<Ev> PartialOrd for Entry<Ev> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<Ev> Ord for Entry<Ev> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<Ev> EventQueue<Ev> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among equal timestamps.
    pub fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

impl<Ev> Default for EventQueue<Ev> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 5);
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1_000);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn default_is_empty() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 'b');
        q.push(SimTime::from_millis(5), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_millis(7), 'c');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'b');
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;
    use crate::time::SimDuration;

    proptest! {
        /// Popping everything yields a sequence sorted by time, with equal
        /// timestamps preserving insertion order.
        #[test]
        fn pop_order_is_stable_sort(times in proptest::collection::vec(0u64..50, 1..128)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::ZERO + SimDuration::from_nanos(t), i);
            }
            let mut popped = Vec::new();
            while let Some((t, idx)) = q.pop() {
                popped.push((t, idx));
            }
            let mut expected: Vec<(SimTime, usize)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (SimTime::ZERO + SimDuration::from_nanos(t), i))
                .collect();
            expected.sort_by_key(|&(t, i)| (t, i));
            prop_assert_eq!(popped, expected);
        }
    }
}
