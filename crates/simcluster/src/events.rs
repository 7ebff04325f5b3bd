//! A deterministic discrete-event queue.
//!
//! Events are totally ordered by `(time, sequence)` — the sequence
//! number breaks ties in insertion order, so two runs with the same
//! inputs pop events in exactly the same order regardless of heap
//! internals. Determinism is a hard requirement: every figure in
//! `EXPERIMENTS.md` must be bit-reproducible from a seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use asyncmr_model::SimTime;

/// A time-ordered queue of simulation events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// Ordering is on (time, seq) only; the payload is irrelevant.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `event` at absolute time `at`; returns its event id
    /// (monotone in push order — the `(time, event_id)` tie-breaker).
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
        seq
    }

    /// Removes and returns the earliest event (FIFO among equal times)
    /// with its event id, for event traces.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.seq, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1, "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2, "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 10u32);
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().2, 1);
        q.push(SimTime::from_secs(5), 5);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 5);
        assert_eq!(q.pop().unwrap().2, 10);
    }
}
