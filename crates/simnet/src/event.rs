//! The discrete-event engine.
//!
//! A minimal, deterministic discrete-event queue: events are `(time, seq,
//! payload)` triples ordered by time with a monotonically increasing sequence
//! number breaking ties, so two runs over the same inputs always pop events
//! in the same order.  The higher layers (the Three-Chains cluster simulation
//! in `tc-core::sim`) define what the payload means.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`.  Scheduling in the past is
    /// clamped to "now" (the event fires immediately but after already-queued
    /// events at the current timestamp).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let time = if at < self.now { self.now } else { at };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Schedule `event` after a delay relative to the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        self.processed += 1;
        Some((s.time, s.event))
    }

    /// Drive the queue until it drains or `max_events` have been processed.
    /// The handler may schedule further events through the queue reference it
    /// receives.  Returns the number of events processed by this call.
    pub fn run<F>(&mut self, max_events: u64, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        let mut count = 0u64;
        while count < max_events {
            let Some((time, event)) = self.pop() else {
                break;
            };
            handler(self, time, event);
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order_with_fifo_ties() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.schedule_at(SimTime(50), "b");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(50), "c"); // same time as "b", scheduled later
        q.schedule_at(SimTime(5), "first");

        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "a", "b", "c"]);
        assert_eq!(q.now(), SimTime(50));
        assert_eq!(q.processed(), 4);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime(100), 1);
        q.pop();
        assert_eq!(q.now(), SimTime(100));
        q.schedule_at(SimTime(10), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime(100), "past event fires at current time");
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime(1_000), 1);
        q.pop();
        q.schedule_after(SimDuration::from_nanos(500), 2);
        assert_eq!(q.pop(), Some((SimTime(1_500), 2)));
    }

    #[test]
    fn run_drives_cascading_events() {
        // Each event n < 5 schedules n+1 100ns later.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime(0), 0);
        let mut seen = Vec::new();
        q.run(1_000, |q, _t, n| {
            seen.push(n);
            if n < 5 {
                q.schedule_after(SimDuration::from_nanos(100), n + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime(500));
        assert!(q.is_empty());
    }

    #[test]
    fn run_respects_max_events() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(SimTime(i), i as u32);
        }
        let n = q.run(3, |_q, _t, _e| {});
        assert_eq!(n, 3);
        assert_eq!(q.len(), 7);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let build = || {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..100u64 {
                q.schedule_at(SimTime(i % 7), i);
            }
            let mut order = Vec::new();
            while let Some((_, e)) = q.pop() {
                order.push(e);
            }
            order
        };
        assert_eq!(build(), build());
    }
}
