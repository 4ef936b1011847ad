//! A deterministic future-event list.
//!
//! [`EventQueue`] is a binary min-heap keyed on `(time, sequence)`: events
//! pop in time order, and same-tick events pop in insertion order, so
//! simulations stay reproducible. The populations it serves are small and
//! known upfront — a closed loop holds at most `threads + 1` sim events,
//! a command queue at most its depth of completions — so
//! [`EventQueue::with_capacity`] sizes the heap once and the steady-state
//! loop does no heap traffic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event. Ordered on `(time, seq)` only, reversed so the
/// standard max-heap pops the earliest event first.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// Future-event list ordered by time, with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use checkin_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "later");
/// q.schedule(SimTime::from_nanos(10), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), e), (10, "sooner"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Insertion counter: the FIFO tie-break among same-tick events.
    next_seq: u64,
    /// No event may be scheduled before this instant.
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `n` concurrent events (closed
    /// loops know their population upfront).
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at absolute instant `time`.
    ///
    /// Scheduling into the past (before the last popped event) is a logic
    /// error in the simulation; it is clamped forward to preserve causal
    /// ordering and flagged with a debug assertion.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        debug_assert!(
            time >= self.last_popped,
            "event scheduled in the past: {time} < {}",
            self.last_popped
        );
        let time = time.max(self.last_popped);
        self.heap.push(Entry {
            time,
            seq: self.next_seq,
            payload,
        });
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { time, payload, .. } = self.heap.pop()?;
        self.last_popped = time;
        Some((time, payload))
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
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
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_sees_coarse_bucket_minimum() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos((1 << 30) + 500), "late");
        q.schedule(SimTime::from_nanos((1 << 30) + 2), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos((1 << 30) + 2)));
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), e), ((1 << 30) + 2, "early"));
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn far_horizon_times_order_correctly() {
        let mut q = EventQueue::new();
        let times = [
            u64::MAX,
            1,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) + 1,
            0,
            1 << 35,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_nanos())).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // Closed-loop shape: pop one, reschedule it later, repeatedly.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.schedule(SimTime::from_nanos(i * 100), i);
        }
        let mut last = 0u64;
        for step in 0..1_000u64 {
            let (t, e) = q.pop().unwrap();
            assert!(t.as_nanos() >= last, "time went backwards at step {step}");
            last = t.as_nanos();
            q.schedule(t + crate::SimDuration::from_nanos(250 + (e * 37) % 500), e);
        }
        assert_eq!(q.len(), 8);
    }
}
