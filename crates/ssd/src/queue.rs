//! Submission-queue depth modelling.
//!
//! NVMe exposes deep queues, but they are finite: when the paper's ISC-A
//! floods the device with one CoW command per journal entry, commands
//! serialize behind the queue. [`CommandQueue`] models this: a command may
//! start only when a slot is free; otherwise it waits for the earliest
//! completion.

use checkin_sim::{EventQueue, SimTime, TraceEvent, TraceLayer, Tracer};

/// A fixed-depth in-flight command window.
///
/// # Examples
///
/// ```
/// use checkin_ssd::CommandQueue;
/// use checkin_sim::SimTime;
///
/// let mut q = CommandQueue::new(1);
/// let t0 = q.admit(SimTime::ZERO);
/// q.complete(SimTime::from_nanos(100));
/// // Depth 1: the next command cannot start before the first completes.
/// let t1 = q.admit(SimTime::ZERO);
/// assert_eq!((t0.as_nanos(), t1.as_nanos()), (0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct CommandQueue {
    depth: usize,
    /// Completion times, ordered by the same event queue the simulator's
    /// event loop uses. Valid because completions are never registered
    /// earlier than the latest one already retired: `done >= start >= at`,
    /// and admission retires only completions `<= at`. Admission keeps at
    /// most `depth` completions pending, the size the queue is built with.
    inflight: EventQueue<()>,
    tracer: Tracer,
}

impl CommandQueue {
    /// Creates a queue admitting up to `depth` concurrent commands.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        CommandQueue {
            depth,
            inflight: EventQueue::with_capacity(depth),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a trace sink; each admission then records its queue wait
    /// and the in-flight depth at start.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Earliest instant a command arriving at `at` may start. Call
    /// [`CommandQueue::complete`] with its completion time afterwards.
    pub fn admit(&mut self, at: SimTime) -> SimTime {
        while let Some(t) = self.inflight.peek_time() {
            if t <= at {
                self.inflight.pop();
            } else {
                break;
            }
        }
        let start = if self.inflight.len() < self.depth {
            at
        } else if let Some((t, ())) = self.inflight.pop() {
            t.max(at)
        } else {
            // depth == 0 with nothing in flight: admit immediately.
            at
        };
        let depth_now = self.inflight.len() as u64;
        self.tracer.emit(|| {
            TraceEvent::new(start, TraceLayer::Queue, "admit")
                .with("wait_ns", start.duration_since(at).as_nanos())
                .with("inflight", depth_now)
        });
        start
    }

    /// Registers the completion time of an admitted command.
    pub fn complete(&mut self, done: SimTime) {
        self.inflight.schedule(done, ());
    }

    /// Commands currently tracked as in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkin_sim::{SimDuration, SimRng};

    #[test]
    fn admits_up_to_depth_immediately() {
        let mut q = CommandQueue::new(4);
        for _ in 0..4 {
            assert_eq!(q.admit(SimTime::ZERO), SimTime::ZERO);
            q.complete(SimTime::from_nanos(1_000));
        }
        // Fifth command waits for a completion slot.
        assert_eq!(q.admit(SimTime::ZERO), SimTime::from_nanos(1_000));
    }

    #[test]
    fn expired_completions_free_slots() {
        let mut q = CommandQueue::new(1);
        q.admit(SimTime::ZERO);
        q.complete(SimTime::from_nanos(10));
        // Arriving after completion: starts immediately.
        assert_eq!(q.admit(SimTime::from_nanos(20)), SimTime::from_nanos(20));
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn serializes_burst_beyond_depth() {
        let mut q = CommandQueue::new(2);
        let mut starts = Vec::new();
        for i in 0..6u64 {
            let s = q.admit(SimTime::ZERO);
            starts.push(s.as_nanos());
            q.complete(s + SimDuration::from_nanos(100 * (i + 1)));
        }
        assert_eq!(starts[0], 0);
        assert_eq!(starts[1], 0);
        assert!(starts[2] > 0, "third command queued: {starts:?}");
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn in_flight_never_exceeds_depth() {
        for depth in [1usize, 4, 32] {
            for seed in 0..8u64 {
                let mut rng = SimRng::seed_from(seed);
                let mut q = CommandQueue::new(depth);
                let mut at = SimTime::ZERO;
                for step in 0..2_000 {
                    // Half the arrivals share a tick, so bursts overfill
                    // the window; the rest arrive after a random gap.
                    if rng.gen_bool(0.5) {
                        at += SimDuration::from_nanos(rng.gen_range(2_000));
                    }
                    let start = q.admit(at);
                    let service = 1 + rng.gen_range(10_000);
                    q.complete(start + SimDuration::from_nanos(service));
                    assert!(
                        q.in_flight() <= q.depth(),
                        "depth {depth} seed {seed} step {step}: {} in flight",
                        q.in_flight()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        CommandQueue::new(0);
    }
}
