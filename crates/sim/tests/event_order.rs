//! Property test: [`EventQueue`] dequeues the exact `(time, event)` stream
//! of an oracle that shares no logic with a heap — a `Vec` kept sorted by
//! insertion — under randomized seeded schedule/peek/pop interleavings,
//! including same-tick bursts and times at the far end of the `u64`
//! horizon.

use checkin_sim::{EventQueue, SimRng, SimTime};

/// Reference model: pending events in a `Vec` sorted by time. A new event
/// goes after every event at or before its time, so same-tick events keep
/// insertion order; popping takes the front.
#[derive(Default)]
struct SortedVec {
    events: Vec<(u64, u32)>,
    last_popped: u64,
}

impl SortedVec {
    fn schedule(&mut self, time: u64, payload: u32) {
        let time = time.max(self.last_popped);
        let at = self.events.partition_point(|&(t, _)| t <= time);
        self.events.insert(at, (time, payload));
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.events.is_empty() {
            return None;
        }
        let (t, e) = self.events.remove(0);
        self.last_popped = t;
        Some((t, e))
    }

    fn peek_time(&self) -> Option<u64> {
        self.events.first().map(|&(t, _)| t)
    }
}

/// Draws a schedule offset from a mixture of same-tick ties, short
/// closed-loop hops, mid-range and deep jumps, and rare far-horizon
/// outliers.
fn draw_offset(rng: &mut SimRng) -> u64 {
    match rng.gen_range(100) {
        0..=19 => 0,
        20..=69 => rng.gen_range(1 << 12),
        70..=89 => rng.gen_range(1 << 28),
        90..=97 => rng.gen_range(1 << 44),
        _ => (u64::MAX >> 1) + rng.gen_range(1 << 40),
    }
}

fn run_interleaving(seed: u64, steps: u32) {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut oracle = SortedVec::default();
    let mut rng = SimRng::seed_from(seed);
    let mut payload = 0u32;

    for step in 0..steps {
        // Bias toward scheduling so the population grows, then churns.
        let schedule = queue.is_empty() || rng.gen_bool(0.55);
        if schedule {
            // Bursts land several events on one tick to stress FIFO ties.
            let burst = 1 + rng.gen_range(4) as u32;
            let t = oracle.last_popped.saturating_add(draw_offset(&mut rng));
            for _ in 0..burst {
                queue.schedule(SimTime::from_nanos(t), payload);
                oracle.schedule(t, payload);
                payload += 1;
            }
        } else {
            assert_eq!(
                queue.peek_time().map(|t| t.as_nanos()),
                oracle.peek_time(),
                "peek diverged at seed {seed} step {step}"
            );
            let got = queue.pop().map(|(t, e)| (t.as_nanos(), e));
            let want = oracle.pop();
            assert_eq!(got, want, "pop diverged at seed {seed} step {step}");
        }
        assert_eq!(queue.len(), oracle.events.len());
    }

    // Drain: the tails must match element for element.
    while let Some(want) = oracle.pop() {
        let got = queue.pop().map(|(t, e)| (t.as_nanos(), e));
        assert_eq!(got, Some(want), "drain diverged at seed {seed}");
    }
    assert!(queue.is_empty());
    assert!(queue.pop().is_none());
}

#[test]
fn queue_matches_sorted_oracle_across_seeds() {
    for seed in 0..32u64 {
        run_interleaving(0xC0FFEE ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 2_000);
    }
}

#[test]
fn queue_matches_sorted_oracle_long_run() {
    run_interleaving(42, 40_000);
}

#[test]
fn same_tick_burst_pops_in_insertion_order() {
    let mut queue = EventQueue::new();
    let mut oracle = SortedVec::default();
    // Two waves on the same far-future tick, interleaved with pops, so
    // ties must hold across partial drains.
    let t = (1u64 << 50) + 12345;
    for i in 0..50u32 {
        queue.schedule(SimTime::from_nanos(t), i);
        oracle.schedule(t, i);
    }
    for _ in 0..20 {
        assert_eq!(queue.pop().map(|(tt, e)| (tt.as_nanos(), e)), oracle.pop());
    }
    for i in 50..80u32 {
        queue.schedule(SimTime::from_nanos(t), i);
        oracle.schedule(t, i);
    }
    while let Some(want) = oracle.pop() {
        assert_eq!(queue.pop().map(|(tt, e)| (tt.as_nanos(), e)), Some(want));
    }
}
