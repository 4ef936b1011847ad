//! Busy-until resource timelines.
//!
//! Device-internal contention (a flash die, a PCIe link, a firmware CPU) is
//! modelled by [`Resource`]: a FIFO server that is busy until some instant.
//! Scheduling an operation returns the `(start, finish)` window it occupies,
//! which is exact for FIFO service because the surrounding simulation
//! processes events in non-decreasing time order.

use crate::time::{SimDuration, SimTime};

/// A single FIFO server with busy-time accounting.
///
/// # Examples
///
/// ```
/// use checkin_sim::{Resource, SimTime, SimDuration};
///
/// let mut link = Resource::new("pcie");
/// let w1 = link.schedule(SimTime::ZERO, SimDuration::from_micros(5));
/// let w2 = link.schedule(SimTime::ZERO, SimDuration::from_micros(5));
/// assert_eq!(w1.finish, w2.start); // second transfer queues behind the first
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: &'static str,
    busy_until: SimTime,
    busy_time: SimDuration,
    ops: u64,
}

/// The time window an operation occupies on a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// When service begins (>= request time).
    pub start: SimTime,
    /// When service completes.
    pub finish: SimTime,
}

impl Window {
    /// Queueing delay plus service time as seen by the requester.
    pub fn latency_from(&self, requested_at: SimTime) -> SimDuration {
        self.finish.saturating_duration_since(requested_at)
    }
}

impl Resource {
    /// Creates an idle resource. `name` appears in debug output only.
    pub fn new(name: &'static str) -> Self {
        Resource {
            name,
            busy_until: SimTime::ZERO,
            busy_time: SimDuration::ZERO,
            ops: 0,
        }
    }

    /// Reserves the resource for `duration` starting no earlier than `at`,
    /// queuing FIFO behind outstanding work. Returns the occupied window.
    pub fn schedule(&mut self, at: SimTime, duration: SimDuration) -> Window {
        let start = at.max(self.busy_until);
        let finish = start + duration;
        self.busy_until = finish;
        self.busy_time += duration;
        self.ops += 1;
        Window { start, finish }
    }

    /// Earliest instant at which new work could begin.
    pub fn available_at(&self) -> SimTime {
        self.busy_until
    }

    /// Total time spent serving operations.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of operations served.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Debug label.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A pool of identical FIFO servers; work goes to the earliest-free one.
///
/// Models k-wide parallelism such as independent flash channels when
/// channel identity does not matter, or an NVMe queue-pair pool.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    servers: Vec<Resource>,
    /// Min-heap of `(available_at, index)` with exactly one entry per
    /// server, always current. Selection is the lexicographic minimum —
    /// identical to a first-minimum linear scan, without the O(n) walk
    /// per schedule.
    ready: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
}

impl ResourcePool {
    /// Creates `n` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(name: &'static str, n: usize) -> Self {
        assert!(n > 0, "resource pool must have at least one server");
        ResourcePool {
            servers: (0..n).map(|_| Resource::new(name)).collect(),
            ready: (0..n)
                .map(|i| std::cmp::Reverse((SimTime::ZERO, i)))
                .collect(),
        }
    }

    /// Schedules on the earliest-available server; returns (server index,
    /// window). Ties pick the lowest server index.
    pub fn schedule(&mut self, at: SimTime, duration: SimDuration) -> (usize, Window) {
        let std::cmp::Reverse((_, idx)) = self.ready.pop().expect("pool is non-empty");
        let win = self.servers[idx].schedule(at, duration);
        self.ready
            .push(std::cmp::Reverse((self.servers[idx].available_at(), idx)));
        (idx, win)
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Always false: pools are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total busy time across servers.
    pub fn busy_time(&self) -> SimDuration {
        self.servers.iter().map(Resource::busy_time).sum()
    }

    /// Total operations served across servers.
    pub fn ops(&self) -> u64 {
        self.servers.iter().map(Resource::ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serialization() {
        let mut r = Resource::new("die");
        let w1 = r.schedule(SimTime::from_nanos(0), SimDuration::from_nanos(100));
        let w2 = r.schedule(SimTime::from_nanos(10), SimDuration::from_nanos(50));
        assert_eq!(w1.start, SimTime::from_nanos(0));
        assert_eq!(w1.finish, SimTime::from_nanos(100));
        assert_eq!(w2.start, SimTime::from_nanos(100));
        assert_eq!(w2.finish, SimTime::from_nanos(150));
    }

    #[test]
    fn idle_gap_is_not_worked() {
        let mut r = Resource::new("die");
        r.schedule(SimTime::from_nanos(0), SimDuration::from_nanos(10));
        let w = r.schedule(SimTime::from_nanos(100), SimDuration::from_nanos(10));
        assert_eq!(w.start, SimTime::from_nanos(100));
        assert_eq!(r.busy_time(), SimDuration::from_nanos(20));
        assert_eq!(r.ops(), 2);
    }

    #[test]
    fn window_latency_includes_queueing() {
        let mut r = Resource::new("link");
        r.schedule(SimTime::ZERO, SimDuration::from_nanos(100));
        let w = r.schedule(SimTime::from_nanos(20), SimDuration::from_nanos(30));
        assert_eq!(
            w.latency_from(SimTime::from_nanos(20)),
            SimDuration::from_nanos(110)
        );
    }

    #[test]
    fn pool_balances_to_earliest_free() {
        let mut p = ResourcePool::new("chan", 2);
        let (i1, _) = p.schedule(SimTime::ZERO, SimDuration::from_nanos(100));
        let (i2, w2) = p.schedule(SimTime::ZERO, SimDuration::from_nanos(100));
        assert_ne!(i1, i2);
        assert_eq!(w2.start, SimTime::ZERO); // second server was free
        let (_, w3) = p.schedule(SimTime::ZERO, SimDuration::from_nanos(10));
        assert_eq!(w3.start, SimTime::from_nanos(100)); // both busy now
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        let _ = ResourcePool::new("x", 0);
    }
}
