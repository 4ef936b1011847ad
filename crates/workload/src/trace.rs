//! Operation traces: record a generator's stream once, replay it exactly.
//!
//! Useful for regression experiments ("same trace, different device
//! configuration") and for exporting workloads to other tools. A trace is
//! just the materialised operation sequence; replay is a cursor.

use crate::ycsb::{OpGenerator, Operation};

/// A recorded operation sequence.
///
/// # Examples
///
/// ```
/// use checkin_workload::{OpTrace, WorkloadSpec};
///
/// let spec = WorkloadSpec::paper_default();
/// let trace = OpTrace::record(&mut spec.generator(), 100);
/// assert_eq!(trace.len(), 100);
/// let again = OpTrace::record(&mut spec.generator(), 100);
/// assert_eq!(trace, again); // same seed, same trace
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpTrace {
    ops: Vec<Operation>,
}

impl OpTrace {
    /// Materialises `n` operations from a generator.
    pub fn record(generator: &mut OpGenerator, n: usize) -> Self {
        OpTrace {
            ops: (0..n).map(|_| generator.next_op()).collect(),
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded operations.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Iterates the operations.
    pub fn iter(&self) -> impl Iterator<Item = &Operation> + '_ {
        self.ops.iter()
    }

    /// Fraction of operations that write.
    pub fn write_fraction(&self) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.ops.iter().filter(|o| o.is_write()).count() as f64 / self.ops.len() as f64
    }

    /// Distinct keys touched.
    pub fn distinct_keys(&self) -> usize {
        let mut keys: Vec<u64> = self.ops.iter().map(Operation::key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Splits the trace round-robin into `n` per-thread traces, matching
    /// how a closed-loop client pool would interleave it.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split_round_robin(&self, n: usize) -> Vec<OpTrace> {
        assert!(n > 0, "cannot split into zero traces");
        let mut out = vec![OpTrace::default(); n];
        for (i, op) in self.ops.iter().enumerate() {
            out[i % n].ops.push(*op);
        }
        out
    }

    /// A replay cursor over the trace.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            ops: &self.ops,
            next: 0,
        }
    }
}

/// Sequential replay over a recorded trace.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    ops: &'a [Operation],
    next: usize,
}

impl TraceCursor<'_> {
    /// Next operation, or `None` at the end of the trace.
    pub fn next_op(&mut self) -> Option<Operation> {
        let op = self.ops.get(self.next).copied();
        if op.is_some() {
            self.next += 1;
        }
        op
    }

    /// Operations remaining.
    pub fn remaining(&self) -> usize {
        self.ops.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPattern, OpMix, RecordSizes, WorkloadSpec};

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            mix: OpMix::A,
            pattern: AccessPattern::Zipfian,
            record_count: 500,
            sizes: RecordSizes::fixed(256),
            seed: 42,
        }
    }

    #[test]
    fn record_is_deterministic() {
        let a = OpTrace::record(&mut spec().generator(), 250);
        let b = OpTrace::record(&mut spec().generator(), 250);
        assert_eq!(a, b);
        assert_eq!(a.len(), 250);
    }

    #[test]
    fn write_fraction_tracks_mix() {
        let t = OpTrace::record(&mut spec().generator(), 5_000);
        let f = t.write_fraction();
        assert!((0.45..0.55).contains(&f), "workload A ~50% writes, got {f}");
        assert_eq!(OpTrace::default().write_fraction(), 0.0);
    }

    #[test]
    fn zipfian_touches_fewer_distinct_keys_than_uniform() {
        let zipf = OpTrace::record(&mut spec().generator(), 2_000);
        let mut uni_spec = spec();
        uni_spec.pattern = AccessPattern::Uniform;
        let uni = OpTrace::record(&mut uni_spec.generator(), 2_000);
        assert!(zipf.distinct_keys() < uni.distinct_keys());
    }

    #[test]
    fn cursor_replays_in_order() {
        let t = OpTrace::record(&mut spec().generator(), 10);
        let mut c = t.cursor();
        for want in t.iter() {
            assert_eq!(c.next_op().as_ref(), Some(want));
        }
        assert_eq!(c.next_op(), None);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn round_robin_split_preserves_everything() {
        let t = OpTrace::record(&mut spec().generator(), 101);
        let parts = t.split_round_robin(4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(OpTrace::len).sum();
        assert_eq!(total, 101);
        // First thread gets ops 0, 4, 8, ...
        assert_eq!(parts[0].ops()[0], t.ops()[0]);
        assert_eq!(parts[1].ops()[0], t.ops()[1]);
        assert_eq!(parts[0].ops()[1], t.ops()[4]);
    }

    #[test]
    #[should_panic(expected = "zero traces")]
    fn zero_way_split_panics() {
        OpTrace::default().split_round_robin(0);
    }
}
