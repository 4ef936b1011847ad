//! Measurement utilities: counters and latency histograms.

mod latency;

pub use latency::LatencyRecorder;

use std::fmt;

/// A named bag of monotonically increasing counters.
///
/// The simulator's subsystems (flash, FTL, engine) each expose one of these;
/// experiment harnesses diff snapshots taken before/after a phase.
///
/// Counters sit on every hot path (each simulated flash, FTL, device and
/// engine operation bumps a few), so the store is a flat vector scanned by
/// *pointer* identity first: keys are `&'static str` literals, and a given
/// call site passes the same literal — hence the same address — every time.
/// A pointer hit costs a couple of comparisons instead of the string
/// comparisons a `BTreeMap<&str, _>` walk performs. Distinct literals with
/// equal text (e.g. a test querying a counter the FTL bumps) fall back to a
/// content scan, so behaviour matches a name-keyed map exactly; iteration
/// sorts by name so dumps and diffs are byte-identical to the old layout.
///
/// # Examples
///
/// ```
/// use checkin_sim::CounterSet;
///
/// let mut c = CounterSet::new();
/// c.add("flash.program", 3);
/// c.incr("flash.program");
/// assert_eq!(c.get("flash.program"), 4);
/// assert_eq!(c.get("flash.erase"), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CounterSet {
    /// `(key, value)` in first-touch order; names are unique by content.
    entries: Vec<(&'static str, u64)>,
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `key`, creating it at zero if absent.
    pub fn add(&mut self, key: &'static str, n: u64) {
        // Fast path: same literal, same address.
        for e in &mut self.entries {
            if std::ptr::eq(e.0, key) {
                e.1 += n;
                return;
            }
        }
        self.add_slow(key, n);
    }

    /// Content-equality fallback for a key literal whose address was not
    /// seen before (first touch, or the same name from another call site).
    #[cold]
    fn add_slow(&mut self, key: &'static str, n: u64) {
        for e in &mut self.entries {
            if e.0 == key {
                e.1 += n;
                return;
            }
        }
        self.entries.push((key, n));
    }

    /// Adds one to counter `key`.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of `key` (zero if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.entries
            .iter()
            .find(|e| e.0 == key)
            .map(|e| e.1)
            .unwrap_or(0)
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut sorted: Vec<(&'static str, u64)> = self.entries.clone();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        sorted.into_iter()
    }

    /// Computes `self - earlier` per key (keys absent earlier count from 0).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter decreased, which would indicate
    /// a bookkeeping bug (counters are monotone).
    pub fn delta_since(&self, earlier: &CounterSet) -> CounterSet {
        let mut out = CounterSet::new();
        for (k, v) in self.iter() {
            let before = earlier.get(k);
            debug_assert!(v >= before, "counter {k} decreased: {before} -> {v}");
            let d = v.saturating_sub(before);
            if d > 0 {
                out.add(k, d);
            }
        }
        out
    }

    /// Merges another set into this one by summing matching keys.
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// True when no counters exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl PartialEq for CounterSet {
    fn eq(&self, other: &Self) -> bool {
        // Content equality regardless of first-touch order.
        self.entries.len() == other.entries.len() && self.iter().eq(other.iter())
    }
}

impl Eq for CounterSet {}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return write!(f, "(no counters)");
        }
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = CounterSet::new();
        c.add("a", 5);
        c.incr("a");
        assert_eq!(c.get("a"), 6);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn delta_since_snapshot() {
        let mut c = CounterSet::new();
        c.add("x", 10);
        let snap = c.clone();
        c.add("x", 7);
        c.add("y", 2);
        let d = c.delta_since(&snap);
        assert_eq!(d.get("x"), 7);
        assert_eq!(d.get("y"), 2);
    }

    #[test]
    fn merge_sums() {
        let mut a = CounterSet::new();
        a.add("k", 1);
        let mut b = CounterSet::new();
        b.add("k", 2);
        b.add("j", 3);
        a.merge(&b);
        assert_eq!(a.get("k"), 3);
        assert_eq!(a.get("j"), 3);
    }

    #[test]
    fn display_lists_counters() {
        let mut c = CounterSet::new();
        assert_eq!(c.to_string(), "(no counters)");
        c.add("z", 1);
        c.add("a", 2);
        let s = c.to_string();
        assert!(s.starts_with("a = 2"), "sorted by key: {s}");
    }

    #[test]
    fn iter_is_sorted() {
        let mut c = CounterSet::new();
        c.add("b", 1);
        c.add("a", 1);
        let keys: Vec<_> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
