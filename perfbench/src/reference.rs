//! A fixed reference workload, timed next to every host-clock sample.
//!
//! On a shared host the simulator's wall time drifts with other tenants'
//! load: identical runs of one seed were measured 1.1 to 1.9 µs per query
//! minutes apart, with the slow and fast phases lasting minutes, so the
//! median of a 30-second run moved by up to 1.7x. The reference does the
//! same kinds of host work as the simulator (hashed and ordered map
//! lookups and updates over a working set larger than the L2 cache, small
//! allocations) and never changes, so it slows down with the host while
//! the simulator's code changes. The benchmark reports host times scaled
//! by `NOMINAL / reference time`: seconds at the reference's nominal
//! speed.
//!
//! Changing this workload or `NOMINAL` changes every host-clock metric;
//! it is a benchmark change, never part of a change that claims a gain.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference's time on the development host (Intel Xeon, 2 vCPUs,
/// KVM) in a quiet phase.
pub const NOMINAL: Duration = Duration::from_millis(50);

const OPS: u64 = 300_000;
const KEYS: u64 = 200_000;

/// Runs the reference workload once and returns its wall time.
pub fn time() -> Duration {
    let start = Instant::now();
    black_box(workload(OPS, KEYS));
    start.elapsed()
}

/// `sample` scaled to the reference's nominal speed, given the reference
/// time measured next to it.
pub fn normalize(sample: Duration, reference: Duration) -> f64 {
    sample.as_secs_f64() * NOMINAL.as_secs_f64() / reference.as_secs_f64()
}

/// Deterministic mix of map operations over `keys` keys: inserts of small
/// heap values, hashed lookups, ordered inserts and range lookups.
fn workload(ops: u64, keys: u64) -> u64 {
    let mut hashed: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % keys;
        match x % 4 {
            0 => {
                hashed.insert(key, vec![i as u8; (x % 64) as usize + 8]);
            }
            1 => acc += hashed.get(&key).map_or(0, |v| v.len() as u64),
            2 => {
                ordered.insert(key, i);
            }
            _ => acc += ordered.range(key..).next().map_or(0, |(_, v)| *v),
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(10_000, 1_000), workload(10_000, 1_000));
    }

    #[test]
    fn normalize_scales_by_the_reference() {
        let s = normalize(Duration::from_millis(10), NOMINAL * 2);
        assert!((s - 0.005).abs() < 1e-12);
    }
}
