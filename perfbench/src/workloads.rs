//! The benchmark's named workloads. Names are stable: results cite them.

use checkin_core::{Strategy, SystemConfig};
use checkin_workload::{AccessPattern, OpMix};

/// Queries per measured run, identical for every workload. Long enough
/// that `waf` on `wo-uniform-gc` has levelled off and that p99.99 has
/// 100 samples beyond it.
pub const QUERIES: u64 = 1_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Check-In, YCSB-A, zipfian, 20 000 records, paper-default device.
    YcsbAZipf,
    /// Check-In, write-only, uniform, 3 000 records, GC-pressured device.
    WoUniformGc,
    /// `YcsbAZipf`'s inputs under the Baseline strategy.
    BaselineYcsbA,
}

impl Workload {
    /// Every workload, in the order results list them.
    pub const ALL: [Workload; 3] = [
        Workload::YcsbAZipf,
        Workload::WoUniformGc,
        Workload::BaselineYcsbA,
    ];

    /// Stable name, as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbAZipf => "ycsb-a-zipf",
            Workload::WoUniformGc => "wo-uniform-gc",
            Workload::BaselineYcsbA => "baseline-ycsb-a",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The system configuration this workload runs: a closed loop of 32
    /// simulated YCSB clients at admission batch 1, with `seed` as the
    /// workload seed and `queries` queries after the bulk load.
    pub fn config(self, seed: u64, queries: u64) -> SystemConfig {
        let mut c = match self {
            Workload::YcsbAZipf => SystemConfig::for_strategy(Strategy::CheckIn),
            Workload::BaselineYcsbA => SystemConfig::for_strategy(Strategy::Baseline),
            Workload::WoUniformGc => {
                let mut c = checkin_bench::gc_pressured_config(Strategy::CheckIn);
                c.workload.mix = OpMix::WRITE_ONLY;
                c.workload.pattern = AccessPattern::Uniform;
                c
            }
        };
        if self != Workload::WoUniformGc {
            c.workload.mix = OpMix::A;
            c.workload.pattern = AccessPattern::Zipfian;
            c.workload.record_count = 20_000;
        }
        c.threads = 32;
        c.admission_batch = 1;
        c.total_queries = queries;
        c.workload.seed = seed;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn baseline_shares_inputs_with_ycsb_a() {
        let a = Workload::YcsbAZipf.config(7, 1_000);
        let b = Workload::BaselineYcsbA.config(7, 1_000);
        assert_eq!(a.workload.mix, b.workload.mix);
        assert_eq!(a.workload.pattern, b.workload.pattern);
        assert_eq!(a.workload.record_count, b.workload.record_count);
        assert_eq!(a.workload.seed, b.workload.seed);
        assert_eq!(a.strategy, Strategy::CheckIn);
        assert_eq!(b.strategy, Strategy::Baseline);
    }
}
