//! Strided every-tick power-cut coverage on the shared fault-lab driver.
//!
//! `crashmatrix` samples about eight cut ticks per workload; this test
//! profiles one workload per strategy and cuts power at every
//! [`STRIDE`]-th fault-clock tick of it, recovering and verifying each
//! cut against the shadow model. A sabotaged variant drops the
//! capacitor-backed write buffer before recovery and must see losses,
//! so the sweep is shown to be able to fail.

use checkin_bench::faultlab::{drive, ftl_config, profile, Verdict, RECORDS};
use checkin_core::Strategy;
use checkin_flash::{FaultConfig, FaultPlan};
use checkin_ftl::{FtlConfig, VictimPolicy};

/// Cut at every 8th tick: the 17 282 ticks of all five workloads cost
/// about 15 s cut one by one, every 8th about 2 s.
const STRIDE: usize = 8;

/// The seed of `crashmatrix`'s power-cut sweep for workload `s = 0`.
fn sweep_seed(strategy: Strategy) -> u64 {
    0xC7A5_11FE_2026_0805
        ^ (strategy.default_unit_bytes() as u64)
        ^ (strategy.label().len() as u64) << 32
}

/// Cuts `strategy`'s workload at every `STRIDE`-th tick, optionally
/// dropping the write buffer before recovery. Returns the number of
/// cuts and the summed verdict.
fn cut_strided(strategy: Strategy, sabotage: bool) -> (u64, Verdict) {
    let seed = sweep_seed(strategy);
    let ftl = FtlConfig {
        victim_policy: VictimPolicy::Greedy,
        ..ftl_config(strategy)
    };
    let ticks = profile(strategy, ftl, seed, 1, false).len() as u64;
    let mut cuts = 0;
    let mut total = Verdict::default();
    for tick in (1..=ticks).step_by(STRIDE) {
        let plan = FaultPlan::new(FaultConfig::power_cut(seed ^ tick, tick));
        let mut d = drive(strategy, ftl, seed, Some(plan), 1, false);
        assert!(d.ssd.powered_off(), "{strategy}: tick {tick} never cut");
        if sabotage {
            d.ssd.ftl_mut().sabotage_drop_write_buffer();
        }
        d.recover();
        let v = d.verify(false, !sabotage).strict();
        if !sabotage {
            assert!(v.clean(), "{strategy}: cut at tick {tick} of {ticks}");
            d.ssd
                .ftl()
                .check_invariants()
                .expect("post-recovery invariants");
        }
        total.absorb(v);
        cuts += 1;
    }
    (cuts, total)
}

#[test]
fn every_eighth_tick_keeps_every_acked_write() {
    for strategy in Strategy::all() {
        let (cuts, v) = cut_strided(strategy, false);
        assert!(cuts > 300, "{strategy}: only {cuts} cuts");
        assert_eq!(v.checked, cuts * RECORDS, "{strategy}: keys skipped");
        assert!(v.clean(), "{strategy}: {v:?}");
    }
}

#[test]
fn dropped_write_buffer_is_reported_as_loss() {
    let (_, v) = cut_strided(Strategy::CheckIn, true);
    assert!(v.losses() > 0, "sabotaged recovery went undetected");
}
