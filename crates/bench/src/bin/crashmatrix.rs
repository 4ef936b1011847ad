//! `crashmatrix` — the crash/power-loss fault-injection sweep behind the
//! acked-write durability contract (DESIGN.md §9).
//!
//! For every `(strategy, workload seed, cut tick)` combination the matrix
//! drives a full `KvEngine` workload (updates, deletes, inserts,
//! checkpoints, background GC) against a small simulated device, cuts
//! power at a scheduled fault-clock tick, recovers the device
//! (`Ssd::recover_power_loss`) and the engine (`KvEngine::recover`), and
//! checks the result against a shadow key→version model:
//!
//! * **No acked-write loss** — every operation the engine acknowledged
//!   before the cut is readable afterwards with the acked version.
//! * **No resurrection** — a key whose acked deletion preceded the cut
//!   stays deleted after recovery.
//! * The single in-flight operation (the one that observed the power
//!   loss) may land in either its old or new state, but nothing else.
//!
//! Cut ticks are chosen from a profiling pass that records the per-tick
//! `(op, phase)` trace, so the matrix deliberately lands cuts inside the
//! Algorithm-1 checkpoint remap walk, inside GC migration, and inside
//! host deallocation, on top of uniformly random steady-state cuts. A
//! batched-admission tier repeats the sweep with ops admitted in groups
//! of 16 and acked only at batch completion — cuts that land mid-batch
//! must leave every unacked op in either its old or new state, with no
//! acked write dropped or double-applied. A victim-policy tier repeats
//! the sweep under cost-benefit and windowed-greedy GC victim selection
//! with every cut placed inside a GC migration, since those policies
//! relocate blocks the greedy sweep never touches mid-flight. A media-noise tier re-runs
//! the workload under transient read/program/erase failures plus grown
//! bad blocks and requires a byte-perfect final state. Finally a sabotage self-test deliberately breaks
//! recovery (dropping the capacitor-backed write buffer) and requires
//! the harness to *detect* the loss — proving the matrix can fail.
//!
//! The fixture, op stream, driver and shadow oracle are
//! `checkin_bench::faultlab`, shared with `corruptmatrix`; this binary
//! holds the tiers, cut choosers and summary.
//!
//! Exit status: 0 on PASS, 1 on any durability failure (or an
//! undetectable sabotage), 2 on bad usage.

use checkin_bench::faultlab::{drive, ftl_config, profile, Stop, Verdict, OPS, RECORDS};
use checkin_core::Strategy;
use checkin_flash::{FaultConfig, FaultOp, FaultPhase, FaultPlan};
use checkin_ftl::{FtlConfig, VictimPolicy};
use checkin_testkit::TestRng;

/// Base seed of the whole matrix.
const MATRIX_SEED: u64 = 0xC7A5_11FE_2026_0805;

/// The lab FTL under GC victim policy `policy`.
fn with_policy(strategy: Strategy, policy: VictimPolicy) -> FtlConfig {
    FtlConfig {
        victim_policy: policy,
        ..ftl_config(strategy)
    }
}

/// Picks cut ticks from a trace: the first and middle tick of every
/// interesting phase (checkpoint remap walk, GC migration, host
/// deallocation), topped up with uniformly random steady-state ticks.
fn choose_cuts(trace: &[(FaultOp, FaultPhase)], rng: &mut TestRng, total: usize) -> Vec<u64> {
    let mut ticks: Vec<u64> = Vec::new();
    for phase in [
        FaultPhase::CheckpointRemap,
        FaultPhase::Gc,
        FaultPhase::HostDeallocate,
    ] {
        let idxs: Vec<u64> = trace
            .iter()
            .enumerate()
            .filter(|(_, op)| op.1 == phase)
            .map(|(i, _)| i as u64 + 1)
            .collect();
        if let Some(&first) = idxs.first() {
            ticks.push(first);
        }
        if idxs.len() > 2 {
            ticks.push(idxs[idxs.len() / 2]);
        }
    }
    while ticks.len() < total {
        ticks.push(rng.range_u64(1, trace.len() as u64));
    }
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// Picks cut ticks for the batched tier: evenly spaced steady-state
/// (non-checkpoint, non-GC) ticks. Checkpoints sit at batch boundaries
/// where nothing is unacked, so targeting them — as [`choose_cuts`]
/// does — would never land inside a batch.
fn choose_mid_batch_cuts(trace: &[(FaultOp, FaultPhase)], total: usize) -> Vec<u64> {
    let normals: Vec<u64> = trace
        .iter()
        .enumerate()
        .filter(|(_, op)| op.1 == FaultPhase::Normal)
        .map(|(i, _)| i as u64 + 1)
        .collect();
    let mut ticks: Vec<u64> = (1..=total)
        .filter_map(|i| normals.get(i * normals.len() / (total + 1)).copied())
        .collect();
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// One combo: drive to the cut, recover the device and the engine,
/// verify against the shadow. Returns the verdict plus the number of
/// admitted-but-unacked ops at the cut (> 1 means the cut landed mid
/// batch). With `sabotage`, the capacitor-backed write buffer is
/// dropped before recovery — the verdict must then show losses, proving
/// the harness detects broken recovery.
fn run_cut(
    strategy: Strategy,
    policy: VictimPolicy,
    seed: u64,
    cut_tick: u64,
    sabotage: bool,
    batch: u32,
) -> (Verdict, usize) {
    let plan = FaultPlan::new(FaultConfig::power_cut(seed ^ cut_tick, cut_tick));
    let mut d = drive(
        strategy,
        with_policy(strategy, policy),
        seed,
        Some(plan),
        batch,
        false,
    );
    if sabotage {
        d.ssd.ftl_mut().sabotage_drop_write_buffer();
    }
    d.recover();
    let verdict = d.verify(false, !sabotage).strict();
    if !sabotage {
        d.ssd
            .ftl()
            .check_invariants()
            .expect("post-recovery invariants");
        d.engine
            .insert(&mut d.ssd, 0, 512, d.t)
            .expect("post-recovery write");
    }
    (verdict, d.inflight.len())
}

/// Media-noise accounting collected across the noise tier.
#[derive(Default, Clone, Copy)]
struct MediaStats {
    transients: u64,
    retries: u64,
    grown: u64,
    retired: u64,
}

/// One media-noise run: transient failures plus grown bad blocks, no
/// power cut. Every op must succeed (retries and retirement absorb the
/// faults) and the final state must match the shadow exactly.
fn run_noise(strategy: Strategy, seed: u64) -> (Verdict, MediaStats) {
    let plan = FaultPlan::new(FaultConfig {
        seed: seed ^ 0xD15E_A5ED,
        transient_read: 0.01,
        transient_program: 0.01,
        transient_erase: 0.02,
        grown_bad_block: 0.0008,
        ..FaultConfig::default()
    });
    let mut d = drive(
        strategy,
        with_policy(strategy, VictimPolicy::Greedy),
        seed,
        Some(plan),
        1,
        false,
    );
    assert_eq!(d.stop, Stop::Completed, "noise tier has no power cut");
    let verdict = d.verify(false, true).strict();
    d.ssd
        .ftl()
        .check_invariants()
        .expect("post-noise invariants");
    let stats = MediaStats {
        transients: d.ssd.ftl().flash().counters().get("flash.transient_faults"),
        retries: d.ssd.ftl().counters().get("ftl.media_retries"),
        grown: d.ssd.ftl().flash().counters().get("flash.grown_bad_blocks"),
        retired: d.ssd.ftl().counters().get("ftl.blocks_retired"),
    };
    (verdict, stats)
}

/// Deliberately breaks recovery and requires the harness to notice:
/// returns true when at least one sabotaged combo reports losses.
fn sabotage_self_test(combos: &mut u64) -> bool {
    let strategy = Strategy::CheckIn;
    let seed = MATRIX_SEED ^ 0x5AB0_7A6E;
    let ftl = with_policy(strategy, VictimPolicy::Greedy);
    let trace_len = profile(strategy, ftl, seed, 1, false).len() as u64;
    let mut rng = TestRng::seed_from(seed);
    for _ in 0..8 {
        let tick = rng.range_u64(trace_len / 4, trace_len.max(2) - 1);
        *combos += 1;
        if !run_cut(strategy, VictimPolicy::Greedy, seed, tick, true, 1)
            .0
            .clean()
        {
            return true;
        }
    }
    false
}

fn section(title: &str) {
    println!("\n== {title}");
}

fn phase_name(phase: FaultPhase) -> &'static str {
    match phase {
        FaultPhase::CheckpointRemap => "remap",
        FaultPhase::Gc => "gc",
        FaultPhase::HostDeallocate => "dealloc",
        FaultPhase::Normal => "steady",
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument `{arg}`");
        eprintln!("usage: crashmatrix");
        std::process::exit(2);
    }
    let strategies = Strategy::all();
    let workload_seeds: u64 = 6;
    let cuts_per_workload: usize = 7;
    let noise_seeds: u64 = 2;
    println!("crashmatrix: {RECORDS} keys, {OPS} ops/run");

    let mut total = Verdict::default();
    let mut combos = 0u64;
    // Cut counts per phase: [remap, gc, dealloc, steady].
    let mut phase_cuts = [0u64; 4];

    section("power-cut sweep");
    for &strategy in &strategies {
        for s in 0..workload_seeds {
            let seed = MATRIX_SEED.wrapping_add(s.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ (strategy.default_unit_bytes() as u64)
                ^ (strategy.label().len() as u64) << 32;
            let trace = profile(
                strategy,
                with_policy(strategy, VictimPolicy::Greedy),
                seed,
                1,
                false,
            );
            let mut rng = TestRng::seed_from(seed ^ 0xC07);
            let cuts = choose_cuts(&trace, &mut rng, cuts_per_workload);
            let mut phases = Vec::new();
            for &tick in &cuts {
                let phase = trace
                    .get((tick - 1) as usize)
                    .map_or(FaultPhase::Normal, |&(_, p)| p);
                phases.push(phase_name(phase));
                match phase {
                    FaultPhase::CheckpointRemap => phase_cuts[0] += 1,
                    FaultPhase::Gc => phase_cuts[1] += 1,
                    FaultPhase::HostDeallocate => phase_cuts[2] += 1,
                    FaultPhase::Normal => phase_cuts[3] += 1,
                }
                combos += 1;
                let (v, _) = run_cut(strategy, VictimPolicy::Greedy, seed, tick, false, 1);
                if !v.clean() {
                    eprintln!(
                        "  ^ combo: {} seed {s} cut tick {tick} ({})",
                        strategy.label(),
                        phase_name(phase)
                    );
                }
                total.absorb(v);
            }
            println!(
                "  {:<9} seed {s}: {} ticks traced, cuts at {:?} ({})",
                strategy.label(),
                trace.len(),
                cuts,
                phases.join(",")
            );
        }
    }

    // Same durability contract, but the client admits ops in groups of
    // 16 and acks only whole batches — cuts that land mid-batch must
    // leave every unacked op in either its old or new state, with no
    // dropped or double-applied acked write.
    section("batched-admission power-cut sweep (admission batch 16)");
    let batch = 16u32;
    let batched_seeds: u64 = 2;
    let mut mid_batch_cuts = 0u64;
    for &strategy in &strategies {
        for s in 0..batched_seeds {
            let seed = MATRIX_SEED.wrapping_add(s.wrapping_mul(0xD1B5_4A32_D192_ED03))
                ^ (strategy.default_unit_bytes() as u64) << 8
                ^ 0xBA7C_4ED0;
            let trace = profile(
                strategy,
                with_policy(strategy, VictimPolicy::Greedy),
                seed,
                batch,
                false,
            );
            let cuts = choose_mid_batch_cuts(&trace, cuts_per_workload);
            let mut unacked = Vec::new();
            for &tick in &cuts {
                combos += 1;
                let (v, pending) =
                    run_cut(strategy, VictimPolicy::Greedy, seed, tick, false, batch);
                unacked.push(pending);
                if pending > 1 {
                    mid_batch_cuts += 1;
                }
                if !v.clean() {
                    eprintln!(
                        "  ^ combo: {} seed {s} batch {batch} cut tick {tick} \
                         ({pending} ops unacked)",
                        strategy.label()
                    );
                }
                total.absorb(v);
            }
            println!(
                "  {:<9} seed {s}: cuts at {:?}, unacked ops {:?}",
                strategy.label(),
                cuts,
                unacked
            );
        }
    }

    // The non-default victim policies relocate different blocks at
    // different times, so a cut landing mid-migration exercises recovery
    // over GC states the greedy sweep never produces. Every policy must
    // get at least one genuine mid-GC cut.
    section("victim-policy power-cut sweep (cuts inside GC migration)");
    let policies = [VictimPolicy::CostBenefit, VictimPolicy::WINDOWED_DEFAULT];
    let cuts_per_policy: usize = 4;
    let mut policy_gc_cuts = [0u64; 2];
    for (pi, &policy) in policies.iter().enumerate() {
        let strategy = Strategy::CheckIn;
        let seed = MATRIX_SEED ^ 0x6C1A_B000 ^ ((pi as u64 + 1) << 24);
        let trace = profile(strategy, with_policy(strategy, policy), seed, 1, false);
        let gc_ticks: Vec<u64> = trace
            .iter()
            .enumerate()
            .filter(|(_, op)| op.1 == FaultPhase::Gc)
            .map(|(i, _)| i as u64 + 1)
            .collect();
        // First, middle, and evenly spaced mid-GC ticks up to the budget.
        let mut cuts: Vec<u64> = (0..cuts_per_policy)
            .filter_map(|i| gc_ticks.get(i * gc_ticks.len() / cuts_per_policy).copied())
            .collect();
        cuts.dedup();
        for &tick in &cuts {
            combos += 1;
            policy_gc_cuts[pi] += 1;
            phase_cuts[1] += 1;
            let (v, _) = run_cut(strategy, policy, seed, tick, false, 1);
            if !v.clean() {
                eprintln!("  ^ combo: {policy} cut tick {tick} (mid-GC)");
            }
            total.absorb(v);
        }
        println!(
            "  {:<18} {} GC ticks traced, cuts at {:?}",
            policy.label(),
            gc_ticks.len(),
            cuts
        );
    }

    section("media-noise tier (transients + grown bad blocks, no cut)");
    let mut media = MediaStats::default();
    for &strategy in &strategies {
        for s in 0..noise_seeds {
            let seed = MATRIX_SEED ^ 0xBAD_F1A5 ^ s ^ (strategy.default_unit_bytes() as u64) << 16;
            combos += 1;
            let (verdict, stats) = run_noise(strategy, seed);
            total.absorb(verdict);
            media.transients += stats.transients;
            media.retries += stats.retries;
            media.grown += stats.grown;
            media.retired += stats.retired;
            println!(
                "  {:<9} seed {s}: transients {} (retries {}), grown bad {}, retired {}",
                strategy.label(),
                stats.transients,
                stats.retries,
                stats.grown,
                stats.retired
            );
        }
    }

    section("sabotage self-test (recovery deliberately broken)");
    let detected = sabotage_self_test(&mut combos);
    println!(
        "  dropped write buffer before rebuild: loss {}",
        if detected { "DETECTED" } else { "MISSED" }
    );

    section("summary");
    println!("  combos            {combos}");
    println!(
        "  cut phases        remap {}, gc {}, dealloc {}, steady {}",
        phase_cuts[0], phase_cuts[1], phase_cuts[2], phase_cuts[3]
    );
    println!("  mid-batch cuts    {mid_batch_cuts}");
    println!("  keys checked      {}", total.checked);
    println!("  acked losses      {}", total.losses());
    println!("  resurrections     {}", total.resurrected + total.ahead);
    println!(
        "  media             transients {} (retries {}), grown bad {}, retired {}",
        media.transients, media.retries, media.grown, media.retired
    );

    let mut failed = false;
    if !total.clean() {
        eprintln!(
            "FAIL: {} acked-write losses, {} resurrections",
            total.losses(),
            total.resurrected + total.ahead
        );
        failed = true;
    }
    if phase_cuts[0] == 0 || phase_cuts[1] == 0 {
        eprintln!(
            "FAIL: matrix missed a required cut phase (remap {}, gc {})",
            phase_cuts[0], phase_cuts[1]
        );
        failed = true;
    }
    if mid_batch_cuts == 0 {
        eprintln!("FAIL: no cut landed mid-batch — the batched tier exercised nothing new");
        failed = true;
    }
    if policy_gc_cuts.contains(&0) {
        eprintln!(
            "FAIL: a victim policy got no mid-GC cut (cost-benefit {}, windowed-greedy {})",
            policy_gc_cuts[0], policy_gc_cuts[1]
        );
        failed = true;
    }
    if !detected {
        eprintln!("FAIL: sabotaged recovery went undetected — the harness cannot see losses");
        failed = true;
    }
    if combos < 200 {
        eprintln!("FAIL: only {combos} combos (need >= 200)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "PASS: {combos} combos, zero acked-write losses, zero resurrections, sabotage detected"
    );
}
