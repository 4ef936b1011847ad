//! `corruptmatrix` — the end-to-end data-integrity sweep behind the
//! no-silent-corruption contract (DESIGN.md §13).
//!
//! Where `crashmatrix` proves that acked writes survive power cuts, this
//! matrix proves that *damaged data is never served as if it were good*.
//! Every tier drives a full `KvEngine` workload against a small simulated
//! device and checks reads against a shadow key→version model under one
//! of the deterministic corruption injectors:
//!
//! * **Torn-write power cuts** — power cuts with `torn_writes` enabled
//!   leave a partially-programmed page whose sealed checksums no longer
//!   verify. Recovery must reject the torn tail (SPOR OOB scan) and the
//!   crashmatrix durability contract must still hold.
//! * **Retention bit-rot (data)** — seeded bit-flips in stored units,
//!   injected both live (between operations, detected by foreground
//!   reads, GC relocation and the background scrubber) and post-hoc
//!   (after a clean run, then verified / scrubbed / healed).
//! * **Retention bit-rot (OOB)** — flips in the recovery-critical
//!   `lpn`/`sequence` stamps. Live reads are unaffected (the mapping is
//!   in RAM) but the SPOR scan must reject every rotted record.
//! * **Misdirected writes** — programs that report success but land with
//!   scrambled tags; the next verified read must fail typed.
//!
//! The contract checked on every read: the result is either the correct
//! acked value or a *typed* integrity failure (`SsdError::is_integrity`)
//! — never a silently-wrong value, never a panic. A sabotage self-test
//! repeats a run with checksum verification disabled and must *observe*
//! silently-wrong reads, proving the matrix can detect what it hunts.
//!
//! The fixture, op stream, driver and shadow oracle are
//! `checkin_bench::faultlab`, shared with `crashmatrix`; this binary
//! holds the tiers, cut choosers, injectors and summary.
//!
//! Run with `--release`: the engine carries debug assertions that turn
//! deliberately-served-rot (the sabotage tier) into panics in debug
//! builds before the harness can observe it.
//!
//! Exit status: 0 on PASS, 1 on any integrity failure (or an
//! undetectable sabotage), 2 on bad usage.

use std::collections::BTreeSet;

use checkin_bench::faultlab::{
    checkpoint_and_idle, drive, ftl_config, is_integrity, profile, Stop, Verdict, OPS, RECORDS,
};
use checkin_core::{EngineError, KvEngine, Strategy};
use checkin_flash::{FaultConfig, FaultOp, FaultPhase, FaultPlan, Ppn};
use checkin_ftl::{FtlConfig, Location, Lpn};
use checkin_sim::SimTime;
use checkin_ssd::{ReadRequest, Ssd};
use checkin_testkit::TestRng;

/// Base seed of the whole matrix.
const MATRIX_SEED: u64 = 0xC044_0B7A_2026_0808;
/// Untargeted corruptions injected per post-hoc combo.
const INJECTIONS: u64 = 24;

/// Asserts the FTL's integrity-counter ledger balances: everything
/// detected was either quarantined or corrected, nothing leaked.
fn reconcile_counters(ssd: &Ssd, context: &str) {
    let c = ssd.ftl().counters();
    let detected = c.get("ftl.integrity_detected");
    let quarantined = c.get("ftl.integrity_quarantined");
    let corrected = c.get("ftl.integrity_corrected");
    assert_eq!(
        detected,
        quarantined + corrected,
        "{context}: integrity ledger out of balance \
         (detected {detected} != quarantined {quarantined} + corrected {corrected})"
    );
}

/// Resolves the flash location currently serving `key` (journal entry if
/// live, home slot otherwise), in mapping units.
fn flash_home_of(engine: &KvEngine, ssd: &Ssd, key: u64) -> Option<(Ppn, u32)> {
    let layout = engine.layout();
    let lba = match engine.journal().jmt().lookup(key) {
        Some(e) => e.journal_lba,
        None => layout.home_lba(key),
    };
    let lpn = Lpn(lba / layout.unit_sectors());
    match ssd.ftl().location_of(lpn) {
        Some(Location::Flash(pun)) => {
            let upp = ssd.ftl().units_per_page();
            Some((pun.page(upp), pun.offset(upp)))
        }
        _ => None,
    }
}

/// Flips one seeded bit in `count` distinct stored data units, probing
/// forward from random start pages. Returns the sites actually hit.
fn inject_data_rot(ssd: &mut Ssd, rng: &mut TestRng, count: u64) -> Vec<(Ppn, u32)> {
    let total = ssd.ftl().flash().geometry().total_pages();
    let upp = u64::from(ssd.ftl().units_per_page());
    let mut hit: BTreeSet<(u64, u32)> = BTreeSet::new();
    for _ in 0..count {
        let start = rng.below(total);
        let offset = rng.below(upp) as u32;
        let mask = 1u64 << rng.below(48);
        for probe in 0..total {
            let ppn = Ppn((start + probe) % total);
            if hit.contains(&(ppn.0, offset)) {
                continue;
            }
            if ssd
                .ftl_mut()
                .flash_mut()
                .sabotage_corrupt_unit(ppn, offset, mask)
            {
                hit.insert((ppn.0, offset));
                break;
            }
        }
    }
    hit.into_iter().map(|(p, o)| (Ppn(p), o)).collect()
}

/// Flips one seeded bit in `count` distinct stored OOB records. Returns
/// the number of records actually rotted.
fn inject_oob_rot(ssd: &mut Ssd, rng: &mut TestRng, count: u64) -> u64 {
    let total = ssd.ftl().flash().geometry().total_pages();
    let upp = u64::from(ssd.ftl().units_per_page());
    let mut hit: BTreeSet<(u64, u32)> = BTreeSet::new();
    for _ in 0..count {
        let start = rng.below(total);
        let index = rng.below(upp) as u32;
        let mask = 1u64 << rng.below(48);
        for probe in 0..total {
            let ppn = Ppn((start + probe) % total);
            for idx in [index, 0] {
                if hit.contains(&(ppn.0, idx)) {
                    continue;
                }
                if ssd
                    .ftl_mut()
                    .flash_mut()
                    .sabotage_corrupt_oob(ppn, idx, mask)
                {
                    hit.insert((ppn.0, idx));
                    break;
                }
            }
            if hit.len() >= count as usize {
                break;
            }
        }
    }
    hit.len() as u64
}

/// Patrols the whole device with the background scrubber (several full
/// wraps of the cursor). Returns (pages scanned, corruptions found).
fn scrub_fully(ssd: &mut Ssd, t: SimTime) -> (u64, u64) {
    let total = ssd.ftl().flash().geometry().total_pages();
    let mut t = t.max(ssd.idle_at());
    let mut scanned = 0u64;
    let mut detected = 0u64;
    // Budget 64 per round; 2 full sweeps of every page.
    for _ in 0..(total.div_ceil(64) * 2 + 2) {
        let (report, done) = ssd
            .background_scrub(t, 64)
            .expect("scrub never fails without armed transients");
        scanned += report.pages_scanned;
        detected += report.detected;
        t = done.max(ssd.idle_at());
    }
    (scanned, detected)
}

// ---------------------------------------------------------------------
// Tiers
// ---------------------------------------------------------------------

/// Picks cut ticks that land on *program* operations, so the torn-write
/// injector actually commits torn pages.
fn choose_program_cuts(
    trace: &[(FaultOp, FaultPhase)],
    rng: &mut TestRng,
    total: usize,
) -> Vec<u64> {
    let programs: Vec<u64> = trace
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op.0, FaultOp::Program))
        .map(|(i, _)| i as u64 + 1)
        .collect();
    let mut ticks = Vec::new();
    if let (Some(&first), Some(&last)) = (programs.first(), programs.last()) {
        ticks.push(first);
        ticks.push(programs[programs.len() / 2]);
        ticks.push(last);
        while ticks.len() < total {
            ticks.push(programs[rng.below(programs.len() as u64) as usize]);
        }
    }
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// One torn-write combo: cut power on a program tick with torn writes
/// enabled, recover, and hold the crashmatrix durability contract. Any
/// typed integrity error here is a failure too: a torn page must never
/// be *referenced* (its program never completed), so recovery must not
/// surface it at all.
fn run_torn_cut(strategy: Strategy, seed: u64, cut_tick: u64) -> (Verdict, u64) {
    let plan = FaultPlan::new(FaultConfig {
        torn_writes: true,
        ..FaultConfig::power_cut(seed ^ cut_tick, cut_tick)
    });
    let mut d = drive(strategy, ftl_config(strategy), seed, Some(plan), 1, true);
    d.recover();
    let torn = d.ssd.ftl().flash().counters().get("flash.torn_writes");
    // In this tier typed read failures are not acceptable: `strict`
    // folds them into losses so the matrix fails loudly if a torn page
    // leaks a mapping.
    let v = d.verify(true, true).strict();
    d.ssd
        .ftl()
        .check_invariants()
        .expect("post-recovery invariants");
    (v, torn)
}

/// Accounting for the live-injector tiers.
#[derive(Default, Clone, Copy)]
struct LiveStats {
    rot_events: u64,
    misdirected: u64,
    scrub_pages: u64,
    aborted_ops: u64,
    aborted_cps: u64,
}

/// One live combo: rot or misdirection strikes *while* the workload
/// runs; foreground reads, GC relocation and the scrubber must catch
/// everything that surfaces. Uses Check-In so checkpoints are remap-only
/// — but even a remap checkpoint can do a read-modify-write on a
/// partially-filled unit and die typed. When that happens, journal
/// entries are already retired but remaps are incomplete, so
/// version-exact verification is unsound for that combo: the run is
/// still held to device invariants and a balanced integrity ledger, and
/// the matrix fails if a whole tier ends up unverified.
fn run_live(seed: u64, config: FaultConfig) -> (Verdict, LiveStats) {
    let strategy = Strategy::CheckIn;
    let plan = FaultPlan::new(config);
    let mut d = drive(strategy, ftl_config(strategy), seed, Some(plan), 1, true);
    assert_ne!(d.stop, Stop::PowerLoss, "live tiers schedule no power cut");
    let mut stats = LiveStats::default();
    if d.stop == Stop::OpIntegrity {
        stats.aborted_ops = 1;
    }
    let verdict = if d.stop == Stop::CheckpointIntegrity {
        stats.aborted_cps = 1;
        Verdict::default()
    } else {
        d.verify(true, true)
    };
    d.ssd
        .ftl()
        .check_invariants()
        .expect("post-live invariants");
    reconcile_counters(&d.ssd, "live tier");
    let fc = d.ssd.ftl().flash().counters();
    stats.rot_events = fc.get("flash.bit_rot_data") + fc.get("flash.bit_rot_oob");
    stats.misdirected = fc.get("flash.misdirected_programs");
    let tc = d.ssd.ftl().counters();
    stats.scrub_pages = tc.get("ftl.scrub_pages");
    (verdict, stats)
}

/// Accounting for the post-hoc tiers.
#[derive(Default, Clone, Copy)]
struct PostStats {
    injected: u64,
    detected_reads: u64,
    scrub_detected: u64,
    healed: u64,
    heal_skipped: u64,
}

/// One post-hoc data-rot combo: run clean, flush, corrupt stored units
/// (including one targeted at a live key), then require every read to be
/// right-or-typed, scrub the whole device, and heal detected keys with
/// fresh writes.
fn run_posthoc_data(strategy: Strategy, seed: u64) -> (Verdict, PostStats) {
    let mut d = drive(strategy, ftl_config(strategy), seed, None, 1, true);
    assert_eq!(d.stop, Stop::Completed, "clean run");
    let t = d.ssd.flush(d.t).expect("clean flush");
    d.t = t;
    let mut rng = TestRng::seed_from(seed ^ 0x0DD_B17);
    let mut stats = PostStats::default();

    // One targeted strike on a live key's current flash unit guarantees
    // the foreground-detection and healing paths run every combo.
    let target_key = rng.below(RECORDS);
    let mut targeted = Vec::new();
    if !d.shadow[target_key as usize].deleted {
        if let Some((ppn, offset)) = flash_home_of(&d.engine, &d.ssd, target_key) {
            if d.ssd
                .ftl_mut()
                .flash_mut()
                .sabotage_corrupt_unit(ppn, offset, 1 << rng.below(48))
            {
                targeted.push(target_key);
            }
        }
    }
    let sites = inject_data_rot(&mut d.ssd, &mut rng, INJECTIONS);
    stats.injected = sites.len() as u64 + targeted.len() as u64;

    let verdict = d.verify(true, true);
    stats.detected_reads = verdict.detected;
    let (_, scrub_detected) = scrub_fully(&mut d.ssd, t);
    stats.scrub_detected = scrub_detected;
    reconcile_counters(&d.ssd, "post-hoc data tier");

    // Heal: every key whose read failed typed gets a fresh write, after
    // which it must read back clean at the bumped version.
    for key in 0..RECORDS {
        let exp = d.shadow[key as usize];
        if exp.deleted {
            continue;
        }
        let r = d.engine.get(&mut d.ssd, key, t);
        match r {
            Ok(_) => {}
            Err(e) if is_integrity(&e) => {
                let mut w = d.engine.update(&mut d.ssd, key, 512, t);
                if matches!(w, Err(EngineError::JournalFull)) {
                    match checkpoint_and_idle(&mut d.engine, &mut d.ssd, t, true) {
                        Ok(_) => w = d.engine.update(&mut d.ssd, key, 512, t),
                        Err(e) if is_integrity(&e) => {
                            // A copy checkpoint tripped on another
                            // quarantined unit; healing is blocked but
                            // nothing was served wrong.
                            stats.heal_skipped += 1;
                            continue;
                        }
                        Err(e) => panic!("heal checkpoint failed: {e}"),
                    }
                }
                match w {
                    Ok(_) => {
                        let back = d
                            .engine
                            .get(&mut d.ssd, key, t)
                            .expect("healed key reads clean");
                        assert_eq!(back.version, exp.version + 1, "healed key version");
                        stats.healed += 1;
                    }
                    Err(e) if is_integrity(&e) => stats.heal_skipped += 1,
                    Err(e) => panic!("heal write of key {key} failed: {e}"),
                }
            }
            Err(e) => panic!("heal scan read of key {key} failed untyped: {e}"),
        }
    }
    d.ssd
        .ftl()
        .check_invariants()
        .expect("post-heal invariants");
    reconcile_counters(&d.ssd, "post-hoc data tier after healing");
    (verdict, stats)
}

/// One post-hoc OOB-rot combo: rot recovery stamps only. Live reads use
/// the in-RAM mapping, so every read must still be exactly right; the
/// SPOR OOB scan must reject every rotted record.
fn run_posthoc_oob(strategy: Strategy, seed: u64) -> (Verdict, u64, u64) {
    let mut d = drive(strategy, ftl_config(strategy), seed, None, 1, true);
    assert_eq!(d.stop, Stop::Completed, "clean run");
    d.t = d.ssd.flush(d.t).expect("clean flush");
    let mut rng = TestRng::seed_from(seed ^ 0x00B_407);
    let injected = inject_oob_rot(&mut d.ssd, &mut rng, INJECTIONS / 2);
    let verdict = d.verify(true, true);
    assert_eq!(
        verdict.detected, 0,
        "OOB rot must be invisible to mapped reads"
    );
    let snap = d.ssd.scan_oob();
    let rejected = snap.records_rejected();
    assert!(
        rejected <= injected,
        "scan rejected {rejected} records but only {injected} were rotted"
    );
    (verdict, injected, rejected)
}

/// Sabotage self-test: with verification disabled, rot a live key's
/// stored unit and read it back at the *device* level. The read must
/// come back silently wrong — proving the matrix (and the checksums it
/// leans on) detect real damage, not a tautology.
fn sabotage_self_test(seed: u64) -> (bool, bool) {
    let mut observed_silent = false;
    let mut observed_typed = false;
    for verify_on in [false, true] {
        let strategy = Strategy::CheckIn;
        let ftl = FtlConfig {
            verify_checksums: verify_on,
            ..ftl_config(strategy)
        };
        let mut d = drive(strategy, ftl, seed, None, 1, true);
        assert_eq!(d.stop, Stop::Completed, "clean run");
        let t = d.ssd.flush(d.t).expect("clean flush");
        let engine = d.engine;
        let mut rng = TestRng::seed_from(seed ^ 0x5AB0);
        for _ in 0..16 {
            let key = rng.below(RECORDS);
            let exp = d.shadow[key as usize];
            if exp.deleted {
                continue;
            }
            let Some((ppn, offset)) = flash_home_of(&engine, &d.ssd, key) else {
                continue;
            };
            if !d
                .ssd
                .ftl_mut()
                .flash_mut()
                .sabotage_corrupt_unit(ppn, offset, 1 << rng.below(48))
            {
                continue;
            }
            let layout = engine.layout();
            let (lba, sectors) = match engine.journal().jmt().lookup(key) {
                Some(e) => (e.journal_lba, e.sectors),
                None => (layout.home_lba(key), layout.slot_sectors() as u32),
            };
            let req = ReadRequest {
                lba,
                sectors,
                key: Some(key),
            };
            match d.ssd.read(&req, t) {
                Ok((frags, _)) => {
                    let version = frags.iter().map(|f| f.version).max().unwrap_or(0);
                    if version != exp.version {
                        observed_silent = true;
                    }
                }
                Err(e) if e.is_integrity() => observed_typed = true,
                Err(e) => panic!("sabotage read failed untyped: {e}"),
            }
        }
    }
    (observed_silent, observed_typed)
}

fn section(title: &str) {
    println!("\n== {title}");
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument `{arg}`");
        eprintln!("usage: corruptmatrix");
        std::process::exit(2);
    }
    let strategies = Strategy::all();
    println!("corruptmatrix: {RECORDS} keys, {OPS} ops/run");

    let mut total = Verdict::default();
    let mut combos = 0u64;
    let mut failed = false;

    // ---- Tier 1: torn-write power cuts -----------------------------
    section("torn-write power-cut sweep");
    let torn_seeds: u64 = 3;
    let cuts_per_workload: usize = 7;
    let mut torn_committed = 0u64;
    for &strategy in &strategies {
        for s in 0..torn_seeds {
            let seed = MATRIX_SEED.wrapping_add(s.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ (strategy.default_unit_bytes() as u64)
                ^ 0x70A2;
            let trace = profile(strategy, ftl_config(strategy), seed, 1, true);
            let mut rng = TestRng::seed_from(seed ^ 0x7042);
            let cuts = choose_program_cuts(&trace, &mut rng, cuts_per_workload);
            let mut torn_here = 0u64;
            for &tick in &cuts {
                combos += 1;
                let (v, torn) = run_torn_cut(strategy, seed, tick);
                torn_here += torn;
                if !v.clean() {
                    eprintln!(
                        "  ^ combo: {} seed {s} torn cut tick {tick}",
                        strategy.label()
                    );
                }
                total.absorb(v);
            }
            torn_committed += torn_here;
            println!(
                "  {:<9} seed {s}: cuts at {:?}, torn pages {torn_here}",
                strategy.label(),
                cuts
            );
        }
    }

    // ---- Tier 2: live retention rot --------------------------------
    section("live bit-rot tier (Check-In, rot strikes mid-workload)");
    let live_seeds: u64 = 12;
    let rot_rates = [0.001, 0.003];
    let mut live = LiveStats::default();
    let mut rot_checked = 0u64;
    for &rate in &rot_rates {
        for s in 0..live_seeds {
            let seed = MATRIX_SEED ^ 0xB17_207 ^ (s << 8) ^ ((rate * 1e6) as u64);
            combos += 1;
            let (v, stats) = run_live(
                seed,
                FaultConfig {
                    seed: seed ^ 0xDECA7,
                    bit_rot_data: rate,
                    bit_rot_oob: rate / 2.0,
                    ..FaultConfig::default()
                },
            );
            rot_checked += v.checked;
            total.absorb(v);
            live.rot_events += stats.rot_events;
            live.scrub_pages += stats.scrub_pages;
            live.aborted_ops += stats.aborted_ops;
            live.aborted_cps += stats.aborted_cps;
        }
    }
    println!(
        "  rot events {}, scrub pages {}, stopped by a typed op failure {}, \
         aborted checkpoints {}",
        live.rot_events, live.scrub_pages, live.aborted_ops, live.aborted_cps
    );

    // ---- Tier 3: live misdirected writes ---------------------------
    section("live misdirected-write tier (Check-In)");
    let mis_seeds: u64 = 12;
    let mut misdirected = 0u64;
    let mut mis_checked = 0u64;
    let mut mis_aborted_cps = 0u64;
    for s in 0..mis_seeds {
        let seed = MATRIX_SEED ^ 0x15D1 ^ (s << 16);
        combos += 1;
        let (v, stats) = run_live(
            seed,
            FaultConfig {
                seed: seed ^ 0xAA,
                misdirected_program: 0.004,
                ..FaultConfig::default()
            },
        );
        mis_checked += v.checked;
        total.absorb(v);
        misdirected += stats.misdirected;
        live.aborted_ops += stats.aborted_ops;
        mis_aborted_cps += stats.aborted_cps;
    }
    println!("  misdirected programs {misdirected}, aborted checkpoints {mis_aborted_cps}");

    // ---- Tier 4: post-hoc data rot + scrub + heal ------------------
    section("post-hoc data-rot tier (verify, scrub, heal)");
    let post_seeds: u64 = 8;
    let mut post = PostStats::default();
    for &strategy in &strategies {
        for s in 0..post_seeds {
            let seed = MATRIX_SEED ^ 0x9057 ^ (s << 24) ^ (strategy.default_unit_bytes() as u64);
            combos += 1;
            let (v, stats) = run_posthoc_data(strategy, seed);
            total.absorb(v);
            post.injected += stats.injected;
            post.detected_reads += stats.detected_reads;
            post.scrub_detected += stats.scrub_detected;
            post.healed += stats.healed;
            post.heal_skipped += stats.heal_skipped;
        }
    }
    println!(
        "  injected {}, typed read failures {}, scrub detections {}, healed {} (blocked {})",
        post.injected, post.detected_reads, post.scrub_detected, post.healed, post.heal_skipped
    );

    // ---- Tier 5: post-hoc OOB rot vs the SPOR scan -----------------
    section("post-hoc OOB-rot tier (SPOR scan rejection)");
    let oob_seeds: u64 = 6;
    let mut oob_injected = 0u64;
    let mut oob_rejected = 0u64;
    for &strategy in &strategies {
        for s in 0..oob_seeds {
            let seed = MATRIX_SEED ^ 0x00B ^ (s << 32) ^ (strategy.default_unit_bytes() as u64);
            combos += 1;
            let (v, injected, rejected) = run_posthoc_oob(strategy, seed);
            total.absorb(v);
            oob_injected += injected;
            oob_rejected += rejected;
        }
    }
    println!("  rotted OOB records {oob_injected}, rejected by the scan {oob_rejected}");

    // ---- Sabotage self-test ----------------------------------------
    section("sabotage self-test (verification disabled)");
    combos += 2;
    let (silent_seen, typed_seen) = sabotage_self_test(MATRIX_SEED ^ 0x5ABC);
    println!(
        "  verification off: silent wrongness {}; verification on: typed failure {}",
        if silent_seen { "OBSERVED" } else { "MISSED" },
        if typed_seen { "OBSERVED" } else { "MISSED" }
    );

    // ---- Summary ----------------------------------------------------
    section("summary");
    println!("  combos            {combos}");
    println!("  keys checked      {}", total.checked);
    println!("  silently wrong    {}", total.silent_wrong());
    println!("  losses            {}", total.missing);
    println!("  resurrections     {}", total.resurrected);
    println!("  typed detections  {}", total.detected);
    println!("  torn pages        {torn_committed}");

    if !total.clean() {
        eprintln!(
            "FAIL: {} silently-wrong reads, {} losses, {} resurrections",
            total.silent_wrong(),
            total.missing,
            total.resurrected
        );
        failed = true;
    }
    if torn_committed == 0 {
        eprintln!("FAIL: no torn page was ever committed — the torn tier exercised nothing");
        failed = true;
    }
    if live.rot_events == 0 || live.scrub_pages == 0 || rot_checked == 0 {
        eprintln!(
            "FAIL: live tier impotent (rot events {}, scrub pages {}, keys verified {})",
            live.rot_events, live.scrub_pages, rot_checked
        );
        failed = true;
    }
    if misdirected == 0 || mis_checked == 0 {
        eprintln!(
            "FAIL: misdirect tier impotent (misdirected {misdirected}, keys verified {mis_checked})"
        );
        failed = true;
    }
    if post.detected_reads == 0 || post.scrub_detected == 0 || post.healed == 0 {
        eprintln!(
            "FAIL: post-hoc tier impotent (typed reads {}, scrub detections {}, healed {})",
            post.detected_reads, post.scrub_detected, post.healed
        );
        failed = true;
    }
    if oob_injected == 0 || oob_rejected == 0 {
        eprintln!("FAIL: OOB tier impotent (injected {oob_injected}, rejected {oob_rejected})");
        failed = true;
    }
    if !silent_seen {
        eprintln!("FAIL: sabotage went unobserved — the matrix cannot see silent corruption");
        failed = true;
    }
    if !typed_seen {
        eprintln!("FAIL: sabotage control saw no typed failure with verification on");
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
        "PASS: {combos} combos, zero silently-wrong reads, \
         {} typed detections, sabotage observed",
        total.detected
    );
}
