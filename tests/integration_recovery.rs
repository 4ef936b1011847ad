//! Crash-recovery integration: after an abrupt host crash (engine state
//! lost; device state — including its power-protected buffer — survives),
//! the engine must recover the last checkpoint plus the journal tail.

use checkin_core::{EngineError, KvEngine, Strategy};
use checkin_sim::SimTime;
use checkin_ssd::Ssd;

mod common;

const RECORDS: u64 = 48;
/// Journal zone size in sectors.
const ZONE_SECTORS: u64 = 1 << 11;

fn load_and_update(
    ssd: &mut Ssd,
    engine: &mut KvEngine,
    updates_per_key: u64,
    checkpoint_every: u64,
) -> SimTime {
    let records: Vec<(u64, u32)> = (0..RECORDS)
        .map(|k| (k, 300 + (k as u32 % 8) * 250))
        .collect();
    let mut t = engine.load(ssd, &records, SimTime::ZERO).unwrap();
    for round in 1..=updates_per_key {
        for k in 0..RECORDS {
            let bytes = 150 + ((k + round) as u32 % 10) * 300;
            t = engine.update(ssd, k, bytes, t).unwrap();
        }
        if round % checkpoint_every == 0 {
            t = engine.checkpoint(ssd, t).unwrap().finish;
        }
    }
    t
}

fn recover_for(strategy: Strategy, mut pre_crash: impl FnMut(&mut Ssd, &mut KvEngine) -> SimTime) {
    let (mut ssd, mut engine) = common::build(strategy, RECORDS, ZONE_SECTORS);
    let t = pre_crash(&mut ssd, &mut engine);
    let expected: Vec<u64> = (0..RECORDS)
        .map(|k| engine.version_of(k).unwrap())
        .collect();
    let layout = *engine.layout();

    // Crash: host memory (engine, JMT) vanishes; the device persists.
    drop(engine);

    let (mut recovered, t) =
        KvEngine::recover(strategy, layout, 0.7, &mut ssd, RECORDS, t).unwrap();
    let mut t = t;
    for k in 0..RECORDS {
        assert_eq!(
            recovered.version_of(k),
            Some(expected[k as usize]),
            "{strategy}: key {k} lost its committed version"
        );
        let r = recovered.get(&mut ssd, k, t).unwrap();
        assert_eq!(
            r.version, expected[k as usize],
            "{strategy}: readback of key {k}"
        );
        t = r.finish;
    }
    ssd.ftl().check_invariants().unwrap();
}

#[test]
fn recovery_with_clean_checkpoint_only() {
    for strategy in Strategy::all() {
        recover_for(strategy, |ssd, engine| {
            let t = load_and_update(ssd, engine, 4, 2);
            engine.checkpoint(ssd, t).unwrap().finish
        });
    }
}

#[test]
fn recovery_with_journal_tail_after_last_checkpoint() {
    for strategy in Strategy::all() {
        recover_for(strategy, |ssd, engine| {
            // 5 rounds, checkpoint every 2: round 5's logs stay in the
            // journal and must be replayed.
            load_and_update(ssd, engine, 5, 2)
        });
    }
}

#[test]
fn recovery_without_any_checkpoint() {
    for strategy in [Strategy::Baseline, Strategy::CheckIn] {
        recover_for(strategy, |ssd, engine| load_and_update(ssd, engine, 1, 10));
    }
}

#[test]
fn recovered_engine_accepts_new_work() {
    let (mut ssd, mut engine) = common::build(Strategy::CheckIn, RECORDS, ZONE_SECTORS);
    let layout = *engine.layout();
    let t = load_and_update(&mut ssd, &mut engine, 3, 2);
    drop(engine);
    let (mut recovered, t) =
        KvEngine::recover(Strategy::CheckIn, layout, 0.7, &mut ssd, RECORDS, t).unwrap();
    // New updates and a checkpoint on the recovered engine.
    let mut t = t;
    for k in 0..RECORDS {
        t = recovered.update(&mut ssd, k, 400, t).unwrap();
    }
    let out = recovered.checkpoint(&mut ssd, t).unwrap();
    let r = recovered.get(&mut ssd, 0, out.finish).unwrap();
    assert!(
        !r.from_journal,
        "post-checkpoint reads come from the data area"
    );
    ssd.ftl().check_invariants().unwrap();
}

#[test]
fn double_crash_recovers_twice() {
    let (mut ssd, mut engine) = common::build(Strategy::CheckIn, RECORDS, ZONE_SECTORS);
    let layout = *engine.layout();
    let mut t = load_and_update(&mut ssd, &mut engine, 3, 2);
    let expected: Vec<u64> = (0..RECORDS)
        .map(|k| engine.version_of(k).unwrap())
        .collect();
    drop(engine);
    for _ in 0..2 {
        let (recovered, done) =
            KvEngine::recover(Strategy::CheckIn, layout, 0.7, &mut ssd, RECORDS, t).unwrap();
        t = done;
        for k in 0..RECORDS {
            assert_eq!(recovered.version_of(k), Some(expected[k as usize]));
        }
    }
}

#[test]
fn unknown_key_still_errors_after_recovery() {
    let (mut ssd, mut engine) = common::build(Strategy::CheckIn, RECORDS, ZONE_SECTORS);
    let layout = *engine.layout();
    let t = load_and_update(&mut ssd, &mut engine, 1, 10);
    drop(engine);
    let (mut recovered, t) =
        KvEngine::recover(Strategy::CheckIn, layout, 0.7, &mut ssd, RECORDS, t).unwrap();
    assert_eq!(
        recovered.get(&mut ssd, RECORDS + 5, t),
        Err(EngineError::UnknownKey(RECORDS + 5))
    );
}
