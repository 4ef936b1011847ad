//! Data-consistency integration against a shadow model: drive the engine
//! with an adversarial hand-built schedule, mirror every mutation in a
//! plain `HashMap`, and verify the storage stack agrees at every step —
//! including across checkpoints, zone wraps, trims and GC.

use std::collections::HashMap;

use checkin_core::{EngineError, KvEngine, Strategy};
use checkin_sim::{SimRng, SimTime};

mod common;

const RECORDS: u64 = 80;
/// Journal zone size in sectors.
const ZONE_SECTORS: u64 = 1 << 10;

/// Random op soup, mirrored into a shadow model, verified continuously.
fn churn(strategy: Strategy, seed: u64, ops: usize) {
    let (mut ssd, mut engine) = common::build(strategy, RECORDS, ZONE_SECTORS);
    let mut rng = SimRng::seed_from(seed);
    let mut shadow: HashMap<u64, u64> = HashMap::new();

    let records: Vec<(u64, u32)> = (0..RECORDS)
        .map(|k| (k, 128 + (rng.gen_range(8) * 500) as u32))
        .collect();
    let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
    for &(k, _) in &records {
        shadow.insert(k, 1);
    }

    for i in 0..ops {
        let key = rng.gen_range(RECORDS);
        match rng.gen_range(10) {
            // 40%: update with a random size across all classes.
            0..=3 => {
                let bytes = 1 + rng.gen_range(4096) as u32;
                match engine.update(&mut ssd, key, bytes, t) {
                    Ok(done) => {
                        t = done;
                        *shadow.get_mut(&key).unwrap() += 1;
                    }
                    Err(EngineError::JournalFull) => {
                        t = engine.checkpoint(&mut ssd, t).unwrap().finish;
                        t = engine.update(&mut ssd, key, bytes, t).unwrap();
                        *shadow.get_mut(&key).unwrap() += 1;
                    }
                    Err(e) => panic!("update failed: {e}"),
                }
            }
            // 40%: read and compare against the shadow.
            4..=7 => {
                let r = engine.get(&mut ssd, key, t).unwrap();
                t = r.finish;
                assert_eq!(r.version, shadow[&key], "op {i}: key {key} ({strategy})");
            }
            // 10%: checkpoint now.
            8 => {
                t = engine.checkpoint(&mut ssd, t).unwrap().finish;
            }
            // 10%: background GC opportunity.
            _ => {
                let (_, done) = ssd.background_gc(t, 4).unwrap();
                t = done;
            }
        }
    }
    // Full sweep at the end.
    for (&key, &version) in &shadow {
        let r = engine.get(&mut ssd, key, t).unwrap();
        t = r.finish;
        assert_eq!(r.version, version, "final sweep key {key} ({strategy})");
    }
    ssd.ftl().check_invariants().unwrap();
}

#[test]
fn baseline_matches_shadow_model() {
    churn(Strategy::Baseline, 1, 3_000);
}

#[test]
fn isca_matches_shadow_model() {
    churn(Strategy::IscA, 2, 3_000);
}

#[test]
fn iscb_matches_shadow_model() {
    churn(Strategy::IscB, 3, 3_000);
}

#[test]
fn iscc_matches_shadow_model() {
    churn(Strategy::IscC, 4, 3_000);
}

#[test]
fn checkin_matches_shadow_model() {
    churn(Strategy::CheckIn, 5, 3_000);
}

#[test]
fn checkin_matches_shadow_model_across_seeds() {
    for seed in 10..14 {
        churn(Strategy::CheckIn, seed, 1_200);
    }
}

#[test]
fn consistency_holds_with_crash_recovery_interleaved() {
    let strategy = Strategy::CheckIn;
    let (mut ssd, mut engine) = common::build(strategy, RECORDS, ZONE_SECTORS);
    let layout = *engine.layout();
    let mut rng = SimRng::seed_from(77);
    let mut shadow: HashMap<u64, u64> = HashMap::new();

    let records: Vec<(u64, u32)> = (0..RECORDS).map(|k| (k, 400)).collect();
    let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
    for &(k, _) in &records {
        shadow.insert(k, 1);
    }

    for _round in 0..4 {
        for _ in 0..300 {
            let key = rng.gen_range(RECORDS);
            let bytes = 1 + rng.gen_range(2048) as u32;
            match engine.update(&mut ssd, key, bytes, t) {
                Ok(done) => t = done,
                Err(EngineError::JournalFull) => {
                    t = engine.checkpoint(&mut ssd, t).unwrap().finish;
                    t = engine.update(&mut ssd, key, bytes, t).unwrap();
                }
                Err(e) => panic!("{e}"),
            }
            *shadow.get_mut(&key).unwrap() += 1;
        }
        // Crash and recover; committed state must be intact.
        drop(engine);
        let (rec, done) = KvEngine::recover(strategy, layout, 0.7, &mut ssd, RECORDS, t).unwrap();
        engine = rec;
        t = done;
        for (&key, &version) in &shadow {
            assert_eq!(
                engine.version_of(key),
                Some(version),
                "key {key} after crash"
            );
        }
    }
}
