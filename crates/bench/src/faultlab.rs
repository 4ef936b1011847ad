//! The fault lab: one fixture, one driver and one shadow oracle behind
//! the `crashmatrix` (DESIGN.md §9) and `corruptmatrix` (§13) sweeps and
//! the every-tick power-cut test.
//!
//! [`drive`] runs a seeded `KvEngine` workload (updates, deletes,
//! inserts, checkpoints, background GC) against a deliberately tight
//! device, optionally under an armed [`FaultPlan`], and keeps a shadow
//! key→version model of everything the engine acknowledged. The returned
//! [`Driven`] handle owns the device, the engine and the sim clock; it
//! power-cycles and recovers the stack ([`Driven::recover`]) and checks
//! every key against the shadow ([`Driven::verify`]). The matrices only
//! choose where faults land and what each tier requires of the
//! [`Verdict`].

use checkin_core::{EngineError, KvEngine, Layout, Strategy};
use checkin_flash::{
    FaultConfig, FaultOp, FaultPhase, FaultPlan, FlashArray, FlashGeometry, FlashTiming,
};
use checkin_ftl::{Ftl, FtlConfig};
use checkin_sim::SimTime;
use checkin_ssd::{Ssd, SsdError, SsdTiming};
use checkin_testkit::TestRng;

/// Keys in the workload (dense, all loaded up front).
pub const RECORDS: u64 = 48;
/// Largest value the workload writes (drives the layout's slot size).
const MAX_RECORD_BYTES: u32 = 2048;
/// Journal zone size in sectors — small enough that checkpoints and GC
/// both happen many times inside one run.
const ZONE_SECTORS: u64 = 384;
/// Operations per run after the initial load.
pub const OPS: u64 = 700;
/// Compression ratio for sector-aligned journaling (paper default).
const COMPRESSION: f64 = 0.7;

/// A deliberately tight device: 16 blocks of 16 pages (1 MiB) against a
/// ~512 KiB logical space, so GC runs inside every workload.
fn geometry() -> FlashGeometry {
    FlashGeometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 8,
        pages_per_block: 16,
        page_bytes: 4096,
    }
}

/// The engine layout for `strategy`'s mapping unit.
fn layout_for(strategy: Strategy) -> Layout {
    Layout::new(
        RECORDS,
        MAX_RECORD_BYTES,
        strategy.default_unit_bytes(),
        ZONE_SECTORS,
    )
}

/// The FTL configuration every lab device starts from. Tiers adjust
/// single fields (victim policy, checksum verification) with
/// struct-update syntax.
pub fn ftl_config(strategy: Strategy) -> FtlConfig {
    FtlConfig {
        unit_bytes: strategy.default_unit_bytes(),
        write_points: 2,
        gc_threshold_blocks: 3,
        gc_soft_threshold_blocks: 6,
        write_buffer_units: 16,
        ..FtlConfig::default()
    }
}

/// A fresh device over [`geometry`] with the given FTL configuration.
fn build_ssd(config: FtlConfig) -> Ssd {
    let flash = FlashArray::new(geometry(), FlashTiming::mlc());
    let ftl = Ftl::new(flash, config).expect("valid FTL config");
    Ssd::new(ftl, SsdTiming::paper_default())
}

/// One client operation of the seeded stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Overwrite a live key with a value of this many bytes.
    Update(u32),
    /// Re-insert a deleted key with a value of this many bytes.
    Insert(u32),
    /// Delete a live key.
    Delete,
}

/// True when `e` is the device reporting that power was cut.
fn is_power_loss(e: &EngineError) -> bool {
    matches!(e, EngineError::Ssd(SsdError::Ftl(f)) if f.is_power_loss())
}

/// True when `e` is a typed integrity failure (damage detected, not
/// served).
pub fn is_integrity(e: &EngineError) -> bool {
    matches!(e, EngineError::Ssd(s) if s.is_integrity())
}

/// Issues `op` on `key` at `t`; returns the completion time.
fn apply_op(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    key: u64,
    op: Op,
    t: SimTime,
) -> Result<SimTime, EngineError> {
    match op {
        Op::Update(bytes) => engine.update(ssd, key, bytes, t),
        Op::Insert(bytes) => engine.insert(ssd, key, bytes, t),
        Op::Delete => engine.delete(ssd, key, t),
    }
}

/// Checkpoint, then let GC — and with `scrub` the background scrubber —
/// use the idle window, in the order the system loop uses.
///
/// # Errors
///
/// Propagates the first failure of the checkpoint, GC or scrub.
pub fn checkpoint_and_idle(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    t: SimTime,
    scrub: bool,
) -> Result<SimTime, EngineError> {
    let out = engine.checkpoint(ssd, t)?;
    let (_, gc_done) = ssd.background_gc(out.finish, 4)?;
    if !scrub {
        return Ok(gc_done);
    }
    let (_, scrub_done) = ssd
        .background_scrub(gc_done, 32)
        .map_err(EngineError::Ssd)?;
    Ok(gc_done.max(scrub_done))
}

/// Why a driven run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Every op of the stream ran.
    Completed,
    /// A power loss ended the run.
    PowerLoss,
    /// An op failed with a typed integrity error and was never acked.
    OpIntegrity,
    /// A checkpoint failed with a typed integrity error: journal entries
    /// may already be retired while remaps are incomplete, so
    /// version-exact verification is unsound for the run.
    CheckpointIntegrity,
}

/// Classifies a failure that ends a run of `strategy` on `seed`.
///
/// # Panics
///
/// Panics unless `e` is a power loss or a typed integrity error — faults
/// must surface as one of those, never as another error.
fn stop_for(e: &EngineError, in_checkpoint: bool, strategy: Strategy, seed: u64) -> Stop {
    let what = if in_checkpoint { "checkpoint" } else { "op" };
    if is_power_loss(e) {
        Stop::PowerLoss
    } else if !is_integrity(e) {
        panic!("{strategy} seed {seed}: {what} failed: {e}")
    } else if in_checkpoint {
        Stop::CheckpointIntegrity
    } else {
        Stop::OpIntegrity
    }
}

/// What the engine acknowledged for one key.
#[derive(Debug, Clone, Copy)]
pub struct ShadowKey {
    /// Version of the last acked write (the load is version 1).
    pub version: u64,
    /// The last acked write was a delete.
    pub deleted: bool,
}

/// An operation that was admitted but not yet acknowledged when the run
/// stopped: under batched admission the client receives acks only when
/// the whole batch completes, so every op of a half-finished batch may
/// land in either its old or new state.
#[derive(Debug, Clone, Copy)]
pub struct Inflight {
    /// Key the op targets.
    pub key: u64,
    /// Version the op writes.
    pub version: u64,
    /// The op is a delete.
    pub delete: bool,
}

/// A driven workload: the device, engine and clock as the run left them,
/// plus the shadow model of everything the engine acknowledged.
pub struct Driven {
    /// The device.
    pub ssd: Ssd,
    /// The engine driving it (replaced by [`Driven::recover`]).
    pub engine: KvEngine,
    /// Acked state per key.
    pub shadow: Vec<ShadowKey>,
    /// The unacked tail: the in-progress batch (admitted, not acked) plus
    /// the op that observed the stop — empty when the run completed.
    pub inflight: Vec<Inflight>,
    /// Why the run ended.
    pub stop: Stop,
    /// Sim clock.
    pub t: SimTime,
}

/// Runs the seeded workload on a fresh device built from `ftl`,
/// optionally under `plan` (armed *after* the initial load, so tick
/// indices count steady-state operations). Stops at the first power loss
/// or typed integrity failure.
///
/// `batch` models the system's admission batching: ops are admitted in
/// groups of `batch` and acknowledged to the client only when the whole
/// group completes, with checkpoints confined to batch boundaries (the
/// admission gate's no-straddling rule). The op stream itself is
/// identical for every batch size; only ack timing differs. A stop
/// mid-batch rolls the staged shadow entries back to their pre-batch
/// versions and reports the whole pending group as in flight. `scrub`
/// lets the background scrubber run after GC in every idle window.
///
/// # Panics
///
/// Panics if the load fails or an op or checkpoint fails with anything
/// other than power loss or a typed integrity error.
pub fn drive(
    strategy: Strategy,
    ftl: FtlConfig,
    seed: u64,
    plan: Option<FaultPlan>,
    batch: u32,
    scrub: bool,
) -> Driven {
    let mut ssd = build_ssd(ftl);
    let layout = layout_for(strategy);
    let mut engine = KvEngine::new(strategy, layout, COMPRESSION);
    let mut rng = TestRng::seed_from(seed);
    let records: Vec<(u64, u32)> = (0..RECORDS)
        .map(|k| (k, rng.range_u32(200, MAX_RECORD_BYTES - 48)))
        .collect();
    let mut t = engine
        .load(&mut ssd, &records, SimTime::ZERO)
        .expect("fault-free load");
    let mut shadow = vec![
        ShadowKey {
            version: 1,
            deleted: false,
        };
        RECORDS as usize
    ];
    if let Some(p) = plan {
        ssd.ftl_mut().flash_mut().arm_faults(p);
    }
    let cp_units = (layout.zone_sectors() / layout.unit_sectors()) / 4;
    let mut inflight: Vec<Inflight> = Vec::new();
    let mut stop = Stop::Completed;
    let mut remaining = OPS;

    while remaining > 0 && stop == Stop::Completed {
        // Batch boundary: the only place checkpoints are allowed, and the
        // point at which the previous batch's acks became durable facts.
        if engine.journal_used_units() >= cp_units {
            match checkpoint_and_idle(&mut engine, &mut ssd, t, scrub) {
                Ok(done) => t = done,
                Err(e) => {
                    stop = stop_for(&e, true, strategy, seed);
                    break;
                }
            }
        }
        let group = u64::from(batch.max(1)).min(remaining);
        remaining -= group;
        // Acks staged by this batch, with each key's pre-batch shadow
        // value so a mid-batch stop can un-ack the whole group.
        let mut pending: Vec<Inflight> = Vec::new();
        let mut saved: Vec<(u64, ShadowKey)> = Vec::new();
        for _ in 0..group {
            let key = rng.below(RECORDS);
            let entry = shadow[key as usize];
            let bytes = rng.range_u32(200, MAX_RECORD_BYTES - 48);
            let op = if entry.deleted {
                Op::Insert(bytes)
            } else if rng.below(100) < 10 {
                Op::Delete
            } else {
                Op::Update(bytes)
            };
            let next = Inflight {
                key,
                version: entry.version + 1,
                delete: matches!(op, Op::Delete),
            };
            let mut result = apply_op(&mut engine, &mut ssd, key, op, t);
            if matches!(result, Err(EngineError::JournalFull)) {
                // The admission estimate ran short: force the checkpoint
                // the real system would have taken at the boundary. A stop
                // inside it leaves `next` un-issued (it never touched the
                // journal), so only the already-issued group is in flight.
                match checkpoint_and_idle(&mut engine, &mut ssd, t, scrub) {
                    Ok(done) => t = done,
                    Err(e) => {
                        stop = stop_for(&e, true, strategy, seed);
                        break;
                    }
                }
                result = apply_op(&mut engine, &mut ssd, key, op, t);
            }
            match result {
                Ok(done) => {
                    t = done;
                    if !saved.iter().any(|&(k, _)| k == key) {
                        saved.push((key, entry));
                    }
                    shadow[key as usize] = ShadowKey {
                        version: next.version,
                        deleted: next.delete,
                    };
                    pending.push(next);
                }
                Err(e) => {
                    stop = stop_for(&e, false, strategy, seed);
                    pending.push(next);
                    break;
                }
            }
        }
        if stop != Stop::Completed {
            for &(k, old) in &saved {
                shadow[k as usize] = old;
            }
            inflight = pending;
        }
        // Otherwise the batch completed: its staged entries are now acked.
    }
    Driven {
        ssd,
        engine,
        shadow,
        inflight,
        stop,
        t,
    }
}

/// Profiling pass: the same run as [`drive`] with no faults injected,
/// returning its per-tick `(op, phase)` trace. Tick indices only match a
/// drive with the same arguments.
///
/// # Panics
///
/// Panics as [`drive`] does.
pub fn profile(
    strategy: Strategy,
    ftl: FtlConfig,
    seed: u64,
    batch: u32,
    scrub: bool,
) -> Vec<(FaultOp, FaultPhase)> {
    let plan = FaultPlan::new(FaultConfig {
        record_trace: true,
        ..FaultConfig::default()
    });
    let d = drive(strategy, ftl, seed, Some(plan), batch, scrub);
    d.ssd
        .ftl()
        .flash()
        .fault_plan()
        .expect("plan stays armed")
        .trace()
        .to_vec()
}

/// The shadow oracle's judgement of one run. Every read is classified
/// exactly once; the sweeps report different sums of the same counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Keys read back.
    pub checked: u64,
    /// Acked live keys the engine no longer knows.
    pub missing: u64,
    /// Reads that served a version older than the acked one.
    pub stale: u64,
    /// Reads that served a version newer than the acked one that no
    /// in-flight op wrote.
    pub ahead: u64,
    /// Acked deletions that came back readable.
    pub resurrected: u64,
    /// Reads that failed with a typed integrity error (damage detected,
    /// not served).
    pub detected: u64,
}

impl Verdict {
    /// Adds `other`'s counts to this verdict.
    pub fn absorb(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.missing += other.missing;
        self.stale += other.stale;
        self.ahead += other.ahead;
        self.resurrected += other.resurrected;
        self.detected += other.detected;
    }

    /// For tiers where no read may fail at all: a typed read failure
    /// means acked data is unreadable, so it counts as missing.
    #[must_use]
    pub fn strict(mut self) -> Verdict {
        self.missing += self.detected;
        self.detected = 0;
        self
    }

    /// Acked writes the device no longer serves: missing keys plus
    /// rolled-back versions.
    pub fn losses(&self) -> u64 {
        self.missing + self.stale
    }

    /// Reads that returned a wrong version without an error.
    pub fn silent_wrong(&self) -> u64 {
        self.stale + self.ahead
    }

    /// No key was lost, rolled back, torn forward or resurrected.
    pub fn clean(&self) -> bool {
        self.missing + self.stale + self.ahead + self.resurrected == 0
    }
}

impl Driven {
    /// Power-cycles the device and rebuilds the stack from flash: a fault
    /// schedule that outlived the workload is cut at the end (nothing is
    /// in flight then), then `Ssd::recover_power_loss` and
    /// `KvEngine::recover` run. The recovered engine and its clock
    /// replace the driven ones.
    ///
    /// # Panics
    ///
    /// Panics if the run stopped on a typed integrity failure (no tier
    /// recovers from one) or either recovery step fails.
    pub fn recover(&mut self) {
        assert!(
            matches!(self.stop, Stop::Completed | Stop::PowerLoss),
            "recovery after a {:?} stop",
            self.stop
        );
        if !self.ssd.powered_off() {
            self.ssd.ftl_mut().flash_mut().cut_power();
            self.inflight.clear();
        }
        self.ssd
            .recover_power_loss()
            .expect("SPOR recovery after an injected power cut");
        let (engine, t) = KvEngine::recover(
            self.engine.strategy(),
            *self.engine.layout(),
            COMPRESSION,
            &mut self.ssd,
            RECORDS,
            self.t,
        )
        .expect("engine recovery");
        self.engine = engine;
        self.t = t;
    }

    /// Reads every key at the driven clock and checks it against the
    /// shadow model. The engine issues a batch sequentially, so only a
    /// prefix of the in-flight ops can have reached the journal; any of
    /// their versions — or the pre-batch acked one — is an acceptable
    /// state. With `skip_inflight` the keys of in-flight ops are not read
    /// or counted at all: after a typed failure the key's journal state
    /// may dangle. `announce` reports every bad key on stderr.
    ///
    /// # Panics
    ///
    /// Panics if a read fails with anything but an unknown key or a
    /// typed integrity error.
    pub fn verify(&mut self, skip_inflight: bool, announce: bool) -> Verdict {
        let mut v = Verdict::default();
        for (key, exp) in self.shadow.iter().enumerate() {
            let key = key as u64;
            let inflight = &self.inflight;
            if skip_inflight && inflight.iter().any(|i| i.key == key) {
                continue;
            }
            let admitted = |version: u64| {
                inflight
                    .iter()
                    .any(|i| i.key == key && !i.delete && i.version == version)
            };
            let deleting = inflight.iter().any(|i| i.key == key && i.delete);
            v.checked += 1;
            let read = self.engine.get(&mut self.ssd, key, self.t);
            let bad = match (exp.deleted, read) {
                (false, Ok(r)) if r.version == exp.version || admitted(r.version) => None,
                (false, Ok(r)) if r.version < exp.version => {
                    v.stale += 1;
                    Some(format!(
                        "STALE: acked v{}, served v{}",
                        exp.version, r.version
                    ))
                }
                (false, Ok(r)) => {
                    v.ahead += 1;
                    Some(format!(
                        "AHEAD: acked v{}, served v{}",
                        exp.version, r.version
                    ))
                }
                (false, Err(EngineError::UnknownKey(_))) if deleting => None,
                (false, Err(EngineError::UnknownKey(_))) => {
                    v.missing += 1;
                    Some(format!(
                        "LOSS: acked v{} unknown to the engine",
                        exp.version
                    ))
                }
                (true, Err(EngineError::UnknownKey(_))) => None,
                (true, Ok(r)) if admitted(r.version) => None,
                (true, Ok(r)) => {
                    v.resurrected += 1;
                    Some(format!(
                        "RESURRECTED: acked delete v{}, readable v{}",
                        exp.version, r.version
                    ))
                }
                (_, Err(e)) if is_integrity(&e) => {
                    v.detected += 1;
                    None
                }
                (_, Err(e)) => panic!("verify read of key {key} failed untyped: {e}"),
            };
            if let (true, Some(msg)) = (announce, bad) {
                eprintln!("  key {key} {msg}");
            }
        }
        v
    }
}
