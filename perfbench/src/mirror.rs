//! The traced driver: `KvSystem::new` and `KvSystem::run`, step for step,
//! through the layers' public APIs, with a span around every call into a
//! layer.
//!
//! It must reach the same simulated state as `KvSystem::run` for the same
//! configuration; the faithfulness gate in `checks` compares the two on
//! every run. Any edit to `KvSystem::run` needs the same edit here, or the
//! gate fails.

use checkin_core::{
    CheckpointOutcome, CheckpointPhases, EngineError, JournalOptions, KvEngine, LatencyStats,
    Layout, SystemConfig, LOG_HEADER_BYTES,
};
use checkin_flash::FlashArray;
use checkin_ftl::{Ftl, MapCacheModel};
use checkin_sim::{
    CounterSet, EventQueue, LatencyRecorder, ResourcePool, SimDuration, SimRng, SimTime,
};
use checkin_ssd::{Ssd, SECTOR_BYTES};
use checkin_workload::{OpGenerator, Operation};

use crate::spans::{Cause, Site, SpanLog};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Client(u32),
    CheckpointTick,
}

/// The assembled stack, as `KvSystem::new` builds it.
#[derive(Debug)]
pub struct Stack {
    config: SystemConfig,
    ssd: Ssd,
    engine: KvEngine,
    generators: Vec<OpGenerator>,
}

/// Builds the stack exactly as `KvSystem::new` does.
///
/// # Errors
///
/// The configuration is invalid or the layout does not fit the device.
pub fn build(config: &SystemConfig) -> Result<Stack, String> {
    config.validate()?;
    let zone_sectors = (config.journal_trigger_sectors * 2).max(1024);
    let layout = Layout::new(
        config.workload.record_count,
        config.workload.sizes.max_bytes() + LOG_HEADER_BYTES,
        config.effective_unit_bytes(),
        zone_sectors,
    );
    let layout_bytes = layout.total_sectors() * u64::from(SECTOR_BYTES);
    if layout_bytes * 10 > config.geometry.capacity_bytes() * 9 {
        return Err(format!(
            "layout needs {layout_bytes} B, more than 90% of the device"
        ));
    }
    let flash = FlashArray::new(config.geometry, config.flash_timing);
    let ftl = Ftl::new(flash, config.ftl_config())?;
    let ssd = Ssd::new(ftl, config.ssd_timing);
    let mut options = if config.strategy.sector_aligned_journaling() {
        JournalOptions::check_in(config.compression_ratio)
    } else {
        JournalOptions::conventional()
    };
    if config.ablate_partial_merging {
        options.merge_partials = false;
    }
    if config.ablate_compression {
        options.compression_ratio = 1.0;
    }
    let engine = KvEngine::with_journal_options(config.strategy, layout, options);
    let mut seed_rng = SimRng::seed_from(config.workload.seed);
    let generators = (0..config.threads)
        .map(|_| {
            let mut spec = config.workload.clone();
            spec.seed = seed_rng.next_u64();
            spec.generator()
        })
        .collect();
    Ok(Stack {
        config: config.clone(),
        ssd,
        engine,
        generators,
    })
}

/// Checkpoint totals across every trigger path.
#[derive(Debug, Default)]
pub struct CpTotals {
    /// Checkpoints run.
    pub count: u64,
    /// Entries satisfied by remapping.
    pub remapped: u64,
    /// Entries satisfied by copying.
    pub copied: u64,
    /// Flash programs inside checkpoint windows.
    pub programs: u64,
    /// Flash reads inside checkpoint windows.
    pub reads: u64,
    /// Payload bytes rewritten by checkpoints.
    pub redundant_bytes: u64,
    /// Checkpoint durations on the simulated clock.
    pub durations: LatencyRecorder,
    /// Per-phase breakdown, summed.
    pub phases: CheckpointPhases,
}

impl CpTotals {
    fn absorb(&mut self, out: &CheckpointOutcome, started: SimTime) {
        self.count += 1;
        self.remapped += out.remapped;
        self.copied += out.copied;
        self.programs += out.flash_programs;
        self.reads += out.flash_reads;
        self.redundant_bytes += out.redundant_bytes;
        self.durations.record(out.finish.duration_since(started));
        self.phases.accumulate(&out.phases);
    }
}

/// Query-phase counter deltas of every layer.
#[derive(Debug, Clone, Default)]
pub struct Deltas {
    /// `flash.*`.
    pub flash: CounterSet,
    /// `ftl.*`.
    pub ftl: CounterSet,
    /// `ssd.*`.
    pub ssd: CounterSet,
    /// `engine.*`.
    pub engine: CounterSet,
}

/// Everything one traced-driver run observed.
#[derive(Debug)]
pub struct MirrorRun {
    /// Queries completed.
    pub ops: u64,
    /// Simulated time from the first query to the last completion.
    pub elapsed: SimDuration,
    /// All queries, reads, writes, reads during a checkpoint, writes
    /// during a checkpoint.
    pub latency: [LatencyStats; 5],
    /// Every query latency in nanoseconds, in completion order.
    pub samples: Vec<u64>,
    /// Checkpoint totals.
    pub cp: CpTotals,
    /// Query-phase counter deltas.
    pub deltas: Deltas,
    /// `EventQueue` schedules plus pops.
    pub queue_ops: u64,
    /// Simulated busy time of the host link during the query phase.
    pub link_busy: SimDuration,
    /// Simulated busy time of the firmware CPU during the query phase.
    pub fw_busy: SimDuration,
    /// Simulated busy time summed over dies during the query phase.
    pub die_busy: SimDuration,
    /// Map-cache hit rate at the end of the run.
    pub map_hit_rate: f64,
    /// Journal stored bytes over raw bytes.
    pub journal_space: f64,
}

impl Stack {
    /// Loads, runs the configured queries and reports, exactly as
    /// `KvSystem::run` does, with a span around each layer call.
    ///
    /// # Errors
    ///
    /// Propagates engine and device failures.
    pub fn run(&mut self, spans: &mut SpanLog) -> Result<MirrorRun, EngineError> {
        let cfg = &self.config;
        let ssd = &mut self.ssd;
        let engine = &mut self.engine;
        let generators = &mut self.generators;

        let records: Vec<(u64, u32)> = (0..cfg.workload.record_count)
            .map(|k| (k, generators[0].load_size(k)))
            .collect();
        let load_done = spans.span(Site::Load, 0, Cause::Load, || {
            engine.load(ssd, &records, SimTime::ZERO)
        })?;

        let flash0 = ssd.ftl().flash().counters().clone();
        let ftl0 = ssd.ftl().counters().clone();
        let ssd0 = ssd.counters().clone();
        let engine0 = engine.counters().clone();
        let link0 = ssd.link_busy_time();
        let fw0 = ssd.cpu_busy_time();
        let die0 = ssd.ftl().flash().die_busy_time();

        let mut events: EventQueue<Event> = EventQueue::with_capacity(cfg.threads as usize + 1);
        let mut queue_ops = 0u64;
        let mut host = ResourcePool::new("host-core", cfg.host_cores as usize);
        let start = load_done + SimDuration::from_micros(10);
        let base_quota = cfg.total_queries / u64::from(cfg.threads);
        let extra = (cfg.total_queries % u64::from(cfg.threads)) as u32;
        let mut quota: Vec<u64> = (0..cfg.threads)
            .map(|i| base_quota + u64::from(i < extra))
            .collect();
        for i in 0..cfg.threads {
            if quota[i as usize] > 0 {
                spans.span(Site::EventQueue, 0, Cause::Query, || {
                    events.schedule(start, Event::Client(i))
                });
                queue_ops += 1;
            }
        }
        let mut next_tick = start + cfg.checkpoint_interval;
        spans.span(Site::EventQueue, 0, Cause::Query, || {
            events.schedule(next_tick, Event::CheckpointTick)
        });
        queue_ops += 1;
        let mut ticks = 0u64;

        let mut completed = 0u64;
        let mut last_finish = start;
        let mut lat = [(); 5].map(|_| LatencyRecorder::new());
        let mut samples = Vec::with_capacity(cfg.total_queries as usize);
        let mut cp_active_until = SimTime::ZERO;
        let mut cp = CpTotals::default();

        // One background pass after a checkpoint: GC first, then scrub.
        let after_checkpoint = |ssd: &mut Ssd,
                                spans: &mut SpanLog,
                                finish: SimTime,
                                query: u64,
                                cause: Cause|
         -> Result<SimTime, EngineError> {
            let (_, gc_done) = spans
                .span(Site::BackgroundGc, query, cause, || {
                    ssd.background_gc(finish, cfg.background_gc_rounds)
                })
                .map_err(EngineError::Ssd)?;
            let (_, scrub_done) = spans
                .span(Site::BackgroundScrub, query, cause, || {
                    ssd.background_scrub(gc_done, cfg.scrub_pages_per_idle)
                })
                .map_err(EngineError::Ssd)?;
            Ok(gc_done.max(scrub_done))
        };

        while completed < cfg.total_queries {
            let Some((now, event)) =
                spans.span(Site::EventQueue, completed, Cause::Query, || events.pop())
            else {
                break;
            };
            queue_ops += 1;
            match event {
                Event::CheckpointTick => {
                    ticks += 1;
                    if now >= cp_active_until && !engine.journal().jmt().is_empty() {
                        let cause = Cause::Tick(ticks);
                        let out = spans.span(Site::Checkpoint, completed, cause, || {
                            engine.checkpoint(ssd, now)
                        })?;
                        cp_active_until = out.finish;
                        cp.absorb(&out, now);
                        let done = after_checkpoint(ssd, spans, out.finish, completed, cause)?;
                        last_finish = last_finish.max(done);
                    }
                    next_tick = now + cfg.checkpoint_interval;
                    spans.span(Site::EventQueue, completed, Cause::Query, || {
                        events.schedule(next_tick, Event::CheckpointTick)
                    });
                    queue_ops += 1;
                }
                Event::Client(thread) => {
                    let t = thread as usize;
                    if quota[t] == 0 {
                        continue;
                    }
                    if cfg.lock_queries_during_checkpoint && now < cp_active_until {
                        spans.span(Site::EventQueue, completed, Cause::Query, || {
                            events.schedule(cp_active_until, Event::Client(thread))
                        });
                        queue_ops += 1;
                        continue;
                    }
                    let mut batch_end = now;
                    for _ in 0..cfg.admission_batch {
                        let query = completed;
                        let during_cp = now < cp_active_until;
                        let op = spans.span(Site::NextOp, query, Cause::Query, || {
                            generators[t].next_op()
                        });
                        let cpu = spans
                            .span(Site::HostPool, query, Cause::Query, || {
                                host.schedule(now, cfg.host_cpu_per_op)
                            })
                            .1;
                        let finish =
                            execute_op(engine, ssd, spans, &mut cp, op, cpu.finish, query)?;
                        let latency = finish.duration_since(now);
                        spans.span(Site::LatencyRecord, query, Cause::Query, || {
                            lat[0].record(latency);
                            let (by_kind, during) = match op {
                                Operation::Read { .. } => (1, 3),
                                _ => (2, 4),
                            };
                            lat[by_kind].record(latency);
                            if during_cp {
                                lat[during].record(latency);
                            }
                        });
                        samples.push(latency.as_nanos());
                        completed += 1;
                        quota[t] -= 1;
                        last_finish = last_finish.max(finish);
                        batch_end = batch_end.max(finish);

                        if op.is_write()
                            && finish >= cp_active_until
                            && engine.journal().zone_used_sectors() >= cfg.journal_trigger_sectors
                        {
                            let cause = Cause::SizeTrigger;
                            let out = spans.span(Site::Checkpoint, query, cause, || {
                                engine.checkpoint(ssd, finish)
                            })?;
                            cp_active_until = out.finish;
                            cp.absorb(&out, finish);
                            let done = after_checkpoint(ssd, spans, out.finish, query, cause)?;
                            last_finish = last_finish.max(done);
                            break;
                        }
                        if quota[t] == 0 {
                            break;
                        }
                    }
                    if quota[t] > 0 {
                        spans.span(Site::EventQueue, completed, Cause::Query, || {
                            events.schedule(batch_end, Event::Client(thread))
                        });
                        queue_ops += 1;
                    }
                }
            }
        }

        let elapsed = last_finish.duration_since(start);
        let deltas = Deltas {
            flash: ssd.ftl().flash().counters().delta_since(&flash0),
            ftl: ssd.ftl().counters().delta_since(&ftl0),
            ssd: ssd.counters().delta_since(&ssd0),
            engine: engine.counters().delta_since(&engine0),
        };
        let jmt = engine.journal().jmt();
        let raw = deltas.engine.get("engine.journal_raw_bytes") + jmt.raw_bytes();
        let stored = deltas.engine.get("engine.journal_stored_bytes") + jmt.stored_bytes();
        let live = ssd.ftl().live_entries();
        Ok(MirrorRun {
            ops: completed,
            elapsed,
            latency: lat.each_ref().map(LatencyStats::from_recorder),
            samples,
            cp,
            queue_ops,
            link_busy: ssd.link_busy_time() - link0,
            fw_busy: ssd.cpu_busy_time() - fw0,
            die_busy: ssd.ftl().flash().die_busy_time() - die0,
            map_hit_rate: MapCacheModel::with_capacity(cfg.map_cache_entries).hit_rate(live),
            journal_space: if raw == 0 {
                1.0
            } else {
                stored as f64 / raw as f64
            },
            deltas,
        })
    }
}

/// One query against the engine, as `KvSystem::execute_op` runs it.
fn execute_op(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    spans: &mut SpanLog,
    cp: &mut CpTotals,
    op: Operation,
    at: SimTime,
    query: u64,
) -> Result<SimTime, EngineError> {
    match op {
        Operation::Read { key } => Ok(spans
            .span(Site::Get, query, Cause::Query, || engine.get(ssd, key, at))?
            .finish),
        Operation::Update { key, bytes } => {
            update_with_retry(engine, ssd, spans, cp, key, bytes, at, query)
        }
        Operation::ReadModifyWrite { key, bytes } => {
            let read = spans.span(Site::Get, query, Cause::Query, || engine.get(ssd, key, at))?;
            update_with_retry(engine, ssd, spans, cp, key, bytes, read.finish, query)
        }
    }
}

/// `KvSystem::update_with_retry`: a full journal forces a checkpoint.
#[allow(clippy::too_many_arguments)]
fn update_with_retry(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    spans: &mut SpanLog,
    cp: &mut CpTotals,
    key: u64,
    bytes: u32,
    at: SimTime,
    query: u64,
) -> Result<SimTime, EngineError> {
    match spans.span(Site::Update, query, Cause::Query, || {
        engine.update(ssd, key, bytes, at)
    }) {
        Ok(t) => Ok(t),
        Err(EngineError::JournalFull) => {
            let out = spans.span(Site::Checkpoint, query, Cause::JournalFull, || {
                engine.checkpoint(ssd, at)
            })?;
            cp.absorb(&out, at);
            spans.span(Site::Update, query, Cause::JournalFull, || {
                engine.update(ssd, key, bytes, out.finish)
            })
        }
        Err(e) => Err(e),
    }
}
