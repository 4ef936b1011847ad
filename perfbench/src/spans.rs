//! Host-clock spans around each call the traced driver makes into a layer.
//!
//! Every span is folded into per-site totals as it ends. Spans of
//! checkpoints, background work and the bulk load are also kept in
//! memory in full, together with every span of each `sample_every`-th
//! query, and written out as JSON lines when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// A call site in the traced driver: one layer entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `OpGenerator::next_op`.
    NextOp,
    /// `EventQueue::pop` and `EventQueue::schedule`.
    EventQueue,
    /// `ResourcePool::schedule` on the host-core pool.
    HostPool,
    /// `LatencyRecorder::record`, all recorders one query feeds.
    LatencyRecord,
    /// `KvEngine::get`.
    Get,
    /// `KvEngine::update`.
    Update,
    /// `KvEngine::checkpoint`.
    Checkpoint,
    /// `Ssd::background_gc`.
    BackgroundGc,
    /// `Ssd::background_scrub`.
    BackgroundScrub,
    /// `KvEngine::load`, the bulk load before the queries.
    Load,
}

impl Site {
    /// Every site, in ledger order.
    pub const ALL: [Site; 10] = [
        Site::NextOp,
        Site::EventQueue,
        Site::HostPool,
        Site::LatencyRecord,
        Site::Get,
        Site::Update,
        Site::Checkpoint,
        Site::BackgroundGc,
        Site::BackgroundScrub,
        Site::Load,
    ];

    /// Ledger name: `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Site::NextOp => "workload.next_op",
            Site::EventQueue => "sim.event_queue",
            Site::HostPool => "sim.host_pool",
            Site::LatencyRecord => "sim.latency_record",
            Site::Get => "core.get",
            Site::Update => "core.update",
            Site::Checkpoint => "core.checkpoint",
            Site::BackgroundGc => "ssd.background_gc",
            Site::BackgroundScrub => "ssd.background_scrub",
            Site::Load => "core.load",
        }
    }

    /// True for sites that run once per query (sampled when kept).
    fn per_query(self) -> bool {
        matches!(
            self,
            Site::NextOp
                | Site::EventQueue
                | Site::HostPool
                | Site::LatencyRecord
                | Site::Get
                | Site::Update
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What set a span off, beyond the query it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Part of serving the query.
    Query,
    /// The bulk load before the first query.
    Load,
    /// The `n`-th periodic checkpoint tick.
    Tick(u64),
    /// The journal-size trigger, fired by the query's write.
    SizeTrigger,
    /// A journal-full retry inside the query's update.
    JournalFull,
}

impl Cause {
    fn write_json(self, out: &mut String) {
        match self {
            Cause::Query => out.push_str("\"query\""),
            Cause::Load => out.push_str("\"load\""),
            Cause::Tick(n) => {
                let _ = write!(out, "\"tick:{n}\"");
            }
            Cause::SizeTrigger => out.push_str("\"size_trigger\""),
            Cause::JournalFull => out.push_str("\"journal_full\""),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    site: Site,
    start_ns: u64,
    dur_ns: u64,
    query: u64,
    cause: Cause,
}

/// Per-site host time: calls and total nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteTotal {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside those calls.
    pub nanos: u64,
}

/// In-memory span log. A disabled log runs each wrapped call bare.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    sample_every: u64,
    totals: [SiteTotal; Site::ALL.len()],
    kept: Vec<Span>,
}

impl SpanLog {
    /// A log that records nothing.
    pub fn disabled() -> Self {
        SpanLog {
            enabled: false,
            origin: Instant::now(),
            sample_every: 1,
            totals: [SiteTotal::default(); Site::ALL.len()],
            kept: Vec::new(),
        }
    }

    /// A recording log keeping every span of each `sample_every`-th query.
    pub fn enabled(sample_every: u64) -> Self {
        SpanLog {
            enabled: true,
            sample_every: sample_every.max(1),
            ..SpanLog::disabled()
        }
    }

    /// Runs `f` inside a span at `site` for `query`.
    #[inline]
    pub fn span<R>(&mut self, site: Site, query: u64, cause: Cause, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        let t = &mut self.totals[site.index()];
        t.calls += 1;
        t.nanos += dur_ns;
        if !site.per_query() || query.is_multiple_of(self.sample_every) {
            self.kept.push(Span {
                site,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
                query,
                cause,
            });
        }
        r
    }

    /// Totals at `site`.
    pub fn total(&self, site: Site) -> SiteTotal {
        self.totals[site.index()]
    }

    /// Host nanoseconds inside any span.
    pub fn covered_nanos(&self) -> u64 {
        self.totals.iter().map(|t| t.nanos).sum()
    }

    /// The kept spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.kept.len() * 96);
        for s in &self.kept {
            let _ = write!(
                out,
                "{{\"site\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"query\":{},\"cause\":",
                s.site.name(),
                s.start_ns,
                s.dur_ns,
                s.query
            );
            s.cause.write_json(&mut out);
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        assert_eq!(log.span(Site::Get, 0, Cause::Query, || 7), 7);
        assert_eq!(log.total(Site::Get), SiteTotal::default());
        assert!(log.to_json_lines().is_empty());
    }

    #[test]
    fn per_query_spans_are_sampled_and_others_kept() {
        let mut log = SpanLog::enabled(4);
        for q in 0..8 {
            log.span(Site::NextOp, q, Cause::Query, || ());
        }
        log.span(Site::Checkpoint, 5, Cause::Tick(1), || ());
        assert_eq!(log.total(Site::NextOp).calls, 8);
        let text = log.to_json_lines();
        assert_eq!(
            text.lines().count(),
            3,
            "queries 0 and 4, plus the checkpoint"
        );
        assert!(text.contains("\"site\":\"core.checkpoint\""));
        assert!(text.contains("\"cause\":\"tick:1\""));
    }
}
