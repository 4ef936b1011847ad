//! Output checks: the faithfulness gate between the traced driver and
//! `KvSystem::run`, and the correctness checks every run makes.

use checkin_core::{KvSystem, LatencyStats, RunReport};
use checkin_flash::OpPhase;
use checkin_sim::{SimDuration, SimTime};

use crate::mirror::MirrorRun;

/// Failures found so far, and the operations they were found among.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted: queries run plus verification reads.
    pub attempted: u64,
    /// One line per failed or incorrect operation or check.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records a failure.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Records a failure when `ok` is false.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// The simulated outputs both drivers report, by name.
fn sim_outputs_of_report(r: &RunReport) -> Vec<(&'static str, String)> {
    let latency = [
        r.latency,
        r.latency_read,
        r.latency_write,
        r.latency_read_during_cp,
        r.latency_write_during_cp,
    ];
    sim_outputs(
        r.ops,
        r.elapsed,
        &latency,
        [
            r.checkpoints,
            r.remapped_entries,
            r.copied_entries,
            r.checkpoint_flash_programs,
            r.checkpoint_flash_reads,
            r.redundant_write_bytes,
        ],
        [r.checkpoint_mean, r.checkpoint_max],
        [r.flash.reads, r.flash.programs, r.flash.erases],
    )
}

fn sim_outputs_of_mirror(m: &MirrorRun) -> Vec<(&'static str, String)> {
    sim_outputs(
        m.ops,
        m.elapsed,
        &m.latency,
        [
            m.cp.count,
            m.cp.remapped,
            m.cp.copied,
            m.cp.programs,
            m.cp.reads,
            m.cp.redundant_bytes,
        ],
        [m.cp.durations.mean(), m.cp.durations.max()],
        [
            m.deltas.flash.get("flash.read"),
            m.deltas.flash.get("flash.program"),
            m.deltas.flash.get("flash.erase"),
        ],
    )
}

fn sim_outputs(
    ops: u64,
    elapsed: SimDuration,
    latency: &[LatencyStats; 5],
    cp_counts: [u64; 6],
    cp_times: [SimDuration; 2],
    flash: [u64; 3],
) -> Vec<(&'static str, String)> {
    let mut out = vec![
        ("ops", ops.to_string()),
        ("elapsed", format!("{elapsed:?}")),
    ];
    let classes = ["all", "read", "write", "read_during_cp", "write_during_cp"];
    for (class, l) in classes.iter().zip(latency) {
        out.push((class, format!("{l:?}")));
    }
    let cp_names = [
        "checkpoints",
        "remapped",
        "copied",
        "checkpoint_flash_programs",
        "checkpoint_flash_reads",
        "redundant_write_bytes",
    ];
    for (name, v) in cp_names.into_iter().zip(cp_counts) {
        out.push((name, v.to_string()));
    }
    for (name, v) in ["checkpoint_mean", "checkpoint_max"]
        .into_iter()
        .zip(cp_times)
    {
        out.push((name, format!("{v:?}")));
    }
    for (name, v) in ["flash_reads", "flash_programs", "flash_erases"]
        .into_iter()
        .zip(flash)
    {
        out.push((name, v.to_string()));
    }
    out
}

/// Faithfulness gate: the traced driver's simulated outputs must equal
/// `KvSystem::run`'s exactly. Returns one line per differing output.
pub fn faithfulness(report: &RunReport, mirror: &MirrorRun) -> Vec<String> {
    sim_outputs_of_report(report)
        .into_iter()
        .zip(sim_outputs_of_mirror(mirror))
        .filter(|(a, b)| a.1 != b.1)
        .map(|(a, b)| format!("traced driver differs on {}: {} vs {}", a.0, a.1, b.1))
        .collect()
}

/// The exact order statistic `KvSystem`'s histogram quantile resolves:
/// rank `ceil(q * n)`, clamped to `[1, n]`, of the sorted samples.
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// True when `hist` is the histogram bucket edge that holds `exact`:
/// at or above it, by at most one bucket width (1/64 of the value).
pub fn in_same_bucket(exact: u64, hist: SimDuration) -> bool {
    let hist = hist.as_nanos();
    hist >= exact && hist - exact <= exact / 64 + 1
}

/// Samples strictly above the reported quantile value: the tail the
/// percentile rests on.
pub fn samples_beyond(sorted: &[u64], value: u64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= value)
}

/// Correctness of one finished `KvSystem` run: invariants, query count,
/// media and integrity failures, and a read-back of every loaded key.
pub fn check_system(system: &mut KvSystem, report: &RunReport, ledger: &mut Ledger) {
    let queries = system.config().total_queries;
    if let Err(e) = system.ssd().ftl().check_invariants() {
        ledger.fail(format!("FTL invariants: {e}"));
    }
    ledger.expect(report.ops == queries, || {
        format!("report counts {} ops, {queries} were run", report.ops)
    });
    let f = &report.flash;
    for (name, v) in [
        ("integrity_unrecoverable", f.integrity_unrecoverable),
        ("retry_exhausted_read", f.retry_exhausted_read),
        ("retry_exhausted_program", f.retry_exhausted_program),
        ("retry_exhausted_erase", f.retry_exhausted_erase),
    ] {
        ledger.expect(v == 0, || format!("{name} = {v}"));
    }
    let keys = system.engine().loaded_keys() as u64;
    let (engine, ssd) = system.verify_parts();
    let mut t = SimTime::MAX - SimDuration::from_secs(1_000_000);
    for key in 0..keys {
        ledger.attempted += 1;
        let expected = engine.version_of(key);
        match engine.get(ssd, key, t) {
            Ok(r) => {
                t = r.finish;
                ledger.expect(Some(r.version) == expected, || {
                    format!(
                        "key {key} read back v{}, engine holds {expected:?}",
                        r.version
                    )
                });
            }
            Err(e) => ledger.fail(format!("key {key} read back failed: {e}")),
        }
    }
}

/// Per-phase flash counters must sum to their aggregates over the query
/// phase (`flash.read` = sum of `flash.read.*`, and so on).
pub fn check_phase_sums(mirror: &MirrorRun, ledger: &mut Ledger) {
    let c = &mirror.deltas.flash;
    let sum = |key: fn(OpPhase) -> &'static str| OpPhase::ALL.iter().map(|&p| c.get(key(p))).sum();
    for (total, parts) in [
        ("flash.read", sum(OpPhase::read_key)),
        ("flash.program", sum(OpPhase::program_key)),
        ("flash.erase", sum(OpPhase::erase_key)),
    ] {
        let whole: u64 = c.get(total);
        ledger.expect(whole == parts, || {
            format!("{total} = {whole} but its phases sum to {parts}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantile_matches_histogram_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(exact_quantile(&v, 0.5), 500);
        assert_eq!(exact_quantile(&v, 0.999), 999);
        assert_eq!(exact_quantile(&v, 1.0), 1000);
        assert_eq!(exact_quantile(&v, 0.0), 1);
        assert_eq!(exact_quantile(&[], 0.5), 0);
    }

    #[test]
    fn samples_beyond_counts_strictly_greater() {
        let v = [1, 2, 2, 3, 5, 5, 9];
        assert_eq!(samples_beyond(&v, 2), 4);
        assert_eq!(samples_beyond(&v, 9), 0);
        assert_eq!(samples_beyond(&v, 0), 7);
    }

    #[test]
    fn bucket_check_accepts_edges_only_above() {
        assert!(in_same_bucket(100_000, SimDuration::from_nanos(100_000)));
        assert!(in_same_bucket(100_000, SimDuration::from_nanos(101_000)));
        assert!(!in_same_bucket(100_000, SimDuration::from_nanos(99_999)));
        assert!(!in_same_bucket(100_000, SimDuration::from_nanos(102_000)));
    }
}
