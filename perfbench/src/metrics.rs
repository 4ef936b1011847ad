//! Metric definitions (the names `BENCHMARK.json` lists) and the
//! arithmetic that turns runs into them.

use checkin_core::RunReport;

use crate::checks::exact_quantile;
use crate::mirror::MirrorRun;
use crate::spans::{Site, SpanLog};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Stable name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement (checked against `BENCHMARK.json` by
    /// this module's tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: [Spec; 10] = [
    spec("setup_s", "s", Lower),
    spec("host_ns_per_query", "ns", Lower),
    spec("peak_rss_mib", "MiB", Lower),
    spec("sim_qps", "1/s", Higher),
    spec("sim_mean_us", "us", Lower),
    spec("sim_p999_us", "us", Lower),
    spec("sim_p9999_us", "us", Lower),
    spec("sim_checkpoint_ms", "ms", Lower),
    spec("waf", "ratio", Lower),
    spec("wear_blocks_per_mq", "blocks", Lower),
];

/// Metrics of single layers, from the traced run.
pub const PER_LAYER: [Spec; 45] = [
    spec("workload.next_op.ns_per_call", "ns", Lower),
    spec("workload.next_op.share", "share", Lower),
    spec("sim.event_queue.ns_per_call", "ns", Lower),
    spec("sim.event_queue.share", "share", Lower),
    spec("sim.host_pool.ns_per_call", "ns", Lower),
    spec("sim.latency_record.ns_per_call", "ns", Lower),
    spec("sim.events_per_query", "count", Lower),
    spec("core.get.ns_per_call", "ns", Lower),
    spec("core.get.share", "share", Lower),
    spec("core.update.ns_per_call", "ns", Lower),
    spec("core.update.share", "share", Lower),
    spec("core.load_ms", "ms", Lower),
    spec("core.journal_space", "ratio", Lower),
    spec("core.checkpoint.count", "count", Lower),
    spec("core.checkpoint.us_per_call", "us", Lower),
    spec("core.checkpoint.share", "share", Lower),
    spec("core.checkpoint.remap_share", "ratio", Higher),
    spec("core.checkpoint.remap_ms", "ms", Lower),
    spec("core.checkpoint.copy_ms", "ms", Lower),
    spec("core.checkpoint.trim_ms", "ms", Lower),
    spec("core.checkpoint.meta_ms", "ms", Lower),
    spec("core.checkpoint.redundant_kib", "KiB", Lower),
    spec("ssd.background_gc.us_per_call", "us", Lower),
    spec("ssd.background_scrub.us_per_call", "us", Lower),
    spec("ssd.cmds_per_query", "count", Lower),
    spec("ssd.io_bytes_per_query", "B", Lower),
    spec("ssd.link_busy_share", "share", Lower),
    spec("ssd.fw_busy_share", "share", Lower),
    spec("ftl.unit_reads_per_query", "count", Lower),
    spec("ftl.unit_writes_per_query", "count", Lower),
    spec("ftl.remap_ops_per_query", "count", Higher),
    spec("ftl.rmw_reads_per_query", "count", Lower),
    spec("ftl.gc_rounds", "count", Lower),
    spec("ftl.gc_moved_per_erase", "ratio", Lower),
    spec("ftl.map_hit_rate", "ratio", Higher),
    spec("flash.reads_per_query", "count", Lower),
    spec("flash.programs_per_query", "count", Lower),
    spec("flash.erases", "count", Lower),
    spec("flash.program.cp_copy", "count", Lower),
    spec("flash.read.gc", "count", Lower),
    spec("flash.die_busy_share", "share", Lower),
    spec("sim.read_p999_during_cp_us", "us", Lower),
    spec("sim.write_p999_during_cp_us", "us", Lower),
    spec("trace.coverage", "share", Higher),
    spec("trace.overhead", "ratio", Lower),
];

/// The percentile `sim_p9999_us` reports.
pub const TAIL_QUANTILE: f64 = 0.9999;

/// Named metric values, in the order they were added.
#[derive(Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    /// Adds a value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Median of `v` (mean of the middle two when even); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn mean(v: &[u64]) -> f64 {
    ratio(v.iter().map(|&x| x as f64).sum(), v.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Simulated-clock end-to-end metrics: throughput, checkpoint time and
/// write amplification from `KvSystem::run`'s report; latency mean and
/// percentiles from the traced driver's exact samples, which the
/// faithfulness gate ties to the same run.
///
/// The mean stands in for the median: on `wo-uniform-gc` most writes
/// take the same uncontended service time, so the median is one value
/// for every seed.
pub fn sim_end_to_end(report: &RunReport, sorted: &[u64], pages_per_block: u64, out: &mut Values) {
    out.put("sim_qps", report.throughput);
    out.put("sim_mean_us", mean(sorted) / 1e3);
    out.put("sim_p999_us", exact_quantile(sorted, 0.999) as f64 / 1e3);
    out.put(
        "sim_p9999_us",
        exact_quantile(sorted, TAIL_QUANTILE) as f64 / 1e3,
    );
    out.put(
        "sim_checkpoint_ms",
        report.checkpoint_mean.as_nanos() as f64 / 1e6,
    );
    out.put("waf", report.waf);
    out.put(
        "wear_blocks_per_mq",
        ratio(
            report.flash.programs as f64 / pages_per_block as f64 * 1e6,
            report.ops as f64,
        ),
    );
}

/// Host-clock per-layer metrics of one traced run lasting `run_nanos`.
pub fn host_per_layer(spans: &SpanLog, run_nanos: f64, out: &mut Values) {
    let per_call = |site: Site| {
        let t = spans.total(site);
        ratio(t.nanos as f64, t.calls as f64)
    };
    let share = |site: Site| spans.total(site).nanos as f64 / run_nanos;
    out.put("workload.next_op.ns_per_call", per_call(Site::NextOp));
    out.put("workload.next_op.share", share(Site::NextOp));
    out.put("sim.event_queue.ns_per_call", per_call(Site::EventQueue));
    out.put("sim.event_queue.share", share(Site::EventQueue));
    out.put("sim.host_pool.ns_per_call", per_call(Site::HostPool));
    out.put(
        "sim.latency_record.ns_per_call",
        per_call(Site::LatencyRecord),
    );
    out.put("core.get.ns_per_call", per_call(Site::Get));
    out.put("core.get.share", share(Site::Get));
    out.put("core.update.ns_per_call", per_call(Site::Update));
    out.put("core.update.share", share(Site::Update));
    out.put("core.load_ms", spans.total(Site::Load).nanos as f64 / 1e6);
    out.put(
        "core.checkpoint.us_per_call",
        per_call(Site::Checkpoint) / 1e3,
    );
    out.put("core.checkpoint.share", share(Site::Checkpoint));
    out.put(
        "ssd.background_gc.us_per_call",
        per_call(Site::BackgroundGc) / 1e3,
    );
    out.put(
        "ssd.background_scrub.us_per_call",
        per_call(Site::BackgroundScrub) / 1e3,
    );
    out.put("trace.coverage", spans.covered_nanos() as f64 / run_nanos);
}

/// Exact work counts and simulated busy time of each layer.
pub fn work_per_layer(m: &MirrorRun, report: &RunReport, dies: u64, out: &mut Values) {
    let q = m.ops as f64;
    let (flash, ftl, ssd) = (&m.deltas.flash, &m.deltas.ftl, &m.deltas.ssd);
    let per_query = |n: u64| ratio(n as f64, q);
    let elapsed = m.elapsed.as_nanos() as f64;
    let ms = |d: checkin_sim::SimDuration| d.as_nanos() as f64 / 1e6;

    out.put("sim.events_per_query", per_query(m.queue_ops));
    out.put("core.journal_space", m.journal_space);
    out.put("core.checkpoint.count", m.cp.count as f64);
    out.put(
        "core.checkpoint.remap_share",
        ratio(m.cp.remapped as f64, (m.cp.remapped + m.cp.copied) as f64),
    );
    out.put("core.checkpoint.remap_ms", ms(m.cp.phases.remap_time));
    out.put("core.checkpoint.copy_ms", ms(m.cp.phases.copy_time));
    out.put("core.checkpoint.trim_ms", ms(m.cp.phases.trim_time));
    out.put("core.checkpoint.meta_ms", ms(m.cp.phases.meta_time));
    out.put(
        "core.checkpoint.redundant_kib",
        m.cp.redundant_bytes as f64 / 1024.0,
    );

    let cmds: u64 = ssd
        .iter()
        .filter(|(k, _)| k.starts_with("ssd.cmd_"))
        .map(|(_, v)| v)
        .sum();
    out.put("ssd.cmds_per_query", per_query(cmds));
    out.put(
        "ssd.io_bytes_per_query",
        per_query(ssd.get("ssd.host_read_bytes") + ssd.get("ssd.host_write_bytes")),
    );
    out.put(
        "ssd.link_busy_share",
        m.link_busy.as_nanos() as f64 / elapsed,
    );
    out.put("ssd.fw_busy_share", m.fw_busy.as_nanos() as f64 / elapsed);

    out.put(
        "ftl.unit_reads_per_query",
        per_query(ftl.get("ftl.host_unit_reads")),
    );
    out.put(
        "ftl.unit_writes_per_query",
        per_query(ftl.get("ftl.host_unit_writes")),
    );
    out.put(
        "ftl.remap_ops_per_query",
        per_query(ftl.get("ftl.remap_ops")),
    );
    out.put(
        "ftl.rmw_reads_per_query",
        per_query(ftl.get("ftl.rmw_reads")),
    );
    out.put("ftl.gc_rounds", ftl.get("ftl.gc_invocations") as f64);
    out.put(
        "ftl.gc_moved_per_erase",
        ratio(
            ftl.get("ftl.gc_units_moved") as f64,
            flash.get("flash.erase") as f64,
        ),
    );
    out.put("ftl.map_hit_rate", m.map_hit_rate);

    out.put("flash.reads_per_query", per_query(flash.get("flash.read")));
    out.put(
        "flash.programs_per_query",
        per_query(flash.get("flash.program")),
    );
    out.put("flash.erases", flash.get("flash.erase") as f64);
    out.put(
        "flash.program.cp_copy",
        flash.get("flash.program.cp_copy") as f64,
    );
    out.put("flash.read.gc", flash.get("flash.read.gc") as f64);
    out.put(
        "flash.die_busy_share",
        m.die_busy.as_nanos() as f64 / (elapsed * dies as f64),
    );

    out.put(
        "sim.read_p999_during_cp_us",
        report.latency_read_during_cp.p999.as_nanos() as f64 / 1e3,
    );
    out.put(
        "sim.write_p999_during_cp_us",
        report.latency_write_during_cp.p999.as_nanos() as f64 / 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(s.name), "bad metric name {:?}", s.name);
            assert!(
                s.unit.len() <= 16
                    && s.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                s.unit
            );
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    /// `BENCHMARK.json` lists exactly these metrics, with these units and
    /// directions, in this order.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"better\""))
            .map(str::trim)
            .collect();
        let expected: Vec<String> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| {
                let better = match s.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    s.name, s.unit
                )
            })
            .collect();
        assert_eq!(listed.len(), expected.len());
        for (line, want) in listed.iter().zip(&expected) {
            assert!(
                line.starts_with(want.as_str()),
                "{line} should start with {want}"
            );
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
