//! The repository benchmark: runs one named workload through
//! `KvSystem::run` and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>] [--source <id>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the per-layer metrics with the traced driver.
//! Both check outputs for correctness and gate the traced driver against
//! `KvSystem::run`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any check failed.

#![forbid(unsafe_code)]

mod checks;
mod metrics;
mod mirror;
mod reference;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use checkin_core::{KvSystem, RunReport, SystemConfig};

use checks::Ledger;
use metrics::{median, Spec, Values, END_TO_END, PER_LAYER};
use mirror::MirrorRun;
use spans::SpanLog;
use workloads::Workload;

/// Timed repetitions every run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// `KvSystem::new` timings each end-to-end run collects at least.
const MIN_SETUP_SAMPLES: usize = 41;
/// The traced driver keeps every span of each this-many-th query.
const SPAN_SAMPLE_EVERY: u64 = 64;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: String,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = ".bench_out".to_string();
    let mut source = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            "--out" => out = value,
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        source,
    })
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPU this process last ran on (`/proc/self/stat` field 39).
fn current_cpu() -> Option<u32> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = stat.rsplit_once(')')?.1;
    after_comm.split_whitespace().nth(36)?.parse().ok()
}

/// Online CPUs of the machine, whatever this process is pinned to.
fn online_cpus() -> usize {
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    online
        .trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// CPUs this process may run on (`Cpus_allowed_list`).
fn allowed_cpus() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// One timed `KvSystem::new` + `KvSystem::run`.
struct Rep {
    system: KvSystem,
    report: RunReport,
    setup: Duration,
    run: Duration,
}

fn timed_rep(config: &SystemConfig, ledger: &mut Ledger) -> Option<Rep> {
    let t0 = Instant::now();
    let mut system = match KvSystem::new(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            ledger.fail(format!("KvSystem::new: {e}"));
            return None;
        }
    };
    let t1 = Instant::now();
    let result = system.run();
    let t2 = Instant::now();
    ledger.attempted += config.total_queries;
    match result {
        Ok(report) => Some(Rep {
            system,
            report,
            setup: t1 - t0,
            run: t2 - t1,
        }),
        Err(e) => {
            ledger.fail(format!("KvSystem::run: {e}"));
            None
        }
    }
}

/// Every rep of one seed must report bit-identical simulated results.
fn check_repeat(first: &RunReport, again: &RunReport, ledger: &mut Ledger) {
    ledger.expect(first == again, || {
        "a repeated run of the same seed reported different results".into()
    });
}

/// One traced-driver run, timed; `None` (with a recorded failure) when
/// the traced driver failed.
fn traced_rep(
    config: &SystemConfig,
    spans: &mut SpanLog,
    ledger: &mut Ledger,
) -> Option<(MirrorRun, Duration)> {
    let mut stack = match mirror::build(config) {
        Ok(s) => s,
        Err(e) => {
            ledger.fail(format!("traced driver set-up: {e}"));
            return None;
        }
    };
    let t0 = Instant::now();
    let result = stack.run(spans);
    let run = t0.elapsed();
    ledger.attempted += config.total_queries;
    match result {
        Ok(m) => Some((m, run)),
        Err(e) => {
            ledger.fail(format!("traced driver: {e}"));
            None
        }
    }
}

/// Gates `mirror` against `report` and checks the percentiles the
/// benchmark reports. Returns the sorted latency samples.
fn gate(report: &RunReport, mirror: &MirrorRun, ledger: &mut Ledger) -> Vec<u64> {
    for line in checks::faithfulness(report, mirror) {
        ledger.fail(line);
    }
    checks::check_phase_sums(mirror, ledger);
    let mut sorted = mirror.samples.clone();
    sorted.sort_unstable();
    for (q, hist) in [
        (0.5, report.latency.p50),
        (0.999, report.latency.p999),
        (metrics::TAIL_QUANTILE, report.latency.p9999),
    ] {
        let exact = checks::exact_quantile(&sorted, q);
        ledger.expect(checks::in_same_bucket(exact, hist), || {
            format!("exact p{q} = {exact} ns falls outside the histogram's {hist:?}")
        });
    }
    sorted
}

/// What a run measured: its metrics, the timed repeats it made, and the
/// raw wall-clock figures behind the reference-scaled host metrics.
struct Measured {
    values: Values,
    reps: usize,
    wall: Values,
}

/// `--trace 0`: end-to-end metrics. Host times are scaled by the
/// reference workload timed right after each sample (see `reference`).
fn end_to_end(args: &Args, config: &SystemConfig, ledger: &mut Ledger) -> Measured {
    let queries = config.total_queries as f64;
    let mut out = Measured {
        values: Values::default(),
        reps: 0,
        wall: Values::default(),
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut setup, mut host_ns) = (Vec::new(), Vec::new());
    let (mut wall_setup, mut wall_ns, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss = None;
    let mut first: Option<RunReport> = None;
    let mut last: Option<Rep> = None;
    while host_ns.len() < MIN_REPS || Instant::now() < deadline {
        last = None;
        let Some(rep) = timed_rep(config, ledger) else {
            break;
        };
        // One system's peak, before the reference workload ever ran.
        rss.get_or_insert_with(peak_rss_mib);
        let r = reference::time();
        refs.push(r.as_secs_f64() * 1e3);
        setup.push(reference::normalize(rep.setup, r));
        host_ns.push(reference::normalize(rep.run, r) * 1e9 / queries);
        wall_setup.push(rep.setup.as_secs_f64());
        wall_ns.push(rep.run.as_nanos() as f64 / queries);
        match &first {
            None => first = Some(rep.report.clone()),
            Some(f) => check_repeat(f, &rep.report, ledger),
        }
        last = Some(rep);
    }
    out.reps = host_ns.len();
    let Some(mut rep) = last else {
        return out;
    };
    // More set-up samples: construction alone, nothing else alive but
    // the last measured system.
    while setup.len() < MIN_SETUP_SAMPLES {
        let t0 = Instant::now();
        let system = KvSystem::new(config.clone());
        let d = t0.elapsed();
        drop(system);
        let r = reference::time();
        setup.push(reference::normalize(d, r));
        wall_setup.push(d.as_secs_f64());
    }
    checks::check_system(&mut rep.system, &rep.report, ledger);
    drop(rep.system);

    out.values.put("setup_s", median(&setup));
    out.values.put("host_ns_per_query", median(&host_ns));
    out.values.put("peak_rss_mib", rss.unwrap_or(0.0));
    out.wall.put("setup_s", median(&wall_setup));
    out.wall.put("ns_per_query", median(&wall_ns));
    out.wall.put("reference_ms", median(&refs));
    if let Some((mirror, _)) = traced_rep(config, &mut SpanLog::disabled(), ledger) {
        let sorted = gate(&rep.report, &mirror, ledger);
        let tail = checks::exact_quantile(&sorted, metrics::TAIL_QUANTILE);
        let beyond = checks::samples_beyond(&sorted, tail);
        ledger.expect(beyond >= 10, || {
            format!("only {beyond} samples beyond the reported p99.99")
        });
        let pages_per_block = u64::from(config.geometry.pages_per_block);
        metrics::sim_end_to_end(&rep.report, &sorted, pages_per_block, &mut out.values);
    }
    out
}

/// `--trace 1`: per-layer metrics from the traced driver, alternating
/// with untraced runs that give the overhead's base.
fn per_layer(args: &Args, config: &SystemConfig, ledger: &mut Ledger) -> Measured {
    let mut values = Values::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut host: Vec<Values> = Vec::new();
    let mut last: Option<(RunReport, MirrorRun, SpanLog)> = None;
    let mut first: Option<RunReport> = None;
    while traced_ns.len() < MIN_REPS || Instant::now() < deadline {
        last = None;
        let Some(mut rep) = timed_rep(config, ledger) else {
            break;
        };
        plain_ns.push(rep.run.as_nanos() as f64 / config.total_queries as f64);
        match &first {
            None => {
                checks::check_system(&mut rep.system, &rep.report, ledger);
                first = Some(rep.report.clone());
            }
            Some(f) => check_repeat(f, &rep.report, ledger),
        }
        // Only one system alive while the traced driver runs.
        drop(rep.system);
        let mut spans = SpanLog::enabled(SPAN_SAMPLE_EVERY);
        let Some((mirror, run)) = traced_rep(config, &mut spans, ledger) else {
            break;
        };
        traced_ns.push(run.as_nanos() as f64 / config.total_queries as f64);
        let mut h = Values::default();
        metrics::host_per_layer(&spans, run.as_nanos() as f64, &mut h);
        host.push(h);
        last = Some((rep.report, mirror, spans));
    }
    let mut wall = Values::default();
    wall.put("ns_per_query", median(&plain_ns));
    wall.put("traced_ns_per_query", median(&traced_ns));
    let reps = traced_ns.len();
    let Some((report, mirror, spans)) = last else {
        return Measured { values, reps, wall };
    };
    gate(&report, &mirror, ledger);

    // Host-clock figures: the median over traced runs.
    for (name, _) in &host[0].0 {
        let samples: Vec<f64> = host.iter().filter_map(|h| h.get(name)).collect();
        values.put(name, median(&samples));
    }
    values.put("trace.overhead", median(&traced_ns) / median(&plain_ns));
    metrics::work_per_layer(&mirror, &report, config.geometry.total_dies(), &mut values);
    let path = format!(
        "{}/spans-{}-seed{}.jsonl",
        args.out,
        args.workload.name(),
        args.seed
    );
    if let Err(e) = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, spans.to_json_lines()))
    {
        ledger.fail(format!("writing {path}: {e}"));
    }
    Measured { values, reps, wall }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `values` as a JSON object of numbers.
fn values_json(values: &Values) -> String {
    let fields: Vec<String> = values
        .0
        .iter()
        .map(|(name, v)| format!("{}: {v:?}", json_string(name)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The metrics object: every metric of `specs`, in order, by name with
/// its unit. A missing or non-finite value is a failure.
fn metrics_json(specs: &[Spec], values: &Values, ledger: &mut Ledger) -> String {
    let mut out = String::from("{");
    for (i, s) in specs.iter().enumerate() {
        let v = match values.get(s.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                ledger.fail(format!("metric {} is {v}", s.name));
                0.0
            }
            None => {
                ledger.fail(format!("metric {} was not measured", s.name));
                0.0
            }
        };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {v:?}, \"unit\": {}}}",
            json_string(s.name),
            json_string(s.unit)
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = args.workload.config(args.seed, workloads::QUERIES);
    let mut ledger = Ledger::default();
    let started = Instant::now();
    let Measured { values, reps, wall } = if args.trace {
        per_layer(&args, &config, &mut ledger)
    } else {
        end_to_end(&args, &config, &mut ledger)
    };
    let specs: &[Spec] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = metrics_json(specs, &values, &mut ledger);

    let provenance = format!(
        "{{\"source\": {}, \"workload\": {}, \"seed\": {}, \"queries\": {}, \"tracing\": {}, \
         \"reps\": {reps}, \"seconds\": {}, \"wall_s\": {:?}, \"nproc\": {}, \"cpu\": {}, \
         \"allowed_cpus\": {}, \"host_wall\": {}}}",
        json_string(&args.source),
        json_string(args.workload.name()),
        args.seed,
        config.total_queries,
        args.trace,
        args.seconds,
        started.elapsed().as_secs_f64(),
        online_cpus(),
        current_cpu().map_or_else(|| "null".into(), |c| c.to_string()),
        json_string(&allowed_cpus()),
        values_json(&wall),
    );
    for f in &ledger.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let failed = ledger.failures.len() as u64;
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0,
        ledger.attempted.max(1),
    );
    let path = format!(
        "{}/result-{}-seed{}-trace{}.json",
        args.out,
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n");
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("perfbench: writing {path}: {e}");
    }
    println!("provenance: {provenance}");
    println!("{result}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced driver reaches `KvSystem::run`'s simulated outputs on a
    /// short run of every workload, checkpoints included.
    #[test]
    fn traced_driver_matches_kv_system_on_a_small_run() {
        for w in Workload::ALL {
            let config = w.config(3, 20_000);
            let report = KvSystem::new(config.clone()).unwrap().run().unwrap();
            let mut spans = SpanLog::enabled(1);
            let mirror = mirror::build(&config).unwrap().run(&mut spans).unwrap();
            assert!(
                report.checkpoints > 0,
                "{}: run long enough to checkpoint",
                w.name()
            );
            assert_eq!(
                checks::faithfulness(&report, &mirror),
                Vec::<String>::new(),
                "{}",
                w.name()
            );
            let mut ledger = Ledger::default();
            gate(&report, &mirror, &mut ledger);
            assert_eq!(ledger.failures, Vec::<String>::new(), "{}", w.name());
        }
    }

    /// p99.99 leaves at least ten samples beyond it at the benchmark's
    /// query count.
    #[test]
    fn tail_percentile_has_ten_samples_beyond_it() {
        let sorted: Vec<u64> = (0..workloads::QUERIES).collect();
        let tail = checks::exact_quantile(&sorted, metrics::TAIL_QUANTILE);
        assert!(checks::samples_beyond(&sorted, tail) >= 10);
    }
}
