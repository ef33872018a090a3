//! `twca-perfbench`: the end-to-end and per-layer benchmark of
//! `twca serve`.
//!
//! ```text
//! twca-perfbench --twca PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run replays the workload's seeded request list in-process (the
//! expected answers), then starts a fresh `twca serve --listen` on
//! loopback, drives it closed-loop with the same list and checks every
//! answer. `--trace 0` prints the end-to-end metrics; `--trace 1` also
//! replays the list traced and prints the per-layer metrics. The last
//! line of stdout is one JSON object; a readable report goes to
//! stderr. See `README.md` beside this crate.

mod replay;
mod server;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use twca_api::{AnalysisResponse, Json, QueryOutcome, StatsOutcome};

use crate::replay::{replay, unexplained_pct, Layer, Replay, Sample, RECONCILE_PCT};
use crate::server::{cpu_seconds, drive, mismatch, peak_rss_mb, Client, HostCpu, Server};
use crate::stats::{median, percentile};
use crate::workload::{check_probe, probe_line, Plan, Workload};

/// Server starts per run; `setup_s` is their median. On store-edit,
/// where each start recovers the store, a start takes one of a few
/// levels some 2.5 ms apart, so the median needs many starts to settle.
const SETUP_SPAWNS: usize = 21;

const USAGE: &str = "twca-perfbench --twca PATH --workload wire-large|analysis-cold|store-edit \
                     --seed N --seconds S --trace 0|1";

struct Args {
    twca: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut twca = None;
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let value = rest
                .next()
                .ok_or_else(|| format!("{flag} needs a value; usage: {USAGE}"))?;
            match flag.as_str() {
                "--twca" => twca = Some(PathBuf::from(value)),
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "`--seed` expects an integer")?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0 && s.is_finite())
                            .ok_or("`--seconds` expects a positive number")?,
                    );
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("`--trace` expects 0 or 1".into()),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`; usage: {USAGE}")),
            }
        }
        let missing = |name: &str| format!("{name} is required; usage: {USAGE}");
        Ok(Args {
            twca: twca.ok_or_else(|| missing("--twca"))?,
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// One named measurement.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Every answer checked in a run, and whatever went wrong.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Checks {
    fn fail(&mut self, problem: String) {
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    /// Sends `lines` one at a time and checks each answer.
    fn lines(&mut self, client: &mut Client, lines: &[String], expected: &[String]) {
        for (i, line) in lines.iter().enumerate() {
            self.attempted += 1;
            match client.call(line) {
                Ok(answer) if answer == expected[i] => {}
                Ok(answer) => {
                    self.failed += 1;
                    self.fail(mismatch(i, &answer, &expected[i]));
                }
                Err(e) => {
                    self.failed += lines.len() - i;
                    self.attempted += lines.len() - i - 1;
                    self.fail(format!("line {i}: {e}"));
                    return;
                }
            }
        }
    }

    /// Checks a probe answer against the replay and the paper.
    fn probe(&mut self, answer: std::io::Result<String>, expected: &str) {
        self.attempted += 1;
        let verdict = match answer {
            Ok(answer) if answer == expected => check_probe(&answer),
            Ok(answer) => Err(mismatch(0, &answer, expected)),
            Err(e) => Err(format!("probe: {e}")),
        };
        if let Err(problem) = verdict {
            self.failed += 1;
            self.fail(problem);
        }
    }

    fn require(&mut self, holds: bool, problem: impl FnOnce() -> String) {
        if !holds {
            self.fail(problem());
        }
    }
}

/// What one server life measured.
struct ServerRun {
    setup_s: Vec<f64>,
    /// Latency of each measured line; NaN where it went unanswered.
    line_latency_ms: Vec<f64>,
    /// Wall time of the measured phase, first send to last answer.
    wall_s: f64,
    /// Server CPU time over the measured phase.
    cpu_s: f64,
    steal_pct: f64,
    rss_mb: f64,
    sent: usize,
    stats: StatsOutcome,
}

impl ServerRun {
    fn answered_ms(&self) -> Vec<f64> {
        self.line_latency_ms
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect()
    }
}

fn query_stats(server: &Server) -> Result<StatsOutcome, String> {
    let mut client = server.connect()?;
    let answer = client
        .call("{\"id\": \"stats\", \"queries\": [{\"stats\": {}}]}")
        .map_err(|e| format!("stats query: {e}"))?;
    let json = Json::parse(&answer).map_err(|e| format!("stats answer: {e}"))?;
    match AnalysisResponse::from_json(&json).map(|r| r.outcome) {
        Ok(Ok(outcomes)) => match outcomes.first() {
            Some(QueryOutcome::Stats(stats)) => Ok(*stats),
            _ => Err(format!("stats answer has the wrong shape: {answer}")),
        },
        _ => Err(format!("stats answer is not ok: {answer}")),
    }
}

/// Runs the server side: preload life (store-edit), set-up starts with
/// the probe, warm-up, the measured phase and the closing `stats`.
fn run_server(
    args: &Args,
    plan: &Plan,
    expected: &Replay,
    dir: &Path,
    checks: &mut Checks,
) -> Result<ServerRun, String> {
    let connections = plan.workload.connections();
    let store_dir = (plan.workload == Workload::StoreEdit).then(|| dir.join("server-store"));
    if let Some(store_dir) = &store_dir {
        let server = Server::spawn(&args.twca, connections, Some(store_dir))?;
        checks.lines(&mut server.connect()?, &plan.preload, &expected.preload);
        server.shutdown()?;
    }
    let probe = probe_line();
    let mut setup_s = Vec::with_capacity(SETUP_SPAWNS);
    let mut last = None;
    for spawn in 0..SETUP_SPAWNS {
        let started = Instant::now();
        let server = Server::spawn(&args.twca, connections, store_dir.as_deref())?;
        let answer = server.connect()?.call(&probe);
        setup_s.push(started.elapsed().as_secs_f64());
        checks.probe(answer, &expected.probe);
        if spawn + 1 < SETUP_SPAWNS {
            server.shutdown()?;
        } else {
            last = Some(server);
        }
    }
    let server = last.expect("at least one set-up start");
    checks.lines(&mut server.connect()?, &plan.warmup, &expected.warmup);

    let pid = server.pid();
    let host_before = HostCpu::now();
    let cpu_before = cpu_seconds(pid)?;
    let drive = drive(&server, connections, &plan.measured, &expected.measured)?;
    let cpu_s = cpu_seconds(pid)? - cpu_before;
    let steal_pct = HostCpu::now().steal_pct_since(host_before);
    let count = plan.measured.len();
    checks.attempted += count;
    checks.failed += count - drive.ok;
    if let Some(failure) = drive.first_failure {
        checks.fail(failure);
    }
    let mut line_latency_ms = vec![f64::NAN; count];
    for &(i, ns) in &drive.latencies_ns {
        line_latency_ms[i] = ns as f64 / 1e6;
    }
    let stats = query_stats(&server)?;
    let rss_mb = peak_rss_mb(pid)?;
    server.shutdown()?;
    Ok(ServerRun {
        setup_s,
        line_latency_ms,
        wall_s: drive.wall_ns as f64 / 1e9,
        cpu_s,
        steal_pct,
        rss_mb,
        sent: 1 + plan.warmup.len() + drive.sent,
        stats,
    })
}

/// The closed-loop sanity of one server life, from its `stats`.
fn check_service(checks: &mut Checks, run: &ServerRun, connections: usize) {
    let stats = &run.stats;
    checks.require(stats.rejected == 0, || {
        format!("the server rejected {} request(s)", stats.rejected)
    });
    checks.require(stats.served == run.sent as u64, || {
        format!(
            "the server served {} request(s), {} were sent",
            stats.served, run.sent
        )
    });
    checks.require(stats.queue_depth_peak <= connections as u64, || {
        format!(
            "queue depth peaked at {} with {connections} connection(s)",
            stats.queue_depth_peak
        )
    });
    checks.require(stats.panics == 0, || {
        format!("{} worker panic(s)", stats.panics)
    });
}

/// The end-to-end metrics, over the whole measured phase: its
/// throughput, the nearest-rank percentiles of every answered line's
/// latency and the server's CPU time per answered line. Set-up time is
/// the median over the starts, the resident set the peak of the life.
fn end_to_end(run: &ServerRun) -> Vec<Metric> {
    let answered = run.answered_ms();
    let count = answered.len().max(1) as f64;
    let latency = |p| percentile(&answered, p).unwrap_or(0.0);
    vec![
        metric("throughput_rps", answered.len() as f64 / run.wall_s, "1/s"),
        metric("p50_ms", latency(50.0), "ms"),
        metric("p90_ms", latency(90.0), "ms"),
        metric("cpu_ms_per_req", run.cpu_s * 1e3 / count, "ms"),
        metric("setup_s", median(&run.setup_s), "s"),
        metric("rss_peak_mb", run.rss_mb, "MiB"),
    ]
}

/// The median over the measured lines of one layer's self time, in µs.
fn layer_us(samples: &[Sample], layer: Layer) -> f64 {
    let values: Vec<f64> = samples
        .iter()
        .map(|s| s.self_ns[layer as usize] as f64 / 1e3)
        .collect();
    median(&values)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer metrics of a traced run, checking the reconciliation.
fn per_layer(
    samples: &[Sample],
    plain: &Replay,
    run: &ServerRun,
    checks: &mut Checks,
) -> Vec<Metric> {
    let wire = [Layer::Decode, Layer::Session, Layer::Encode];
    let unexplained = unexplained_pct(samples);
    checks.require(unexplained.abs() <= RECONCILE_PCT, || {
        format!("layer self times miss api.session by {unexplained:.1}% (allowed {RECONCILE_PCT}%)")
    });
    // Both comparisons pair each line with itself, so the mix of line
    // sizes cancels out.
    let plain_us = plain.measured_ns.iter().map(|&ns| ns as f64 / 1e3);
    let traced_us = samples
        .iter()
        .map(|s| wire.iter().map(|&l| s.self_ns[l as usize]).sum::<u64>() as f64 / 1e3);
    let tracing_pct: Vec<f64> = traced_us
        .zip(plain_us.clone())
        .map(|(traced, plain)| 100.0 * (traced - plain) / plain)
        .collect();
    let service_us: Vec<f64> = run
        .line_latency_ms
        .iter()
        .zip(plain_us)
        .filter(|(latency, _)| latency.is_finite())
        .map(|(latency, plain)| latency * 1e3 - plain)
        .collect();
    let decode_per_byte: Vec<f64> = samples
        .iter()
        .map(|s| s.self_ns[Layer::Decode as usize] as f64 / s.request_bytes as f64)
        .collect();
    let bytes =
        |f: fn(&Sample) -> usize| median(&samples.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    let rows: u64 = samples.iter().map(|s| s.rows_analyzed).sum();
    let hits: u64 = samples.iter().map(|s| s.memo_hits).sum();
    let stats = &run.stats;
    vec![
        metric("api.decode_us", layer_us(samples, Layer::Decode), "us"),
        metric("api.decode_ns_per_byte", median(&decode_per_byte), "ns/B"),
        metric("api.request_bytes", bytes(|s| s.request_bytes), "B"),
        metric("model.parse_us", layer_us(samples, Layer::Parse), "us"),
        metric("core.context_us", layer_us(samples, Layer::Context), "us"),
        metric("core.latency_us", layer_us(samples, Layer::Latency), "us"),
        metric(
            "core.combinations_us",
            layer_us(samples, Layer::Combinations),
            "us",
        ),
        metric("ilp.packing_us", layer_us(samples, Layer::Packing), "us"),
        metric(
            "core.weakly_hard_us",
            layer_us(samples, Layer::WeaklyHard),
            "us",
        ),
        metric("core.cache_hits", stats.cache_hits as f64, "count"),
        metric("core.cache_misses", stats.cache_misses as f64, "count"),
        metric(
            "core.cache_hit_ratio",
            ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
            "ratio",
        ),
        metric("core.cache_entries", stats.cache_entries as f64, "count"),
        metric(
            "core.cache_resident_bytes_est",
            stats.resident_bytes_est as f64,
            "B",
        ),
        metric("api.session_us", layer_us(samples, Layer::Session), "us"),
        metric("api.encode_us", layer_us(samples, Layer::Encode), "us"),
        metric("api.response_bytes", bytes(|s| s.response_bytes), "B"),
        metric("api.store_put_us", layer_us(samples, Layer::StorePut), "us"),
        metric("api.journal_appends", stats.journal_appends as f64, "count"),
        metric("api.journal_bytes", stats.journal_bytes as f64, "B"),
        metric("api.journal_syncs", stats.journal_syncs as f64, "count"),
        metric("dist.holistic_us", layer_us(samples, Layer::Holistic), "us"),
        metric("dist.dmm_us", layer_us(samples, Layer::DistDmm), "us"),
        metric("dist.rows_analyzed", rows as f64, "count"),
        metric("dist.memo_hits", hits as f64, "count"),
        metric("dist.memo_hit_ratio", ratio(hits, hits + rows), "ratio"),
        metric("service.overhead_us", median(&service_us), "us"),
        metric("service.served", stats.served as f64, "count"),
        metric("service.rejected", stats.rejected as f64, "count"),
        metric(
            "service.queue_depth_peak",
            stats.queue_depth_peak as f64,
            "count",
        ),
        metric("service.panics", stats.panics as f64, "count"),
        metric("trace.overhead_pct", median(&tracing_pct), "%"),
        metric("trace.unexplained_pct", unexplained, "%"),
        metric("host.steal_pct", run.steal_pct, "%"),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.problems.is_empty(),
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let plan = Plan::new(args.workload, args.seed, args.seconds);
    let mut checks = Checks::default();
    let plain = replay(&plan, &dir.join("plain"), None)?;
    let traced = if args.trace {
        let spans = dir
            .parent()
            .unwrap_or(dir)
            .join(format!("spans-{}.tsv", plan.workload.name()));
        let traced = replay(&plan, &dir.join("traced"), Some(&spans))?;
        checks.require(
            traced.measured == plain.measured && traced.warmup == plain.warmup,
            || "the traced replay answered differently from the plain replay".into(),
        );
        Some(traced)
    } else {
        None
    };
    let server = run_server(args, &plan, &plain, dir, &mut checks)?;
    check_service(&mut checks, &server, plan.workload.connections());
    let metrics = match traced.as_ref().and_then(|t| t.samples.as_deref()) {
        Some(samples) => per_layer(samples, &plain, &server, &mut checks),
        None => end_to_end(&server),
    };

    eprintln!(
        "{} seed {} ({} measured line(s), {} connection(s)): sent {}, ok {}, failed {}",
        plan.workload.name(),
        args.seed,
        plan.measured.len(),
        plan.workload.connections(),
        checks.attempted,
        checks.attempted - checks.failed,
        checks.failed
    );
    for m in &metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  (p99 {:.3} ms, not gated; host steal {:.1}% over the measured phase)",
        percentile(&server.answered_ms(), 99.0).unwrap_or(0.0),
        server.steal_pct
    );
    for problem in &checks.problems {
        eprintln!("  FAILED: {problem}");
    }
    Ok(result_json(&checks, &metrics))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("twca-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Run files stay inside the directory the benchmark runs from.
    let dir = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("twca-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let run = ServerRun {
            setup_s: vec![0.01],
            line_latency_ms: vec![1.0],
            wall_s: 1.0,
            cpu_s: 0.5,
            steal_pct: 0.0,
            rss_mb: 1.0,
            sent: 3,
            stats: StatsOutcome::default(),
        };
        let sample = Sample {
            request_bytes: 10,
            response_bytes: 20,
            self_ns: [1_000; Layer::ALL.len()],
            rows_analyzed: 1,
            memo_hits: 2,
            session_first: true,
        };
        let plain = Replay {
            preload: Vec::new(),
            probe: String::new(),
            warmup: Vec::new(),
            measured: vec![String::new()],
            measured_ns: vec![3_000],
            samples: None,
        };
        let mut checks = Checks::default();
        let printed: Vec<Metric> = end_to_end(&run)
            .into_iter()
            .chain(per_layer(&[sample], &plain, &run, &mut checks))
            .collect();
        for m in &printed {
            let entry = format!("\"name\": \"{}\",\n      \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                declared.contains(&entry),
                "{} ({}) is not declared",
                m.name,
                m.unit
            );
        }
        assert_eq!(declared.matches("\"unit\": ").count(), printed.len());
    }

    #[test]
    fn end_to_end_figures_cover_every_answered_line() {
        let run = ServerRun {
            setup_s: vec![0.3, 0.1, 0.2],
            line_latency_ms: vec![4.0, 1.0, f64::NAN, 3.0, 2.0],
            wall_s: 2.0,
            cpu_s: 0.4,
            steal_pct: 0.0,
            rss_mb: 1.0,
            sent: 6,
            stats: StatsOutcome::default(),
        };
        let metrics = end_to_end(&run);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("throughput_rps"), 2.0);
        assert_eq!(value("p50_ms"), 2.0);
        assert_eq!(value("p90_ms"), 4.0);
        assert_eq!(value("cpu_ms_per_req"), 100.0);
        assert_eq!(value("setup_s"), 0.2);
    }

    #[test]
    fn the_result_line_carries_every_metric_with_its_unit() {
        let checks = Checks {
            attempted: 3,
            failed: 0,
            problems: Vec::new(),
        };
        let line = result_json(
            &checks,
            &[metric("p50_ms", 1.25, "ms"), metric("x", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"x\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
