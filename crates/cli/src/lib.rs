//! Library backing the `twca` command-line tool.
//!
//! Every subcommand is a pure function from parsed arguments to a
//! rendered string, so the whole CLI is unit-testable without spawning
//! processes. The `twca` binary in `main.rs` is a thin wrapper.
//!
//! ```text
//! twca analyze <file>                 latency report + miss models
//! twca explain <file> <chain>         full analysis derivation
//! twca dmm <file> <chain> <k>...      miss model at given window lengths
//! twca simulate <file> [horizon]      adversarial simulation vs bounds
//! twca sim <file> [flags]             Monte Carlo empirical miss rates
//! twca dot <file>                     Graphviz export
//! twca gantt <file> [horizon]         textual Gantt of an adversarial run
//! twca report <file>                  Markdown analysis report
//! twca synthesize <file> <m> <k>      search priorities satisfying (m,k)
//! twca batch [files...] [--gen N]     parallel batch analysis
//! twca dist <file>                    distributed (linked-resource) analysis
//! twca serve                          JSON-Lines request/response streaming
//! twca serve --listen ADDR            multi-worker TCP analysis server
//! twca loadgen --connect ADDR         throughput/latency load generator
//! twca chaos --connect ADDR           transport fault injection vs a live server
//! twca fuzz                           randomized conformance fuzzing (verify)
//! twca bench                          perf-trajectory runner (JSON + CI gate)
//! ```
//!
//! `batch` flags: `--gen N` (analyze `N` generated systems), `--seed S`,
//! `--profile P` (stress shape of generated systems), `--threads T`,
//! `--serial`, `--k K1,K2,...`, `--horizon H`, `--max-q Q`, `--json`,
//! `--progress`.
//!
//! `fuzz` generates random scenarios (uniprocessor stress profiles and
//! distributed topologies, including the `dist-deep` pipeline and
//! `dist-wide` star shapes that stress the incremental holistic
//! worklist) and checks every one against the [`twca_verify`] oracle
//! battery: simulation soundness, cache agreement, serial/parallel
//! agreement, backend agreement, dmm monotonicity, agreement of the
//! fast pipeline with the retained reference implementations
//! (materialized combination engine, iterative busy-window solver and
//! full-sweep holistic driver, classic simulation core) and Monte Carlo
//! miss-rate soundness. The references are verifier entry points
//! (`reference` modules of `twca-chains`, `twca-sim` and `twca-dist`);
//! no subcommand flag selects one. Failing scenarios
//! are auto-shrunk and persisted to the regression corpus. Flags:
//! `--seed S`, `--iters N`, `--budget SECS`, `--profile P1,P2,...`,
//! `--k K1,K2,...`, `--horizon H`, `--corpus DIR`, `--no-shrink`.
//!
//! `serve` reads one [`twca_api::AnalysisRequest`] per stdin line (or
//! from `--file F`) and streams one response line per request, in input
//! order, from one warm [`twca_api::Session`]. `dist` loads a
//! linked-resource document (see [`twca_dist::parse_distributed`]) and
//! answers through the same request path (`--json` for the wire form).

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use twca_api::{AnalysisRequest, Query, QueryOutcome, Session};
use twca_assign::{hill_climb, Goal, SearchConfig};
use twca_chains::{explain, AnalysisContext, AnalysisOptions, ChainAnalysis, MkConstraint};
use twca_model::{parse_system, render_dot, System};
use twca_sim::{adversarial_aligned_traces, Simulation};

/// Errors surfaced to the command line.
#[derive(Debug)]
pub enum CliError {
    /// Wrong usage; the string is the usage text to print.
    Usage(String),
    /// The input file could not be read.
    Io(std::io::Error),
    /// The system description did not parse or validate.
    Parse(twca_model::ParseError),
    /// The analysis failed.
    Analysis(twca_chains::AnalysisError),
    /// A named chain does not exist in the system.
    NoSuchChain(String),
    /// A façade-level failure (request handling, distributed analysis,
    /// budget, cancellation).
    Api(twca_api::ApiError),
    /// The conformance fuzzer found oracle violations; the string is
    /// the full report (already containing the shrunk counterexamples).
    Verify(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(u) => write!(f, "usage: {u}"),
            CliError::Io(e) => write!(f, "cannot read input: {e}"),
            CliError::Parse(e) => write!(f, "invalid system description: {e}"),
            CliError::Analysis(e) => write!(f, "analysis failed: {e}"),
            CliError::NoSuchChain(name) => write!(f, "no chain named `{name}`"),
            CliError::Api(e) => write!(f, "{e}"),
            CliError::Verify(report) => write!(f, "conformance violations found\n{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(value: std::io::Error) -> Self {
        CliError::Io(value)
    }
}

impl From<twca_model::ParseError> for CliError {
    fn from(value: twca_model::ParseError) -> Self {
        CliError::Parse(value)
    }
}

impl From<twca_chains::AnalysisError> for CliError {
    fn from(value: twca_chains::AnalysisError) -> Self {
        CliError::Analysis(value)
    }
}

impl From<twca_api::ApiError> for CliError {
    fn from(value: twca_api::ApiError) -> Self {
        CliError::Api(value)
    }
}

impl From<twca_dist::DistError> for CliError {
    fn from(value: twca_dist::DistError) -> Self {
        CliError::Api(value.into())
    }
}

fn load(path: &str) -> Result<System, CliError> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_system(&text)?)
}

fn chain_id(system: &System, name: &str) -> Result<twca_model::ChainId, CliError> {
    system
        .chain_by_name(name)
        .map(|(id, _)| id)
        .ok_or_else(|| CliError::NoSuchChain(name.to_owned()))
}

/// `twca analyze <file>`: latency report plus `dmm(10)` per deadline
/// chain.
pub fn cmd_analyze(system: &System) -> Result<String, CliError> {
    let analysis = ChainAnalysis::new(system);
    let mut out = analysis.report().to_string();
    let _ = writeln!(out);
    for (id, chain) in system.iter() {
        if chain.deadline().is_none() {
            continue;
        }
        let dmm = analysis.deadline_miss_model(id, 10)?;
        let _ = writeln!(
            out,
            "{}: dmm(10) = {}{}",
            chain.name(),
            dmm.bound,
            if dmm.informative { "" } else { " (trivial)" }
        );
    }
    Ok(out)
}

/// `twca explain <file> <chain>`: the full derivation.
pub fn cmd_explain(system: &System, chain: &str) -> Result<String, CliError> {
    let id = chain_id(system, chain)?;
    let ctx = AnalysisContext::new(system);
    Ok(explain(&ctx, id, AnalysisOptions::default())?)
}

/// `twca dmm <file> <chain> <k>...`: miss model values with packing
/// witnesses.
pub fn cmd_dmm(system: &System, chain: &str, ks: &[u64]) -> Result<String, CliError> {
    use twca_chains::DmmSweep;
    let id = chain_id(system, chain)?;
    let ctx = AnalysisContext::new(system);
    let sweep = DmmSweep::prepare(&ctx, id, AnalysisOptions::default())?;
    let mut out = String::new();
    for &k in ks {
        match sweep.witness(k) {
            Some(witness) => out.push_str(&witness.render(system)),
            None => {
                let dmm = sweep.at(k);
                let _ = writeln!(
                    out,
                    "dmm({}) = {}{}",
                    dmm.k,
                    dmm.bound,
                    if dmm.informative { "" } else { " (trivial)" }
                );
            }
        }
    }
    Ok(out)
}

/// `twca simulate <file> [horizon]`: adversarial run vs analytic bounds.
pub fn cmd_simulate(system: &System, horizon: u64) -> Result<String, CliError> {
    let analysis = ChainAnalysis::new(system);
    let traces = adversarial_aligned_traces(system, horizon);
    let result = Simulation::new(system).run(&traces);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "chain", "instances", "max lat", "WCL", "misses"
    );
    for (id, chain) in system.iter() {
        let stats = result.chain(id);
        let wcl = analysis
            .try_worst_case_latency(id)?
            .map_or("unbounded".to_owned(), |r| r.worst_case_latency.to_string());
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>10} {:>10}",
            chain.name(),
            stats.completed_instances(),
            stats.max_latency().map_or("-".into(), |l| l.to_string()),
            wcl,
            stats.miss_count()
        );
    }
    Ok(out)
}

/// Parsed flags of `twca sim`.
struct SimArgs {
    file: String,
    runs: u64,
    horizon: u64,
    seed: u64,
    threads: u64,
    chain: Option<String>,
    json: bool,
}

impl SimArgs {
    const USAGE: &'static str = "twca sim <file> [--runs N] [--horizon H] [--seed S] \
                                 [--threads T] [--chain NAME] [--json]";

    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut file = None;
        let mut parsed = SimArgs {
            file: String::new(),
            runs: 100,
            horizon: 100_000,
            seed: 0xD1CE,
            threads: 4,
            chain: None,
            json: false,
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let mut value_of = |flag: &str| {
                rest.next().ok_or_else(|| {
                    CliError::Usage(format!("{flag} needs a value; {}", Self::USAGE))
                })
            };
            match arg.as_str() {
                "--runs" => {
                    parsed.runs = value_of("--runs")?
                        .parse()
                        .map_err(|_| CliError::Usage("`--runs` expects a run count".into()))?;
                }
                "--horizon" => {
                    parsed.horizon = value_of("--horizon")?
                        .parse()
                        .map_err(|_| CliError::Usage("`--horizon` expects a time bound".into()))?;
                }
                "--seed" => {
                    parsed.seed = value_of("--seed")?
                        .parse()
                        .map_err(|_| CliError::Usage("`--seed` expects an integer".into()))?;
                }
                "--threads" => {
                    parsed.threads = value_of("--threads")?.parse().map_err(|_| {
                        CliError::Usage("`--threads` expects a worker count".into())
                    })?;
                }
                "--chain" => parsed.chain = Some(value_of("--chain")?.clone()),
                "--json" => parsed.json = true,
                flag if flag.starts_with("--") => {
                    return Err(CliError::Usage(format!(
                        "unknown sim flag `{flag}`; {}",
                        Self::USAGE
                    )));
                }
                value if file.is_none() => file = Some(value.to_owned()),
                _ => return Err(CliError::Usage(format!("too many files; {}", Self::USAGE))),
            }
        }
        parsed.file = file.ok_or_else(|| CliError::Usage(Self::USAGE.into()))?;
        Ok(parsed)
    }
}

/// `twca sim`: Monte Carlo simulation through the façade — per-chain
/// empirical miss rates with 95% confidence intervals, pooled over
/// `--runs` seeded runs fanned across `--threads` workers. The report
/// is deterministic in the seed at any thread count.
///
/// # Errors
///
/// Returns [`CliError`] for bad flags, unreadable files and façade
/// failures (parse errors, unknown chains).
pub fn cmd_sim(args: &[String]) -> Result<String, CliError> {
    let parsed = SimArgs::parse(args)?;
    let text = std::fs::read_to_string(&parsed.file)?;
    let request = AnalysisRequest::for_system(text).with_query(Query::Simulate {
        chain: parsed.chain.clone(),
        runs: parsed.runs,
        horizon: parsed.horizon,
        seed: parsed.seed,
        threads: parsed.threads,
    });
    let response = Session::new().analyze(&request);
    if parsed.json {
        return Ok(format!("{}\n", response.to_json()));
    }
    let outcomes = response.outcome.map_err(CliError::Api)?;
    let QueryOutcome::Simulate(sim) = &outcomes[0] else {
        unreachable!("a simulate query answers with a simulate outcome");
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} run(s), horizon {}, seed {}",
        sim.runs, sim.horizon, sim.seed
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>8} {:>10} {:>19} {:>8}",
        "chain", "instances", "misses", "rate(ppm)", "95% CI (ppm)", "max lat"
    );
    for row in &sim.chains {
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>8} {:>10} {:>19} {:>8}",
            row.name,
            row.instances,
            row.misses,
            row.miss_rate_ppm,
            format!("[{}, {}]", row.ci_low_ppm, row.ci_high_ppm),
            row.max_latency.map_or("-".into(), |l| l.to_string()),
        );
    }
    Ok(out)
}

/// `twca dot <file>`: Graphviz export.
pub fn cmd_dot(system: &System) -> Result<String, CliError> {
    Ok(render_dot(system))
}

/// `twca gantt <file> [horizon]`: adversarial simulation rendered as a
/// textual Gantt trace (one line per execution span).
pub fn cmd_gantt(system: &System, horizon: u64) -> Result<String, CliError> {
    let traces = adversarial_aligned_traces(system, horizon);
    let result = Simulation::new(system)
        .with_execution_trace(true)
        .run(&traces);
    let trace = result
        .execution_trace()
        .expect("trace recording was enabled");
    let names: Vec<&str> = system.chains().iter().map(|c| c.name()).collect();
    Ok(trace.render(&names))
}

/// `twca report <file>`: Markdown analysis report (latencies, verdicts,
/// miss-model curve per deadline chain).
pub fn cmd_report(system: &System) -> Result<String, CliError> {
    use twca_report::{Align, Document, Table};
    let analysis = ChainAnalysis::new(system);
    let report = analysis.report();

    let mut doc = Document::new("TWCA analysis report");
    doc.section("Worst-case latencies");
    let mut latencies = Table::new();
    latencies.column("chain", Align::Left);
    latencies.column("WCL", Align::Right);
    latencies.column("typical WCL", Align::Right);
    latencies.column("D", Align::Right);
    latencies.column("verdict", Align::Left);
    for row in &report.rows {
        let verdict = match row.schedulable() {
            Some(true) => "schedulable",
            Some(false) if row.typically_schedulable() == Some(true) => "weakly hard",
            Some(false) => "unschedulable",
            None => {
                if row.overload {
                    "overload"
                } else {
                    "no deadline"
                }
            }
        };
        latencies.row([
            row.name.clone(),
            row.worst_case_latency
                .map_or("unbounded".into(), |v| v.to_string()),
            row.typical_latency
                .map_or("unbounded".into(), |v| v.to_string()),
            row.deadline.map_or("-".into(), |v| v.to_string()),
            verdict.to_owned(),
        ]);
    }
    doc.table(&latencies);

    doc.section("Deadline miss models");
    let ks = [1u64, 5, 10, 25, 50, 100];
    let mut misses = Table::new();
    misses.column("chain", Align::Left);
    for k in ks {
        misses.column(format!("dmm({k})"), Align::Right);
    }
    for (id, chain) in system.iter() {
        if chain.deadline().is_none() {
            continue;
        }
        let mut cells = vec![chain.name().to_owned()];
        for dmm in analysis.dmm_curve(id, &ks)? {
            cells.push(dmm.bound.to_string());
        }
        misses.row(cells);
    }
    if misses.is_empty() {
        doc.paragraph("No chain declares a deadline.");
    } else {
        doc.table(&misses);
    }
    Ok(doc.to_markdown())
}

/// `twca synthesize <file> <m> <k>`: search priorities under which every
/// deadline chain satisfies `(m, k)`.
pub fn cmd_synthesize(system: &System, m: u64, k: u64) -> Result<String, CliError> {
    let goals: Vec<Goal> = system
        .iter()
        .filter(|(_, c)| c.deadline().is_some())
        .map(|(_, c)| Goal::new(c.name(), MkConstraint::new(m, k)))
        .collect();
    let outcome = hill_climb(
        system,
        &goals,
        &SearchConfig {
            evaluations: 500,
            restarts: 5,
            ..SearchConfig::default()
        },
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "evaluated {} assignments; best: {} violated goal(s), total dmm {}",
        outcome.evaluated, outcome.best_score.violated_goals, outcome.best_score.total_miss_bound
    );
    let synthesized = system.with_priorities(&outcome.best_priorities);
    for r in synthesized.task_refs() {
        let t = synthesized.task(r);
        let _ = writeln!(out, "{} -> priority {}", t.name(), t.priority().level());
    }
    if outcome.best_score.violated_goals == 0 {
        let _ = writeln!(out, "all ({m}, {k}) goals satisfied");
    } else {
        let _ = writeln!(out, "no fully satisfying assignment found");
    }
    Ok(out)
}

/// Parsed flags of `twca batch`.
struct BatchArgs {
    files: Vec<String>,
    generate: usize,
    seed: u64,
    profile: Option<twca_gen::StressProfile>,
    threads: Option<usize>,
    serial: bool,
    ks: Vec<u64>,
    json: bool,
    progress: bool,
    horizon: u64,
    max_q: u64,
}

impl BatchArgs {
    const USAGE: &'static str = "twca batch [files...] [--gen N] [--seed S] [--profile P] \
                                 [--threads T] [--serial] [--k K1,K2,...] [--horizon H] \
                                 [--max-q Q] [--json] [--progress]";

    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut parsed = BatchArgs {
            files: Vec::new(),
            generate: 0,
            seed: 42,
            profile: None,
            threads: None,
            serial: false,
            ks: vec![1, 10, 100],
            json: false,
            progress: false,
            // Batch sweeps meet adversarial random systems: bound the
            // divergence search much tighter than the single-system
            // default (divergent fixed points crawl to the horizon).
            horizon: 2_000_000,
            max_q: 20_000,
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let mut value_of = |flag: &str| {
                rest.next().ok_or_else(|| {
                    CliError::Usage(format!("{flag} needs a value; {}", Self::USAGE))
                })
            };
            match arg.as_str() {
                "--gen" => {
                    parsed.generate = value_of("--gen")?
                        .parse()
                        .map_err(|_| CliError::Usage("`--gen` expects a system count".into()))?;
                }
                "--seed" => {
                    parsed.seed = value_of("--seed")?
                        .parse()
                        .map_err(|_| CliError::Usage("`--seed` expects an integer".into()))?;
                }
                "--profile" => {
                    parsed.profile = Some(value_of("--profile")?.parse().map_err(CliError::Usage)?);
                }
                "--threads" => {
                    parsed.threads = Some(value_of("--threads")?.parse().map_err(|_| {
                        CliError::Usage("`--threads` expects a worker count".into())
                    })?);
                }
                "--k" => {
                    parsed.ks = value_of("--k")?
                        .split(',')
                        .map(|s| {
                            s.trim().parse().map_err(|_| {
                                CliError::Usage(format!("`{s}` is not a window length"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--horizon" => {
                    parsed.horizon = value_of("--horizon")?
                        .parse()
                        .map_err(|_| CliError::Usage("`--horizon` expects a time bound".into()))?;
                }
                "--max-q" => {
                    parsed.max_q = value_of("--max-q")?.parse().map_err(|_| {
                        CliError::Usage("`--max-q` expects an activation count".into())
                    })?;
                }
                "--serial" => parsed.serial = true,
                "--json" => parsed.json = true,
                "--progress" => parsed.progress = true,
                flag if flag.starts_with("--") => {
                    return Err(CliError::Usage(format!(
                        "unknown batch flag `{flag}`; {}",
                        Self::USAGE
                    )));
                }
                file => parsed.files.push(file.to_owned()),
            }
        }
        if parsed.files.is_empty() && parsed.generate == 0 {
            return Err(CliError::Usage(format!(
                "batch needs input files or --gen; {}",
                Self::USAGE
            )));
        }
        Ok(parsed)
    }
}

/// `twca batch`: fan a whole set of systems out across cores through the
/// [`twca_api::batch::BatchEngine`], with shared busy-window memoization.
///
/// Inputs are system description files and/or `--gen N` reproducibly
/// generated random systems. Output is a per-system summary table, or a
/// JSON document with `--json`. `--serial` forces the single-threaded
/// reference path (bit-identical results, for comparison).
///
/// # Errors
///
/// Returns [`CliError`] for bad flags, unreadable files and parse
/// failures; per-chain analysis failures are reported inline.
pub fn cmd_batch(args: &[String]) -> Result<String, CliError> {
    use rand::SeedableRng as _;

    let parsed = BatchArgs::parse(args)?;
    let mut labels = Vec::new();
    let mut systems = Vec::new();
    for file in &parsed.files {
        labels.push(file.clone());
        systems.push(load(file)?);
    }
    if parsed.generate > 0 {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(parsed.seed);
        let profile = parsed.profile.unwrap_or(twca_gen::StressProfile::Baseline);
        for i in 0..parsed.generate {
            labels.push(format!("gen-{i}"));
            systems.push(
                twca_gen::random_stress_system(&mut rng, profile)
                    .expect("built-in profiles are valid"),
            );
        }
    }

    let options = twca_chains::AnalysisOptions {
        horizon: parsed.horizon,
        max_q: parsed.max_q,
        ..twca_chains::AnalysisOptions::default()
    };
    // One façade session owns the cache and options; the engine is a
    // thread fan-out over it.
    let session = Session::new().with_options(options);
    let mut engine =
        twca_api::batch::BatchEngine::from_session(session).with_ks(parsed.ks.iter().copied());
    if let Some(threads) = parsed.threads {
        engine = engine.with_threads(threads);
    }
    if parsed.serial {
        engine = engine.with_threads(1);
    }
    if parsed.progress {
        engine = engine.with_progress(|done, total| {
            eprintln!("batch: {done}/{total} systems analyzed");
        });
    }
    let batch = if parsed.serial {
        engine.run_serial(systems)
    } else {
        engine.run(systems)
    };

    if parsed.json {
        return Ok(twca_api::batch::batch_to_json(
            &batch,
            Some(engine.cache_stats()),
        ));
    }

    let mut out = String::new();
    for verdict in &batch {
        let _ = writeln!(out, "== {}", labels[verdict.index]);
        for chain in &verdict.chains {
            let wcl = chain
                .worst_case_latency
                .map_or("unbounded".to_owned(), |v| v.to_string());
            let mut dmms = String::new();
            for dmm in &chain.miss_models {
                let _ = write!(dmms, " dmm({})={}", dmm.k, dmm.bound);
            }
            if let Some(error) = &chain.error {
                let _ = write!(dmms, " error: {error}");
            }
            let _ = writeln!(
                out,
                "  {:<16} WCL {:>10}{}{}",
                chain.name,
                wcl,
                if chain.overload { " [overload]" } else { "" },
                dmms
            );
        }
    }
    let stats = engine.cache_stats();
    let _ = writeln!(
        out,
        "analyzed {} system(s) on {} thread(s); cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
        batch.len(),
        if parsed.serial { 1 } else { engine.effective_threads() },
        stats.hits,
        stats.misses,
        stats.hit_ratio() * 100.0,
        stats.entries
    );
    Ok(out)
}

/// Parsed flags of `twca serve`.
struct ServeArgs {
    file: Option<String>,
    budget: Option<u64>,
    horizon: Option<u64>,
    max_q: Option<u64>,
    listen: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    deadline_ms: Option<u64>,
    cache_entries: Option<u64>,
    cache_bytes: Option<u64>,
    store_dir: Option<String>,
    read_timeout_ms: Option<u64>,
    idle_timeout_ms: Option<u64>,
    write_buffer: Option<usize>,
}

impl ServeArgs {
    const USAGE: &'static str = "twca serve [--file F] [--budget UNITS] [--horizon H] [--max-q Q] \
                                 [--listen ADDR] [--workers N] [--queue N] [--deadline-ms MS] \
                                 [--read-timeout MS] [--idle-timeout MS] [--write-buffer BYTES] \
                                 [--cache-entries N] [--cache-bytes B] [--store-dir DIR]";

    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut parsed = ServeArgs {
            file: None,
            budget: None,
            horizon: None,
            max_q: None,
            listen: None,
            workers: None,
            queue: None,
            deadline_ms: None,
            cache_entries: None,
            cache_bytes: None,
            store_dir: None,
            read_timeout_ms: None,
            idle_timeout_ms: None,
            write_buffer: None,
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let mut value_of = |flag: &str| {
                rest.next().ok_or_else(|| {
                    CliError::Usage(format!("{flag} needs a value; {}", Self::USAGE))
                })
            };
            match arg.as_str() {
                "--file" => parsed.file = Some(value_of("--file")?.clone()),
                "--budget" => {
                    parsed.budget =
                        Some(value_of("--budget")?.parse().map_err(|_| {
                            CliError::Usage("`--budget` expects a unit count".into())
                        })?);
                }
                "--horizon" => {
                    parsed.horizon =
                        Some(value_of("--horizon")?.parse().map_err(|_| {
                            CliError::Usage("`--horizon` expects a time bound".into())
                        })?);
                }
                "--max-q" => {
                    parsed.max_q = Some(value_of("--max-q")?.parse().map_err(|_| {
                        CliError::Usage("`--max-q` expects an activation count".into())
                    })?);
                }
                "--listen" => parsed.listen = Some(value_of("--listen")?.clone()),
                "--workers" => {
                    parsed.workers = Some(value_of("--workers")?.parse().map_err(|_| {
                        CliError::Usage("`--workers` expects a thread count".into())
                    })?);
                }
                "--queue" => {
                    parsed.queue = Some(value_of("--queue")?.parse().map_err(|_| {
                        CliError::Usage("`--queue` expects a queue capacity".into())
                    })?);
                }
                "--deadline-ms" => {
                    parsed.deadline_ms =
                        Some(value_of("--deadline-ms")?.parse().map_err(|_| {
                            CliError::Usage("`--deadline-ms` expects milliseconds".into())
                        })?);
                }
                "--cache-entries" => {
                    parsed.cache_entries =
                        Some(value_of("--cache-entries")?.parse().map_err(|_| {
                            CliError::Usage("`--cache-entries` expects an entry count".into())
                        })?);
                }
                "--cache-bytes" => {
                    parsed.cache_bytes =
                        Some(value_of("--cache-bytes")?.parse().map_err(|_| {
                            CliError::Usage("`--cache-bytes` expects a byte budget".into())
                        })?);
                }
                "--store-dir" => parsed.store_dir = Some(value_of("--store-dir")?.clone()),
                "--read-timeout" => {
                    parsed.read_timeout_ms =
                        Some(value_of("--read-timeout")?.parse().map_err(|_| {
                            CliError::Usage("`--read-timeout` expects milliseconds".into())
                        })?);
                }
                "--idle-timeout" => {
                    parsed.idle_timeout_ms =
                        Some(value_of("--idle-timeout")?.parse().map_err(|_| {
                            CliError::Usage("`--idle-timeout` expects milliseconds".into())
                        })?);
                }
                "--write-buffer" => {
                    parsed.write_buffer =
                        Some(value_of("--write-buffer")?.parse().map_err(|_| {
                            CliError::Usage("`--write-buffer` expects a byte budget".into())
                        })?);
                }
                flag => {
                    return Err(CliError::Usage(format!(
                        "unknown serve flag `{flag}`; {}",
                        Self::USAGE
                    )));
                }
            }
        }
        Ok(parsed)
    }

    fn session(&self) -> Session {
        let defaults = twca_chains::AnalysisOptions::default();
        let mut session = Session::new().with_options(twca_chains::AnalysisOptions {
            horizon: self.horizon.unwrap_or(defaults.horizon),
            max_q: self.max_q.unwrap_or(defaults.max_q),
            ..defaults
        });
        if let Some(budget) = self.budget {
            session = session.with_default_budget(budget);
        }
        if self.cache_entries.is_some() || self.cache_bytes.is_some() {
            session = session.with_cache(std::sync::Arc::new(
                twca_chains::AnalysisCache::with_capacity(twca_chains::CacheCapacity {
                    max_entries: self.cache_entries,
                    max_bytes: self.cache_bytes,
                }),
            ));
        }
        session
    }

    /// Opens the durable store behind `--store-dir`, if requested:
    /// recovery (snapshot + journal replay, torn tail repaired) runs
    /// here, before the server accepts a single request.
    fn durable_store(
        &self,
    ) -> Result<
        Option<(
            std::sync::Arc<twca_api::SystemStore>,
            twca_api::RecoveryReport,
        )>,
        CliError,
    > {
        let Some(dir) = &self.store_dir else {
            return Ok(None);
        };
        let io = std::sync::Arc::new(twca_api::DirIo::open(dir).map_err(twca_api::ApiError::from)?);
        let (store, report) =
            twca_api::SystemStore::durable(io, twca_api::PersistPolicy::default())?;
        Ok(Some((std::sync::Arc::new(store), report)))
    }

    fn service_config(&self) -> twca_service::ServiceConfig {
        let defaults = twca_service::ServiceConfig::default();
        twca_service::ServiceConfig {
            workers: self.workers.unwrap_or(defaults.workers),
            queue_capacity: self.queue.unwrap_or(defaults.queue_capacity),
            deadline: self.deadline_ms.map(std::time::Duration::from_millis),
            max_frame_bytes: defaults.max_frame_bytes,
            read_timeout: self.read_timeout_ms.map(std::time::Duration::from_millis),
            idle_timeout: self.idle_timeout_ms.map(std::time::Duration::from_millis),
            write_timeout: defaults.write_timeout,
            write_buffer_bytes: self.write_buffer.unwrap_or(defaults.write_buffer_bytes),
        }
    }
}

fn render_serve_summary(
    summary: &twca_api::ServeSummary,
    stats: twca_chains::CacheStats,
    persist: Option<(twca_api::PersistStats, twca_api::RecoveryReport)>,
) -> String {
    // The first line is load-bearing: scripts (and the smoke test) key
    // on its `served N request(s), M error(s)` prefix.
    let mut out = format!(
        "served {} request(s), {} error(s); cache: {} hits / {} misses \
         ({} entries, {} evicted, ~{} KiB resident)\n",
        summary.requests,
        summary.errors,
        stats.hits,
        stats.misses,
        stats.entries,
        stats.evictions,
        stats.resident_bytes_est / 1024
    );
    if summary.latency.count > 0 {
        let _ = writeln!(
            out,
            "latency: min {} µs / mean {} µs / max {} µs over {} timed request(s)",
            summary.latency.min_ns / 1_000,
            summary.latency.mean_ns() / 1_000,
            summary.latency.max_ns / 1_000,
            summary.latency.count
        );
    }
    if !summary.edge.is_empty() {
        let _ = writeln!(
            out,
            "edge: {} connection(s) open, queue depth peak {}; {} reaped, {} timeout(s), \
             {} reset(s), {} slow consumer(s)",
            summary.edge.open_connections,
            summary.edge.queue_depth_peak,
            summary.edge.reaped,
            summary.edge.timeouts,
            summary.edge.resets,
            summary.edge.slow_consumers
        );
    }
    if let Some((stats, recovery)) = persist {
        let _ = writeln!(
            out,
            "persist: {} journal append(s) ({} bytes, {} fsync(s)), {} snapshot(s); \
             recovered {} entr{} ({} replayed, {} skipped, {} torn byte(s) truncated)",
            stats.journal_appends,
            stats.journal_bytes,
            stats.journal_syncs,
            stats.snapshots_written,
            recovery.entries,
            if recovery.entries == 1 { "y" } else { "ies" },
            recovery.replayed,
            recovery.skipped,
            recovery.truncated_bytes
        );
    }
    out
}

/// `twca serve`: the long-lived JSON-Lines analysis loop over explicit
/// input/output streams — one request per line in, one response per
/// line out, in input order, all answered from one warm
/// [`Session`]. The binary wires this to stdin/stdout; tests to
/// buffers.
///
/// With `--listen ADDR` the same session instead backs a
/// [`twca_service::WorkerPool`] shared by a TCP front end and the stdio
/// lane: `--workers` sizes the pool, `--queue` bounds the pending
/// queue (overflow draws typed `overloaded` errors), `--deadline-ms`
/// cancels requests that outlive their deadline. End-of-input on the
/// stdio lane triggers a graceful drain of the whole server, so
/// holding stdin open (e.g. a FIFO) keeps the server up.
///
/// With `--store-dir DIR` the session's system store is durable:
/// every `store_put` is journaled to `DIR` before it is acknowledged,
/// recovery (snapshot + journal replay) runs before the server
/// accepts requests, and the drain flushes a fresh snapshot. The
/// drain summary grows a `persist:` line with the journal, snapshot
/// and recovery counters (also live in the `stats` wire query).
///
/// # Errors
///
/// Returns [`CliError`] for bad flags and stream I/O failures; parse
/// and analysis failures are streamed as JSON error responses instead.
pub fn cmd_serve(
    args: &[String],
    input: impl BufRead,
    output: impl Write,
) -> Result<String, CliError> {
    let parsed = ServeArgs::parse(args)?;
    let mut session = parsed.session();
    let recovery = match parsed.durable_store()? {
        None => None,
        Some((store, report)) => {
            eprintln!(
                "recovered store from {}: {} entr{} ({} journal record(s) replayed, \
                 {} skipped, {} torn byte(s) truncated)",
                parsed.store_dir.as_deref().unwrap_or("."),
                report.entries,
                if report.entries == 1 { "y" } else { "ies" },
                report.replayed,
                report.skipped,
                report.truncated_bytes
            );
            session = session.with_store(store);
            Some(report)
        }
    };
    // Held across the serve loop so the drain path can flush the
    // durable store and report its counters after the session moved
    // into the server.
    let store = session.store();
    // On drain: force a snapshot so a clean shutdown restarts from a
    // snapshot instead of a journal replay. A flush failure keeps the
    // journal intact (nothing acknowledged is lost), so warn and keep
    // the summary.
    let flush_on_drain = |store: &twca_api::SystemStore| {
        if recovery.is_some() {
            if let Err(error) = store.flush() {
                eprintln!("warning: flush on drain failed: {error}");
            }
        }
    };
    if let Some(addr) = &parsed.listen {
        let cache = session.cache();
        let config = parsed.service_config();
        let server = twca_service::TcpServer::start(addr.as_str(), session, &config)?;
        eprintln!(
            "listening on {} with {} worker(s), queue {}",
            server.local_addr(),
            config.workers,
            config.queue_capacity
        );
        // The stdio lane feeds the same pool; responses to it go to
        // real stdout (the generic `output` need not be Send). EOF on
        // the lane is the drain signal.
        match &parsed.file {
            Some(path) => {
                let file = std::fs::File::open(path)?;
                twca_service::serve_connection(
                    server.pool(),
                    std::io::BufReader::new(file),
                    Box::new(std::io::stdout()),
                    server.max_frame_bytes(),
                );
            }
            None => twca_service::serve_connection(
                server.pool(),
                input,
                Box::new(std::io::stdout()),
                server.max_frame_bytes(),
            ),
        }
        let summary = server.shutdown(std::time::Duration::from_secs(30));
        flush_on_drain(&store);
        let persist = recovery.map(|report| (store.persist_stats(), report));
        return Ok(render_serve_summary(&summary, cache.stats(), persist));
    }
    let summary = match &parsed.file {
        Some(path) => {
            let file = std::fs::File::open(path)?;
            twca_api::serve(&session, std::io::BufReader::new(file), output)?
        }
        None => twca_api::serve(&session, input, output)?,
    };
    flush_on_drain(&store);
    let stats = session.cache_stats();
    let persist = recovery.map(|report| (store.persist_stats(), report));
    Ok(render_serve_summary(&summary, stats, persist))
}

/// `twca loadgen`: drives the TCP server with a deterministic corpus —
/// `--streams` logical request streams of `--requests` requests each,
/// multiplexed over `--connections` sockets — and reports throughput
/// and p50/p95/p99 tail latency. `--expect-clean` fails (non-zero
/// exit) unless every request came back successful: no errors, no
/// `overloaded` rejections, no lost responses.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for bad flags, [`CliError::Io`] when
/// the server cannot be reached, and [`CliError::Verify`] with the
/// report when `--expect-clean` saw failures.
pub fn cmd_loadgen(args: &[String]) -> Result<String, CliError> {
    const USAGE: &str = "twca loadgen --connect ADDR [--streams K] [--requests N] \
                         [--connections C] [--mix chain|dist|mixed|store] [--seed S] \
                         [--retry N] [--reset-ppm P] [--server-stats] [--json] \
                         [--expect-clean]";
    let mut addr: Option<String> = None;
    let mut config = twca_service::LoadgenConfig::default();
    let mut json = false;
    let mut expect_clean = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value_of = |flag: &str| {
            rest.next()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value; {USAGE}")))
        };
        match arg.as_str() {
            "--connect" => addr = Some(value_of("--connect")?.clone()),
            "--streams" => {
                config.streams = value_of("--streams")?
                    .parse()
                    .map_err(|_| CliError::Usage("`--streams` expects a count".into()))?;
            }
            "--requests" => {
                config.requests_per_stream = value_of("--requests")?
                    .parse()
                    .map_err(|_| CliError::Usage("`--requests` expects a count".into()))?;
            }
            "--connections" => {
                config.connections = value_of("--connections")?
                    .parse()
                    .map_err(|_| CliError::Usage("`--connections` expects a count".into()))?;
            }
            "--mix" => {
                let name = value_of("--mix")?;
                config.mix = twca_service::RequestMix::parse(name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "`--mix` must be chain, dist, mixed or store, not `{name}`"
                    ))
                })?;
            }
            "--seed" => {
                config.seed = value_of("--seed")?
                    .parse()
                    .map_err(|_| CliError::Usage("`--seed` expects an integer".into()))?;
            }
            "--retry" => {
                let attempts = value_of("--retry")?
                    .parse()
                    .map_err(|_| CliError::Usage("`--retry` expects an attempt count".into()))?;
                config.retry = Some(twca_service::RetryPolicy::with_attempts(attempts));
            }
            "--reset-ppm" => {
                config.reset_ppm = value_of("--reset-ppm")?.parse().map_err(|_| {
                    CliError::Usage("`--reset-ppm` expects parts-per-million".into())
                })?;
            }
            "--server-stats" => config.fetch_stats = true,
            "--json" => json = true,
            "--expect-clean" => expect_clean = true,
            flag => {
                return Err(CliError::Usage(format!(
                    "unknown loadgen flag `{flag}`; {USAGE}"
                )));
            }
        }
    }
    let addr = addr.ok_or_else(|| CliError::Usage(USAGE.into()))?;
    let report = twca_service::run_loadgen(addr.as_str(), &config)?;
    if expect_clean && report.ok != report.requests {
        return Err(CliError::Verify(format!(
            "loadgen expected a clean run but saw failures:\n{}",
            report.render()
        )));
    }
    if json {
        return Ok(format!("{}\n", report.to_json()));
    }
    Ok(report.render())
}

/// `twca chaos`: hurls seeded transport chaos at a *running* server
/// over real TCP — per schedule, a client whose write side injects
/// delays, partial writes, and mid-stream resets (plus occasional
/// abrupt early closes) — then verifies the edge stayed live and
/// truthful: every complete response is typed, no connection wedges
/// past its deadline, and a final clean probe on a fresh connection
/// still gets an ok answer.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for bad flags, [`CliError::Io`] when
/// the server cannot be reached at all, and [`CliError::Verify`]
/// (non-zero exit) when any liveness or typed-response invariant
/// breaks.
pub fn cmd_chaos(args: &[String]) -> Result<String, CliError> {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::{Shutdown, TcpStream};
    use std::sync::Arc;
    use std::time::Duration;

    const USAGE: &str = "twca chaos --connect ADDR [--schedules N] [--seed S]";
    let mut addr: Option<String> = None;
    let mut schedules: u64 = 20;
    let mut seed: u64 = 0xC4A0;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value_of = |flag: &str| {
            rest.next()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value; {USAGE}")))
        };
        match arg.as_str() {
            "--connect" => addr = Some(value_of("--connect")?.clone()),
            "--schedules" => {
                schedules = value_of("--schedules")?
                    .parse()
                    .map_err(|_| CliError::Usage("`--schedules` expects a count".into()))?;
            }
            "--seed" => {
                seed = value_of("--seed")?
                    .parse()
                    .map_err(|_| CliError::Usage("`--seed` expects an integer".into()))?;
            }
            flag => {
                return Err(CliError::Usage(format!(
                    "unknown chaos flag `{flag}`; {USAGE}"
                )));
            }
        }
    }
    let addr = addr.ok_or_else(|| CliError::Usage(USAGE.into()))?;

    let request = |id: String| {
        format!(
            "{{\"id\": \"{id}\", \"system\": \"chain c periodic=100 deadline=100 \
             {{ task t prio=1 wcet=10 }}\"}}\n"
        )
    };
    let mut violations: Vec<String> = Vec::new();
    let tally = Arc::new(twca_service::ChaosTally::new());
    let mut early_closes = 0u64;
    for schedule in 0..schedules {
        let schedule_seed = seed.wrapping_add(schedule.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let stream = TcpStream::connect(addr.as_str())?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = stream.try_clone()?;
        let mut writer = twca_service::ChaosWrite::new(
            stream.try_clone()?,
            Arc::new(twca_service::FaultPlan::fuzzed_write(schedule_seed, 32)),
            Arc::clone(&tally),
        );
        // Every 4th schedule hangs up abruptly mid-stream: the server
        // must absorb the reset and keep serving everyone else.
        let early_close = schedule % 4 == 3;
        let mut sent = 0usize;
        for index in 0..4usize {
            let line = request(format!("c{schedule}-{index}"));
            if writer.write_all(line.as_bytes()).is_err() {
                break; // an injected reset tore the stream; fine
            }
            sent += 1;
            if early_close && index == 1 {
                break;
            }
        }
        if early_close {
            early_closes += 1;
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let _ = stream.shutdown(Shutdown::Write);
        let mut reader = BufReader::new(reader);
        let mut line = String::new();
        let mut answered = 0usize;
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    if twca_api::Json::parse(&line)
                        .ok()
                        .and_then(|json| twca_api::AnalysisResponse::from_json(&json).ok())
                        .is_none()
                    {
                        violations.push(format!("schedule {schedule}: untyped response: {line:?}"));
                    }
                    answered += 1;
                }
                Err(e) => {
                    violations.push(format!(
                        "schedule {schedule}: the server wedged after {answered} of {sent} \
                         response(s): {e}"
                    ));
                    break;
                }
            }
        }
    }

    // The liveness probe: after all that, a fresh well-behaved client
    // still gets a prompt, typed, successful answer.
    let mut probe = TcpStream::connect(addr.as_str())?;
    probe.set_read_timeout(Some(Duration::from_secs(10)))?;
    probe.write_all(request("probe".into()).as_bytes())?;
    probe.shutdown(Shutdown::Write)?;
    let mut response = String::new();
    let mut ok = false;
    if BufReader::new(&mut probe).read_line(&mut response).is_ok() {
        ok = twca_api::Json::parse(&response)
            .ok()
            .and_then(|json| twca_api::AnalysisResponse::from_json(&json).ok())
            .is_some_and(|r| r.outcome.is_ok());
    }
    if !ok {
        violations.push(format!(
            "the post-chaos liveness probe failed: {response:?}"
        ));
    }

    let report = format!(
        "chaos: {schedules} schedule(s) against {addr}: {} delay(s), {} short write(s), \
         {} injected reset(s), {early_closes} early close(s); liveness probe {}\n",
        tally.delays(),
        tally.shorts(),
        tally.resets(),
        if ok { "ok" } else { "FAILED" }
    );
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(CliError::Verify(format!(
            "{report}{} chaos violation(s), first: {}",
            violations.len(),
            violations[0]
        )))
    }
}

/// `twca dist <file> [--k K1,K2,...] [--path r/c,r/c,...] [--json]`:
/// loads a linked-resource document, runs the holistic analysis through
/// the façade, and reports per-site bounds (plus optional end-to-end
/// path bounds) — as a table, or as the wire-format response with
/// `--json`.
///
/// # Errors
///
/// Returns [`CliError`] for bad flags and unreadable files; malformed
/// documents surface as typed [`twca_api::ApiError`]s, never panics.
pub fn cmd_dist(args: &[String]) -> Result<String, CliError> {
    const USAGE: &str = "twca dist <file> [--k K1,K2,...] [--path r/c,r/c,...] [--json]";
    let mut file = None;
    let mut ks: Vec<u64> = vec![1, 10, 100];
    let mut path: Option<Vec<twca_api::SiteSpec>> = None;
    let mut json = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value_of = |flag: &str| {
            rest.next()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value; {USAGE}")))
        };
        match arg.as_str() {
            "--k" => {
                ks = value_of("--k")?
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse()
                            .map_err(|_| CliError::Usage(format!("`{t}` is not a window length")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--path" => {
                path = Some(
                    value_of("--path")?
                        .split(',')
                        .map(|t| twca_api::SiteSpec::parse(t.trim()).map_err(CliError::Api))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!(
                    "unknown dist flag `{flag}`; {USAGE}"
                )));
            }
            value if file.is_none() => file = Some(value.to_owned()),
            _ => return Err(CliError::Usage(format!("too many files; {USAGE}"))),
        }
    }
    let file = file.ok_or_else(|| CliError::Usage(USAGE.into()))?;
    let text = std::fs::read_to_string(&file)?;

    let mut request = AnalysisRequest::for_dist_text(text)
        .with_query(Query::Latency { chain: None })
        .with_query(Query::Dmm {
            chain: None,
            ks: ks.clone(),
        });
    if let Some(hops) = path {
        request = request.with_query(Query::Path { hops, ks });
    }
    let response = Session::new().analyze(&request);
    if json {
        return Ok(format!("{}\n", response.to_json()));
    }

    let outcomes = response.outcome.map_err(CliError::Api)?;
    let mut out = String::new();
    for outcome in &outcomes {
        match outcome {
            QueryOutcome::Latency(rows) => {
                let _ = writeln!(
                    out,
                    "{:<24} {:>10} {:>10} {:>10}",
                    "site", "WCL", "D", "verdict"
                );
                for row in rows {
                    let verdict = match (row.worst_case_latency, row.deadline) {
                        (Some(wcl), Some(d)) if wcl <= d => "schedulable",
                        (Some(_), Some(_)) => "weakly hard",
                        (None, _) => "unbounded",
                        _ if row.overload => "overload",
                        _ => "no deadline",
                    };
                    let _ = writeln!(
                        out,
                        "{:<24} {:>10} {:>10} {:>10}",
                        row.name,
                        row.worst_case_latency
                            .map_or("unbounded".into(), |v| v.to_string()),
                        row.deadline.map_or("-".into(), |v| v.to_string()),
                        verdict
                    );
                }
            }
            QueryOutcome::Dmm(rows) => {
                for row in rows {
                    let mut line = String::new();
                    for p in &row.points {
                        let _ = write!(line, " dmm({})={}", p.k, p.bound);
                    }
                    if let Some(error) = &row.error {
                        let _ = write!(line, " error: {error}");
                    }
                    let _ = writeln!(out, "{:<24}{}", row.name, line);
                }
            }
            QueryOutcome::Path(p) => {
                let _ = writeln!(
                    out,
                    "path {}: latency {} / deadline {}",
                    p.hops.join(" -> "),
                    p.latency.map_or("unbounded".into(), |v| v.to_string()),
                    p.composite_deadline.map_or("-".into(), |v| v.to_string()),
                );
                for point in &p.points {
                    let _ = writeln!(out, "  dmm({}) = {}", point.k, point.bound);
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Parsed flags of `twca fuzz`.
struct FuzzArgs {
    config: twca_verify::FuzzConfig,
}

impl FuzzArgs {
    const USAGE: &'static str = "twca fuzz [--seed S] [--iters N] [--budget SECS] \
                                 [--profile P1,P2,...] [--k K1,K2,...] [--horizon H] \
                                 [--corpus DIR] [--no-shrink]";

    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut config = twca_verify::FuzzConfig {
            seed: 7,
            iterations: 200,
            ..twca_verify::FuzzConfig::default()
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let mut value_of = |flag: &str| {
                rest.next().ok_or_else(|| {
                    CliError::Usage(format!("{flag} needs a value; {}", Self::USAGE))
                })
            };
            match arg.as_str() {
                "--seed" => {
                    config.seed = value_of("--seed")?
                        .parse()
                        .map_err(|_| CliError::Usage("`--seed` expects an integer".into()))?;
                }
                "--iters" => {
                    config.iterations = value_of("--iters")?.parse().map_err(|_| {
                        CliError::Usage("`--iters` expects an iteration count".into())
                    })?;
                }
                "--budget" => {
                    let seconds: f64 = value_of("--budget")?.parse().map_err(|_| {
                        CliError::Usage("`--budget` expects seconds (fractions allowed)".into())
                    })?;
                    if !seconds.is_finite() || seconds < 0.0 {
                        return Err(CliError::Usage(
                            "`--budget` expects a finite, non-negative number of seconds".into(),
                        ));
                    }
                    config.time_budget = Some(std::time::Duration::from_secs_f64(seconds));
                }
                "--profile" => {
                    config.profiles = value_of("--profile")?
                        .split(',')
                        .map(|p| {
                            twca_verify::ScenarioProfile::parse(p.trim()).map_err(CliError::Usage)
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--k" => {
                    config.verify.ks = value_of("--k")?
                        .split(',')
                        .map(|s| {
                            s.trim().parse().map_err(|_| {
                                CliError::Usage(format!("`{s}` is not a window length"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--horizon" => {
                    config.verify.horizon = value_of("--horizon")?.parse().map_err(|_| {
                        CliError::Usage("`--horizon` expects a simulation horizon".into())
                    })?;
                }
                "--corpus" => {
                    config.corpus_dir = Some(value_of("--corpus")?.into());
                }
                "--no-shrink" => config.shrink = false,
                flag => {
                    return Err(CliError::Usage(format!(
                        "unknown fuzz flag `{flag}`; {}",
                        Self::USAGE
                    )));
                }
            }
        }
        if config.profiles.is_empty() {
            return Err(CliError::Usage(
                "`--profile` needs at least one profile".into(),
            ));
        }
        Ok(FuzzArgs { config })
    }
}

/// `twca fuzz`: randomized conformance fuzzing through the
/// [`twca_verify`] oracle battery. Every generated scenario is checked
/// against all twelve oracles; failures are auto-shrunk to minimal
/// counterexamples and (with `--corpus`) persisted as regression
/// fixtures.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for bad flags and [`CliError::Verify`]
/// (non-zero exit) when any oracle fired, with the full report.
pub fn cmd_fuzz(args: &[String]) -> Result<String, CliError> {
    use twca_verify::OracleKind;

    let parsed = FuzzArgs::parse(args)?;
    let report = twca_verify::fuzz(&parsed.config);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fuzz: seed {}, {} scenario(s) over {} profile(s) in {:.1}s",
        parsed.config.seed,
        report.iterations_run,
        report.per_profile.len(),
        report.elapsed.as_secs_f64()
    );
    for (name, count) in &report.per_profile {
        let _ = writeln!(out, "  {name:<24} {count} scenario(s)");
    }
    let oracle_names: Vec<&str> = OracleKind::ALL.iter().map(|o| o.name()).collect();
    let _ = writeln!(out, "oracles: {}", oracle_names.join(", "));

    if report.is_clean() {
        let _ = writeln!(out, "all oracles clean");
        return Ok(out);
    }
    for failure in &report.failures {
        let _ = writeln!(out, "FAILURE in scenario {}:", failure.label);
        for violation in &failure.violations {
            let _ = writeln!(out, "  {violation}");
        }
        let _ = writeln!(
            out,
            "shrunk counterexample ({} task(s)):",
            failure.shrunk.task_count()
        );
        for line in failure.shrunk.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
        if let Some(path) = &failure.persisted {
            let _ = writeln!(out, "persisted to {}", path.display());
        }
        if let Some(error) = &failure.persist_error {
            let _ = writeln!(out, "WARNING: counterexample not persisted: {error}");
        }
    }
    Err(CliError::Verify(out))
}

/// Parsed flags of `twca bench`.
struct BenchCliArgs {
    config: twca_bench::runner::BenchConfig,
    json: bool,
    out: Option<String>,
    check: Option<String>,
}

impl BenchCliArgs {
    const USAGE: &'static str =
        "twca bench [--json] [--out FILE] [--seed S] [--quick] [--check BASELINE.json]";

    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut parsed = BenchCliArgs {
            config: twca_bench::runner::BenchConfig::default(),
            json: false,
            out: None,
            check: None,
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let mut value_of = |flag: &str| {
                rest.next().ok_or_else(|| {
                    CliError::Usage(format!("{flag} needs a value; {}", Self::USAGE))
                })
            };
            match arg.as_str() {
                "--json" => parsed.json = true,
                "--quick" => parsed.config.quick = true,
                "--seed" => {
                    parsed.config.seed = value_of("--seed")?
                        .parse()
                        .map_err(|_| CliError::Usage("`--seed` expects an integer".into()))?;
                }
                "--out" => parsed.out = Some(value_of("--out")?.clone()),
                "--check" => parsed.check = Some(value_of("--check")?.clone()),
                flag => {
                    return Err(CliError::Usage(format!(
                        "unknown bench flag `{flag}`; {}",
                        Self::USAGE
                    )));
                }
            }
        }
        Ok(parsed)
    }
}

/// `twca bench`: the in-process perf-trajectory runner
/// ([`twca_bench::runner`]). One run times every workload — the core
/// analysis stages (combination engine, Table II, batch engine,
/// busy-window and latency solvers, holistic worklist, simulation),
/// delta re-analysis after a one-task edit, durable-store puts and
/// recovery, and saturation of an in-process TCP server by 10 000
/// concurrent request streams — and renders best-of-N timings plus
/// the ratio contracts between them as a table, or as the `BENCH.json`
/// artifact with `--json`/`--out`.
/// `--check BASELINE.json` re-measures and fails (non-zero exit) when
/// any baseline entry regresses more than 1.5× after machine-speed
/// normalization, is missing, or when a contract of the baseline fails
/// on the measured report.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for bad flags, [`CliError::Io`] for
/// unreadable/unwritable files, and [`CliError::Verify`] with the
/// regression list when `--check` fails.
pub fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    use twca_bench::runner::{check_against, run_bench, BenchReport};

    let parsed = BenchCliArgs::parse(args)?;
    // Load the baseline before measuring anything: a missing or
    // malformed baseline must fail fast, not after seconds of timing.
    let baseline = match &parsed.check {
        None => None,
        Some(baseline_path) => {
            let text = std::fs::read_to_string(baseline_path)?;
            let value = twca_api::Json::parse(&text)
                .map_err(|e| CliError::Usage(format!("`{baseline_path}` is not JSON: {e}")))?;
            Some(BenchReport::from_json(&value).map_err(|e| {
                CliError::Usage(format!("`{baseline_path}` is not a bench report: {e}"))
            })?)
        }
    };
    let report = run_bench(&parsed.config);
    let json = format!("{}\n", report.to_json());
    if let Some(path) = &parsed.out {
        std::fs::write(path, &json)?;
    }
    if let Some(baseline) = baseline {
        let regressions = check_against(&report, &baseline, 1.5);
        if !regressions.is_empty() {
            let mut out = String::from("performance regressions against the baseline:\n");
            for regression in &regressions {
                let _ = writeln!(out, "  {regression}");
            }
            out.push_str(&report.render());
            return Err(CliError::Verify(out));
        }
    }
    if parsed.json {
        return Ok(json);
    }
    Ok(report.render())
}

/// Dispatches a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns [`CliError`] for usage errors, unreadable files, parse
/// failures and analysis failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    const USAGE: &str = "twca <analyze|explain|dmm|simulate|sim|dot|gantt|report|synthesize|batch|\
                         dist|serve|loadgen|chaos|fuzz|bench> <file> [...]";
    let command = args.first().ok_or_else(|| CliError::Usage(USAGE.into()))?;
    if command == "batch" {
        return cmd_batch(&args[1..]);
    }
    if command == "sim" {
        return cmd_sim(&args[1..]);
    }
    if command == "fuzz" {
        return cmd_fuzz(&args[1..]);
    }
    if command == "bench" {
        return cmd_bench(&args[1..]);
    }
    if command == "dist" {
        return cmd_dist(&args[1..]);
    }
    if command == "serve" {
        // The streaming loop writes to stdout as responses are
        // produced; the returned summary goes to stderr in main.
        // Stdout must stay UNLOCKED here: in `--listen` mode the pool's
        // worker threads answer the stdio lane through their own
        // `std::io::stdout()` handle, and `Stdout`'s lock is reentrant
        // only on the owning thread — holding it across `cmd_serve`
        // deadlocks the drain.
        let stdin = std::io::stdin();
        let summary = cmd_serve(&args[1..], stdin.lock(), std::io::stdout())?;
        eprint!("{summary}");
        return Ok(String::new());
    }
    if command == "loadgen" {
        return cmd_loadgen(&args[1..]);
    }
    if command == "chaos" {
        return cmd_chaos(&args[1..]);
    }
    let path = args.get(1).ok_or_else(|| CliError::Usage(USAGE.into()))?;
    let system = load(path)?;
    match command.as_str() {
        "analyze" => cmd_analyze(&system),
        "explain" => {
            let chain = args
                .get(2)
                .ok_or_else(|| CliError::Usage("twca explain <file> <chain>".into()))?;
            cmd_explain(&system, chain)
        }
        "dmm" => {
            let chain = args
                .get(2)
                .ok_or_else(|| CliError::Usage("twca dmm <file> <chain> <k>...".into()))?;
            let ks: Vec<u64> = args[3..]
                .iter()
                .map(|s| {
                    s.parse()
                        .map_err(|_| CliError::Usage(format!("`{s}` is not a window length")))
                })
                .collect::<Result<_, _>>()?;
            if ks.is_empty() {
                return Err(CliError::Usage("twca dmm <file> <chain> <k>...".into()));
            }
            cmd_dmm(&system, chain, &ks)
        }
        "simulate" => {
            let horizon = match args.get(2) {
                Some(s) => s
                    .parse()
                    .map_err(|_| CliError::Usage(format!("`{s}` is not a horizon")))?,
                None => 100_000,
            };
            cmd_simulate(&system, horizon)
        }
        "dot" => cmd_dot(&system),
        "report" => cmd_report(&system),
        "gantt" => {
            let horizon = match args.get(2) {
                Some(s) => s
                    .parse()
                    .map_err(|_| CliError::Usage(format!("`{s}` is not a horizon")))?,
                None => 2_000,
            };
            cmd_gantt(&system, horizon)
        }
        "synthesize" => {
            let m: u64 = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| CliError::Usage("twca synthesize <file> <m> <k>".into()))?;
            let k: u64 = args
                .get(3)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| CliError::Usage("twca synthesize <file> <m> <k>".into()))?;
            cmd_synthesize(&system, m, k)
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`; {USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "
chain control periodic=100 deadline=100 sync {
    task sense prio=5 wcet=10
    task act prio=1 wcet=25
}
chain recovery sporadic=1000 overload {
    task fix prio=3 wcet=40
}
";

    fn system() -> System {
        parse_system(EXAMPLE).unwrap()
    }

    fn write_example() -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("twca_cli_test_{}.twca", std::process::id()));
        std::fs::write(&path, EXAMPLE).unwrap();
        path
    }

    #[test]
    fn analyze_reports_all_chains() {
        let out = cmd_analyze(&system()).unwrap();
        assert!(out.contains("control"));
        assert!(out.contains("recovery"));
        assert!(out.contains("dmm(10)"));
    }

    #[test]
    fn explain_and_dot_render() {
        let s = system();
        let ex = cmd_explain(&s, "control").unwrap();
        assert!(ex.contains("busy window"));
        let dot = cmd_dot(&s).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn dmm_lists_requested_ks() {
        let out = cmd_dmm(&system(), "control", &[1, 5, 10]).unwrap();
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("dmm(5)"));
    }

    #[test]
    fn simulate_table_is_sound_looking() {
        let out = cmd_simulate(&system(), 50_000).unwrap();
        assert!(out.contains("control"));
        assert!(out.contains("WCL"));
    }

    #[test]
    fn sim_reports_rates_and_validates_flags() {
        let path =
            std::env::temp_dir().join(format!("twca_cli_sim_test_{}.twca", std::process::id()));
        std::fs::write(&path, EXAMPLE).unwrap();
        let p = path.to_string_lossy().to_string();
        let base = args(&[
            "sim",
            &p,
            "--runs",
            "6",
            "--horizon",
            "20000",
            "--seed",
            "9",
            "--threads",
            "2",
        ]);
        let out = run(&base).unwrap();
        assert!(out.contains("6 run(s), horizon 20000, seed 9"));
        assert!(out.contains("control"));
        assert!(out.contains("rate(ppm)"));
        // Only deadline chains appear by default.
        assert!(!out.contains("recovery"));

        // --chain restricts the table; unknown names are typed errors.
        let mut one = base.clone();
        one.extend(args(&["--chain", "recovery"]));
        let table = run(&one).unwrap();
        assert!(table.contains("recovery") && !table.contains("control"));
        let mut ghost = base.clone();
        ghost.extend(args(&["--chain", "ghost"]));
        assert!(matches!(run(&ghost), Err(CliError::Api(_))));

        assert!(matches!(
            cmd_sim(&args(&[&p, "--turbo"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_sim(&args(&[&p, "--runs", "many"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(cmd_sim(&args(&[])), Err(CliError::Usage(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn synthesize_produces_assignment() {
        let out = cmd_synthesize(&system(), 1, 10).unwrap();
        assert!(out.contains("priority"));
    }

    #[test]
    fn serve_cache_flags_bound_the_session_cache() {
        let parsed =
            ServeArgs::parse(&args(&["--cache-entries", "64", "--cache-bytes", "65536"])).unwrap();
        let cap = parsed.session().cache().capacity();
        assert_eq!(cap.max_entries, Some(64));
        assert_eq!(cap.max_bytes, Some(65536));

        // Without the flags the session keeps its default, unbounded cache.
        let cap = ServeArgs::parse(&[]).unwrap().session().cache().capacity();
        assert_eq!(cap.max_entries, None);
        assert_eq!(cap.max_bytes, None);

        assert!(matches!(
            ServeArgs::parse(&args(&["--cache-entries", "lots"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_edge_flags_configure_the_service() {
        let parsed = ServeArgs::parse(&args(&[
            "--read-timeout",
            "1500",
            "--idle-timeout",
            "250",
            "--write-buffer",
            "8192",
        ]))
        .unwrap();
        let config = parsed.service_config();
        assert_eq!(
            config.read_timeout,
            Some(std::time::Duration::from_millis(1500))
        );
        assert_eq!(
            config.idle_timeout,
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(config.write_buffer_bytes, 8192);

        // Without the flags, the defaults stand.
        let defaults = twca_service::ServiceConfig::default();
        let config = ServeArgs::parse(&[]).unwrap().service_config();
        assert_eq!(config.read_timeout, defaults.read_timeout);
        assert_eq!(config.write_buffer_bytes, defaults.write_buffer_bytes);

        assert!(matches!(
            ServeArgs::parse(&args(&["--read-timeout", "forever"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn loadgen_retry_flags_parse_and_require_a_server() {
        // Flag errors surface before any connection is attempted.
        assert!(matches!(
            cmd_loadgen(&args(&["--retry", "several"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_loadgen(&args(&["--reset-ppm", "half"])),
            Err(CliError::Usage(_))
        ));
        // The store mix parses; a missing --connect is still usage.
        assert!(matches!(
            cmd_loadgen(&args(&["--mix", "store", "--retry", "3", "--server-stats"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_loadgen(&args(&["--mix", "sabotage"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn chaos_hammers_a_live_server_and_the_probe_survives() {
        let config = twca_service::ServiceConfig {
            workers: 2,
            read_timeout: Some(std::time::Duration::from_secs(5)),
            idle_timeout: Some(std::time::Duration::from_secs(5)),
            ..twca_service::ServiceConfig::default()
        };
        let server =
            twca_service::TcpServer::start("127.0.0.1:0", Session::new(), &config).unwrap();
        let addr = server.local_addr().to_string();
        let out = cmd_chaos(&args(&[
            "--connect",
            &addr,
            "--schedules",
            "8",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("8 schedule(s)"), "report broke: {out}");
        assert!(out.contains("liveness probe ok"), "probe failed: {out}");
        let summary = server.shutdown(std::time::Duration::from_secs(10));
        assert!(summary.requests > 0, "no chaos request was ever admitted");

        assert!(matches!(cmd_chaos(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            cmd_chaos(&args(&["--connect", "127.0.0.1:1", "--schedules", "nope"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_store_dir_persists_puts_across_restarts() {
        let dir = std::env::temp_dir().join(format!("twca-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let serve_args = args(&["--store-dir", dir.to_str().unwrap()]);

        // First process life: two versions of one entry, then drain.
        let input = concat!(
            r#"{"queries": [{"store_put": {"name": "plant", "system": "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }"}}]}"#,
            "\n",
            r#"{"queries": [{"store_put": {"name": "plant", "system": "chain c periodic=100 deadline=100 { task t prio=1 wcet=12 }"}}]}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = cmd_serve(&serve_args, input.as_bytes(), &mut out).unwrap();
        assert!(
            summary.contains("persist: 2 journal append(s)"),
            "summary lost the persist line: {summary}"
        );
        assert!(String::from_utf8(out).unwrap().contains("\"version\": 2"));

        // Second life over the same directory: the drain snapshot (plus
        // empty journal) recovers, and analysis sees version 2.
        let input =
            r#"{"queries": [{"store_analyze": {"name": "plant", "ks": [1]}}]}"#.to_owned() + "\n";
        let mut out = Vec::new();
        let summary = cmd_serve(&serve_args, input.as_bytes(), &mut out).unwrap();
        assert!(
            summary.contains("recovered 1 entry"),
            "restart did not recover the entry: {summary}"
        );
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("\"version\": 2"), "history lost: {out}");

        // A store directory that cannot be created is a typed error.
        let bad = dir.join("store.journal").join("nested");
        assert!(matches!(
            cmd_serve(
                &args(&["--store-dir", bad.to_str().unwrap()]),
                &b""[..],
                Vec::new()
            ),
            Err(CliError::Api(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bursty_dsl_system_analyzes_end_to_end() {
        let system = parse_system(
            "
chain frames periodic=400 burst=4 inner=5 deadline=60 async {
    task rx prio=2 wcet=6
    task tx prio=1 wcet=10
}
chain diag sporadic=1500 overload {
    task dump prio=3 wcet=25
}
",
        )
        .unwrap();
        let out = cmd_analyze(&system).unwrap();
        assert!(out.contains("frames"));
        let report = cmd_report(&system).unwrap();
        assert!(report.contains("| frames |"));
    }

    #[test]
    fn gantt_renders_spans() {
        let out = cmd_gantt(&system(), 500).unwrap();
        assert!(out.contains("control#0 task 0"));
        assert!(out.lines().count() >= 4);
    }

    #[test]
    fn report_renders_markdown() {
        let out = cmd_report(&system()).unwrap();
        assert!(out.starts_with("# TWCA analysis report"));
        assert!(out.contains("| control |"));
        assert!(out.contains("dmm(10)"));
        assert!(out.contains("overload"));
    }

    #[test]
    fn unknown_chain_is_reported() {
        assert!(matches!(
            cmd_explain(&system(), "ghost"),
            Err(CliError::NoSuchChain(_))
        ));
    }

    #[test]
    fn run_dispatches_and_validates() {
        let path = write_example();
        let p = path.to_string_lossy().to_string();
        let out = run(&["analyze".into(), p.clone()]).unwrap();
        assert!(out.contains("control"));
        assert!(matches!(
            run(&["bogus".into(), p.clone()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["analyze".into(), "/nonexistent/file".into()]),
            Err(CliError::Io(_))
        ));
        assert!(matches!(
            run(&["dmm".into(), p.clone(), "control".into()]),
            Err(CliError::Usage(_))
        ));
        let dmm = run(&[
            "dmm".into(),
            p.clone(),
            "control".into(),
            "3".into(),
            "7".into(),
        ])
        .unwrap();
        assert!(dmm.contains("dmm(7)"));
        std::fs::remove_file(path).ok();
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn batch_validates_flags() {
        assert!(matches!(cmd_batch(&args(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            cmd_batch(&args(&["--gen", "not-a-number"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_batch(&args(&["--bogus"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn batch_parallel_output_matches_serial() {
        let parallel = cmd_batch(&args(&[
            "--gen",
            "12",
            "--seed",
            "3",
            "--k",
            "1,10",
            "--threads",
            "4",
            "--json",
        ]))
        .unwrap();
        let serial = cmd_batch(&args(&[
            "--gen", "12", "--seed", "3", "--k", "1,10", "--serial", "--json",
        ]))
        .unwrap();
        assert_eq!(parallel, serial, "parallel JSON must be byte-identical");
        assert!(parallel.contains("\"systems\""));
        assert!(parallel.contains("\"cache\""));
    }

    #[test]
    fn batch_profile_changes_the_generated_workload() {
        let baseline =
            cmd_batch(&args(&["--gen", "2", "--seed", "5", "--k", "1", "--json"])).unwrap();
        let explicit = cmd_batch(&args(&[
            "--gen",
            "2",
            "--seed",
            "5",
            "--k",
            "1",
            "--profile",
            "baseline",
            "--json",
        ]))
        .unwrap();
        assert_eq!(baseline, explicit, "`baseline` is the default profile");
        let degenerate = cmd_batch(&args(&[
            "--gen",
            "2",
            "--seed",
            "5",
            "--k",
            "1",
            "--profile",
            "degenerate",
            "--json",
        ]))
        .unwrap();
        assert_ne!(baseline, degenerate);
        assert!(matches!(
            cmd_batch(&args(&["--gen", "1", "--profile", "bogus"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fuzz_smoke_run_is_clean_and_reports_profiles() {
        let out = cmd_fuzz(&args(&[
            "--seed",
            "7",
            "--iters",
            "4",
            "--horizon",
            "3000",
            "--profile",
            "baseline,degenerate,dist-single",
        ]))
        .unwrap();
        assert!(out.contains("4 scenario(s) over 3 profile(s)"));
        assert!(out.contains("all oracles clean"));
        assert!(out.contains("sim-soundness"));
        assert!(out.contains("monotonicity"));
    }

    #[test]
    fn fuzz_validates_flags() {
        assert!(matches!(
            cmd_fuzz(&args(&["--iters", "not-a-number"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_fuzz(&args(&["--profile", "quantum"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_fuzz(&args(&["--bogus"])),
            Err(CliError::Usage(_))
        ));
        // Degenerate budgets are usage errors, never panics.
        for budget in ["-1", "nan", "inf"] {
            assert!(matches!(
                cmd_fuzz(&args(&["--budget", budget])),
                Err(CliError::Usage(_))
            ));
        }
    }

    #[test]
    fn bench_validates_flags() {
        assert!(matches!(
            cmd_bench(&args(&["--bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_bench(&args(&["--seed", "not-a-number"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_bench(&args(&["--check"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_bench(&args(&["--check", "/nonexistent/baseline.json"])),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn batch_analyzes_files_and_generated_systems_together() {
        let path = write_example();
        let p = path.to_string_lossy().to_string();
        let out = run(&args(&["batch", &p, "--gen", "2", "--k", "5"])).unwrap();
        assert!(out.contains(&p));
        assert!(out.contains("gen-1"));
        assert!(out.contains("control"));
        assert!(out.contains("dmm(5)"));
        assert!(out.contains("analyzed 3 system(s)"));
        std::fs::remove_file(path).ok();
    }
}
