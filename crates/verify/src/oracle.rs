//! The differential oracle battery: every generated scenario is checked
//! against thirteen independent ways the suite could disagree with
//! itself.

use std::sync::{Arc, Mutex};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::scenario::ScenarioBody;
use twca_api::{
    crash_states, respond_line, AnalysisRequest, AnalysisResponse, Json, MemIo, PersistPolicy,
    Query, QueryOutcome, Session, StoreIo, StoredBody, SystemStore, Target,
};
use twca_chains::reference::Reference;
use twca_chains::{
    deadline_miss_model_exact, latency_analysis, AnalysisCache, AnalysisContext, AnalysisError,
    AnalysisOptions, DmmResult, DmmSweep, OverloadMode,
};
use twca_curves::{EventModel, Time};
use twca_dist::{
    analyze as dist_analyze, soundness_violations, DistError, DistOptions, DistResults,
    DistributedSystem, SiteId,
};
use twca_model::{ChainId, System};
use twca_sim::{
    adversarial_aligned_traces, periodic_trace, MonteCarlo, MonteCarloConfig, Simulation, TraceSet,
};

/// The thirteen oracles of the conformance battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Analytic bounds must dominate every simulated trace: observed
    /// latency ≤ WCL and observed misses in any `k`-window ≤ `dmm(k)`.
    SimSoundness,
    /// Cached and uncached [`AnalysisContext`]s must agree bit-for-bit,
    /// cold and warm.
    CacheAgreement,
    /// Serial and parallel `BatchEngine` runs must agree bit-for-bit.
    ParallelAgreement,
    /// The façade backends must agree: `ChainBackend` vs `DistBackend`
    /// on single-resource systems, and `DistBackend` vs the direct
    /// `twca_dist::analyze` on distributed ones.
    BackendAgreement,
    /// `dmm` curves must be monotone in `k`, capped by `k`, and typical
    /// latencies must not exceed full ones.
    Monotonicity,
    /// The lazy (dominance-pruned) and materialized combination engines
    /// must agree bit-for-bit: dmm curves, packing witnesses and the
    /// exact-criterion variant, on uniprocessor and holistic analyses
    /// alike. The materialized reference refusing an instance the lazy
    /// engine can handle (`TooManyCombinations`) is the one sanctioned
    /// divergence.
    LazyAgreement,
    /// The scheduling-point and iterative busy-window solvers must agree
    /// bit-for-bit: busy-time breakdowns, latency results including the
    /// typed divergence reason, dmm curves and witnesses, and — on
    /// distributed scenarios — the holistic fixed point (sweeps,
    /// per-site bounds, effective activation models) between the
    /// worklist and full-sweep drivers. No sanctioned divergence exists.
    SolverAgreement,
    /// The zero-allocation event-queue simulation core and the retained
    /// classic chain-scan core must agree bit-for-bit on the full
    /// [`twca_sim::SimulationResult`] — per-chain statistics, instance
    /// records, miss flags and the recorded execution spans — over every
    /// trace battery the soundness oracle drives. No sanctioned
    /// divergence exists.
    SimAgreement,
    /// Empirical Monte Carlo miss rates must respect the analytic
    /// bounds: across every randomized (conformance-preserving) run, the
    /// worst miss count in any `k`-window stays ≤ `dmm(k)` and the worst
    /// observed latency stays ≤ the analytic WCL.
    MissRateSoundness,
    /// The service tier must be a transparent wire veneer: driving the
    /// scenario through a [`twca_service::WorkerPool`] connection —
    /// interleaved with a malformed/oversized frame battery — must
    /// answer every hostile frame with a typed error, never drop or
    /// reorder a response, and return the valid request's response
    /// bit-identical to a direct [`Session`] answering the same line.
    ServiceRobustness,
    /// Versioned-store delta re-analysis must be invisible: a session
    /// that keeps one named system across a fuzzed sequence of WCET
    /// edits (its memoized rows surviving every `store_put`) must
    /// answer each `store_analyze` bit-identical to a fresh session
    /// analyzing the same version from scratch — including failing
    /// with the identical typed error when the edit breaks the
    /// analysis.
    DeltaAgreement,
    /// The durable store must survive its own fault model: for a
    /// fuzzed `store_put` sequence journaled through a recording
    /// [`MemIo`], recovery from *every* injected crash point (each
    /// write boundary plus torn prefixes of each append) must yield a
    /// store prefix-equal to the pre-crash put history — at least
    /// every fully-journaled put, each surviving version's body
    /// bit-identical — and injected bit flips must be *detected*: a
    /// typed refusal or a valid tail truncation, never silently wrong
    /// history.
    RecoveryAgreement,
    /// The service edge must stay live and truthful under transport
    /// chaos: driving the scenario's request script through a real
    /// [`twca_service::WorkerPool`] lane wrapped in seeded
    /// [`twca_service::ChaosRead`]/[`twca_service::ChaosWrite`] fault
    /// schedules (delays, stalls, short reads, partial writes,
    /// mid-frame resets, bit corruption) must always terminate, answer
    /// every frame the lane submitted with exactly one typed terminal
    /// response (none forged, none lost while the write side is
    /// healthy) and one served-or-rejected count in the registry, never
    /// lose an acknowledged `store_put`, apply a dedup-tagged put
    /// at most once, and reconcile the lane's edge counters with the
    /// faults actually injected. The fault-free schedule must be
    /// byte-identical to the plain (chaos-free) lane.
    ChaosLiveness,
}

impl OracleKind {
    /// Every oracle, in reporting order.
    pub const ALL: [OracleKind; 13] = [
        OracleKind::SimSoundness,
        OracleKind::CacheAgreement,
        OracleKind::ParallelAgreement,
        OracleKind::BackendAgreement,
        OracleKind::Monotonicity,
        OracleKind::LazyAgreement,
        OracleKind::SolverAgreement,
        OracleKind::SimAgreement,
        OracleKind::MissRateSoundness,
        OracleKind::ServiceRobustness,
        OracleKind::DeltaAgreement,
        OracleKind::RecoveryAgreement,
        OracleKind::ChaosLiveness,
    ];

    /// A short stable name for reports and corpus headers.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::SimSoundness => "sim-soundness",
            OracleKind::CacheAgreement => "cache-agreement",
            OracleKind::ParallelAgreement => "parallel-agreement",
            OracleKind::BackendAgreement => "backend-agreement",
            OracleKind::Monotonicity => "monotonicity",
            OracleKind::LazyAgreement => "lazy-agreement",
            OracleKind::SolverAgreement => "solver-agreement",
            OracleKind::SimAgreement => "sim-agreement",
            OracleKind::MissRateSoundness => "miss-rate-soundness",
            OracleKind::ServiceRobustness => "service-robustness",
            OracleKind::DeltaAgreement => "delta-agreement",
            OracleKind::RecoveryAgreement => "recovery-agreement",
            OracleKind::ChaosLiveness => "chaos-liveness",
        }
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One oracle disagreement on one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: OracleKind,
    /// What disagreed, with the numbers involved.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Test-only fault injection: deliberately corrupts the analytic bounds
/// *as seen by the soundness oracle* so the harness can prove it would
/// catch an unsound analysis. Production paths never consult this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: the oracles see the real bounds.
    #[default]
    None,
    /// Subtract `delta` from every `dmm(k)` bound before the soundness
    /// comparison (saturating at zero) — a simulated undercounting bug.
    UnderReportDmm {
        /// How many misses to hide.
        delta: u64,
    },
}

impl Fault {
    fn dmm_bound(self, bound: u64) -> u64 {
        match self {
            Fault::None => bound,
            Fault::UnderReportDmm { delta } => bound.saturating_sub(delta),
        }
    }
}

/// Knobs of one oracle run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOptions {
    /// Per-chain analysis options (batch-tuned divergence limits by
    /// default: random stress systems routinely exceed utilization 1).
    pub options: AnalysisOptions,
    /// Window lengths checked by the miss-model oracles.
    pub ks: Vec<u64>,
    /// Simulated horizon per trace scenario.
    pub horizon: Time,
    /// Randomized trace scenarios on top of the deterministic ones.
    pub random_rounds: usize,
    /// Seed for the randomized trace scenarios.
    pub seed: u64,
    /// Holistic sweep limit for distributed scenarios.
    pub max_sweeps: usize,
    /// Monte Carlo runs checked by the miss-rate-soundness oracle (one
    /// rotation of the four run styles by default).
    pub mc_runs: u64,
    /// Bound corruption for self-tests of the harness.
    pub fault: Fault,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            // Much tighter divergence limits than even the batch
            // defaults: conformance only needs *agreement* on whatever
            // bound comes out, not a tight bound, and stress systems
            // near utilization 1 would otherwise crawl through
            // thousands of slow busy-window fixed points.
            options: AnalysisOptions {
                horizon: 100_000,
                max_q: 500,
                packing_budget: 20_000,
                ..AnalysisOptions::default()
            },
            ks: vec![1, 2, 5, 10],
            horizon: 10_000,
            random_rounds: 2,
            seed: 0x5EED,
            max_sweeps: twca_dist::DistOptions::default().max_sweeps,
            mc_runs: 4,
            fault: Fault::None,
        }
    }
}

impl VerifyOptions {
    fn dist_options(&self) -> DistOptions {
        DistOptions {
            chain_options: self.options,
            max_sweeps: self.max_sweeps,
        }
    }
}

/// The analysis answers the oracles compare, computed once per context.
struct ChainVerdicts {
    /// Per deadline chain: id, full WCL, typical WCL, dmm curve (or the
    /// analysis error rendered).
    rows: Vec<ChainVerdict>,
}

struct ChainVerdict {
    id: ChainId,
    name: String,
    full: Option<twca_chains::LatencyResult>,
    typical: Option<twca_chains::LatencyResult>,
    curve: Result<Vec<DmmResult>, String>,
}

fn chain_verdicts(ctx: &AnalysisContext<'_>, opts: &VerifyOptions) -> ChainVerdicts {
    let system = ctx.system();
    let mut rows = Vec::new();
    for (id, chain) in system.iter() {
        if chain.deadline().is_none() {
            continue;
        }
        let full = latency_analysis(ctx, id, OverloadMode::Include, opts.options);
        let typical = latency_analysis(ctx, id, OverloadMode::Exclude, opts.options);
        let curve = DmmSweep::prepare(ctx, id, opts.options)
            .map(|sweep| sweep.curve(opts.ks.iter().copied()))
            .map_err(|e| e.to_string());
        rows.push(ChainVerdict {
            id,
            name: chain.name().to_owned(),
            full,
            typical,
            curve,
        });
    }
    ChainVerdicts { rows }
}

/// Runs the full oracle battery on one scenario.
///
/// An empty result is the expected outcome; every entry is a genuine
/// disagreement between two components that must agree (or, under a
/// [`Fault`], the harness catching the injected bug).
pub fn check_scenario(body: &ScenarioBody, opts: &VerifyOptions) -> Vec<Violation> {
    let mut violations = match body {
        ScenarioBody::Uni(system) => check_uni(system, opts),
        ScenarioBody::Dist(dist) => check_dist(dist, opts),
    };
    check_service_robustness(body, opts, &mut violations);
    check_delta_agreement(body, opts, &mut violations);
    check_recovery_agreement(body, opts, &mut violations);
    check_chaos_liveness(body, opts, &mut violations);
    violations
}

/// Replaces the `pick`-th (modulo count) `wcet=N` token of a rendered
/// scenario with `wcet=<new_wcet>` — the textual edit the
/// delta-agreement oracle drives through `store_put`.
fn with_wcet_edit(text: &str, pick: usize, new_wcet: u64) -> String {
    let starts: Vec<usize> = text.match_indices("wcet=").map(|(i, _)| i + 5).collect();
    let Some(&at) = starts.get(pick % starts.len().max(1)) else {
        return text.to_owned();
    };
    let end = text[at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(text.len(), |d| at + d);
    format!("{}{new_wcet}{}", &text[..at], &text[end..])
}

/// Oracle 11: versioned-store delta re-analysis is invisible. One
/// persistent session holds the scenario under a store name across a
/// seeded sequence of random one-task WCET edits; after every edit,
/// its (memo-warm) `store_analyze` answer must be bit-identical to a
/// fresh session putting and analyzing the same text from scratch —
/// typed analysis errors included.
pub fn check_delta_agreement(
    body: &ScenarioBody,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    let is_dist = matches!(body, ScenarioBody::Dist(_));
    let base = body.render();
    if !base.contains("wcet=") {
        return;
    }
    let mk_session = || {
        Session::new()
            .with_options(opts.options)
            .with_max_sweeps(opts.max_sweeps)
    };
    let mk_request = |text: &str| AnalysisRequest {
        id: None,
        target: Target::Service,
        queries: vec![
            Query::StorePut {
                name: "scenario".into(),
                system: (!is_dist).then(|| text.to_owned()),
                dist: is_dist.then(|| text.to_owned()),
                dedup: None,
            },
            Query::StoreAnalyze {
                name: "scenario".into(),
                ks: opts.ks.clone(),
            },
        ],
        options: Default::default(),
    };

    // Seed the persistent store (and its memo / cache) with the
    // unedited scenario, then drive the edit sequence.
    let persistent = mk_session();
    let _ = persistent.analyze(&mk_request(&base));
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0xDE17A);
    let mut text = base;
    for step in 0..3 {
        text = with_wcet_edit(&text, rng.gen::<u32>() as usize, rng.gen_range(1..=64));
        let request = mk_request(&text);
        let warm = persistent.analyze(&request).outcome;
        let cold = mk_session().analyze(&request).outcome;
        match (warm, cold) {
            (Ok(warm), Ok(cold)) => {
                let pair = match (warm.get(1), cold.get(1)) {
                    (
                        Some(QueryOutcome::StoreAnalyze(warm)),
                        Some(QueryOutcome::StoreAnalyze(cold)),
                    ) => Some((warm.clone(), cold.clone())),
                    _ => None,
                };
                let Some((warm, cold)) = pair else {
                    violations.push(Violation {
                        oracle: OracleKind::DeltaAgreement,
                        detail: format!(
                            "edit #{step}: a store_analyze query answered with a non-store outcome"
                        ),
                    });
                    continue;
                };
                if warm.latency != cold.latency || warm.dmm != cold.dmm {
                    violations.push(Violation {
                        oracle: OracleKind::DeltaAgreement,
                        detail: format!(
                            "edit #{step}: delta re-analysis diverged from from-scratch: \
                             {:?}/{:?} vs {:?}/{:?}",
                            warm.latency, warm.dmm, cold.latency, cold.dmm
                        ),
                    });
                }
            }
            (Err(warm), Err(cold)) => {
                if warm != cold {
                    violations.push(Violation {
                        oracle: OracleKind::DeltaAgreement,
                        detail: format!(
                            "edit #{step}: delta and from-scratch analyses fail differently: \
                             {warm} vs {cold}"
                        ),
                    });
                }
            }
            (Ok(_), Err(e)) => violations.push(Violation {
                oracle: OracleKind::DeltaAgreement,
                detail: format!("edit #{step}: from-scratch failed where delta succeeded: {e}"),
            }),
            (Err(e), Ok(_)) => violations.push(Violation {
                oracle: OracleKind::DeltaAgreement,
                detail: format!("edit #{step}: delta failed where from-scratch succeeded: {e}"),
            }),
        }
    }
}

/// A stable textual key of a store dump, comparable across recoveries:
/// `name@version` plus the body rendered back to DSL text. Two stores
/// with equal keys hold bit-identical parsed histories.
fn render_store_dump(dump: &[(String, u64, StoredBody)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, version, body) in dump {
        let text = match body {
            StoredBody::Uni(system) => twca_model::render_system(system),
            StoredBody::Dist(system) => twca_dist::render_distributed(system),
        };
        let _ = writeln!(out, "{name}@{version}\n{text}");
    }
    out
}

/// Oracle 12: the durable store recovers prefix-equal from every
/// crash point, and always detects corruption. The scenario seeds a
/// fuzzed put sequence (the base body plus seeded WCET edits,
/// alternating two entry names) against a durable store over a
/// recording [`MemIo`] with a snapshot every two puts — so the crash
/// matrix crosses journal appends, fsyncs, snapshot replaces and the
/// journal reset. Every simulated post-crash disk must recover to the
/// state after *some* prefix of the acknowledged puts, at least every
/// put whose I/O fully completed; seeded bit flips on the final disk
/// must draw a typed refusal or a valid tail truncation — never a
/// state matching no prefix.
pub fn check_recovery_agreement(
    body: &ScenarioBody,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    let is_dist = matches!(body, ScenarioBody::Dist(_));
    let base = body.render();
    if base.contains("# unrepresentable") {
        return; // the body cannot live in the persistent format
    }
    let mut fail = |detail: String| {
        violations.push(Violation {
            oracle: OracleKind::RecoveryAgreement,
            detail,
        })
    };

    // The fuzzed put sequence: the base body, then seeded WCET edits,
    // alternating names so recovery juggles multiple entries.
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x05EC_07E4);
    let mut texts = vec![base.clone()];
    if base.contains("wcet=") {
        let mut text = base;
        for _ in 0..3 {
            text = with_wcet_edit(&text, rng.gen::<u32>() as usize, rng.gen_range(1..=64));
            texts.push(text.clone());
        }
    }
    let parse = |text: &str| -> Option<StoredBody> {
        if is_dist {
            twca_dist::parse_distributed(text)
                .ok()
                .map(StoredBody::Dist)
        } else {
            twca_model::parse_system(text).ok().map(StoredBody::Uni)
        }
    };
    // Snapshot every 2 puts: the 4-put sequence exercises both the
    // snapshot path and journal records on top of a snapshot.
    let policy = PersistPolicy {
        snapshot_every: 2,
        sync_every: 1,
    };

    // Drive the sequence against a recording MemIo, capturing the
    // expected store state and the I/O op count after every put.
    let io = Arc::new(MemIo::new());
    let (store, _) = match SystemStore::durable(Arc::clone(&io) as Arc<dyn StoreIo>, policy) {
        Ok(opened) => opened,
        Err(e) => {
            fail(format!("fresh durable store refused to open: {e}"));
            return;
        }
    };
    let mut expected: Vec<String> = vec![render_store_dump(&store.export())];
    let mut boundaries: Vec<usize> = vec![0];
    for (j, text) in texts.iter().enumerate() {
        let Some(body) = parse(text) else {
            return; // an edit broke the DSL; nothing to persist
        };
        let name = if j % 2 == 0 { "alpha" } else { "beta" };
        if let Err(e) = store.put(name, body) {
            fail(format!("put #{j} failed on a healthy store: {e}"));
            return;
        }
        expected.push(render_store_dump(&store.export()));
        boundaries.push(io.ops().len());
    }
    let ops = io.ops();

    // Crash matrix: recovery from every boundary and torn prefix must
    // succeed and land on an expected prefix no older than the last
    // fully-journaled put.
    for (desc, ops_applied, state) in crash_states(&ops) {
        let reopened = SystemStore::durable(
            Arc::new(MemIo::from_state(state)) as Arc<dyn StoreIo>,
            policy,
        );
        let (recovered, _) = match reopened {
            Ok(opened) => opened,
            Err(e) => {
                fail(format!("crash state `{desc}` refused recovery: {e}"));
                continue;
            }
        };
        let got = render_store_dump(&recovered.export());
        let min_prefix = boundaries.iter().filter(|&&b| b <= ops_applied).count() - 1;
        match expected.iter().position(|s| *s == got) {
            Some(j) if j >= min_prefix => {}
            Some(j) => fail(format!(
                "crash state `{desc}` lost acknowledged puts: recovered prefix {j}, \
                 but {min_prefix} put(s) were fully journaled"
            )),
            None => fail(format!(
                "crash state `{desc}` recovered to a state matching no put prefix"
            )),
        }
    }

    // Corruption matrix: seeded bit flips on the final disk must be
    // detected — a typed refusal, or a recovery that still equals a
    // valid put prefix (tail truncation). Never an unrecognized state.
    let final_state = io.state();
    for file in [
        twca_api::persist::JOURNAL_FILE,
        twca_api::persist::SNAPSHOT_FILE,
    ] {
        let len = final_state.get(file).map_or(0, Vec::len);
        if len == 0 {
            continue;
        }
        let mut targets: Vec<usize> = vec![0, len / 2, len - 1];
        for _ in 0..3 {
            targets.push(rng.gen_range(0..len));
        }
        targets.sort_unstable();
        targets.dedup();
        for byte in targets {
            let flipped = MemIo::from_state(final_state.clone());
            flipped.flip_bit(file, byte, rng.gen_range(0..8));
            match SystemStore::durable(Arc::new(flipped) as Arc<dyn StoreIo>, policy) {
                Err(_) => {} // detected and refused: the required outcome
                Ok((recovered, _)) => {
                    let got = render_store_dump(&recovered.export());
                    if !expected.contains(&got) {
                        fail(format!(
                            "bit flip at {file}[{byte}] silently recovered to wrong history"
                        ));
                    }
                }
            }
        }
    }
}

/// A capture sink for the service-robustness oracle: the pool's worker
/// threads write ordered response lines here.
#[derive(Clone, Default)]
struct CapturedOutput(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for CapturedOutput {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Oracle 10: the service tier is a transparent veneer over the direct
/// API. The scenario's request — sandwiched between malformed frames
/// and an oversized frame — is driven through a real [`WorkerPool`]
/// connection; every hostile frame must draw exactly one typed error,
/// the stream must survive, and both copies of the valid request must
/// come back bit-identical to [`respond_line`] on a fresh session.
fn check_service_robustness(
    body: &ScenarioBody,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    use twca_service::{serve_connection, FrameFuzzer, ServiceConfig, WorkerPool};

    let queries = vec![
        Query::Latency { chain: None },
        Query::Dmm {
            chain: None,
            ks: opts.ks.clone(),
        },
    ];
    let request = match body {
        ScenarioBody::Uni(system) => AnalysisRequest::for_system(twca_model::render_system(system)),
        ScenarioBody::Dist(dist) => {
            AnalysisRequest::for_dist_text(twca_dist::render_distributed(dist))
        }
    };
    let request = AnalysisRequest { queries, ..request }.with_id("scenario");
    let line = request.to_json().to_string();

    // The reference answer: a direct session, no wire in between.
    // Analysis failures are fine — the service must then relay the
    // *same* typed error, so agreement is still bit-for-bit.
    let mk_session = || {
        Session::new()
            .with_options(opts.options)
            .with_max_sweeps(opts.max_sweeps)
    };
    let expected = respond_line(&mk_session(), &line).to_line();

    // Keep the oversized frame cheap: a limit just above the valid
    // request instead of the production 1 MiB default.
    let max_frame_bytes = (line.len() + 1024).max(4096);
    let mut fuzzer = FrameFuzzer::new(opts.seed);
    let mut input: Vec<u8> = Vec::new();
    // `true` marks positions whose response must equal `expected`.
    let mut valid = Vec::new();
    for round in 0..2 {
        for frame in fuzzer.frames(6) {
            input.extend_from_slice(&frame);
            input.push(b'\n');
            valid.push(false);
        }
        if round == 0 {
            input.extend_from_slice(&fuzzer.oversized(max_frame_bytes));
            input.push(b'\n');
            valid.push(false);
        }
        input.extend_from_slice(line.as_bytes());
        input.push(b'\n');
        valid.push(true);
    }

    let pool = WorkerPool::new(
        mk_session(),
        &ServiceConfig {
            workers: 2,
            deadline: None,
            max_frame_bytes,
            ..ServiceConfig::default()
        },
    );
    let sink = CapturedOutput::default();
    if let Err(error) = serve_connection(
        &pool,
        input.as_slice(),
        Box::new(sink.clone()),
        max_frame_bytes,
    ) {
        violations.push(Violation {
            oracle: OracleKind::ServiceRobustness,
            detail: format!("the in-memory lane failed: {error}"),
        });
    }
    let summary = pool.shutdown();

    let output = String::from_utf8_lossy(&sink.0.lock().unwrap()).into_owned();
    let responses: Vec<&str> = output.lines().collect();
    if responses.len() != valid.len() || summary.requests != valid.len() {
        violations.push(Violation {
            oracle: OracleKind::ServiceRobustness,
            detail: format!(
                "response accounting broke: {} frame(s) sent, {} response line(s) \
                 received, summary says {} request(s)",
                valid.len(),
                responses.len(),
                summary.requests
            ),
        });
        return;
    }
    for (index, (response, &is_valid)) in responses.iter().zip(&valid).enumerate() {
        if is_valid {
            if *response != expected {
                violations.push(Violation {
                    oracle: OracleKind::ServiceRobustness,
                    detail: format!(
                        "service response #{index} diverged from the direct session: \
                         {response} vs {expected}"
                    ),
                });
            }
            continue;
        }
        let typed = Json::parse(response)
            .ok()
            .and_then(|json| AnalysisResponse::from_json(&json).ok());
        match typed {
            Some(parsed) if parsed.outcome.is_err() => {}
            Some(_) => violations.push(Violation {
                oracle: OracleKind::ServiceRobustness,
                detail: format!("hostile frame #{index} was accepted: {response}"),
            }),
            None => violations.push(Violation {
                oracle: OracleKind::ServiceRobustness,
                detail: format!("hostile frame #{index} drew an untyped response: {response}"),
            }),
        }
    }
}

/// The request script every chaos schedule replays: a dedup-tagged
/// `store_put` of the scenario, the *same* put again (the at-most-once
/// probe), and a `stats` query. Parse-only work, so a thousand
/// schedules stay cheap; analysis identity is the service-robustness
/// oracle's job.
fn chaos_input(body: &ScenarioBody) -> String {
    let is_dist = matches!(body, ScenarioBody::Dist(_));
    let text = match body {
        ScenarioBody::Uni(system) => twca_model::render_system(system),
        ScenarioBody::Dist(dist) => twca_dist::render_distributed(dist),
    };
    let put = |id: &str| {
        AnalysisRequest {
            id: Some(id.into()),
            target: Target::Service,
            queries: vec![Query::StorePut {
                name: "plant".into(),
                system: (!is_dist).then(|| text.clone()),
                dist: is_dist.then(|| text.clone()),
                dedup: Some("chaos-put".into()),
            }],
            options: Default::default(),
        }
        .to_json()
        .to_string()
    };
    let stats = AnalysisRequest {
        id: Some("r2".into()),
        target: Target::Service,
        queries: vec![Query::Stats],
        options: Default::default(),
    }
    .to_json()
    .to_string();
    format!("{}\n{}\n{stats}\n", put("r0"), put("r1"))
}

/// Everything one chaos schedule leaves behind, for invariant checks.
struct ChaosRun {
    output: String,
    /// Frames the lane submitted, counted by the lane itself.
    frames: u64,
    /// The session's `stats` snapshot, read after the drain.
    stats: twca_api::StatsOutcome,
    end: twca_service::LaneEnd,
    read_resets: u64,
    read_corrupted: u64,
    write_resets: u64,
    /// Version of the `plant` entry after the run (0 = never applied).
    final_version: u64,
}

/// Drives the chaos request script through a real [`WorkerPool`] lane
/// with the given fault schedules on each side of the transport.
fn run_chaos_schedule(
    input: &str,
    opts: &VerifyOptions,
    workers: usize,
    read_plan: twca_service::FaultPlan,
    write_plan: twca_service::FaultPlan,
) -> ChaosRun {
    use twca_service::{
        serve_lane, ChaosRead, ChaosTally, ChaosWrite, Connection, LaneOptions, ServiceConfig,
        WorkerPool,
    };

    let store = Arc::new(SystemStore::new());
    let session = Session::new()
        .with_options(opts.options)
        .with_max_sweeps(opts.max_sweeps)
        .with_store(Arc::clone(&store));
    let max_frame_bytes = (input.len() + 1024).max(4096);
    let observer = session.clone();
    let pool = WorkerPool::new(
        session,
        &ServiceConfig {
            workers,
            deadline: None,
            max_frame_bytes,
            ..ServiceConfig::default()
        },
    );
    let read_tally = Arc::new(ChaosTally::new());
    let write_tally = Arc::new(ChaosTally::new());
    let sink = CapturedOutput::default();
    let conn = Connection::new(Box::new(ChaosWrite::new(
        sink.clone(),
        Arc::new(write_plan),
        Arc::clone(&write_tally),
    )));
    let lane = serve_lane(
        &pool,
        std::io::BufReader::new(ChaosRead::new(
            input.as_bytes(),
            Arc::new(read_plan),
            Arc::clone(&read_tally),
        )),
        &conn,
        &LaneOptions::unlimited(max_frame_bytes),
    );
    pool.shutdown();
    let output = String::from_utf8_lossy(&sink.0.lock().unwrap()).into_owned();
    let final_version = store
        .export()
        .iter()
        .find(|(name, ..)| name == "plant")
        .map_or(0, |(_, version, _)| *version);
    ChaosRun {
        output,
        frames: lane.frames,
        stats: observer.stats_outcome(),
        end: lane.end,
        read_resets: read_tally.resets(),
        read_corrupted: read_tally.corrupted(),
        write_resets: write_tally.resets(),
        final_version,
    }
}

/// The `store_put` acks parsed out of a run's *complete* response
/// lines, as `(version, deduped)` pairs; untyped complete lines are
/// reported as violations.
fn chaos_acks(
    run: &ChaosRun,
    label: &str,
    violations: &mut Vec<Violation>,
) -> (usize, Vec<(u64, bool)>) {
    // A write-side fault may tear the final line; only lines finished
    // with a newline are terminal responses.
    let mut lines: Vec<&str> = run.output.split('\n').collect();
    lines.pop();
    let mut acked = Vec::new();
    for (index, line) in lines.iter().enumerate() {
        let typed = Json::parse(line)
            .ok()
            .and_then(|json| AnalysisResponse::from_json(&json).ok());
        let Some(response) = typed else {
            violations.push(Violation {
                oracle: OracleKind::ChaosLiveness,
                detail: format!("{label}: response line #{index} is untyped: {line:?}"),
            });
            continue;
        };
        if let Ok(outcomes) = &response.outcome {
            for outcome in outcomes {
                if let QueryOutcome::StorePut(put) = outcome {
                    acked.push((put.version, put.deduped));
                }
            }
        }
    }
    (lines.len(), acked)
}

/// Invariants of one fuzzed chaos schedule; see
/// [`OracleKind::ChaosLiveness`].
fn check_chaos_run(run: &ChaosRun, label: &str, violations: &mut Vec<Violation>) {
    let (responses, acked) = chaos_acks(run, label, violations);

    // Exactly one terminal response per submitted frame: never more,
    // and never fewer while the write side stayed healthy.
    let responses = responses as u64;
    if responses > run.frames {
        violations.push(Violation {
            oracle: OracleKind::ChaosLiveness,
            detail: format!(
                "{label}: {responses} terminal response(s) for {} submitted frame(s)",
                run.frames
            ),
        });
    } else if run.write_resets == 0 && responses != run.frames {
        violations.push(Violation {
            oracle: OracleKind::ChaosLiveness,
            detail: format!(
                "{label}: {} submitted frame(s) but {responses} terminal response(s) \
                 with a healthy write side",
                run.frames
            ),
        });
    }

    // An acknowledged put is never lost, and the store never applies
    // more puts than the script sent.
    for &(version, _) in &acked {
        if version > run.final_version {
            violations.push(Violation {
                oracle: OracleKind::ChaosLiveness,
                detail: format!(
                    "{label}: acked store_put version {version} lost — the store holds \
                     version {}",
                    run.final_version
                ),
            });
        }
    }
    if run.final_version > 2 {
        violations.push(Violation {
            oracle: OracleKind::ChaosLiveness,
            detail: format!(
                "{label}: the store applied {} put(s) for 2 sent",
                run.final_version
            ),
        });
    }

    // At-most-once: with the request bytes uncorrupted, the two
    // identically-dedup-tagged puts draw at most one fresh apply.
    // (Corruption may legitimately mutate the dedup id in flight.)
    if run.read_corrupted == 0 {
        let fresh = acked.iter().filter(|(_, deduped)| !deduped).count();
        if fresh > 1 {
            violations.push(Violation {
                oracle: OracleKind::ChaosLiveness,
                detail: format!("{label}: a dedup-tagged put was applied {fresh} times: {acked:?}"),
            });
        }
    }

    // Counter reconciliation: the lane ends `Reset` exactly when a read
    // reset was injected, and the edge counters record exactly that.
    let reset_end = matches!(run.end, twca_service::LaneEnd::Reset);
    if reset_end != (run.read_resets > 0) {
        violations.push(Violation {
            oracle: OracleKind::ChaosLiveness,
            detail: format!(
                "{label}: lane ended {:?} but {} read reset(s) were injected",
                run.end, run.read_resets
            ),
        });
    }
    if run.stats.resets != u64::from(reset_end) {
        violations.push(Violation {
            oracle: OracleKind::ChaosLiveness,
            detail: format!(
                "{label}: edge counters claim {} reset(s) for a lane that ended {:?}",
                run.stats.resets, run.end
            ),
        });
    }
    if run.stats.reaped != 0 || run.stats.timeouts != 0 {
        violations.push(Violation {
            oracle: OracleKind::ChaosLiveness,
            detail: format!(
                "{label}: reap/timeout counters moved with no timeouts armed: {:?}",
                run.stats
            ),
        });
    }

    // Registry invariants after the drain: nothing is left in flight,
    // and the registry counts every frame the lane submitted as served
    // or rejected exactly once.
    if run.stats.in_flight != 0 {
        violations.push(Violation {
            oracle: OracleKind::ChaosLiveness,
            detail: format!(
                "{label}: {} request(s) still in flight after the drain",
                run.stats.in_flight
            ),
        });
    }
    if run.stats.served + run.stats.rejected != run.frames {
        violations.push(Violation {
            oracle: OracleKind::ChaosLiveness,
            detail: format!(
                "{label}: {} served + {} rejected for {} submitted frame(s)",
                run.stats.served, run.stats.rejected, run.frames
            ),
        });
    }
}

/// Oracle 13: chaos liveness. One fault-free schedule proves the chaos
/// transport byte-transparent against the plain lane (and the dedup
/// handshake exact); two fuzzed schedules seeded from
/// [`VerifyOptions::seed`] then stress every liveness and delivery
/// invariant under injected transport faults.
pub fn check_chaos_liveness(
    body: &ScenarioBody,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    use twca_service::{serve_connection, FaultPlan, ServiceConfig, WorkerPool};

    let input = chaos_input(body);
    let max_frame_bytes = (input.len() + 1024).max(4096);

    // The reference: the same script through the plain (chaos-free)
    // single-worker lane.
    let reference = {
        let session = Session::new()
            .with_options(opts.options)
            .with_max_sweeps(opts.max_sweeps)
            .with_store(Arc::new(SystemStore::new()));
        let pool = WorkerPool::new(
            session,
            &ServiceConfig {
                workers: 1,
                deadline: None,
                max_frame_bytes,
                ..ServiceConfig::default()
            },
        );
        let sink = CapturedOutput::default();
        if let Err(error) = serve_connection(
            &pool,
            input.as_bytes(),
            Box::new(sink.clone()),
            max_frame_bytes,
        ) {
            violations.push(Violation {
                oracle: OracleKind::ChaosLiveness,
                detail: format!("the in-memory reference lane failed: {error}"),
            });
        }
        let _ = pool.shutdown();
        let bytes = sink.0.lock().unwrap();
        String::from_utf8_lossy(&bytes).into_owned()
    };
    let clean = run_chaos_schedule(&input, opts, 1, FaultPlan::none(), FaultPlan::none());
    if clean.output != reference {
        violations.push(Violation {
            oracle: OracleKind::ChaosLiveness,
            detail: format!(
                "the fault-free chaos transport diverged from the plain lane: {:?} vs {reference:?}",
                clean.output
            ),
        });
    }
    // The dedup handshake, exact on the deterministic run: the first
    // put applies version 1 fresh, the second repeats that receipt.
    if clean.final_version > 0 {
        let (_, acked) = chaos_acks(&clean, "fault-free schedule", violations);
        if acked != vec![(1, false), (1, true)] {
            violations.push(Violation {
                oracle: OracleKind::ChaosLiveness,
                detail: format!(
                    "the fault-free dedup handshake broke: acks {acked:?}, expected \
                     [(1, false), (1, true)]"
                ),
            });
        }
    }

    for round in 0..2u64 {
        let seed = opts
            .seed
            .wrapping_add((round + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let run = run_chaos_schedule(
            &input,
            opts,
            2,
            FaultPlan::fuzzed_read(seed, 96),
            FaultPlan::fuzzed_write(seed, 96),
        );
        check_chaos_run(&run, &format!("schedule {seed:#x}"), violations);
    }
}

fn check_uni(system: &System, opts: &VerifyOptions) -> Vec<Violation> {
    let mut violations = Vec::new();
    let ctx = AnalysisContext::new(system);
    let verdicts = chain_verdicts(&ctx, opts);

    check_monotonicity(&verdicts, &mut violations);
    check_sim_soundness(system, &verdicts, opts, &mut violations);
    check_cache_agreement(system, &verdicts, opts, &mut violations);
    check_parallel_agreement(system, opts, &mut violations);
    check_backend_agreement_uni(system, opts, &mut violations);
    check_lazy_agreement_uni(system, opts, &mut violations);
    check_solver_agreement_uni(system, opts, &mut violations);
    check_sim_agreement(system, opts, &mut violations);
    check_miss_rate_soundness(system, &verdicts, opts, &mut violations);
    violations
}

/// Oracle 7 (uniprocessor): the scheduling-point and iterative
/// busy-window solvers agree bit-for-bit on busy-time breakdowns,
/// detailed latency results (including the typed divergence reason) and
/// the whole miss-model pipeline.
fn check_solver_agreement_uni(
    system: &System,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    use twca_chains::{busy_time_breakdown, latency_analysis_detailed};
    let ctx = AnalysisContext::new(system);
    let iterative = Reference::IterativeSolver.context(system);
    let options = opts.options;
    for (id, chain) in system.iter() {
        let name = chain.name();
        for mode in [OverloadMode::Include, OverloadMode::Exclude] {
            for q in 1..=3u64 {
                let a = busy_time_breakdown(&ctx, id, q, mode, options);
                let b = busy_time_breakdown(&iterative, id, q, mode, options);
                if a != b {
                    violations.push(Violation {
                        oracle: OracleKind::SolverAgreement,
                        detail: format!(
                            "{name}: B({q}) under {mode:?} diverges between solvers: {a:?} vs {b:?}"
                        ),
                    });
                }
            }
            let a = latency_analysis_detailed(&ctx, id, mode, options);
            let b = latency_analysis_detailed(&iterative, id, mode, options);
            if a != b {
                violations.push(Violation {
                    oracle: OracleKind::SolverAgreement,
                    detail: format!(
                        "{name}: latency under {mode:?} diverges between solvers: {a:?} vs {b:?}"
                    ),
                });
            }
        }
        if chain.deadline().is_some() {
            check_dmm_agreement(
                &ctx,
                &iterative,
                OracleKind::SolverAgreement,
                |_| false,
                (id, name),
                opts,
                violations,
            );
        }
    }
}

/// Oracle 6 (uniprocessor): the lazy and materialized combination
/// engines agree bit-for-bit on curves, witnesses and the exact
/// variant. A `TooManyCombinations` refusal by the materialized
/// reference on an instance the lazy engine analyzes is the documented
/// capability gap, not a violation.
fn check_lazy_agreement_uni(
    system: &System,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    let ctx = AnalysisContext::new(system);
    let mat = Reference::MaterializedEngine.context(system);
    for (id, chain) in system.iter() {
        if chain.deadline().is_some() {
            check_dmm_agreement(
                &ctx,
                &mat,
                OracleKind::LazyAgreement,
                |e| matches!(e, AnalysisError::TooManyCombinations { .. }),
                (id, chain.name()),
                opts,
                violations,
            );
        }
    }
}

/// The miss-model half of oracles 6 and 7: the sweep's `at` and
/// `witness` at every `k`, and the exact variant at the last `k` (one
/// window length bounds the fixed-point cost), agree bit-for-bit
/// between the product context `ctx` and the `reference` context. A
/// reference error that `expected` accepts, on an instance the product
/// analyzes, is a documented capability gap, not a violation.
fn check_dmm_agreement(
    ctx: &AnalysisContext<'_>,
    reference: &AnalysisContext<'_>,
    oracle: OracleKind,
    expected: impl Fn(&AnalysisError) -> bool,
    (id, name): (ChainId, &str),
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    let options = opts.options;
    let mut report = |detail: String| violations.push(Violation { oracle, detail });
    match (
        DmmSweep::prepare(ctx, id, options),
        DmmSweep::prepare(reference, id, options),
    ) {
        (Ok(product), Ok(reference)) => {
            for &k in &opts.ks {
                let (a, b) = (product.at(k), reference.at(k));
                if a != b {
                    report(format!(
                        "{name}: dmm({k}) diverges from the reference: {a:?} vs {b:?}"
                    ));
                }
                if product.witness(k) != reference.witness(k) {
                    report(format!("{name}: witness({k}) diverges from the reference"));
                }
            }
        }
        (Ok(_), Err(e)) if expected(&e) => {}
        (product, reference) => {
            let (a, b) = (product.err(), reference.err());
            if a != b {
                report(format!(
                    "{name}: sweep preparation diverges from the reference: {a:?} vs {b:?}"
                ));
            }
        }
    }
    if let Some(&k) = opts.ks.last() {
        let a = deadline_miss_model_exact(ctx, id, k, options);
        let b = deadline_miss_model_exact(reference, id, k, options);
        let gap = matches!((&a, &b), (Ok(_), Err(e)) if expected(e));
        if !gap && a != b {
            report(format!(
                "{name}: exact dmm({k}) diverges from the reference: {a:?} vs {b:?}"
            ));
        }
    }
}

/// Oracle 5: structural invariants of the computed curves.
fn check_monotonicity(verdicts: &ChainVerdicts, violations: &mut Vec<Violation>) {
    for row in &verdicts.rows {
        if let (Some(full), Some(typical)) = (&row.full, &row.typical) {
            if typical.worst_case_latency > full.worst_case_latency {
                violations.push(Violation {
                    oracle: OracleKind::Monotonicity,
                    detail: format!(
                        "{}: typical WCL {} exceeds full WCL {}",
                        row.name, typical.worst_case_latency, full.worst_case_latency
                    ),
                });
            }
        }
        if let Ok(curve) = &row.curve {
            check_curve_monotonicity(&row.name, curve, violations);
        }
    }
}

/// Oracle 5 on one `dmm` curve (chain or site): bounded by the window,
/// and monotone in `k`.
fn check_curve_monotonicity(name: &str, curve: &[DmmResult], violations: &mut Vec<Violation>) {
    for dmm in curve {
        if dmm.bound > dmm.k {
            violations.push(Violation {
                oracle: OracleKind::Monotonicity,
                detail: format!(
                    "{name}: dmm({}) = {} exceeds the window length",
                    dmm.k, dmm.bound
                ),
            });
        }
    }
    for pair in curve.windows(2) {
        if pair[0].k <= pair[1].k && pair[0].bound > pair[1].bound {
            violations.push(Violation {
                oracle: OracleKind::Monotonicity,
                detail: format!(
                    "{name}: dmm({}) = {} > dmm({}) = {} breaks monotonicity in k",
                    pair[0].k, pair[0].bound, pair[1].k, pair[1].bound
                ),
            });
        }
    }
}

/// The deterministic + seeded-random trace batteries shared by the
/// sim-soundness and sim-agreement oracles.
fn trace_batteries(system: &System, opts: &VerifyOptions) -> Vec<(String, TraceSet)> {
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut batteries: Vec<(String, TraceSet)> = vec![
        (
            "max-rate aligned".into(),
            TraceSet::max_rate(system, opts.horizon),
        ),
        (
            "overload aligned".into(),
            adversarial_aligned_traces(system, opts.horizon),
        ),
        (
            "typical (no overload)".into(),
            TraceSet::max_rate_without_overload(system, opts.horizon),
        ),
    ];
    for round in 0..opts.random_rounds {
        let mut traces = TraceSet::max_rate(system, opts.horizon);
        for (id, chain) in system.iter() {
            if !chain.is_overload() {
                continue;
            }
            let gap = chain.activation().delta_min(2).max(1);
            let offset = rng.gen_range(0..gap);
            traces.set_trace(id, periodic_trace(offset, gap, opts.horizon));
        }
        batteries.push((format!("random offsets #{round}"), traces));
    }
    batteries
}

/// Oracle 1: every model-conforming trace battery stays under the
/// analytic bounds.
fn check_sim_soundness(
    system: &System,
    verdicts: &ChainVerdicts,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    for (label, traces) in &trace_batteries(system, opts) {
        let result = Simulation::new(system).run(traces);
        for row in &verdicts.rows {
            let stats = result.chain(row.id);
            if let (Some(observed), Some(full)) = (stats.max_latency(), &row.full) {
                if observed > full.worst_case_latency {
                    violations.push(Violation {
                        oracle: OracleKind::SimSoundness,
                        detail: format!(
                            "{} [{label}]: observed latency {observed} > WCL {}",
                            row.name, full.worst_case_latency
                        ),
                    });
                }
            }
            let Ok(curve) = &row.curve else { continue };
            for dmm in curve {
                let bound = opts.fault.dmm_bound(dmm.bound);
                let observed = stats.max_misses_in_window(dmm.k as usize) as u64;
                if observed > bound {
                    violations.push(Violation {
                        oracle: OracleKind::SimSoundness,
                        detail: format!(
                            "{} [{label}]: {observed} misses in a {}-window > dmm({}) = {bound}",
                            row.name, dmm.k, dmm.k
                        ),
                    });
                }
            }
        }
    }
}

/// Oracle 8 (uniprocessor): the event-queue and classic simulation
/// cores agree bit-for-bit — per-chain statistics, instance records,
/// miss flags and recorded execution spans — on every battery the
/// soundness oracle drives.
fn check_sim_agreement(system: &System, opts: &VerifyOptions, violations: &mut Vec<Violation>) {
    for (label, traces) in &trace_batteries(system, opts) {
        let sim = Simulation::new(system).with_execution_trace(true);
        let event_queue = sim.run(traces);
        let classic = twca_sim::reference::run_classic(&sim, traces);
        if event_queue == classic {
            continue;
        }
        // Pinpoint the first divergent chain (or the span trace) so the
        // report names what drifted, not just that something did.
        let mut what = String::from("recorded execution spans differ");
        for (id, chain) in system.iter() {
            let (a, b) = (event_queue.chain(id), classic.chain(id));
            if a != b {
                what = format!("chain {} stats diverge: {a:?} vs {b:?}", chain.name());
                break;
            }
        }
        violations.push(Violation {
            oracle: OracleKind::SimAgreement,
            detail: format!("[{label}] event-queue and classic engines disagree: {what}"),
        });
    }
}

/// Oracle 9 (uniprocessor): long-horizon Monte Carlo miss rates respect
/// the analytic bounds. Every run's traces are conformance-preserving
/// transformations of the max-rate trace, so the analytic `dmm(k)` must
/// dominate the worst observed `k`-window of every run, and the worst
/// observed latency must stay under the analytic WCL.
fn check_miss_rate_soundness(
    system: &System,
    verdicts: &ChainVerdicts,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    if opts.mc_runs == 0 {
        return;
    }
    let report = MonteCarlo::new(
        system,
        MonteCarloConfig {
            runs: opts.mc_runs,
            horizon: opts.horizon,
            seed: opts.seed,
            threads: 1,
            ks: opts.ks.clone(),
            ..MonteCarloConfig::default()
        },
    )
    .run();
    for row in &verdicts.rows {
        let Some(profile) = report.chain(&row.name) else {
            continue;
        };
        if let (Some(observed), Some(full)) = (profile.max_latency(), &row.full) {
            if observed > full.worst_case_latency {
                violations.push(Violation {
                    oracle: OracleKind::MissRateSoundness,
                    detail: format!(
                        "{}: empirical max latency {observed} over {} runs > WCL {}",
                        row.name,
                        report.runs(),
                        full.worst_case_latency
                    ),
                });
            }
        }
        let Ok(curve) = &row.curve else { continue };
        for dmm in curve {
            let bound = opts.fault.dmm_bound(dmm.bound);
            let Some(&(_, observed)) = profile.window_misses().iter().find(|(k, _)| *k == dmm.k)
            else {
                continue;
            };
            if observed > bound {
                violations.push(Violation {
                    oracle: OracleKind::MissRateSoundness,
                    detail: format!(
                        "{}: {observed} empirical misses in a {}-window over {} runs > \
                         dmm({}) = {bound}",
                        row.name,
                        dmm.k,
                        report.runs(),
                        dmm.k
                    ),
                });
            }
        }
    }
}

/// Oracle 2: the memo cache must be invisible — cold-cached,
/// warm-cached, uncached and *capacity-starved* analyses agree
/// bit-for-bit. The tiny-capacity passes run the same analyses through
/// a two-entry cache: a context keeps its system's memo while it lives,
/// and dropping it evicts the whole system, so the tiny-warm pass
/// recomputes every answer from a fresh memo and the
/// evict-then-recompute path is oracle-checked too.
fn check_cache_agreement(
    system: &System,
    uncached: &ChainVerdicts,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    use twca_chains::CacheCapacity;
    let cache = Arc::new(AnalysisCache::new());
    let tiny = Arc::new(AnalysisCache::with_capacity(CacheCapacity {
        max_entries: Some(2),
        max_bytes: None,
    }));
    for (pass, cache) in [
        ("cold", &cache),
        ("warm", &cache),
        ("tiny-cold", &tiny),
        ("tiny-warm", &tiny),
    ] {
        let ctx = AnalysisContext::with_cache(system, Arc::clone(cache));
        let cached = chain_verdicts(&ctx, opts);
        for (reference, observed) in uncached.rows.iter().zip(&cached.rows) {
            if reference.full != observed.full || reference.typical != observed.typical {
                violations.push(Violation {
                    oracle: OracleKind::CacheAgreement,
                    detail: format!(
                        "{}: {pass}-cache latency result diverges from the uncached one \
                         (cached {:?}/{:?} vs uncached {:?}/{:?})",
                        reference.name,
                        observed.full.as_ref().map(|r| r.worst_case_latency),
                        observed.typical.as_ref().map(|r| r.worst_case_latency),
                        reference.full.as_ref().map(|r| r.worst_case_latency),
                        reference.typical.as_ref().map(|r| r.worst_case_latency),
                    ),
                });
            }
            if reference.curve != observed.curve {
                violations.push(Violation {
                    oracle: OracleKind::CacheAgreement,
                    detail: format!(
                        "{}: {pass}-cache dmm curve diverges from the uncached one",
                        reference.name
                    ),
                });
            }
        }
    }
}

/// Oracle 3: parallel and serial batch runs agree bit-for-bit.
fn check_parallel_agreement(
    system: &System,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    use twca_api::batch::BatchEngine;
    // Three copies: enough for real interleaving, cheap enough per
    // scenario (copies two and three are answered from the cache).
    let jobs: Vec<System> = (0..3).map(|_| system.clone()).collect();
    let parallel = BatchEngine::new()
        .with_options(opts.options)
        .with_ks(opts.ks.iter().copied())
        .with_threads(3)
        .run(jobs.clone());
    let serial = BatchEngine::new()
        .with_options(opts.options)
        .with_ks(opts.ks.iter().copied())
        .run_serial(jobs);
    if parallel != serial {
        violations.push(Violation {
            oracle: OracleKind::ParallelAgreement,
            detail: "parallel BatchEngine verdicts diverge from the serial reference".into(),
        });
    }
}

/// Extracts `(name → (wcl, dmm points))` maps from a façade response.
type OutcomeMap = Vec<(String, Option<Time>, Vec<(u64, u64)>)>;

fn outcome_map(outcomes: &[QueryOutcome], strip_site_prefix: bool) -> OutcomeMap {
    let mut map: OutcomeMap = Vec::new();
    let canonical = |name: &str| {
        if strip_site_prefix {
            name.split_once('/')
                .map(|(_, c)| c)
                .unwrap_or(name)
                .to_owned()
        } else {
            name.to_owned()
        }
    };
    for outcome in outcomes {
        match outcome {
            QueryOutcome::Latency(rows) => {
                for row in rows {
                    map.push((canonical(&row.name), row.worst_case_latency, Vec::new()));
                }
            }
            QueryOutcome::Dmm(rows) => {
                for row in rows {
                    let name = canonical(&row.name);
                    let points: Vec<(u64, u64)> =
                        row.points.iter().map(|p| (p.k, p.bound)).collect();
                    if let Some(entry) = map.iter_mut().find(|(n, _, _)| *n == name) {
                        entry.2 = points;
                    } else {
                        map.push((name, None, points));
                    }
                }
            }
            _ => {}
        }
    }
    map.sort();
    map
}

/// Oracle 4 (uniprocessor): the chain backend and the distributed
/// backend agree when the distributed system is a single resource with
/// no links — structurally the same analysis question.
fn check_backend_agreement_uni(
    system: &System,
    opts: &VerifyOptions,
    violations: &mut Vec<Violation>,
) {
    let text = twca_model::render_system(system);
    let session = Session::new()
        .with_options(opts.options)
        .with_max_sweeps(opts.max_sweeps);
    let queries = vec![
        Query::Latency { chain: None },
        Query::Dmm {
            chain: None,
            ks: opts.ks.clone(),
        },
    ];
    let chain_request = AnalysisRequest {
        id: None,
        target: Target::Chains {
            system: text.clone(),
        },
        queries: queries.clone(),
        options: Default::default(),
    };
    let dist_request = AnalysisRequest {
        id: None,
        target: Target::Distributed {
            resources: vec![("r0".into(), text)],
            links: Vec::new(),
        },
        queries,
        options: Default::default(),
    };
    let chain_response = session.analyze(&chain_request);
    let dist_response = session.analyze(&dist_request);
    match (&chain_response.outcome, &dist_response.outcome) {
        (Ok(chain_outcomes), Ok(dist_outcomes)) => {
            let chains = outcome_map(chain_outcomes, false);
            let dist = outcome_map(dist_outcomes, true);
            if chains != dist {
                violations.push(Violation {
                    oracle: OracleKind::BackendAgreement,
                    detail: format!(
                        "ChainBackend and single-resource DistBackend disagree: \
                         {chains:?} vs {dist:?}"
                    ),
                });
            }
        }
        (Ok(_), Err(e)) => violations.push(Violation {
            oracle: OracleKind::BackendAgreement,
            detail: format!("DistBackend failed where ChainBackend succeeded: {e}"),
        }),
        (Err(e), Ok(_)) => violations.push(Violation {
            oracle: OracleKind::BackendAgreement,
            detail: format!("ChainBackend failed where DistBackend succeeded: {e}"),
        }),
        (Err(_), Err(_)) => {}
    }
}

/// The first disagreement between holistic results `a` and `b` of
/// `dist`: sweeps, then per site the latency bound, the effective
/// activation and `dmm(k)` for every `k` of `ks` (unless `sanctioned`
/// excuses the pair), from one sweep per site and results.
fn holistic_divergence(
    dist: &DistributedSystem,
    a: &DistResults,
    b: &DistResults,
    ks: &[u64],
    sanctioned: impl Fn(&Result<u64, DistError>, &Result<u64, DistError>) -> bool,
) -> Option<String> {
    if a.sweeps() != b.sweeps() {
        return Some(format!("sweeps {} vs {}", a.sweeps(), b.sweeps()));
    }
    let bound_at = |sweep: &Result<DmmSweep<'_>, DistError>, k| {
        sweep.as_ref().map(|s| s.at(k).bound).map_err(Clone::clone)
    };
    let sites: Vec<SiteId> = dist.sites().collect();
    for group in sites.chunk_by(|x, y| x.resource() == y.resource()) {
        let resource = group[0].resource();
        let (a_ctx, b_ctx) = (a.context(resource), b.context(resource));
        for &site in group {
            let (resource_name, chain_name) = dist.site_names(site);
            let (a_wcl, b_wcl) = (a.worst_case_latency(site), b.worst_case_latency(site));
            if a_wcl != b_wcl {
                return Some(format!(
                    "{resource_name}/{chain_name}: WCL {a_wcl:?} vs {b_wcl:?}"
                ));
            }
            if a.effective_activation(site) != b.effective_activation(site) {
                return Some(format!(
                    "{resource_name}/{chain_name}: effective activation models differ"
                ));
            }
            if dist.chain(site).deadline().is_none() {
                continue;
            }
            let (a_sweep, b_sweep) = (a.sweep(&a_ctx, site), b.sweep(&b_ctx, site));
            for &k in ks {
                let (a_dmm, b_dmm) = (bound_at(&a_sweep, k), bound_at(&b_sweep, k));
                if a_dmm != b_dmm && !sanctioned(&a_dmm, &b_dmm) {
                    return Some(format!(
                        "{resource_name}/{chain_name}: dmm({k}) {a_dmm:?} vs {b_dmm:?}"
                    ));
                }
            }
        }
    }
    None
}

fn check_dist(dist: &DistributedSystem, opts: &VerifyOptions) -> Vec<Violation> {
    let mut violations = Vec::new();
    let results = match dist_analyze(dist, opts.dist_options()) {
        Ok(results) => results,
        // Divergence and unbounded-latency failures are legitimate
        // outcomes on stress systems; the backend-agreement oracle below
        // still checks that the façade fails the same way.
        Err(direct_error) => {
            check_backend_agreement_dist_error(dist, opts, &direct_error, &mut violations);
            check_solver_agreement_dist_error(dist, opts, &direct_error, &mut violations);
            return violations;
        }
    };

    // Oracle 7 (distributed): the incremental worklist and the
    // full-sweep reference driver (running the iterative busy-window
    // solver) must reach the identical fixed point: sweep count,
    // per-site latency bounds, effective activation models and the
    // miss models computed on top.
    match twca_dist::reference::analyze(dist, opts.dist_options(), Reference::IterativeSolver) {
        Ok(reference) => {
            if let Some(what) =
                holistic_divergence(dist, &results, &reference, &opts.ks, |_, _| false)
            {
                violations.push(Violation {
                    oracle: OracleKind::SolverAgreement,
                    detail: format!(
                        "holistic results diverge between the worklist and full-sweep \
                         drivers: {what}"
                    ),
                });
            }
        }
        Err(e) => {
            violations.push(Violation {
                oracle: OracleKind::SolverAgreement,
                detail: format!("full-sweep driver failed where the worklist succeeded: {e}"),
            });
        }
    }

    // Oracle 6 (distributed): the holistic fixed point must not care
    // which combination engine classifies Definition 9. The reference
    // side runs the full-sweep driver with the materialized engine; the
    // comparison covers the same outputs as oracle 7.
    match twca_dist::reference::analyze(dist, opts.dist_options(), Reference::MaterializedEngine) {
        Ok(materialized) => {
            // The materialized engine refusing a combination space the
            // lazy one streams through is the sanctioned gap.
            let sanctioned = |lazy: &Result<u64, DistError>, mat: &Result<u64, DistError>| {
                matches!(
                    (lazy, mat),
                    (
                        Ok(_),
                        Err(DistError::Analysis(
                            AnalysisError::TooManyCombinations { .. },
                        )),
                    )
                )
            };
            if let Some(what) =
                holistic_divergence(dist, &results, &materialized, &opts.ks, sanctioned)
            {
                violations.push(Violation {
                    oracle: OracleKind::LazyAgreement,
                    detail: format!(
                        "holistic results diverge between the lazy and materialized \
                         combination engines: {what}"
                    ),
                });
            }
        }
        // As above: a refused combination space is the sanctioned gap;
        // any other failure where the lazy run succeeded is not.
        Err(DistError::Analysis(AnalysisError::TooManyCombinations { .. })) => {}
        Err(e) => {
            violations.push(Violation {
                oracle: OracleKind::LazyAgreement,
                detail: format!(
                    "materialized holistic analysis failed where the lazy one succeeded: {e}"
                ),
            });
        }
    }

    // Oracle 1: trace-propagating simulation against the holistic
    // bounds (twca-dist's own cross-check, wired into the battery).
    let max_k = opts.ks.iter().copied().max().unwrap_or(1);
    match soundness_violations(dist, &results, opts.horizon, max_k) {
        Ok(found) => {
            for detail in found {
                violations.push(Violation {
                    oracle: OracleKind::SimSoundness,
                    detail,
                });
            }
        }
        Err(e) => violations.push(Violation {
            oracle: OracleKind::SimSoundness,
            detail: format!("propagated simulation failed: {e}"),
        }),
    }

    // Oracle 5: per-site dmm monotonicity on the holistic results.
    let sites: Vec<SiteId> = dist.sites().collect();
    for group in sites.chunk_by(|a, b| a.resource() == b.resource()) {
        let ctx = results.context(group[0].resource());
        for &site in group {
            if dist.chain(site).deadline().is_none() {
                continue;
            }
            if let Ok(sweep) = results.sweep(&ctx, site) {
                let (resource_name, chain_name) = dist.site_names(site);
                let curve = sweep.curve(opts.ks.iter().copied());
                check_curve_monotonicity(
                    &format!("{resource_name}/{chain_name}"),
                    &curve,
                    &mut violations,
                );
            }
        }
    }

    // Oracle 4 (distributed): the façade's DistBackend answers must
    // match the direct holistic analysis it wraps.
    let session = Session::new()
        .with_options(opts.options)
        .with_max_sweeps(opts.max_sweeps);
    let request = AnalysisRequest::for_dist_text(twca_dist::render_distributed(dist))
        .with_query(Query::Latency { chain: None });
    match session.analyze(&request).outcome {
        Ok(outcomes) => {
            for outcome in &outcomes {
                let QueryOutcome::Latency(rows) = outcome else {
                    continue;
                };
                for row in rows {
                    let Some((resource, chain)) = row.name.split_once('/') else {
                        continue;
                    };
                    let Some(site) = dist.site(resource, chain) else {
                        violations.push(Violation {
                            oracle: OracleKind::BackendAgreement,
                            detail: format!("façade invented site `{}`", row.name),
                        });
                        continue;
                    };
                    let direct = results.worst_case_latency(site);
                    if direct != row.worst_case_latency {
                        violations.push(Violation {
                            oracle: OracleKind::BackendAgreement,
                            detail: format!(
                                "{}: façade WCL {:?} vs direct holistic WCL {:?}",
                                row.name, row.worst_case_latency, direct
                            ),
                        });
                    }
                }
            }
        }
        Err(e) => violations.push(Violation {
            oracle: OracleKind::BackendAgreement,
            detail: format!("façade failed where the direct analysis succeeded: {e}"),
        }),
    }

    violations
}

/// When the worklist driver fails, the full-sweep reference must fail
/// with the *identical* typed error — divergence sweeps, unbounded
/// sites and their reasons included (there is no sanctioned gap between
/// the drivers).
fn check_solver_agreement_dist_error(
    dist: &DistributedSystem,
    opts: &VerifyOptions,
    direct_error: &twca_dist::DistError,
    violations: &mut Vec<Violation>,
) {
    match twca_dist::reference::analyze(dist, opts.dist_options(), Reference::IterativeSolver) {
        Ok(_) => violations.push(Violation {
            oracle: OracleKind::SolverAgreement,
            detail: format!(
                "the full-sweep holistic driver produced an answer where the worklist \
                 failed with: {direct_error}"
            ),
        }),
        Err(e) if &e != direct_error => violations.push(Violation {
            oracle: OracleKind::SolverAgreement,
            detail: format!("holistic drivers fail differently: {direct_error} vs {e}"),
        }),
        Err(_) => {}
    }
}

/// When the direct holistic analysis fails, the façade must report a
/// failure too (same class of outcome), not a fabricated answer.
fn check_backend_agreement_dist_error(
    dist: &DistributedSystem,
    opts: &VerifyOptions,
    direct_error: &twca_dist::DistError,
    violations: &mut Vec<Violation>,
) {
    let session = Session::new()
        .with_options(opts.options)
        .with_max_sweeps(opts.max_sweeps);
    let request = AnalysisRequest::for_dist_text(twca_dist::render_distributed(dist))
        .with_query(Query::Latency { chain: None });
    if session.analyze(&request).outcome.is_ok() {
        violations.push(Violation {
            oracle: OracleKind::BackendAgreement,
            detail: format!(
                "façade produced an answer where the direct analysis failed with: {direct_error}"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::case_study;

    #[test]
    fn the_case_study_passes_every_oracle() {
        let violations =
            check_scenario(&ScenarioBody::Uni(case_study()), &VerifyOptions::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn an_injected_dmm_undercount_is_caught() {
        // σc really accumulates misses under the adversarial alignment,
        // so hiding one miss per bound must trip the soundness oracle.
        let opts = VerifyOptions {
            fault: Fault::UnderReportDmm { delta: 1 },
            ..VerifyOptions::default()
        };
        let violations = check_scenario(&ScenarioBody::Uni(case_study()), &opts);
        assert!(
            violations
                .iter()
                .any(|v| v.oracle == OracleKind::SimSoundness),
            "{violations:?}"
        );
        // Run 0 of the Monte Carlo sweep replays the same aligned
        // max-rate stress, so the empirical oracle must catch it too.
        assert!(
            violations
                .iter()
                .any(|v| v.oracle == OracleKind::MissRateSoundness),
            "{violations:?}"
        );
    }

    #[test]
    fn a_distributed_pipeline_passes_every_oracle() {
        use twca_dist::DistributedSystemBuilder;
        use twca_model::SystemBuilder;
        let downstream = SystemBuilder::new()
            .chain("act")
            .periodic(200)
            .unwrap()
            .deadline(200)
            .task("a1", 1, 20)
            .done()
            .build()
            .unwrap();
        let dist = DistributedSystemBuilder::new()
            .resource("ecu0", case_study())
            .resource("ecu1", downstream)
            .link(("ecu0", "sigma_c"), ("ecu1", "act"))
            .build()
            .unwrap();
        let violations = check_scenario(&ScenarioBody::Dist(dist), &VerifyOptions::default());
        assert!(violations.is_empty(), "{violations:?}");
    }
}
