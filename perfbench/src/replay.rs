//! The in-process replay: the lines of a plan answered by a fresh
//! [`Session`], in the server's order. It gives the expected response
//! of every line and, when traced, the time spent in each layer.
//!
//! The traced replay times, per line, the wire decode, the whole
//! `Session::analyze` call and the encode. A shadow pipeline then calls
//! the same public layer functions `Session::analyze` calls for the
//! benchmark's request shapes, each inside its own span, against
//! shadow state (cache, store, memos) that sees the same history as
//! the session's. The program itself is not changed: every span sits in
//! this file, around a call into a layer.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use twca_api::{
    respond_line, AnalysisRequest, DirIo, Json, PersistPolicy, Query, Session, StoredBody,
    SystemStore, Target,
};
use twca_chains::{
    latency_analysis, AnalysisCache, AnalysisContext, AnalysisOptions, DmmSweep, MkConstraint,
    OverloadMode,
};
use twca_dist::{analyze_with_memo, DistOptions, DistributedSystem, HolisticMemo};

use crate::workload::{probe_line, Plan, Workload};

/// A traced span's kind: the layer boundary it was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One replayed line; parent of everything below.
    Request,
    /// `Json::parse` + `AnalysisRequest::from_json`.
    Decode,
    /// The whole `Session::analyze` call.
    Session,
    /// `AnalysisResponse::to_json` + rendering.
    Encode,
    /// The shadow pipeline; parent of the layer spans below.
    Shadow,
    /// `parse_system` / `parse_distributed`.
    Parse,
    /// `AnalysisContext::with_cache`.
    Context,
    /// `latency_analysis`, with and without overload.
    Latency,
    /// `DmmSweep::prepare`: the Definition 9 classification.
    Combinations,
    /// `DmmSweep::curve`: the packing, once per k.
    Packing,
    /// `MkConstraint::verify`.
    WeaklyHard,
    /// `SystemStore::put_dedup` on a durable store.
    StorePut,
    /// `analyze_with_memo`: the holistic fixed point.
    Holistic,
    /// `DistResults::deadline_miss_model_full`, per site and k.
    DistDmm,
}

impl Layer {
    /// Every layer, indexed by `layer as usize`.
    pub const ALL: [Layer; 14] = [
        Layer::Request,
        Layer::Decode,
        Layer::Session,
        Layer::Encode,
        Layer::Shadow,
        Layer::Parse,
        Layer::Context,
        Layer::Latency,
        Layer::Combinations,
        Layer::Packing,
        Layer::WeaklyHard,
        Layer::StorePut,
        Layer::Holistic,
        Layer::DistDmm,
    ];

    /// The layers whose self times must add up to the session's time.
    pub const INSIDE_SESSION: [Layer; 9] = [
        Layer::Parse,
        Layer::Context,
        Layer::Latency,
        Layer::Combinations,
        Layer::Packing,
        Layer::WeaklyHard,
        Layer::StorePut,
        Layer::Holistic,
        Layer::DistDmm,
    ];

    /// The span name, `crate.stage`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Decode => "api.decode",
            Layer::Session => "api.session",
            Layer::Encode => "api.encode",
            Layer::Shadow => "shadow",
            Layer::Parse => "model.parse",
            Layer::Context => "core.context",
            Layer::Latency => "core.latency",
            Layer::Combinations => "core.combinations",
            Layer::Packing => "ilp.packing",
            Layer::WeaklyHard => "core.weakly_hard",
            Layer::StorePut => "api.store_put",
            Layer::Holistic => "dist.holistic",
            Layer::DistDmm => "dist.dmm",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    request: usize,
    layer: Layer,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans recorded in memory, written out once at the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: Layer) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            layer,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("exit matches an enter");
        self.spans[span].end_ns = end_ns;
    }

    fn span<T>(&mut self, layer: Layer, call: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = call();
        self.exit();
        out
    }

    /// Self time per request and layer: each span's duration minus the
    /// durations of its children.
    fn self_times(&self, requests: usize) -> Vec<[u64; Layer::ALL.len()]> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = vec![[0u64; Layer::ALL.len()]; requests];
        for (span, covered) in self.spans.iter().zip(covered) {
            out[span.request][span.layer as usize] += (span.end_ns - span.start_ns) - covered;
        }
        out
    }

    /// One span per line: request, layer, parent span, start and end
    /// in ns since the replay began.
    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("span\trequest\tlayer\tparent\tstart_ns\tend_ns\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                span.request,
                span.layer.name(),
                span.start_ns,
                span.end_ns
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// What the traced replay measured on one line of the measured list.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Request line length.
    pub request_bytes: usize,
    /// Response line length.
    pub response_bytes: usize,
    /// Self time per layer, indexed by `layer as usize`.
    pub self_ns: [u64; Layer::ALL.len()],
    /// Resource rows the holistic analysis re-converged.
    pub rows_analyzed: u64,
    /// Dirty lookups the holistic memo answered.
    pub memo_hits: u64,
    /// Whether the session ran before the shadow pipeline on this line.
    pub session_first: bool,
}

/// Largest tolerated gap between the layer self times and the
/// session's own time, in percent of the session's time.
pub const RECONCILE_PCT: f64 = 10.0;

/// The share of a line's session time that the layer spans inside it
/// do not cover, in percent: negative when the layers took longer than
/// the session. Whichever of the two runs second on a line finds the
/// allocator and caches warm, so this is the mean of the median over
/// the lines where the session ran first and the median over the lines
/// where it ran second. Medians, so that one slow fsync on either side
/// does not decide it.
pub fn unexplained_pct(samples: &[Sample]) -> f64 {
    let median_gap = |session_first: bool| {
        let gaps: Vec<f64> = samples
            .iter()
            .filter(|s| s.session_first == session_first)
            .map(|s| {
                let session = s.self_ns[Layer::Session as usize] as f64;
                let layers: u64 = Layer::INSIDE_SESSION
                    .iter()
                    .map(|&l| s.self_ns[l as usize])
                    .sum();
                100.0 * (session - layers as f64) / session
            })
            .collect();
        crate::stats::median(&gaps)
    };
    (median_gap(true) + median_gap(false)) / 2.0
}

/// The expected responses of one replay, in the server's order.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Answers to the preload lines.
    pub preload: Vec<String>,
    /// Answer to the set-up probe.
    pub probe: String,
    /// Answers to the warm-up lines.
    pub warmup: Vec<String>,
    /// Answers to the measured lines.
    pub measured: Vec<String>,
    /// Time to answer each measured line: decode, session and encode.
    pub measured_ns: Vec<u64>,
    /// Per-line layer times; `None` for an untraced replay.
    pub samples: Option<Vec<Sample>>,
}

/// The shadow pipeline's state, kept in step with the session's.
struct Shadow {
    options: AnalysisOptions,
    cache: Arc<AnalysisCache>,
    store: Option<SystemStore>,
    systems: HashMap<String, DistributedSystem>,
    memos: HashMap<String, HolisticMemo>,
    rows_analyzed: u64,
    memo_hits: u64,
}

impl Shadow {
    fn new(options: AnalysisOptions) -> Shadow {
        Shadow {
            options,
            cache: Arc::new(AnalysisCache::new()),
            store: None,
            systems: HashMap::new(),
            memos: HashMap::new(),
            rows_analyzed: 0,
            memo_hits: 0,
        }
    }

    /// Calls the layers `Session::analyze` calls for `request`, each in
    /// its own span.
    fn run(&mut self, request: &AnalysisRequest, tracer: &mut Tracer) -> Result<(), String> {
        match &request.target {
            Target::Chains { system } => self.chains(system, &request.queries, tracer),
            Target::Service => request
                .queries
                .iter()
                .try_for_each(|query| self.store_query(query, tracer)),
            _ => Err("the shadow pipeline covers chain and store requests only".into()),
        }
    }

    fn chains(&self, text: &str, queries: &[Query], tracer: &mut Tracer) -> Result<(), String> {
        let options = self.options;
        let system = tracer
            .span(Layer::Parse, || twca_model::parse_system(text))
            .map_err(|e| e.to_string())?;
        let ctx = tracer.span(Layer::Context, || {
            AnalysisContext::with_cache(&system, Arc::clone(&self.cache))
        });
        let deadline_chains: Vec<_> = system
            .iter()
            .filter(|(_, chain)| chain.deadline().is_some())
            .map(|(id, _)| id)
            .collect();
        for query in queries {
            match query {
                Query::Latency { chain: None } => {
                    for (id, _) in system.iter() {
                        tracer.span(Layer::Latency, || {
                            black_box(latency_analysis(&ctx, id, OverloadMode::Include, options));
                            black_box(latency_analysis(&ctx, id, OverloadMode::Exclude, options));
                        });
                    }
                }
                Query::Dmm { chain: None, ks } => {
                    for &id in &deadline_chains {
                        let sweep = tracer
                            .span(Layer::Combinations, || DmmSweep::prepare(&ctx, id, options));
                        if let Ok(sweep) = sweep {
                            tracer.span(Layer::Packing, || {
                                black_box(sweep.curve(ks.iter().copied()))
                            });
                        }
                    }
                }
                Query::WeaklyHard { chain: None, m, k } => {
                    for &id in &deadline_chains {
                        tracer.span(Layer::WeaklyHard, || {
                            let _ = black_box(MkConstraint::new(*m, *k).verify(&ctx, id, options));
                        });
                    }
                }
                other => return Err(format!("no shadow for query {other:?}")),
            }
        }
        // Freeing what a layer built is part of that layer's cost, as
        // it is inside the session's call.
        tracer.span(Layer::Context, || drop(ctx));
        tracer.span(Layer::Parse, || drop(system));
        Ok(())
    }

    fn store_query(&mut self, query: &Query, tracer: &mut Tracer) -> Result<(), String> {
        match query {
            Query::StorePut {
                name,
                system: None,
                dist: Some(text),
                dedup: None,
            } => {
                let parsed = tracer
                    .span(Layer::Parse, || twca_dist::parse_distributed(text))
                    .map_err(|e| e.to_string())?;
                let body = StoredBody::Dist(parsed.clone());
                let store = self.store.as_ref().ok_or("the shadow store is not open")?;
                tracer
                    .span(Layer::StorePut, || store.put_dedup(name, body, None))
                    .map_err(|e| e.to_string())?;
                self.systems.insert(name.clone(), parsed);
                Ok(())
            }
            Query::StoreAnalyze { name, ks } => {
                let system = self
                    .systems
                    .get(name)
                    .ok_or_else(|| format!("no shadow entry `{name}`"))?;
                let memo = self.memos.entry(name.clone()).or_default();
                let options = DistOptions {
                    chain_options: self.options,
                    ..DistOptions::default()
                };
                let (results, report) = tracer
                    .span(Layer::Holistic, || analyze_with_memo(system, options, memo))
                    .map_err(|e| e.to_string())?;
                self.rows_analyzed += report.rows_analyzed as u64;
                self.memo_hits += report.memo_hits as u64;
                for site in system.sites() {
                    let declared = system
                        .resource(site.resource())
                        .system()
                        .chain(site.chain());
                    if declared.deadline().is_none() {
                        continue;
                    }
                    for &k in ks {
                        tracer.span(Layer::DistDmm, || {
                            let _ = black_box(results.deadline_miss_model_full(site, k));
                        });
                    }
                }
                tracer.span(Layer::Holistic, || drop(results));
                Ok(())
            }
            other => Err(format!("no shadow for query {other:?}")),
        }
    }
}

fn decode(line: &str) -> Result<AnalysisRequest, String> {
    let json = Json::parse(line).map_err(|e| format!("request is not JSON: {e}"))?;
    AnalysisRequest::from_json(&json).map_err(|e| format!("request does not decode: {e}"))
}

fn answer(session: &Session, line: &str) -> String {
    respond_line(session, line).to_json().to_string()
}

/// Opens a durable store over `dir` with the server's default policy.
fn open_store(dir: &Path) -> Result<SystemStore, String> {
    let io = DirIo::open(dir).map_err(|e| format!("store dir {}: {e}", dir.display()))?;
    SystemStore::durable(Arc::new(io), PersistPolicy::default())
        .map(|(store, _)| store)
        .map_err(|e| format!("opening store {}: {e}", dir.display()))
}

/// Replays `plan` in-process with a fresh session, in the server's
/// order: preload (then a restart that recovers the store), probe,
/// warm-up, measured. Store directories are created under `dir`. With
/// `spans` the replay is traced and its spans are written there.
///
/// # Errors
///
/// A message when a store cannot be opened, a line does not decode or
/// the shadow pipeline meets a request shape it does not cover.
pub fn replay(plan: &Plan, dir: &Path, spans: Option<&Path>) -> Result<Replay, String> {
    let durable = plan.workload == Workload::StoreEdit;
    let session_dir = dir.join("session-store");
    let shadow_dir = dir.join("shadow-store");
    for stale in [&session_dir, &shadow_dir] {
        let _ = std::fs::remove_dir_all(stale);
    }
    let mut session = Session::new();
    let mut shadow = Shadow::new(session.options());
    let mut untimed = Tracer::new();
    let mut preload = Vec::with_capacity(plan.preload.len());
    if durable {
        session = session.with_store(Arc::new(open_store(&session_dir)?));
        shadow.store = Some(open_store(&shadow_dir)?);
        for line in &plan.preload {
            preload.push(answer(&session, line));
            shadow.run(&decode(line)?, &mut untimed)?;
        }
        // The server's earlier life ends with a drain flush; the
        // measured life starts by recovering the store, with cold memos.
        session.store().flush().map_err(|e| e.to_string())?;
        if let Some(store) = shadow.store.take() {
            store.flush().map_err(|e| e.to_string())?;
        }
        session = Session::new().with_store(Arc::new(open_store(&session_dir)?));
        shadow.store = Some(open_store(&shadow_dir)?);
    }
    let probe = answer(&session, &probe_line());
    let lines: Vec<&String> = plan.warmup.iter().chain(&plan.measured).collect();
    let warm = plan.warmup.len();
    let mut answers = Vec::with_capacity(lines.len());
    let mut line_ns = Vec::with_capacity(lines.len());
    let mut tracer = spans.map(|_| Tracer::new());
    let mut dist_counts = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let Some(tracer) = tracer.as_mut() else {
            let started = Instant::now();
            answers.push(answer(&session, line));
            line_ns.push(started.elapsed().as_nanos() as u64);
            continue;
        };
        tracer.request = i;
        let counts_before = (shadow.rows_analyzed, shadow.memo_hits);
        tracer.enter(Layer::Request);
        let request = tracer.span(Layer::Decode, || decode(line))?;
        // Alternate which of the two runs first, so neither always
        // finds the other's work in the CPU caches.
        let session_first = i % 2 == 0;
        if !session_first {
            tracer.enter(Layer::Shadow);
            shadow.run(&request, tracer)?;
            tracer.exit();
        }
        let response = tracer.span(Layer::Session, || session.analyze(&request));
        let text = tracer.span(Layer::Encode, || response.to_json().to_string());
        if session_first {
            tracer.enter(Layer::Shadow);
            shadow.run(&request, tracer)?;
            tracer.exit();
        }
        tracer.exit();
        answers.push(text);
        dist_counts.push((
            shadow.rows_analyzed - counts_before.0,
            shadow.memo_hits - counts_before.1,
        ));
    }
    let samples = match (&tracer, spans) {
        (Some(tracer), Some(path)) => {
            tracer.write(path)?;
            let self_ns = tracer.self_times(lines.len());
            line_ns = self_ns
                .iter()
                .map(|t| {
                    t[Layer::Decode as usize]
                        + t[Layer::Session as usize]
                        + t[Layer::Encode as usize]
                })
                .collect();
            Some(
                self_ns
                    .into_iter()
                    .enumerate()
                    .skip(warm)
                    .map(|(i, self_ns)| Sample {
                        request_bytes: lines[i].len(),
                        response_bytes: answers[i].len(),
                        self_ns,
                        rows_analyzed: dist_counts[i].0,
                        memo_hits: dist_counts[i].1,
                        session_first: i % 2 == 0,
                    })
                    .collect(),
            )
        }
        _ => None,
    };
    let measured = answers.split_off(warm);
    Ok(Replay {
        preload,
        probe,
        warmup: answers,
        measured,
        measured_ns: line_ns.split_off(warm),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(workload: Workload, seconds: f64) -> (Replay, Replay) {
        let dir = std::env::temp_dir().join(format!(
            "twca-perfbench-test-{}-{}",
            std::process::id(),
            workload.name()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = Plan::new(workload, 5, seconds);
        let plain = replay(&plan, &dir.join("plain"), None).unwrap();
        let traced = replay(&plan, &dir.join("traced"), Some(&dir.join("spans.tsv"))).unwrap();
        let spans = std::fs::read_to_string(dir.join("spans.tsv")).unwrap();
        assert!(spans.lines().count() > plan.measured.len());
        std::fs::remove_dir_all(&dir).unwrap();
        (plain, traced)
    }

    #[test]
    fn a_short_traced_run_reconciles_and_answers_like_the_plain_one() {
        for (workload, seconds) in [(Workload::AnalysisCold, 0.05), (Workload::StoreEdit, 0.2)] {
            let (plain, traced) = traced(workload, seconds);
            assert_eq!(plain.preload, traced.preload);
            assert_eq!(plain.probe, traced.probe);
            assert_eq!(plain.warmup, traced.warmup);
            assert_eq!(plain.measured, traced.measured);
            assert!(plain.measured.iter().all(|a| a.contains("\"ok\": ")));
            let samples = traced.samples.unwrap();
            assert_eq!(samples.len(), plain.measured.len());
            let gap = unexplained_pct(&samples);
            assert!(
                gap.abs() <= RECONCILE_PCT,
                "{}: layers miss the session by {gap:.1}%",
                workload.name()
            );
        }
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let mut tracer = Tracer::new();
        tracer.enter(Layer::Request);
        tracer.span(Layer::Decode, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.exit();
        let times = tracer.self_times(1);
        let decode = times[0][Layer::Decode as usize];
        let span = &tracer.spans[0];
        assert!(decode >= 2_000_000);
        assert_eq!(
            times[0][Layer::Request as usize] + decode,
            span.end_ns - span.start_ns
        );
    }
}
