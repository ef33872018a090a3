//! The typed response side of the wire schema.
//!
//! [`ChainOutcome`] and [`SystemOutcome`] double as the batch records
//! of [`crate::batch`]: its `ChainVerdict`/`SystemVerdict` are aliases
//! of these types, and its batch JSON renders each chain through
//! [`ChainOutcome::to_json`] — one serializer for both the streaming
//! and the batch surface.

use crate::error::ApiError;
use crate::json::Json;
use crate::metrics::{Counter, Metrics};
use crate::request::SCHEMA_VERSION;
use twca_chains::{AnalysisContext, AnalysisOptions, ChainReport, DmmResult, DmmSweep};
use twca_curves::Time;
use twca_dist::{DistResults, DistributedSystem, SiteId};
use twca_model::ChainId;

/// One `dmm(k)` point on the wire: the window length, the miss bound,
/// and whether the bound beats the trivial `k` fallback. The richer
/// diagnostic fields of [`DmmResult`] (budgets, packing internals) are
/// deliberately not part of the schema — ask for a witness instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmmPoint {
    /// The window length `k`.
    pub k: u64,
    /// At most `bound` of any `k` consecutive activations miss.
    pub bound: u64,
    /// Whether the bound is better than the trivial `k` fallback.
    pub informative: bool,
}

impl From<&DmmResult> for DmmPoint {
    fn from(value: &DmmResult) -> Self {
        DmmPoint {
            k: value.k,
            bound: value.bound,
            informative: value.informative,
        }
    }
}

/// The analysis outcome of one chain (uniprocessor) or one site
/// (distributed) under the full batch pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainOutcome {
    /// Chain name (`resource/chain` for distributed sites).
    pub name: String,
    /// Declared end-to-end deadline.
    pub deadline: Option<Time>,
    /// Whether the chain is a rare overload source.
    pub overload: bool,
    /// Worst-case latency with overload included (Theorem 2); `None`
    /// when the busy window diverges.
    pub worst_case_latency: Option<Time>,
    /// Worst-case latency of the typical (overload-free) system.
    pub typical_latency: Option<Time>,
    /// Miss models at the requested window lengths, in request order;
    /// empty for chains without a deadline.
    pub miss_models: Vec<DmmPoint>,
    /// Analysis error, if the miss-model preparation failed.
    pub error: Option<String>,
}

impl ChainOutcome {
    /// Whether the chain provably never misses its deadline.
    pub fn schedulable(&self) -> Option<bool> {
        Some(self.worst_case_latency? <= self.deadline?)
    }

    /// Serializes the outcome as its wire object (also the engine's
    /// per-chain batch JSON).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("name".into(), Json::str(&self.name)),
            ("overload".into(), Json::Bool(self.overload)),
            ("deadline".into(), Json::opt_u64(self.deadline)),
            ("wcl".into(), Json::opt_u64(self.worst_case_latency)),
            ("typical_wcl".into(), Json::opt_u64(self.typical_latency)),
            (
                "dmm".into(),
                Json::Array(self.miss_models.iter().map(dmm_point_to_json).collect()),
            ),
        ];
        if let Some(error) = &self.error {
            members.push(("error".into(), Json::str(error)));
        }
        Json::Object(members)
    }

    /// Parses the wire object back.
    ///
    /// # Errors
    ///
    /// [`ApiError`] for structural problems.
    pub fn from_json(value: &Json) -> Result<ChainOutcome, ApiError> {
        Ok(ChainOutcome {
            name: str_field(value, "name")?,
            overload: bool_field(value, "overload")?,
            deadline: opt_u64_field(value, "deadline")?,
            worst_case_latency: opt_u64_field(value, "wcl")?,
            typical_latency: opt_u64_field(value, "typical_wcl")?,
            miss_models: value
                .get("dmm")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::request("chain outcome needs a `dmm` array"))?
                .iter()
                .map(dmm_point_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            error: opt_str_field(value, "error")?,
        })
    }
}

/// The analysis outcome of one system under the full batch pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemOutcome {
    /// Position of the system in its batch (0 for single-system
    /// requests).
    pub index: usize,
    /// Per-chain outcomes, in chain order.
    pub chains: Vec<ChainOutcome>,
}

impl SystemOutcome {
    /// Looks up a chain outcome by name.
    pub fn chain(&self, name: &str) -> Option<&ChainOutcome> {
        self.chains.iter().find(|c| c.name == name)
    }

    /// Serializes the outcome as its wire object.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("index".into(), Json::UInt(self.index as u64)),
            (
                "chains".into(),
                Json::Array(self.chains.iter().map(ChainOutcome::to_json).collect()),
            ),
        ])
    }

    /// Parses the wire object back.
    ///
    /// # Errors
    ///
    /// [`ApiError`] for structural problems.
    pub fn from_json(value: &Json) -> Result<SystemOutcome, ApiError> {
        Ok(SystemOutcome {
            index: u64_field(value, "index")? as usize,
            chains: value
                .get("chains")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::request("system outcome needs a `chains` array"))?
                .iter()
                .map(ChainOutcome::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// One latency row of a [`QueryOutcome::Latency`] answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyOutcome {
    /// Chain or site name.
    pub name: String,
    /// Declared deadline.
    pub deadline: Option<Time>,
    /// Whether the chain is an overload source.
    pub overload: bool,
    /// Worst-case latency; `None` when divergent.
    pub worst_case_latency: Option<Time>,
    /// Typical-system latency; `None` when divergent or not computed
    /// (distributed sites).
    pub typical_latency: Option<Time>,
}

impl LatencyOutcome {
    /// The latency row of one uniprocessor chain — shared by the
    /// `latency` query, `store_analyze` and the batch pipeline.
    pub(crate) fn analyze(
        ctx: &AnalysisContext<'_>,
        id: ChainId,
        options: AnalysisOptions,
    ) -> Self {
        let report = ChainReport::analyze(ctx, id, options);
        LatencyOutcome {
            name: report.name,
            deadline: report.deadline,
            overload: report.overload,
            worst_case_latency: report.worst_case_latency,
            typical_latency: report.typical_latency,
        }
    }

    /// The latency row of one distributed site — shared by the
    /// `latency` query and `store_analyze`. The typical latency is a
    /// per-resource notion, not computed holistically.
    pub(crate) fn site(system: &DistributedSystem, results: &DistResults, site: SiteId) -> Self {
        let declared = system.chain(site);
        LatencyOutcome {
            name: site_name(system, site),
            deadline: declared.deadline(),
            overload: declared.is_overload(),
            worst_case_latency: results.worst_case_latency(site),
            typical_latency: None,
        }
    }
}

/// The wire name of a distributed site: `resource/chain`.
pub(crate) fn site_name(system: &DistributedSystem, site: SiteId) -> String {
    let (resource, chain) = system.site_names(site);
    format!("{resource}/{chain}")
}

/// One miss-model row of a [`QueryOutcome::Dmm`] answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmmOutcome {
    /// Chain or site name.
    pub name: String,
    /// `dmm(k)` points in request order.
    pub points: Vec<DmmPoint>,
    /// Per-chain analysis error, if the sweep failed.
    pub error: Option<String>,
}

impl DmmOutcome {
    /// The miss-model row `name`: the prepared sweep's curve over `ks`,
    /// or the error that stopped its preparation. The one row builder
    /// of chain and site rows, shared by the `dmm` query,
    /// `store_analyze` and the batch pipeline.
    pub(crate) fn sweep(
        name: String,
        prepared: Result<DmmSweep<'_>, impl std::fmt::Display>,
        ks: &[u64],
    ) -> Self {
        match prepared {
            Ok(sweep) => DmmOutcome {
                name,
                points: ks.iter().map(|&k| DmmPoint::from(&sweep.at(k))).collect(),
                error: None,
            },
            Err(e) => DmmOutcome {
                name,
                points: Vec::new(),
                error: Some(e.to_string()),
            },
        }
    }

    /// The rows of distributed `sites`, resource-major as
    /// [`DistributedSystem::sites`] yields them: one sweep per site on
    /// one memo-less [`DistResults::context`] per resource.
    pub(crate) fn sites(
        system: &DistributedSystem,
        results: &DistResults,
        sites: &[SiteId],
        ks: &[u64],
    ) -> Vec<Self> {
        let mut rows = Vec::with_capacity(sites.len());
        for group in sites.chunk_by(|a, b| a.resource() == b.resource()) {
            let ctx = results.context(group[0].resource());
            for &site in group {
                let name = site_name(system, site);
                rows.push(DmmOutcome::sweep(name, results.sweep(&ctx, site), ks));
            }
        }
        rows
    }
}

/// One verdict row of a [`QueryOutcome::WeaklyHard`] answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MkOutcome {
    /// Chain or site name.
    pub name: String,
    /// Tolerated misses.
    pub m: u64,
    /// Window length.
    pub k: u64,
    /// Whether `dmm(k) ≤ m` is proven.
    pub satisfied: bool,
}

/// The answer to a [`QueryOutcome::Witness`] query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessOutcome {
    /// Chain or site name.
    pub name: String,
    /// Window length.
    pub k: u64,
    /// The witnessed (or computed) miss bound.
    pub bound: u64,
    /// Whether a non-trivial packing witness exists; when `false`,
    /// `text` carries the plain bound.
    pub has_witness: bool,
    /// Human-readable derivation.
    pub text: String,
}

/// The answer to a [`QueryOutcome::Sensitivity`] query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensitivityOutcome {
    /// Chain or site name.
    pub name: String,
    /// Tolerated misses.
    pub m: u64,
    /// Window length.
    pub k: u64,
    /// Largest admissible overload percentage; `None` when even 0%
    /// violates the constraint.
    pub max_percent: Option<u64>,
}

/// The answer to a [`QueryOutcome::Path`] query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathOutcome {
    /// The hops, as `resource/chain` names.
    pub hops: Vec<String>,
    /// End-to-end latency bound.
    pub latency: Option<Time>,
    /// Composite deadline `Σ D_i`.
    pub composite_deadline: Option<Time>,
    /// End-to-end miss-model points.
    pub points: Vec<DmmPoint>,
}

/// One empirical miss-rate row of a [`QueryOutcome::Simulate`] answer.
///
/// All rates are carried as parts-per-million integers so the wire
/// schema stays `Eq`-comparable and bit-exact across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimChainOutcome {
    /// Chain name.
    pub name: String,
    /// Completed instances across all runs.
    pub instances: u64,
    /// Deadline misses across all runs.
    pub misses: u64,
    /// Empirical miss rate in parts per million.
    pub miss_rate_ppm: u64,
    /// Lower end of the 95% Wilson confidence interval, in ppm.
    pub ci_low_ppm: u64,
    /// Upper end of the 95% Wilson confidence interval, in ppm.
    pub ci_high_ppm: u64,
    /// Largest observed latency; `None` when nothing completed.
    pub max_latency: Option<Time>,
}

/// The answer to a [`QueryOutcome::Simulate`] query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulateOutcome {
    /// Number of simulation runs pooled into the report.
    pub runs: u64,
    /// Horizon of each run, in time units.
    pub horizon: u64,
    /// Base RNG seed the report is deterministic in.
    pub seed: u64,
    /// Per-chain empirical rows, one per selected deadline chain.
    pub chains: Vec<SimChainOutcome>,
}

/// The answer to a [`QueryOutcome::Stats`] query: the shared cache's
/// counters followed by the [`Metrics`] registries of the answering
/// session and its store, in the order of [`StatsOutcome::fields`].
/// Outside a service the service counters are all zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsOutcome {
    /// Cache hits since the cache was created.
    pub cache_hits: u64,
    /// Cache misses since the cache was created.
    pub cache_misses: u64,
    /// Entries currently resident in the cache (kept alongside
    /// `resident_entries` for wire compatibility).
    pub cache_entries: u64,
    /// Entries evicted by the cache's budget enforcement since the
    /// cache was created (clears do not count).
    pub evictions: u64,
    /// Entries currently resident in the cache.
    pub resident_entries: u64,
    /// Estimated bytes currently resident in the cache.
    pub resident_bytes_est: u64,
    /// [`Counter::Served`].
    pub served: u64,
    /// [`Counter::Rejected`].
    pub rejected: u64,
    /// [`Counter::InFlight`].
    pub in_flight: u64,
    /// [`Counter::Panics`].
    pub panics: u64,
    /// [`Counter::JournalAppends`].
    pub journal_appends: u64,
    /// [`Counter::JournalBytes`].
    pub journal_bytes: u64,
    /// [`Counter::JournalSyncs`].
    pub journal_syncs: u64,
    /// [`Counter::SnapshotsWritten`].
    pub snapshots_written: u64,
    /// [`Counter::RecoveredRecords`].
    pub recovered_records: u64,
    /// [`Counter::TruncatedBytes`].
    pub truncated_bytes: u64,
    /// [`Counter::OpenConnections`].
    pub open_connections: u64,
    /// [`Counter::Reaped`].
    pub reaped: u64,
    /// [`Counter::Timeouts`]: a read or a write timed out.
    pub timeouts: u64,
    /// [`Counter::Resets`].
    pub resets: u64,
    /// [`Counter::SlowConsumers`].
    pub slow_consumers: u64,
    /// [`Counter::QueueDepthPeak`].
    pub queue_depth_peak: u64,
}

/// A `stats` wire field: its name and its slot in [`StatsOutcome`].
type StatsField = (&'static str, fn(&mut StatsOutcome) -> &mut u64);

/// Every `stats` field in wire order. The six cache fields lead; the
/// registry's wire counters follow in [`Counter`] order, so counter
/// `c` sits at `CACHE_FIELDS + c as usize`.
const STATS_FIELDS: [StatsField; 22] = [
    ("cache_hits", |s| &mut s.cache_hits),
    ("cache_misses", |s| &mut s.cache_misses),
    ("cache_entries", |s| &mut s.cache_entries),
    ("evictions", |s| &mut s.evictions),
    ("resident_entries", |s| &mut s.resident_entries),
    ("resident_bytes_est", |s| &mut s.resident_bytes_est),
    ("served", |s| &mut s.served),
    ("rejected", |s| &mut s.rejected),
    ("in_flight", |s| &mut s.in_flight),
    ("panics", |s| &mut s.panics),
    ("journal_appends", |s| &mut s.journal_appends),
    ("journal_bytes", |s| &mut s.journal_bytes),
    ("journal_syncs", |s| &mut s.journal_syncs),
    ("snapshots_written", |s| &mut s.snapshots_written),
    ("recovered_records", |s| &mut s.recovered_records),
    ("truncated_bytes", |s| &mut s.truncated_bytes),
    ("open_connections", |s| &mut s.open_connections),
    ("reaped", |s| &mut s.reaped),
    ("timeouts", |s| &mut s.timeouts),
    ("resets", |s| &mut s.resets),
    ("slow_consumers", |s| &mut s.slow_consumers),
    ("queue_depth_peak", |s| &mut s.queue_depth_peak),
];

/// The cache fields before the first registry counter.
const CACHE_FIELDS: usize = 6;

impl StatsOutcome {
    /// Every field as `(wire name, value)`, in wire order.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut stats = *self;
        STATS_FIELDS
            .iter()
            .map(move |(name, slot)| (*name, *slot(&mut stats)))
    }

    /// The value `counter` is reported as; `None` for a counter that is
    /// not a `stats` field ([`Counter::Errors`]).
    #[must_use]
    pub fn counter(&self, counter: Counter) -> Option<u64> {
        let (_, slot) = STATS_FIELDS.get(CACHE_FIELDS + counter as usize)?;
        Some(*slot(&mut { *self }))
    }

    /// Adds every wire counter of `metrics` to its field.
    pub(crate) fn add_registry(&mut self, metrics: &Metrics) {
        for ((_, slot), value) in STATS_FIELDS[CACHE_FIELDS..].iter().zip(metrics.values()) {
            *slot(self) += value;
        }
    }

    fn to_json(self) -> Json {
        Json::Object(
            self.fields()
                .map(|(name, value)| (name.into(), Json::UInt(value)))
                .collect(),
        )
    }

    /// Decodes a `stats` body. The edge counters (from
    /// [`Counter::OpenConnections`] on) arrived after v1 first shipped;
    /// their absence reads as zero so older recorded responses still
    /// parse.
    fn from_json(body: &Json) -> Result<StatsOutcome, ApiError> {
        let optional_from = CACHE_FIELDS + Counter::OpenConnections as usize;
        let mut stats = StatsOutcome::default();
        for (index, (name, slot)) in STATS_FIELDS.iter().enumerate() {
            *slot(&mut stats) = if index < optional_from {
                u64_field(body, name)?
            } else {
                opt_u64_field(body, name)?.unwrap_or(0)
            };
        }
        Ok(stats)
    }
}

impl Counter {
    /// The `stats` field this counter is reported under; `None` for
    /// [`Counter::Errors`], which is not on the wire.
    #[must_use]
    pub fn wire_name(self) -> Option<&'static str> {
        STATS_FIELDS
            .get(CACHE_FIELDS + self as usize)
            .map(|(name, _)| *name)
    }
}

/// The answer to a [`crate::Query::StorePut`]: the version now current
/// under the name and the diff against the previous version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorePutOutcome {
    /// The entry name.
    pub name: String,
    /// The version just stored (1 for a first put).
    pub version: u64,
    /// Resources with any changed chain or moved incident link.
    pub resources_changed: u64,
    /// Chains added, removed, or edited.
    pub chains_changed: u64,
    /// Tasks added, removed, or edited.
    pub tasks_changed: u64,
    /// Whether the put was answered from the store's dedup ledger
    /// instead of being applied again: the request carried a `dedup`
    /// id that had already been acknowledged, so this receipt repeats
    /// the original one (at-most-once apply).
    pub deduped: bool,
}

/// The answer to a [`crate::Query::StoreAnalyze`]: per-chain bounds of
/// the stored system's current version plus the delta-re-analysis
/// accounting (how many per-resource rows were recomputed vs. answered
/// from the entry's warm memo).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreAnalyzeOutcome {
    /// The entry name.
    pub name: String,
    /// The analyzed version.
    pub version: u64,
    /// Per-resource holistic rows recomputed by this analysis
    /// (0 for uniprocessor entries, which memoize at a finer grain in
    /// the session cache).
    pub rows_analyzed: u64,
    /// Per-resource holistic rows answered from the entry's warm memo.
    pub memo_hits: u64,
    /// Latency rows, one per chain/site.
    pub latency: Vec<LatencyOutcome>,
    /// Miss-model rows, one per deadline chain/site.
    pub dmm: Vec<DmmOutcome>,
}

/// One answered query, mirroring [`crate::Query`] case by case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Latency rows, one per selected chain/site.
    Latency(Vec<LatencyOutcome>),
    /// Miss-model rows, one per selected deadline chain/site.
    Dmm(Vec<DmmOutcome>),
    /// A packing witness.
    Witness(WitnessOutcome),
    /// Weakly-hard verdicts, one per selected deadline chain/site.
    WeaklyHard(Vec<MkOutcome>),
    /// An overload sensitivity bound.
    Sensitivity(SensitivityOutcome),
    /// End-to-end path bounds.
    Path(PathOutcome),
    /// The full batch pipeline outcome.
    Full(SystemOutcome),
    /// Cache statistics and service counters.
    Stats(StatsOutcome),
    /// A store-put receipt.
    StorePut(StorePutOutcome),
    /// A delta re-analysis of a stored system.
    StoreAnalyze(StoreAnalyzeOutcome),
    /// Empirical Monte Carlo miss rates.
    Simulate(SimulateOutcome),
}

/// The response to one [`crate::AnalysisRequest`]: either the answered
/// queries (in request order) or the first error.
///
/// # Examples
///
/// ```
/// use twca_api::{AnalysisRequest, Query, Session};
///
/// let session = Session::new();
/// let request = AnalysisRequest::for_system(
///     "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }",
/// )
/// .with_id("doc")
/// .with_query(Query::Latency { chain: None });
/// let response = session.analyze(&request);
/// assert_eq!(response.id.as_deref(), Some("doc"));
/// assert!(response.outcome.is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisResponse {
    /// The schema version of the answering build.
    pub v: u64,
    /// The request's correlation id, echoed back.
    pub id: Option<String>,
    /// Answers in request order, or the first failure.
    pub outcome: Result<Vec<QueryOutcome>, ApiError>,
}

impl AnalysisResponse {
    /// A successful response.
    pub fn ok(id: Option<String>, outcomes: Vec<QueryOutcome>) -> AnalysisResponse {
        AnalysisResponse {
            v: SCHEMA_VERSION,
            id,
            outcome: Ok(outcomes),
        }
    }

    /// A failed response.
    pub fn error(id: Option<String>, error: ApiError) -> AnalysisResponse {
        AnalysisResponse {
            v: SCHEMA_VERSION,
            id,
            outcome: Err(error),
        }
    }

    /// Serializes the response as its wire object.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![("v".into(), Json::UInt(self.v))];
        if let Some(id) = &self.id {
            members.push(("id".into(), Json::str(id)));
        }
        match &self.outcome {
            Ok(outcomes) => members.push((
                "ok".into(),
                Json::Array(outcomes.iter().map(outcome_to_json).collect()),
            )),
            Err(error) => members.push(("error".into(), error.to_json())),
        }
        Json::Object(members)
    }

    /// Parses the wire object back.
    ///
    /// # Errors
    ///
    /// [`ApiError`] for structural problems.
    pub fn from_json(value: &Json) -> Result<AnalysisResponse, ApiError> {
        let v = u64_field(value, "v")?;
        let id = match value.get("id") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(ApiError::request("`id` must be a string")),
        };
        let outcome = match (value.get("ok"), value.get("error")) {
            (Some(Json::Array(items)), None) => Ok(items
                .iter()
                .map(outcome_from_json)
                .collect::<Result<Vec<_>, _>>()?),
            (None, Some(error)) => Err(ApiError::from_json(error)?),
            _ => {
                return Err(ApiError::request(
                    "a response carries exactly one of `ok` and `error`",
                ))
            }
        };
        Ok(AnalysisResponse { v, id, outcome })
    }
}

fn dmm_point_to_json(point: &DmmPoint) -> Json {
    Json::Object(vec![
        ("k".into(), Json::UInt(point.k)),
        ("bound".into(), Json::UInt(point.bound)),
        ("informative".into(), Json::Bool(point.informative)),
    ])
}

fn dmm_point_from_json(value: &Json) -> Result<DmmPoint, ApiError> {
    Ok(DmmPoint {
        k: u64_field(value, "k")?,
        bound: u64_field(value, "bound")?,
        informative: bool_field(value, "informative")?,
    })
}

fn u64_field(value: &Json, key: &str) -> Result<u64, ApiError> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ApiError::request(format!("missing integer field `{key}`")))
}

fn bool_field(value: &Json, key: &str) -> Result<bool, ApiError> {
    value
        .get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| ApiError::request(format!("missing boolean field `{key}`")))
}

fn str_field(value: &Json, key: &str) -> Result<String, ApiError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ApiError::request(format!("missing string field `{key}`")))
}

fn opt_u64_field(value: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::UInt(v)) => Ok(Some(*v)),
        Some(_) => Err(ApiError::request(format!(
            "field `{key}` must be an integer or null"
        ))),
    }
}

fn opt_str_field(value: &Json, key: &str) -> Result<Option<String>, ApiError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ApiError::request(format!(
            "field `{key}` must be a string or null"
        ))),
    }
}

fn latency_row_to_json(row: &LatencyOutcome) -> Json {
    Json::Object(vec![
        ("name".into(), Json::str(&row.name)),
        ("overload".into(), Json::Bool(row.overload)),
        ("deadline".into(), Json::opt_u64(row.deadline)),
        ("wcl".into(), Json::opt_u64(row.worst_case_latency)),
        ("typical_wcl".into(), Json::opt_u64(row.typical_latency)),
    ])
}

fn latency_row_from_json(value: &Json) -> Result<LatencyOutcome, ApiError> {
    Ok(LatencyOutcome {
        name: str_field(value, "name")?,
        overload: bool_field(value, "overload")?,
        deadline: opt_u64_field(value, "deadline")?,
        worst_case_latency: opt_u64_field(value, "wcl")?,
        typical_latency: opt_u64_field(value, "typical_wcl")?,
    })
}

fn dmm_row_to_json(row: &DmmOutcome) -> Json {
    let mut members = vec![
        ("name".into(), Json::str(&row.name)),
        (
            "points".into(),
            Json::Array(row.points.iter().map(dmm_point_to_json).collect()),
        ),
    ];
    if let Some(error) = &row.error {
        members.push(("error".into(), Json::str(error)));
    }
    Json::Object(members)
}

fn dmm_row_from_json(value: &Json) -> Result<DmmOutcome, ApiError> {
    Ok(DmmOutcome {
        name: str_field(value, "name")?,
        points: value
            .get("points")
            .and_then(Json::as_array)
            .ok_or_else(|| ApiError::request("dmm row needs a `points` array"))?
            .iter()
            .map(dmm_point_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        error: opt_str_field(value, "error")?,
    })
}

fn outcome_to_json(outcome: &QueryOutcome) -> Json {
    let (tag, body) = match outcome {
        QueryOutcome::Latency(rows) => (
            "latency",
            Json::Array(rows.iter().map(latency_row_to_json).collect()),
        ),
        QueryOutcome::Dmm(rows) => (
            "dmm",
            Json::Array(rows.iter().map(dmm_row_to_json).collect()),
        ),
        QueryOutcome::Witness(w) => (
            "witness",
            Json::Object(vec![
                ("name".into(), Json::str(&w.name)),
                ("k".into(), Json::UInt(w.k)),
                ("bound".into(), Json::UInt(w.bound)),
                ("has_witness".into(), Json::Bool(w.has_witness)),
                ("text".into(), Json::str(&w.text)),
            ]),
        ),
        QueryOutcome::WeaklyHard(rows) => (
            "weakly_hard",
            Json::Array(
                rows.iter()
                    .map(|row| {
                        Json::Object(vec![
                            ("name".into(), Json::str(&row.name)),
                            ("m".into(), Json::UInt(row.m)),
                            ("k".into(), Json::UInt(row.k)),
                            ("satisfied".into(), Json::Bool(row.satisfied)),
                        ])
                    })
                    .collect(),
            ),
        ),
        QueryOutcome::Sensitivity(s) => (
            "sensitivity",
            Json::Object(vec![
                ("name".into(), Json::str(&s.name)),
                ("m".into(), Json::UInt(s.m)),
                ("k".into(), Json::UInt(s.k)),
                ("max_percent".into(), Json::opt_u64(s.max_percent)),
            ]),
        ),
        QueryOutcome::Path(p) => (
            "path",
            Json::Object(vec![
                (
                    "hops".into(),
                    Json::Array(p.hops.iter().map(Json::str).collect()),
                ),
                ("latency".into(), Json::opt_u64(p.latency)),
                (
                    "composite_deadline".into(),
                    Json::opt_u64(p.composite_deadline),
                ),
                (
                    "points".into(),
                    Json::Array(p.points.iter().map(dmm_point_to_json).collect()),
                ),
            ]),
        ),
        QueryOutcome::Full(system) => ("full", system.to_json()),
        QueryOutcome::Stats(s) => ("stats", s.to_json()),
        QueryOutcome::StorePut(p) => (
            "store_put",
            Json::Object(vec![
                ("name".into(), Json::str(&p.name)),
                ("version".into(), Json::UInt(p.version)),
                ("resources_changed".into(), Json::UInt(p.resources_changed)),
                ("chains_changed".into(), Json::UInt(p.chains_changed)),
                ("tasks_changed".into(), Json::UInt(p.tasks_changed)),
                ("deduped".into(), Json::Bool(p.deduped)),
            ]),
        ),
        QueryOutcome::StoreAnalyze(a) => (
            "store_analyze",
            Json::Object(vec![
                ("name".into(), Json::str(&a.name)),
                ("version".into(), Json::UInt(a.version)),
                ("rows_analyzed".into(), Json::UInt(a.rows_analyzed)),
                ("memo_hits".into(), Json::UInt(a.memo_hits)),
                (
                    "latency".into(),
                    Json::Array(a.latency.iter().map(latency_row_to_json).collect()),
                ),
                (
                    "dmm".into(),
                    Json::Array(a.dmm.iter().map(dmm_row_to_json).collect()),
                ),
            ]),
        ),
        QueryOutcome::Simulate(s) => (
            "simulate",
            Json::Object(vec![
                ("runs".into(), Json::UInt(s.runs)),
                ("horizon".into(), Json::UInt(s.horizon)),
                ("seed".into(), Json::UInt(s.seed)),
                (
                    "chains".into(),
                    Json::Array(s.chains.iter().map(sim_row_to_json).collect()),
                ),
            ]),
        ),
    };
    Json::Object(vec![(tag.into(), body)])
}

fn sim_row_to_json(row: &SimChainOutcome) -> Json {
    Json::Object(vec![
        ("name".into(), Json::str(&row.name)),
        ("instances".into(), Json::UInt(row.instances)),
        ("misses".into(), Json::UInt(row.misses)),
        ("miss_rate_ppm".into(), Json::UInt(row.miss_rate_ppm)),
        ("ci_low_ppm".into(), Json::UInt(row.ci_low_ppm)),
        ("ci_high_ppm".into(), Json::UInt(row.ci_high_ppm)),
        ("max_latency".into(), Json::opt_u64(row.max_latency)),
    ])
}

fn sim_row_from_json(value: &Json) -> Result<SimChainOutcome, ApiError> {
    Ok(SimChainOutcome {
        name: str_field(value, "name")?,
        instances: u64_field(value, "instances")?,
        misses: u64_field(value, "misses")?,
        miss_rate_ppm: u64_field(value, "miss_rate_ppm")?,
        ci_low_ppm: u64_field(value, "ci_low_ppm")?,
        ci_high_ppm: u64_field(value, "ci_high_ppm")?,
        max_latency: opt_u64_field(value, "max_latency")?,
    })
}

fn outcome_from_json(value: &Json) -> Result<QueryOutcome, ApiError> {
    let obj = value
        .as_object()
        .ok_or_else(|| ApiError::request("each outcome must be an object"))?;
    if obj.len() != 1 {
        return Err(ApiError::request(
            "each outcome must be a single `{\"kind\": ...}` object",
        ));
    }
    let (tag, body) = &obj[0];
    Ok(match tag.as_str() {
        "latency" => QueryOutcome::Latency(
            body.as_array()
                .ok_or_else(|| ApiError::request("`latency` must be an array"))?
                .iter()
                .map(latency_row_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        "dmm" => QueryOutcome::Dmm(
            body.as_array()
                .ok_or_else(|| ApiError::request("`dmm` must be an array"))?
                .iter()
                .map(dmm_row_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        "witness" => QueryOutcome::Witness(WitnessOutcome {
            name: str_field(body, "name")?,
            k: u64_field(body, "k")?,
            bound: u64_field(body, "bound")?,
            has_witness: bool_field(body, "has_witness")?,
            text: str_field(body, "text")?,
        }),
        "weakly_hard" => QueryOutcome::WeaklyHard(
            body.as_array()
                .ok_or_else(|| ApiError::request("`weakly_hard` must be an array"))?
                .iter()
                .map(|row| {
                    Ok(MkOutcome {
                        name: str_field(row, "name")?,
                        m: u64_field(row, "m")?,
                        k: u64_field(row, "k")?,
                        satisfied: bool_field(row, "satisfied")?,
                    })
                })
                .collect::<Result<Vec<_>, ApiError>>()?,
        ),
        "sensitivity" => QueryOutcome::Sensitivity(SensitivityOutcome {
            name: str_field(body, "name")?,
            m: u64_field(body, "m")?,
            k: u64_field(body, "k")?,
            max_percent: opt_u64_field(body, "max_percent")?,
        }),
        "path" => QueryOutcome::Path(PathOutcome {
            hops: body
                .get("hops")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::request("`path` needs a `hops` array"))?
                .iter()
                .map(|h| {
                    h.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| ApiError::request("each hop must be a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            latency: opt_u64_field(body, "latency")?,
            composite_deadline: opt_u64_field(body, "composite_deadline")?,
            points: body
                .get("points")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::request("`path` needs a `points` array"))?
                .iter()
                .map(dmm_point_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        }),
        "full" => QueryOutcome::Full(SystemOutcome::from_json(body)?),
        "stats" => QueryOutcome::Stats(StatsOutcome::from_json(body)?),
        "store_put" => QueryOutcome::StorePut(StorePutOutcome {
            name: str_field(body, "name")?,
            version: u64_field(body, "version")?,
            resources_changed: u64_field(body, "resources_changed")?,
            chains_changed: u64_field(body, "chains_changed")?,
            tasks_changed: u64_field(body, "tasks_changed")?,
            deduped: body.get("deduped").and_then(Json::as_bool).unwrap_or(false),
        }),
        "store_analyze" => QueryOutcome::StoreAnalyze(StoreAnalyzeOutcome {
            name: str_field(body, "name")?,
            version: u64_field(body, "version")?,
            rows_analyzed: u64_field(body, "rows_analyzed")?,
            memo_hits: u64_field(body, "memo_hits")?,
            latency: body
                .get("latency")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::request("`store_analyze` needs a `latency` array"))?
                .iter()
                .map(latency_row_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            dmm: body
                .get("dmm")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::request("`store_analyze` needs a `dmm` array"))?
                .iter()
                .map(dmm_row_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        }),
        "simulate" => QueryOutcome::Simulate(SimulateOutcome {
            runs: u64_field(body, "runs")?,
            horizon: u64_field(body, "horizon")?,
            seed: u64_field(body, "seed")?,
            chains: body
                .get("chains")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::request("`simulate` needs a `chains` array"))?
                .iter()
                .map(sim_row_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        }),
        other => {
            return Err(ApiError::request(format!("unknown outcome kind `{other}`")));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ApiErrorKind;

    fn sample_chain_outcome() -> ChainOutcome {
        ChainOutcome {
            name: "sigma_c".into(),
            deadline: Some(200),
            overload: false,
            worst_case_latency: Some(331),
            typical_latency: Some(166),
            miss_models: vec![
                DmmPoint {
                    k: 10,
                    bound: 5,
                    informative: true,
                },
                DmmPoint {
                    k: 1,
                    bound: 1,
                    informative: false,
                },
            ],
            error: None,
        }
    }

    #[test]
    fn chain_outcome_matches_the_engine_wire_format() {
        let json = sample_chain_outcome().to_json().to_string();
        assert_eq!(
            json,
            "{\"name\": \"sigma_c\", \"overload\": false, \"deadline\": 200, \
             \"wcl\": 331, \"typical_wcl\": 166, \"dmm\": [{\"k\": 10, \"bound\": 5, \
             \"informative\": true}, {\"k\": 1, \"bound\": 1, \"informative\": false}]}"
        );
    }

    #[test]
    fn chain_outcome_round_trips() {
        let mut outcome = sample_chain_outcome();
        outcome.error = Some("boom".into());
        outcome.worst_case_latency = None;
        let reparsed = ChainOutcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(outcome, reparsed);
    }

    #[test]
    fn responses_round_trip_both_arms() {
        let ok = AnalysisResponse::ok(
            Some("r1".into()),
            vec![
                QueryOutcome::Latency(vec![LatencyOutcome {
                    name: "c".into(),
                    deadline: Some(100),
                    overload: false,
                    worst_case_latency: Some(35),
                    typical_latency: None,
                }]),
                QueryOutcome::Full(SystemOutcome {
                    index: 0,
                    chains: vec![sample_chain_outcome()],
                }),
                QueryOutcome::Sensitivity(SensitivityOutcome {
                    name: "c".into(),
                    m: 1,
                    k: 10,
                    max_percent: None,
                }),
                QueryOutcome::Stats(StatsOutcome {
                    cache_hits: 12,
                    cache_misses: 3,
                    cache_entries: 3,
                    evictions: 7,
                    resident_entries: 3,
                    resident_bytes_est: 4096,
                    served: 15,
                    rejected: 1,
                    in_flight: 2,
                    panics: 1,
                    journal_appends: 9,
                    journal_bytes: 1234,
                    journal_syncs: 9,
                    snapshots_written: 1,
                    recovered_records: 4,
                    truncated_bytes: 17,
                    open_connections: 3,
                    reaped: 2,
                    timeouts: 1,
                    resets: 5,
                    slow_consumers: 1,
                    queue_depth_peak: 42,
                }),
                QueryOutcome::StorePut(StorePutOutcome {
                    name: "plant".into(),
                    version: 4,
                    resources_changed: 1,
                    chains_changed: 2,
                    tasks_changed: 3,
                    deduped: true,
                }),
                QueryOutcome::StoreAnalyze(StoreAnalyzeOutcome {
                    name: "plant".into(),
                    version: 4,
                    rows_analyzed: 2,
                    memo_hits: 98,
                    latency: vec![LatencyOutcome {
                        name: "r0/c".into(),
                        deadline: Some(100),
                        overload: false,
                        worst_case_latency: Some(35),
                        typical_latency: None,
                    }],
                    dmm: vec![DmmOutcome {
                        name: "r0/c".into(),
                        points: vec![DmmPoint {
                            k: 10,
                            bound: 2,
                            informative: true,
                        }],
                        error: None,
                    }],
                }),
                QueryOutcome::Simulate(SimulateOutcome {
                    runs: 100,
                    horizon: 50_000,
                    seed: 42,
                    chains: vec![SimChainOutcome {
                        name: "c".into(),
                        instances: 5000,
                        misses: 125,
                        miss_rate_ppm: 25_000,
                        ci_low_ppm: 21_000,
                        ci_high_ppm: 29_600,
                        max_latency: Some(180),
                    }],
                }),
            ],
        );
        let reparsed =
            AnalysisResponse::from_json(&Json::parse(&ok.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(ok, reparsed);

        let err = AnalysisResponse::error(
            None,
            ApiError::new(ApiErrorKind::Parse, "line 3: expected `{`"),
        );
        let reparsed =
            AnalysisResponse::from_json(&Json::parse(&err.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(err, reparsed);
    }

    #[test]
    fn malformed_outcomes_are_rejected() {
        for bad in [
            r#"{"v": 1}"#,
            r#"{"v": 1, "ok": [], "error": {"kind": "io", "message": "x"}}"#,
            r#"{"v": 1, "ok": [{"bogus": []}]}"#,
        ] {
            let value = Json::parse(bad).unwrap();
            assert!(AnalysisResponse::from_json(&value).is_err(), "{bad}");
        }
    }
}
