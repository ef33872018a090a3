//! The typed response side of the wire schema.
//!
//! Every outcome type is defined in one `wire!` block that reads as the
//! response schema: each field sits beside its wire key, in wire order,
//! and each [`QueryOutcome`] variant beside its kind tag. The macro
//! derives both directions from that one declaration through a
//! crate-private `Wire` trait over the schema's field types (`u64`,
//! `usize`, `bool`, `String`, `Option<u64>` written as `null`,
//! `Option<String>` left out when absent, and `Vec<T>`), so an encoder
//! and its decoder cannot drift apart. Only the [`AnalysisResponse`]
//! envelope (`v`, `id`, `ok` | `error`) and the [`StatsOutcome`] field
//! table are written out by hand.
//!
//! `Wire` encodes by writing bytes, not by building a tree: each value
//! appends its canonical JSON (`"key": value`, `, ` between members,
//! strings escaped in place) to one `String`, and
//! [`AnalysisResponse::to_line`] is the whole response line `twca
//! serve` sends. The public `to_json` methods read those bytes back
//! into a [`Json`] value, whose rendering is the same line.
//!
//! [`ChainOutcome`] and [`SystemOutcome`] double as the batch records
//! of [`crate::batch`]: its `ChainVerdict`/`SystemVerdict` are aliases
//! of these types, and its batch JSON writes each chain with the same
//! encoder, one serializer for both the streaming and the batch
//! surface.

use crate::error::ApiError;
use crate::json::{push_string, push_u64, Json, ObjectWriter};
use crate::metrics::{Counter, Metrics};
use crate::request::SCHEMA_VERSION;
use twca_chains::{AnalysisContext, AnalysisOptions, ChainReport, DmmResult, DmmSweep};
use twca_curves::Time;
use twca_dist::{DistResults, DistributedSystem, SiteId};
use twca_model::ChainId;

/// A field type of the response schema: how one value is written as a
/// JSON member and read back.
pub(crate) trait Wire: Sized {
    /// Appends the member's value to `out` as canonical JSON.
    fn encode(&self, out: &mut String);

    /// Whether the member is left out of its object (only an absent
    /// optional string is).
    fn omitted(&self) -> bool {
        false
    }

    /// Reads the value of member `key` back; `value` is `None` when
    /// the member is absent.
    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError>;
}

/// The decode error of member `key`, which must hold `what`.
fn mismatch(key: &str, what: &str) -> ApiError {
    ApiError::request(format!("`{key}` must be {what}"))
}

impl Wire for u64 {
    fn encode(&self, out: &mut String) {
        push_u64(out, *self);
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        value
            .and_then(Json::as_u64)
            .ok_or_else(|| mismatch(key, "an integer"))
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut String) {
        push_u64(out, *self as u64);
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        u64::decode(value, key).map(|v| v as usize)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        value
            .and_then(Json::as_bool)
            .ok_or_else(|| mismatch(key, "a boolean"))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut String) {
        push_string(out, self);
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        value
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| mismatch(key, "a string"))
    }
}

/// An optional number is always written, as `null` when absent.
impl Wire for Option<u64> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        nullable(value, key)
    }
}

/// An optional string is left out when absent.
impl Wire for Option<String> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(s) => s.encode(out),
            None => out.push_str("null"),
        }
    }

    fn omitted(&self) -> bool {
        self.is_none()
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        nullable(value, key)
    }
}

/// Reads an optional member: absent and `null` are both `None`.
fn nullable<T: Wire>(value: Option<&Json>, key: &str) -> Result<Option<T>, ApiError> {
    match value {
        None | Some(Json::Null) => Ok(None),
        Some(_) => T::decode(value, key).map(Some),
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            item.encode(out);
        }
        out.push(']');
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        value
            .and_then(Json::as_array)
            .ok_or_else(|| mismatch(key, "an array"))?
            .iter()
            .map(|item| T::decode(Some(item), key))
            .collect()
    }
}

/// An error is `{"kind": ..., "message": ...}`.
impl Wire for ApiError {
    fn encode(&self, out: &mut String) {
        let mut object = ObjectWriter::open(out);
        push_string(object.member("kind"), self.kind.as_str());
        self.message.encode(object.member("message"));
        object.close();
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        ApiError::from_json(value.ok_or_else(|| mismatch(key, "an object"))?)
    }
}

/// The object behind member `key`.
fn object<'a>(value: Option<&'a Json>, key: &str) -> Result<&'a Json, ApiError> {
    value
        .filter(|v| v.as_object().is_some())
        .ok_or_else(|| mismatch(key, "an object"))
}

/// Reads member `key` of `body`. A declaration that gives `absent` (a
/// field added after older responses were recorded) reads a missing
/// member as that value; a present member must still have its type.
fn member<T: Wire>(body: &Json, key: &str, absent: Option<T>) -> Result<T, ApiError> {
    match (body.get(key), absent) {
        (None, Some(value)) => Ok(value),
        (value, _) => T::decode(value, key),
    }
}

/// The wire object of `value`, read back from its written bytes.
pub(crate) fn written_json<T: Wire>(value: &T) -> Json {
    let mut line = String::new();
    value.encode(&mut line);
    Json::parse(&line).expect("the line writer emits valid JSON")
}

/// Defines response types and their wire form in one place: each field
/// or variant carries its wire key, and the [`Wire`] impl derived from
/// that list is the type's only encoder and decoder.
///
/// * A struct is an object whose members are its fields, in field
///   (wire) order: `pub field: Type => "key"`. `=> "key" or default`
///   reads a missing member as `default`.
/// * An enum of one-field variants is a one-member `{"tag": body}`
///   object: `Variant(Body) => "tag"`.
macro_rules! wire {
    () => {};
    (
        $(#[$meta:meta])*
        pub struct $ty:ident {
            $($(#[$doc:meta])* pub $field:ident: $fty:ty => $key:literal $(or $absent:expr)?,)+
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        pub struct $ty {
            $($(#[$doc])* pub $field: $fty,)+
        }

        impl Wire for $ty {
            fn encode(&self, out: &mut String) {
                let mut object = ObjectWriter::open(out);
                $(if !self.$field.omitted() {
                    self.$field.encode(object.member($key));
                })+
                object.close();
            }

            fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
                let body = object(value, key)?;
                Ok($ty {
                    $($field: member(body, $key, None $(.or(Some($absent)))?)?,)+
                })
            }
        }

        wire!($($rest)*);
    };
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$doc:meta])* $variant:ident($body:ty) => $tag:literal,)+
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        pub enum $ty {
            $($(#[$doc])* $variant($body),)+
        }

        impl Wire for $ty {
            fn encode(&self, out: &mut String) {
                let mut object = ObjectWriter::open(out);
                match self {
                    $($ty::$variant(body) => body.encode(object.member($tag)),)+
                }
                object.close();
            }

            fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
                let Some([(tag, body)]) = value.and_then(Json::as_object) else {
                    return Err(mismatch(key, "a one-member `{\"kind\": ...}` object"));
                };
                match tag.as_str() {
                    $($tag => Ok($ty::$variant(Wire::decode(Some(body), $tag)?)),)+
                    other => Err(ApiError::request(format!("unknown outcome kind `{other}`"))),
                }
            }
        }

        wire!($($rest)*);
    };
}

wire! {
    /// One `dmm(k)` point on the wire: the window length, the miss bound,
    /// and whether the bound beats the trivial `k` fallback. The richer
    /// diagnostic fields of [`DmmResult`] (budgets, packing internals) are
    /// deliberately not part of the schema — ask for a witness instead.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DmmPoint {
        /// The window length `k`.
        pub k: u64 => "k",
        /// At most `bound` of any `k` consecutive activations miss.
        pub bound: u64 => "bound",
        /// Whether the bound is better than the trivial `k` fallback.
        pub informative: bool => "informative",
    }

    /// The analysis outcome of one chain (uniprocessor) or one site
    /// (distributed) under the full batch pipeline.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ChainOutcome {
        /// Chain name (`resource/chain` for distributed sites).
        pub name: String => "name",
        /// Whether the chain is a rare overload source.
        pub overload: bool => "overload",
        /// Declared end-to-end deadline.
        pub deadline: Option<Time> => "deadline",
        /// Worst-case latency with overload included (Theorem 2); `None`
        /// when the busy window diverges.
        pub worst_case_latency: Option<Time> => "wcl",
        /// Worst-case latency of the typical (overload-free) system.
        pub typical_latency: Option<Time> => "typical_wcl",
        /// Miss models at the requested window lengths, in request order;
        /// empty for chains without a deadline.
        pub miss_models: Vec<DmmPoint> => "dmm",
        /// Analysis error, if the miss-model preparation failed.
        pub error: Option<String> => "error",
    }

    /// The analysis outcome of one system under the full batch pipeline.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SystemOutcome {
        /// Position of the system in its batch (0 for single-system
        /// requests).
        pub index: usize => "index",
        /// Per-chain outcomes, in chain order.
        pub chains: Vec<ChainOutcome> => "chains",
    }

    /// One latency row of a [`QueryOutcome::Latency`] answer.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LatencyOutcome {
        /// Chain or site name.
        pub name: String => "name",
        /// Whether the chain is an overload source.
        pub overload: bool => "overload",
        /// Declared deadline.
        pub deadline: Option<Time> => "deadline",
        /// Worst-case latency; `None` when divergent.
        pub worst_case_latency: Option<Time> => "wcl",
        /// Typical-system latency; `None` when divergent or not computed
        /// (distributed sites).
        pub typical_latency: Option<Time> => "typical_wcl",
    }

    /// One miss-model row of a [`QueryOutcome::Dmm`] answer.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DmmOutcome {
        /// Chain or site name.
        pub name: String => "name",
        /// `dmm(k)` points in request order.
        pub points: Vec<DmmPoint> => "points",
        /// Per-chain analysis error, if the sweep failed.
        pub error: Option<String> => "error",
    }

    /// One verdict row of a [`QueryOutcome::WeaklyHard`] answer.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MkOutcome {
        /// Chain or site name.
        pub name: String => "name",
        /// Tolerated misses.
        pub m: u64 => "m",
        /// Window length.
        pub k: u64 => "k",
        /// Whether `dmm(k) ≤ m` is proven.
        pub satisfied: bool => "satisfied",
    }

    /// The answer to a [`QueryOutcome::Witness`] query.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WitnessOutcome {
        /// Chain or site name.
        pub name: String => "name",
        /// Window length.
        pub k: u64 => "k",
        /// The witnessed (or computed) miss bound.
        pub bound: u64 => "bound",
        /// Whether a non-trivial packing witness exists; when `false`,
        /// `text` carries the plain bound.
        pub has_witness: bool => "has_witness",
        /// Human-readable derivation.
        pub text: String => "text",
    }

    /// The answer to a [`QueryOutcome::Sensitivity`] query.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SensitivityOutcome {
        /// Chain or site name.
        pub name: String => "name",
        /// Tolerated misses.
        pub m: u64 => "m",
        /// Window length.
        pub k: u64 => "k",
        /// Largest admissible overload percentage; `None` when even 0%
        /// violates the constraint.
        pub max_percent: Option<u64> => "max_percent",
    }

    /// The answer to a [`QueryOutcome::Path`] query.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PathOutcome {
        /// The hops, as `resource/chain` names.
        pub hops: Vec<String> => "hops",
        /// End-to-end latency bound.
        pub latency: Option<Time> => "latency",
        /// Composite deadline `Σ D_i`.
        pub composite_deadline: Option<Time> => "composite_deadline",
        /// End-to-end miss-model points.
        pub points: Vec<DmmPoint> => "points",
    }

    /// One empirical miss-rate row of a [`QueryOutcome::Simulate`] answer.
    ///
    /// All rates are carried as parts-per-million integers so the wire
    /// schema stays `Eq`-comparable and bit-exact across platforms.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SimChainOutcome {
        /// Chain name.
        pub name: String => "name",
        /// Completed instances across all runs.
        pub instances: u64 => "instances",
        /// Deadline misses across all runs.
        pub misses: u64 => "misses",
        /// Empirical miss rate in parts per million.
        pub miss_rate_ppm: u64 => "miss_rate_ppm",
        /// Lower end of the 95% Wilson confidence interval, in ppm.
        pub ci_low_ppm: u64 => "ci_low_ppm",
        /// Upper end of the 95% Wilson confidence interval, in ppm.
        pub ci_high_ppm: u64 => "ci_high_ppm",
        /// Largest observed latency; `None` when nothing completed.
        pub max_latency: Option<Time> => "max_latency",
    }

    /// The answer to a [`QueryOutcome::Simulate`] query.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SimulateOutcome {
        /// Number of simulation runs pooled into the report.
        pub runs: u64 => "runs",
        /// Horizon of each run, in time units.
        pub horizon: u64 => "horizon",
        /// Base RNG seed the report is deterministic in.
        pub seed: u64 => "seed",
        /// Per-chain empirical rows, one per selected deadline chain.
        pub chains: Vec<SimChainOutcome> => "chains",
    }

    /// The answer to a [`crate::Query::StorePut`]: the version now current
    /// under the name and the diff against the previous version.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StorePutOutcome {
        /// The entry name.
        pub name: String => "name",
        /// The version just stored (1 for a first put).
        pub version: u64 => "version",
        /// Resources with any changed chain or moved incident link.
        pub resources_changed: u64 => "resources_changed",
        /// Chains added, removed, or edited.
        pub chains_changed: u64 => "chains_changed",
        /// Tasks added, removed, or edited.
        pub tasks_changed: u64 => "tasks_changed",
        /// Whether the put was answered from the store's dedup ledger
        /// instead of being applied again: the request carried a `dedup`
        /// id that had already been acknowledged, so this receipt repeats
        /// the original one (at-most-once apply). Receipts recorded
        /// before the dedup ledger existed carry no `deduped`.
        pub deduped: bool => "deduped" or false,
    }

    /// The answer to a [`crate::Query::StoreAnalyze`]: per-chain bounds of
    /// the stored system's current version plus the delta-re-analysis
    /// accounting (how many per-resource rows were recomputed vs. answered
    /// from the entry's warm memo).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StoreAnalyzeOutcome {
        /// The entry name.
        pub name: String => "name",
        /// The analyzed version.
        pub version: u64 => "version",
        /// Per-resource holistic rows recomputed by this analysis
        /// (0 for uniprocessor entries, which memoize at a finer grain in
        /// the session cache).
        pub rows_analyzed: u64 => "rows_analyzed",
        /// Per-resource holistic rows answered from the entry's warm memo.
        pub memo_hits: u64 => "memo_hits",
        /// Latency rows, one per chain/site.
        pub latency: Vec<LatencyOutcome> => "latency",
        /// Miss-model rows, one per deadline chain/site.
        pub dmm: Vec<DmmOutcome> => "dmm",
    }

    /// One answered query, mirroring [`crate::Query`] case by case.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum QueryOutcome {
        /// Latency rows, one per selected chain/site.
        Latency(Vec<LatencyOutcome>) => "latency",
        /// Miss-model rows, one per selected deadline chain/site.
        Dmm(Vec<DmmOutcome>) => "dmm",
        /// A packing witness.
        Witness(WitnessOutcome) => "witness",
        /// Weakly-hard verdicts, one per selected deadline chain/site.
        WeaklyHard(Vec<MkOutcome>) => "weakly_hard",
        /// An overload sensitivity bound.
        Sensitivity(SensitivityOutcome) => "sensitivity",
        /// End-to-end path bounds.
        Path(PathOutcome) => "path",
        /// The full batch pipeline outcome.
        Full(SystemOutcome) => "full",
        /// Cache statistics and service counters.
        Stats(StatsOutcome) => "stats",
        /// A store-put receipt.
        StorePut(StorePutOutcome) => "store_put",
        /// A delta re-analysis of a stored system.
        StoreAnalyze(StoreAnalyzeOutcome) => "store_analyze",
        /// Empirical Monte Carlo miss rates.
        Simulate(SimulateOutcome) => "simulate",
    }
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

impl ChainOutcome {
    /// Whether the chain provably never misses its deadline.
    pub fn schedulable(&self) -> Option<bool> {
        Some(self.worst_case_latency? <= self.deadline?)
    }

    /// The outcome's wire object (also the engine's per-chain batch
    /// JSON), read back from its written bytes.
    pub fn to_json(&self) -> Json {
        written_json(self)
    }

    /// Parses the wire object back.
    ///
    /// # Errors
    ///
    /// [`ApiError`] for structural problems.
    pub fn from_json(value: &Json) -> Result<ChainOutcome, ApiError> {
        ChainOutcome::decode(Some(value), "chain outcome")
    }
}

impl SystemOutcome {
    /// Looks up a chain outcome by name.
    pub fn chain(&self, name: &str) -> Option<&ChainOutcome> {
        self.chains.iter().find(|c| c.name == name)
    }

    /// The outcome's wire object, read back from its written bytes.
    pub fn to_json(&self) -> Json {
        written_json(self)
    }

    /// Parses the wire object back.
    ///
    /// # Errors
    ///
    /// [`ApiError`] for structural problems.
    pub fn from_json(value: &Json) -> Result<SystemOutcome, ApiError> {
        SystemOutcome::decode(Some(value), "system outcome")
    }
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
}

impl Wire for StatsOutcome {
    fn encode(&self, out: &mut String) {
        let mut object = ObjectWriter::open(out);
        for (name, value) in self.fields() {
            value.encode(object.member(name));
        }
        object.close();
    }

    /// The edge counters (from [`Counter::OpenConnections`] on) arrived
    /// after v1 first shipped; their absence (or `null`) reads as zero
    /// so older recorded responses still parse.
    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ApiError> {
        let body = object(value, key)?;
        let optional_from = CACHE_FIELDS + Counter::OpenConnections as usize;
        let mut stats = StatsOutcome::default();
        for (index, (name, slot)) in STATS_FIELDS.iter().enumerate() {
            *slot(&mut stats) = if index < optional_from {
                u64::decode(body.get(name), name)?
            } else {
                Option::<u64>::decode(body.get(name), name)?.unwrap_or(0)
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

    /// The response as one wire line (without its newline): canonical
    /// JSON written straight into one `String`, the bytes `twca serve`
    /// sends.
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        let mut object = ObjectWriter::open(&mut line);
        self.v.encode(object.member("v"));
        if let Some(id) = &self.id {
            id.encode(object.member("id"));
        }
        match &self.outcome {
            Ok(outcomes) => outcomes.encode(object.member("ok")),
            Err(error) => error.encode(object.member("error")),
        }
        object.close();
        line
    }

    /// The response's wire object, read back from [`Self::to_line`];
    /// its `to_string()` is that line.
    pub fn to_json(&self) -> Json {
        Json::parse(&self.to_line()).expect("the line writer emits valid JSON")
    }

    /// Parses the wire object back.
    ///
    /// # Errors
    ///
    /// [`ApiError`] for structural problems.
    pub fn from_json(value: &Json) -> Result<AnalysisResponse, ApiError> {
        let v = u64::decode(value.get("v"), "v")?;
        let id = match value.get("id") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(ApiError::request("`id` must be a string")),
        };
        let outcome = match (value.get("ok"), value.get("error")) {
            (Some(ok), None) => Ok(Wire::decode(Some(ok), "ok")?),
            (None, Some(error)) => Err(ApiError::decode(Some(error), "error")?),
            _ => {
                return Err(ApiError::request(
                    "a response carries exactly one of `ok` and `error`",
                ))
            }
        };
        Ok(AnalysisResponse { v, id, outcome })
    }
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
    fn present_fields_of_the_wrong_type_are_errors() {
        let put = r#"{"name": "g", "version": 1, "resources_changed": 0, "chains_changed": 0, "tasks_changed": 0"#;
        for (body, message) in [
            (
                format!(r#"{{"store_put": {put}, "deduped": "yes"}}}}"#),
                "`deduped` must be a boolean",
            ),
            (
                format!(r#"{{"store_put": {put}, "deduped": null}}}}"#),
                "`deduped` must be a boolean",
            ),
            (
                r#"{"latency": [{"name": "c", "overload": false, "deadline": 5, "wcl": "x", "typical_wcl": null}]}"#.into(),
                "`wcl` must be an integer",
            ),
            (
                r#"{"dmm": [{"name": "c", "points": [], "error": 5}]}"#.into(),
                "`error` must be a string",
            ),
            (
                r#"{"dmm": [{"name": "c", "points": [{"k": 1, "bound": true, "informative": true}]}]}"#.into(),
                "`bound` must be an integer",
            ),
            (
                r#"{"path": {"hops": "a/b", "latency": null, "composite_deadline": null, "points": []}}"#.into(),
                "`hops` must be an array",
            ),
        ] {
            let line = format!(r#"{{"v": 1, "ok": [{body}]}}"#);
            let error = AnalysisResponse::from_json(&Json::parse(&line).unwrap()).unwrap_err();
            assert_eq!(error.message, message, "{line}");
        }
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
