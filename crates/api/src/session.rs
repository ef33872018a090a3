//! The long-lived analysis session: shared cache, default options,
//! per-request budget and cancellation.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::analyze::{Analyze, ChainBackend, DistBackend, QueryEnv};
use crate::error::ApiError;
use crate::metrics::Metrics;
use crate::request::{AnalysisRequest, Query, RequestOptions, Target};
use crate::response::{
    AnalysisResponse, ChainOutcome, DmmOutcome, LatencyOutcome, QueryOutcome, StatsOutcome,
    StoreAnalyzeOutcome, StorePutOutcome, SystemOutcome,
};
use crate::store::{StoredBody, SystemStore};
use twca_chains::{AnalysisCache, AnalysisContext, AnalysisOptions, CacheStats, DmmSweep};
use twca_dist::{analyze_with_memo, DistributedSystemBuilder};
use twca_model::{parse_system, System};

/// A shareable cancellation flag; cloning shares the flag.
///
/// # Examples
///
/// ```
/// use twca_api::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// token.cancel();
/// assert!(observer.is_canceled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncanceled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag; every in-flight request holding a clone fails
    /// with [`ApiError::canceled`] at its next work unit.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-request work accounting: an optional budget of *query units*
/// (roughly one unit per chain-level analysis, miss-model point, or
/// equivalent) and an optional cancellation token, checked together
/// before every unit of work.
#[derive(Debug)]
pub struct RequestControl {
    cancel: Option<CancelToken>,
    remaining: Option<Cell<u64>>,
    limit: u64,
}

impl RequestControl {
    /// No budget, no cancellation.
    pub fn unlimited() -> RequestControl {
        RequestControl {
            cancel: None,
            remaining: None,
            limit: 0,
        }
    }

    /// A control with a work budget of `units`.
    pub fn with_budget(units: u64) -> RequestControl {
        RequestControl {
            cancel: None,
            remaining: Some(Cell::new(units)),
            limit: units,
        }
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> RequestControl {
        self.cancel = Some(token);
        self
    }

    /// Charges `units` of work.
    ///
    /// # Errors
    ///
    /// [`ApiError::canceled`] when the token was raised,
    /// [`ApiError::budget`] when the budget cannot cover the charge.
    pub fn charge(&self, units: u64) -> Result<(), ApiError> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_canceled() {
                return Err(ApiError::canceled());
            }
        }
        if let Some(remaining) = &self.remaining {
            let left = remaining.get();
            if left < units {
                return Err(ApiError::budget(self.limit));
            }
            remaining.set(left - units);
        }
        Ok(())
    }
}

/// The long-lived façade every workload enters through: one shared
/// [`AnalysisCache`], default [`AnalysisOptions`], and the dispatch
/// from [`AnalysisRequest`] to the chain and distributed backends.
///
/// Sessions are cheap to clone (the cache is shared through an `Arc`)
/// and safe to share across threads; [`crate::batch::BatchEngine`] is a
/// thread fan-out over exactly this type.
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
/// .with_query(Query::Dmm { chain: None, ks: vec![1, 10] });
/// let response = session.analyze(&request);
/// let outcomes = response.outcome.unwrap();
/// assert_eq!(outcomes.len(), 1);
/// // A second identical request is answered from the warm cache.
/// let _ = session.analyze(&request);
/// assert!(session.cache_stats().hits > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    cache: Arc<AnalysisCache>,
    store: Arc<SystemStore>,
    options: AnalysisOptions,
    max_sweeps: usize,
    default_budget: Option<u64>,
    metrics: Arc<Metrics>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session with default options and a fresh cache.
    pub fn new() -> Session {
        Session {
            cache: Arc::new(AnalysisCache::new()),
            store: Arc::new(SystemStore::new()),
            options: AnalysisOptions::default(),
            max_sweeps: twca_dist::DistOptions::default().max_sweeps,
            default_budget: None,
            metrics: Arc::new(Metrics::new()),
        }
    }

    /// Shares an existing cache (e.g. across sessions or engines).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<AnalysisCache>) -> Session {
        self.cache = cache;
        self
    }

    /// Shares an existing system store (e.g. across sessions of one
    /// serving process). Clones of a session already share the store.
    #[must_use]
    pub fn with_store(mut self, store: Arc<SystemStore>) -> Session {
        self.store = store;
        self
    }

    /// Replaces the default per-chain analysis options.
    #[must_use]
    pub fn with_options(mut self, options: AnalysisOptions) -> Session {
        self.options = options;
        self
    }

    /// Replaces the default holistic sweep limit for distributed
    /// targets.
    #[must_use]
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Session {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Sets a default work budget applied to requests that do not
    /// state their own.
    #[must_use]
    pub fn with_default_budget(mut self, units: u64) -> Session {
        self.default_budget = Some(units);
        self
    }

    /// The shared cache handle.
    pub fn cache(&self) -> Arc<AnalysisCache> {
        Arc::clone(&self.cache)
    }

    /// The shared system store handle.
    pub fn store(&self) -> Arc<SystemStore> {
        Arc::clone(&self.store)
    }

    /// The session's counter registry, shared by its clones: a worker
    /// pool given this session records into it.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Cache statistics plus the session's and its store's counter
    /// registries, as answered to a wire `stats` query.
    pub fn stats_outcome(&self) -> StatsOutcome {
        let cache = self.cache_stats();
        let mut stats = StatsOutcome {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries as u64,
            evictions: cache.evictions,
            resident_entries: cache.entries as u64,
            resident_bytes_est: cache.resident_bytes_est,
            ..StatsOutcome::default()
        };
        stats.add_registry(&self.metrics);
        stats.add_registry(self.store.metrics());
        stats
    }

    /// Hit/miss counters of the shared cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The session's default analysis options.
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// Answers a request. Never panics on malformed input: every
    /// failure becomes the `error` arm of the response.
    pub fn analyze(&self, request: &AnalysisRequest) -> AnalysisResponse {
        self.analyze_with(request, None)
    }

    /// Answers a request under an external cancellation token.
    pub fn analyze_with(
        &self,
        request: &AnalysisRequest,
        cancel: Option<&CancelToken>,
    ) -> AnalysisResponse {
        let id = request.id.clone();
        match self.execute(request, cancel) {
            Ok(outcomes) => AnalysisResponse::ok(id, outcomes),
            Err(error) => AnalysisResponse::error(id, error),
        }
    }

    fn execute(
        &self,
        request: &AnalysisRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<QueryOutcome>, ApiError> {
        let options = self.effective_options(&request.options);
        let max_sweeps = request
            .options
            .max_sweeps
            .map(|s| s as usize)
            .unwrap_or(self.max_sweeps);
        let mut control = match request.options.budget.or(self.default_budget) {
            Some(units) => RequestControl::with_budget(units),
            None => RequestControl::unlimited(),
        };
        if let Some(token) = cancel {
            control = control.with_cancel(token.clone());
        }
        let env = QueryEnv {
            session: self,
            options,
            max_sweeps,
            control: &control,
        };

        // The chain backend borrows its parsed system (so the request's
        // queries share one AnalysisContext); both locals outlive the
        // query loop below.
        let chain_system: System;
        let chain_backend: ChainBackend<'_>;
        let dist_backend: DistBackend;
        let backend: Option<&dyn Analyze> = match &request.target {
            Target::Chains { system } => {
                chain_system = parse_system(system)?;
                chain_backend = ChainBackend::new(&chain_system);
                Some(&chain_backend)
            }
            Target::Distributed { resources, links } => {
                let mut builder = DistributedSystemBuilder::new();
                for (name, text) in resources {
                    let system = parse_system(text).map_err(|e| {
                        ApiError::new(
                            crate::ApiErrorKind::Parse,
                            format!("resource `{name}`: {e}"),
                        )
                    })?;
                    builder = builder.resource(name.clone(), system);
                }
                for link in links {
                    builder = builder.link(
                        (link.from.resource.clone(), link.from.chain.clone()),
                        (link.to.resource.clone(), link.to.chain.clone()),
                    );
                }
                dist_backend = DistBackend::new(builder.build()?);
                Some(&dist_backend)
            }
            Target::DistText { text } => {
                dist_backend = DistBackend::new(twca_dist::parse_distributed(text)?);
                Some(&dist_backend)
            }
            Target::Service => None,
        };

        request
            .queries
            .iter()
            .map(|query| match (query, backend) {
                // Service queries never touch a backend: the answer is
                // about the serving process, whatever the target.
                (Query::Stats, _) => Ok(QueryOutcome::Stats(self.stats_outcome())),
                (
                    Query::StorePut {
                        name,
                        system,
                        dist,
                        dedup,
                    },
                    _,
                ) => self.store_put(name, system, dist, dedup.as_deref(), &env),
                (Query::StoreAnalyze { name, ks }, _) => self.store_analyze(name, ks, &env),
                (query, Some(backend)) => backend.query(query, &env),
                (_, None) => Err(ApiError::request(
                    "only `stats`, `store_put` and `store_analyze` queries may run \
                     without a target",
                )),
            })
            .collect()
    }

    /// Answers one `store_put` query: parse, diff, version. A request
    /// carrying a `dedup` id is applied at most once per id: a retry
    /// of an already-acknowledged put returns the original receipt
    /// instead of bumping the version again.
    fn store_put(
        &self,
        name: &str,
        system: &Option<String>,
        dist: &Option<String>,
        dedup: Option<&str>,
        env: &QueryEnv<'_>,
    ) -> Result<QueryOutcome, ApiError> {
        env.control.charge(1)?;
        let body = match (system, dist) {
            (Some(text), None) => StoredBody::Uni(parse_system(text)?),
            (None, Some(text)) => StoredBody::Dist(twca_dist::parse_distributed(text)?),
            _ => {
                return Err(ApiError::request(
                    "`store_put` needs exactly one of `system` and `dist`",
                ))
            }
        };
        let (receipt, deduped) = self.store.put_dedup(name, body, dedup)?;
        Ok(QueryOutcome::StorePut(StorePutOutcome {
            name: receipt.name,
            version: receipt.version,
            resources_changed: receipt.diff.resources_changed,
            chains_changed: receipt.diff.chains_changed,
            tasks_changed: receipt.diff.tasks_changed,
            deduped,
        }))
    }

    /// Answers one `store_analyze` query on the entry's current
    /// version. Distributed entries run the holistic fixed point
    /// against the entry's warm memo, so only rows whose effective
    /// inputs changed since the last analysis are recomputed.
    fn store_analyze(
        &self,
        name: &str,
        ks: &[u64],
        env: &QueryEnv<'_>,
    ) -> Result<QueryOutcome, ApiError> {
        let slot = self
            .store
            .handle(name)
            .ok_or_else(|| ApiError::request(format!("no stored system named `{name}`")))?;
        let entry = slot.lock().expect("store entry poisoned");
        let (rows_analyzed, memo_hits, latency, dmm) = match &entry.body {
            StoredBody::Uni(system) => {
                env.control
                    .charge(system.chains().len() as u64 * (1 + ks.len() as u64))?;
                let ctx = AnalysisContext::with_cache(system, self.cache());
                let mut latency = Vec::new();
                let mut dmm = Vec::new();
                for (id, chain) in system.iter() {
                    latency.push(LatencyOutcome::analyze(&ctx, id, env.options));
                    if chain.deadline().is_some() {
                        let prepared = DmmSweep::prepare(&ctx, id, env.options);
                        dmm.push(DmmOutcome::sweep(chain.name().to_owned(), prepared, ks));
                    }
                }
                (0, 0, latency, dmm)
            }
            StoredBody::Dist(system) => {
                let sites: Vec<_> = system.sites().collect();
                env.control
                    .charge(sites.len() as u64 * (1 + ks.len() as u64))?;
                let (results, report) = analyze_with_memo(system, env.dist_options(), &entry.memo)?;
                let latency = sites
                    .iter()
                    .map(|&site| LatencyOutcome::site(system, &results, site))
                    .collect();
                let deadlined: Vec<_> = sites
                    .into_iter()
                    .filter(|&site| system.chain(site).deadline().is_some())
                    .collect();
                let dmm = DmmOutcome::sites(system, &results, &deadlined, ks);
                (
                    report.rows_analyzed as u64,
                    report.memo_hits as u64,
                    latency,
                    dmm,
                )
            }
        };
        Ok(QueryOutcome::StoreAnalyze(StoreAnalyzeOutcome {
            name: name.to_owned(),
            version: entry.version,
            rows_analyzed,
            memo_hits,
            latency,
            dmm,
        }))
    }

    /// The request's effective options: the session defaults with the
    /// request's overrides applied.
    pub fn effective_options(&self, overrides: &RequestOptions) -> AnalysisOptions {
        AnalysisOptions {
            horizon: overrides.horizon.unwrap_or(self.options.horizon),
            max_q: overrides.max_q.unwrap_or(self.options.max_q),
            max_combinations: overrides
                .max_combinations
                .map(|c| c as usize)
                .unwrap_or(self.options.max_combinations),
            // Not exposed on the wire: the packing budget is a
            // deployment-level tightness/latency trade-off, set on the
            // session.
            packing_budget: self.options.packing_budget,
        }
    }

    /// The full batch pipeline on one system: per-chain latency bounds
    /// (with and without overload) plus a miss-model sweep over `ks`
    /// for every deadline chain — the per-slot work of
    /// [`crate::batch`] runs, shared so the batch and streaming
    /// surfaces cannot drift apart.
    pub fn system_outcome(&self, index: usize, system: &System, ks: &[u64]) -> SystemOutcome {
        self.system_outcome_with(index, system, ks, self.options)
    }

    /// [`Session::system_outcome`] under explicit options.
    pub fn system_outcome_with(
        &self,
        index: usize,
        system: &System,
        ks: &[u64],
        options: AnalysisOptions,
    ) -> SystemOutcome {
        let ctx = AnalysisContext::with_cache(system, self.cache());
        let mut chains = Vec::with_capacity(system.chains().len());
        for (id, chain) in system.iter() {
            let row = LatencyOutcome::analyze(&ctx, id, options);
            let (miss_models, error) = if chain.deadline().is_some() {
                let prepared = DmmSweep::prepare(&ctx, id, options);
                let dmm = DmmOutcome::sweep(chain.name().to_owned(), prepared, ks);
                (dmm.points, dmm.error)
            } else {
                (Vec::new(), None)
            };
            chains.push(ChainOutcome {
                name: row.name,
                deadline: row.deadline,
                overload: row.overload,
                worst_case_latency: row.worst_case_latency,
                typical_latency: row.typical_latency,
                miss_models,
                error,
            });
        }
        SystemOutcome { index, chains }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Query;
    use crate::{ApiErrorKind, Counter};

    const SYSTEM: &str = "
chain control periodic=100 deadline=100 sync {
    task sense prio=5 wcet=10
    task act prio=1 wcet=25
}
chain recovery sporadic=1000 overload {
    task fix prio=3 wcet=40
}
";

    #[test]
    fn parse_failures_become_typed_errors() {
        let request = AnalysisRequest::for_system("chain broken {");
        let response = Session::new().analyze(&request);
        assert_eq!(response.outcome.unwrap_err().kind, ApiErrorKind::Parse);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let request = AnalysisRequest::for_system(SYSTEM)
            .with_query(Query::Dmm {
                chain: None,
                ks: (1..=64).collect(),
            })
            .with_options(RequestOptions {
                budget: Some(3),
                ..RequestOptions::default()
            });
        let response = Session::new().analyze(&request);
        assert_eq!(response.outcome.unwrap_err().kind, ApiErrorKind::Budget);
    }

    #[test]
    fn cancellation_preempts_work() {
        let token = CancelToken::new();
        token.cancel();
        let request =
            AnalysisRequest::for_system(SYSTEM).with_query(Query::Latency { chain: None });
        let response = Session::new().analyze_with(&request, Some(&token));
        assert_eq!(response.outcome.unwrap_err().kind, ApiErrorKind::Canceled);
    }

    #[test]
    fn request_options_override_session_defaults() {
        let session = Session::new();
        let effective = session.effective_options(&RequestOptions {
            horizon: Some(123),
            ..RequestOptions::default()
        });
        assert_eq!(effective.horizon, 123);
        assert_eq!(effective.max_q, session.options().max_q);
    }

    #[test]
    fn stats_queries_report_cache_and_service_counters() {
        let session = Session::new();
        let metrics = session.metrics();
        metrics.add(Counter::Served, 1);
        metrics.add(Counter::InFlight, 1);
        metrics.add(Counter::Rejected, 1);

        // Targetless stats request.
        let request = AnalysisRequest {
            id: None,
            target: Target::Service,
            queries: vec![Query::Stats],
            options: RequestOptions::default(),
        };
        let outcomes = session.analyze(&request).outcome.unwrap();
        let QueryOutcome::Stats(stats) = outcomes[0] else {
            panic!("expected stats outcome");
        };
        assert_eq!((stats.served, stats.rejected, stats.in_flight), (1, 1, 1));

        // Stats ride along with analysis queries on a real target.
        let request = AnalysisRequest::for_system(SYSTEM)
            .with_query(Query::Latency { chain: None })
            .with_query(Query::Stats);
        let outcomes = session.analyze(&request).outcome.unwrap();
        let QueryOutcome::Stats(stats) = outcomes[1] else {
            panic!("expected stats outcome");
        };
        assert!(stats.cache_misses > 0);

        // Non-stats queries without a target are typed request errors.
        let request = AnalysisRequest {
            id: None,
            target: Target::Service,
            queries: vec![Query::Latency { chain: None }],
            options: RequestOptions::default(),
        };
        assert_eq!(
            session.analyze(&request).outcome.unwrap_err().kind,
            ApiErrorKind::Request
        );

        // Sessions no pool recorded into report zeros, not errors.
        let plain = Session::new();
        let outcome = plain.stats_outcome();
        assert_eq!(
            (outcome.served, outcome.rejected, outcome.in_flight),
            (0, 0, 0)
        );
    }

    #[test]
    fn store_queries_version_diff_and_delta_analyze() {
        let session = Session::new();
        // A 6-stage pipeline; the edit touches only the tail resource,
        // so everything upstream stays memo-warm on re-analysis.
        let dist = |tail_wcet: u64| {
            let mut text = String::new();
            for i in 0..6 {
                let wcet = if i == 5 { tail_wcet } else { 10 };
                text.push_str(&format!(
                    "resource r{i} {{ chain c{i} periodic=100 deadline=400 \
                     {{ task t{i} prio=1 wcet={wcet} }} }}\n"
                ));
            }
            for i in 0..5 {
                text.push_str(&format!("link r{i}/c{i} -> r{}/c{}\n", i + 1, i + 1));
            }
            text
        };
        let put = |text: String| AnalysisRequest {
            id: None,
            target: Target::Service,
            queries: vec![Query::StorePut {
                name: "grid".into(),
                system: None,
                dist: Some(text),
                dedup: None,
            }],
            options: RequestOptions::default(),
        };
        let analyze = AnalysisRequest {
            id: None,
            target: Target::Service,
            queries: vec![Query::StoreAnalyze {
                name: "grid".into(),
                ks: vec![1, 10],
            }],
            options: RequestOptions::default(),
        };

        let outcomes = session.analyze(&put(dist(10))).outcome.unwrap();
        let QueryOutcome::StorePut(receipt) = &outcomes[0] else {
            panic!("expected store_put outcome");
        };
        assert_eq!((receipt.version, receipt.resources_changed), (1, 0));

        let outcomes = session.analyze(&analyze).outcome.unwrap();
        let QueryOutcome::StoreAnalyze(cold) = &outcomes[0] else {
            panic!("expected store_analyze outcome");
        };
        assert_eq!(cold.version, 1);
        assert_eq!(cold.latency.len(), 6);
        assert_eq!(cold.dmm.len(), 6);
        assert!(cold.rows_analyzed > 0);

        // Editing one task's WCET dirties exactly one resource...
        let outcomes = session.analyze(&put(dist(11))).outcome.unwrap();
        let QueryOutcome::StorePut(receipt) = &outcomes[0] else {
            panic!("expected store_put outcome");
        };
        assert_eq!(receipt.version, 2);
        assert_eq!(
            (
                receipt.resources_changed,
                receipt.chains_changed,
                receipt.tasks_changed
            ),
            (1, 1, 1)
        );

        // ...and the re-analysis reuses warm rows for the rest.
        let outcomes = session.analyze(&analyze).outcome.unwrap();
        let QueryOutcome::StoreAnalyze(warm) = &outcomes[0] else {
            panic!("expected store_analyze outcome");
        };
        assert_eq!(warm.version, 2);
        assert!(warm.memo_hits > 0, "unchanged resources hit the memo");
        assert!(
            warm.rows_analyzed < cold.rows_analyzed,
            "delta re-analysis recomputes fewer rows ({} vs {})",
            warm.rows_analyzed,
            cold.rows_analyzed
        );

        // The delta result agrees with a from-scratch analysis.
        let fresh = Session::new();
        fresh.analyze(&put(dist(11))).outcome.unwrap();
        let outcomes = fresh.analyze(&analyze).outcome.unwrap();
        let QueryOutcome::StoreAnalyze(scratch) = &outcomes[0] else {
            panic!("expected store_analyze outcome");
        };
        assert_eq!(warm.latency, scratch.latency);
        assert_eq!(warm.dmm, scratch.dmm);

        // Unknown names and ambiguous puts are typed request errors.
        let missing = AnalysisRequest {
            id: None,
            target: Target::Service,
            queries: vec![Query::StoreAnalyze {
                name: "nope".into(),
                ks: vec![1],
            }],
            options: RequestOptions::default(),
        };
        assert_eq!(
            session.analyze(&missing).outcome.unwrap_err().kind,
            ApiErrorKind::Request
        );
        let ambiguous = AnalysisRequest {
            id: None,
            target: Target::Service,
            queries: vec![Query::StorePut {
                name: "x".into(),
                system: Some("a".into()),
                dist: Some("b".into()),
                dedup: None,
            }],
            options: RequestOptions::default(),
        };
        assert_eq!(
            session.analyze(&ambiguous).outcome.unwrap_err().kind,
            ApiErrorKind::Request
        );
    }

    #[test]
    fn store_analyze_on_uni_entries_matches_direct_queries() {
        let session = Session::new();
        let put = AnalysisRequest {
            id: None,
            target: Target::Service,
            queries: vec![Query::StorePut {
                name: "plant".into(),
                system: Some(SYSTEM.into()),
                dist: None,
                dedup: None,
            }],
            options: RequestOptions::default(),
        };
        session.analyze(&put).outcome.unwrap();
        let analyze = AnalysisRequest {
            id: None,
            target: Target::Service,
            queries: vec![Query::StoreAnalyze {
                name: "plant".into(),
                ks: vec![10],
            }],
            options: RequestOptions::default(),
        };
        let outcomes = session.analyze(&analyze).outcome.unwrap();
        let QueryOutcome::StoreAnalyze(stored) = &outcomes[0] else {
            panic!("expected store_analyze outcome");
        };
        let direct = AnalysisRequest::for_system(SYSTEM)
            .with_query(Query::Latency { chain: None })
            .with_query(Query::Dmm {
                chain: None,
                ks: vec![10],
            });
        let outcomes = session.analyze(&direct).outcome.unwrap();
        let QueryOutcome::Latency(latency) = &outcomes[0] else {
            panic!("expected latency outcome");
        };
        let QueryOutcome::Dmm(dmm) = &outcomes[1] else {
            panic!("expected dmm outcome");
        };
        assert_eq!(&stored.latency, latency);
        assert_eq!(&stored.dmm, dmm);
        assert_eq!((stored.rows_analyzed, stored.memo_hits), (0, 0));
    }

    #[test]
    fn warm_cache_is_shared_across_requests() {
        let session = Session::new();
        let request = AnalysisRequest::for_system(SYSTEM).with_query(Query::Dmm {
            chain: None,
            ks: vec![10],
        });
        let first = session.analyze(&request);
        assert!(first.outcome.is_ok());
        let before = session.cache_stats().hits;
        let second = session.analyze(&request);
        assert_eq!(first.outcome, second.outcome);
        assert!(session.cache_stats().hits > before);
    }
}
