//! The two analysis backends a request's target dispatches to:
//! uniprocessor chain systems and distributed linked-resource systems.

use std::cell::OnceCell;

use crate::error::ApiError;
use crate::request::{Query, SiteSpec};
use crate::response::{
    site_name, DmmOutcome, DmmPoint, LatencyOutcome, MkOutcome, PathOutcome, QueryOutcome,
    SensitivityOutcome, SimChainOutcome, SimulateOutcome, WitnessOutcome,
};
use crate::session::{RequestControl, Session};
use twca_chains::{max_overload_scaling, AnalysisContext, AnalysisOptions, DmmSweep, MkConstraint};
use twca_dist::{
    analyze as dist_analyze, max_path_overload_scaling, DistError, DistOptions, DistPath,
    DistResults, DistributedSystem, SiteId,
};
use twca_model::{ChainId, System};

/// Everything a backend needs to answer one query: the session (for
/// the shared cache), the effective options, and the request's work
/// accounting.
pub(crate) struct QueryEnv<'a> {
    /// The owning session.
    pub(crate) session: &'a Session,
    /// Effective per-chain analysis options.
    pub(crate) options: AnalysisOptions,
    /// Holistic sweep limit (distributed targets).
    pub(crate) max_sweeps: usize,
    /// Budget and cancellation accounting.
    pub(crate) control: &'a RequestControl,
}

impl QueryEnv<'_> {
    pub(crate) fn dist_options(&self) -> DistOptions {
        DistOptions {
            chain_options: self.options,
            max_sweeps: self.max_sweeps,
        }
    }
}

/// One analysis backend: anything that can answer the typed queries of
/// the schema. Implemented by [`ChainBackend`] (the paper's
/// uniprocessor analysis) and [`DistBackend`] (the holistic
/// distributed extension) — the two entry points the façade unifies.
/// `Session::execute` dispatches every target-bound query through it.
pub(crate) trait Analyze {
    /// Answers one query.
    ///
    /// # Errors
    ///
    /// [`ApiError`] for unknown selectors, unsupported query kinds,
    /// analysis failures, exhausted budgets and cancellation.
    fn query(&self, query: &Query, env: &QueryEnv<'_>) -> Result<QueryOutcome, ApiError>;
}

/// Flat per-query work charges beyond the per-chain/per-point units;
/// see [`RequestControl`].
const WITNESS_COST: u64 = 4;
/// Sensitivity runs a binary search of full re-analyses.
const SENSITIVITY_COST: u64 = 16;

/// A wire point for a *composed* bound (end-to-end paths), where no
/// single `DmmResult` exists: informativeness degrades to "beats the
/// trivial `k` fallback".
fn composed_point(bound: u64, k: u64) -> DmmPoint {
    DmmPoint {
        k,
        bound,
        informative: bound < k,
    }
}

/// Renders one witness answer; shared by both backends so the wire
/// formatting cannot drift between chain and distributed targets.
fn witness_outcome(sweep: &DmmSweep<'_>, system: &System, name: String, k: u64) -> WitnessOutcome {
    match sweep.witness(k) {
        Some(witness) => WitnessOutcome {
            name,
            k,
            bound: witness.bound,
            has_witness: true,
            text: witness.render(system),
        },
        None => {
            let dmm = sweep.at(k);
            WitnessOutcome {
                name,
                k,
                bound: dmm.bound,
                has_witness: false,
                text: format!(
                    "dmm({}) = {}{}",
                    dmm.k,
                    dmm.bound,
                    if dmm.informative { "" } else { " (trivial)" }
                ),
            }
        }
    }
}

/// The uniprocessor backend: one [`System`], analyzed through
/// [`twca_chains`] with the session's shared cache. The analysis
/// context (interference terms, fingerprint) is built once per request
/// and reused by every query.
pub(crate) struct ChainBackend<'a> {
    system: &'a System,
    ctx: OnceCell<AnalysisContext<'a>>,
}

impl<'a> ChainBackend<'a> {
    /// Wraps a parsed system.
    pub(crate) fn new(system: &'a System) -> ChainBackend<'a> {
        ChainBackend {
            system,
            ctx: OnceCell::new(),
        }
    }

    fn ctx(&self, env: &QueryEnv<'_>) -> &AnalysisContext<'a> {
        self.ctx
            .get_or_init(|| AnalysisContext::with_cache(self.system, env.session.cache()))
    }

    fn selected(&self, selector: &Option<String>) -> Result<Vec<ChainId>, ApiError> {
        match selector {
            Some(name) => self
                .system
                .chain_by_name(name)
                .map(|(id, _)| vec![id])
                .ok_or_else(|| ApiError::no_such_chain(name)),
            None => Ok(self.system.iter().map(|(id, _)| id).collect()),
        }
    }

    fn named_chain(&self, name: &str) -> Result<ChainId, ApiError> {
        self.system
            .chain_by_name(name)
            .map(|(id, _)| id)
            .ok_or_else(|| ApiError::no_such_chain(name))
    }
}

impl Analyze for ChainBackend<'_> {
    fn query(&self, query: &Query, env: &QueryEnv<'_>) -> Result<QueryOutcome, ApiError> {
        let ctx = self.ctx(env);
        match query {
            Query::Latency { chain } => {
                let mut rows = Vec::new();
                for id in self.selected(chain)? {
                    env.control.charge(1)?;
                    rows.push(LatencyOutcome::analyze(ctx, id, env.options));
                }
                Ok(QueryOutcome::Latency(rows))
            }
            Query::Dmm { chain, ks } => {
                let explicit = chain.is_some();
                let mut rows = Vec::new();
                for id in self.selected(chain)? {
                    if self.system.chain(id).deadline().is_none() && !explicit {
                        continue;
                    }
                    // At least one unit even for an empty `ks` list:
                    // the sweep preparation itself (combination
                    // enumeration) is the expensive part.
                    env.control.charge(ks.len().max(1) as u64)?;
                    let name = self.system.chain(id).name().to_owned();
                    let prepared = DmmSweep::prepare(ctx, id, env.options);
                    rows.push(DmmOutcome::sweep(name, prepared, ks));
                }
                Ok(QueryOutcome::Dmm(rows))
            }
            Query::Witness { chain, k } => {
                env.control.charge(WITNESS_COST)?;
                let id = self.named_chain(chain)?;
                let sweep = DmmSweep::prepare(ctx, id, env.options)?;
                Ok(QueryOutcome::Witness(witness_outcome(
                    &sweep,
                    self.system,
                    chain.clone(),
                    *k,
                )))
            }
            Query::WeaklyHard { chain, m, k } => {
                let explicit = chain.is_some();
                let constraint = MkConstraint::new(*m, *k);
                let mut rows = Vec::new();
                for id in self.selected(chain)? {
                    let target = self.system.chain(id);
                    if target.deadline().is_none() && !explicit {
                        continue;
                    }
                    env.control.charge(1)?;
                    let satisfied = constraint.verify(ctx, id, env.options)?;
                    rows.push(MkOutcome {
                        name: target.name().to_owned(),
                        m: *m,
                        k: *k,
                        satisfied,
                    });
                }
                Ok(QueryOutcome::WeaklyHard(rows))
            }
            Query::Sensitivity {
                chain,
                m,
                k,
                max_percent,
            } => {
                env.control.charge(SENSITIVITY_COST)?;
                self.named_chain(chain)?;
                let max_percent_found = max_overload_scaling(
                    self.system,
                    chain,
                    MkConstraint::new(*m, *k),
                    *max_percent,
                    env.options,
                )?;
                Ok(QueryOutcome::Sensitivity(SensitivityOutcome {
                    name: chain.clone(),
                    m: *m,
                    k: *k,
                    max_percent: max_percent_found,
                }))
            }
            Query::Path { .. } => Err(ApiError::request(
                "`path` queries need a distributed target",
            )),
            Query::Full { ks } => {
                env.control
                    .charge(self.system.chains().len() as u64 * (2 + ks.len() as u64))?;
                Ok(QueryOutcome::Full(env.session.system_outcome_with(
                    0,
                    self.system,
                    ks,
                    env.options,
                )))
            }
            // The session answers these before it dispatches to a
            // backend.
            Query::Stats | Query::StorePut { .. } | Query::StoreAnalyze { .. } => Err(
                ApiError::request("service queries are answered by the session, not a backend"),
            ),
            Query::Simulate {
                chain,
                runs,
                horizon,
                seed,
                threads,
            } => {
                // One unit per run: each run simulates the whole system
                // over the full horizon.
                env.control.charge((*runs).max(1))?;
                if let Some(name) = chain {
                    self.named_chain(name)?;
                }
                let config = twca_sim::MonteCarloConfig {
                    runs: *runs,
                    horizon: *horizon,
                    seed: *seed,
                    threads: (*threads).min(64) as usize,
                    // The wire report carries pooled totals, not the
                    // per-k window profile.
                    ks: Vec::new(),
                    policy: twca_sim::ExecutionPolicy::WorstCase,
                };
                let report = twca_sim::MonteCarlo::new(self.system, config).run();
                let rows = report
                    .chains()
                    .iter()
                    .filter(|profile| match chain {
                        Some(name) => profile.name() == name,
                        None => profile.deadline().is_some(),
                    })
                    .map(|profile| {
                        let (ci_low_ppm, ci_high_ppm) = profile.confidence_ppm();
                        SimChainOutcome {
                            name: profile.name().to_owned(),
                            instances: profile.instances(),
                            misses: profile.misses(),
                            miss_rate_ppm: profile.miss_rate_ppm(),
                            ci_low_ppm,
                            ci_high_ppm,
                            max_latency: profile.max_latency(),
                        }
                    })
                    .collect();
                Ok(QueryOutcome::Simulate(SimulateOutcome {
                    runs: *runs,
                    horizon: *horizon,
                    seed: *seed,
                    chains: rows,
                }))
            }
        }
    }
}

/// The distributed backend: a [`DistributedSystem`] analyzed through
/// `twca-dist`'s holistic iteration, run once per request and reused by
/// every query.
pub(crate) struct DistBackend {
    system: DistributedSystem,
    results: OnceCell<Result<DistResults, DistError>>,
}

impl DistBackend {
    /// Wraps a validated distributed system.
    pub(crate) fn new(system: DistributedSystem) -> DistBackend {
        DistBackend {
            system,
            results: OnceCell::new(),
        }
    }

    fn results(&self, env: &QueryEnv<'_>) -> Result<&DistResults, ApiError> {
        self.results
            .get_or_init(|| dist_analyze(&self.system, env.dist_options()))
            .as_ref()
            .map_err(|e| e.clone().into())
    }

    fn resolve(&self, spec: &SiteSpec) -> Result<SiteId, ApiError> {
        if self.system.resource_by_name(&spec.resource).is_none() {
            return Err(ApiError::no_such_resource(&spec.resource));
        }
        self.system
            .site(&spec.resource, &spec.chain)
            .ok_or_else(|| ApiError::no_such_chain(&spec.to_wire()))
    }

    fn selected(&self, selector: &Option<String>) -> Result<Vec<SiteId>, ApiError> {
        match selector {
            Some(name) => Ok(vec![self.resolve(&SiteSpec::parse(name)?)?]),
            None => Ok(self.system.sites().collect()),
        }
    }

    /// The sites a miss-model query answers: the named one, or every
    /// site with a deadline.
    fn deadline_sites(&self, selector: &Option<String>) -> Result<Vec<SiteId>, ApiError> {
        let mut sites = self.selected(selector)?;
        if selector.is_none() {
            sites.retain(|&site| self.system.chain(site).deadline().is_some());
        }
        Ok(sites)
    }
}

impl Analyze for DistBackend {
    fn query(&self, query: &Query, env: &QueryEnv<'_>) -> Result<QueryOutcome, ApiError> {
        match query {
            Query::Latency { chain } => {
                let sites = self.selected(chain)?;
                env.control.charge(sites.len() as u64)?;
                let results = self.results(env)?;
                let rows = sites
                    .into_iter()
                    .map(|site| LatencyOutcome::site(&self.system, results, site))
                    .collect();
                Ok(QueryOutcome::Latency(rows))
            }
            Query::Dmm { chain, ks } => {
                // Charge before the holistic iteration runs so a
                // budget or raised cancel token preempts the expensive
                // fixed point, not just the readout.
                let sites = self.deadline_sites(chain)?;
                env.control
                    .charge(sites.len() as u64 * ks.len().max(1) as u64)?;
                let results = self.results(env)?;
                Ok(QueryOutcome::Dmm(DmmOutcome::sites(
                    &self.system,
                    results,
                    &sites,
                    ks,
                )))
            }
            Query::Witness { chain, k } => {
                env.control.charge(WITNESS_COST)?;
                let site = self.resolve(&SiteSpec::parse(chain)?)?;
                let results = self.results(env)?;
                // Witnesses are local derivations; explain the site on
                // its effective (post-propagation) system.
                let effective = results.effective_system(site.resource());
                let ctx = AnalysisContext::with_cache(effective, env.session.cache());
                let sweep = DmmSweep::prepare(&ctx, site.chain(), env.options)?;
                Ok(QueryOutcome::Witness(witness_outcome(
                    &sweep,
                    effective,
                    site_name(&self.system, site),
                    *k,
                )))
            }
            Query::WeaklyHard { chain, m, k } => {
                // As in the Dmm arm: charge before the fixed point.
                let sites = self.deadline_sites(chain)?;
                env.control.charge(sites.len() as u64)?;
                let results = self.results(env)?;
                let mut rows = Vec::new();
                // `sites` is resource-major: one context per resource.
                for group in sites.chunk_by(|a, b| a.resource() == b.resource()) {
                    let ctx = results.context(group[0].resource());
                    for &site in group {
                        let bound = results.sweep(&ctx, site)?.at(*k).bound;
                        rows.push(MkOutcome {
                            name: site_name(&self.system, site),
                            m: *m,
                            k: *k,
                            satisfied: bound <= *m,
                        });
                    }
                }
                Ok(QueryOutcome::WeaklyHard(rows))
            }
            Query::Sensitivity {
                chain,
                m,
                k,
                max_percent,
            } => {
                env.control.charge(SENSITIVITY_COST)?;
                let site = self.resolve(&SiteSpec::parse(chain)?)?;
                let max_percent_found = max_path_overload_scaling(
                    &self.system,
                    &[site],
                    *m,
                    *k,
                    *max_percent,
                    env.dist_options(),
                )?;
                Ok(QueryOutcome::Sensitivity(SensitivityOutcome {
                    name: site_name(&self.system, site),
                    m: *m,
                    k: *k,
                    max_percent: max_percent_found,
                }))
            }
            Query::Path { hops, ks } => {
                env.control.charge(1 + ks.len() as u64)?;
                let sites = hops
                    .iter()
                    .map(|spec| self.resolve(spec))
                    .collect::<Result<Vec<_>, _>>()?;
                let path = DistPath::new(&self.system, sites)?;
                let results = self.results(env)?;
                let latency = match path.latency(results) {
                    Ok(total) => Some(total),
                    Err(DistError::UnboundedLatency { .. }) => None,
                    Err(e) => return Err(e.into()),
                };
                let points = path
                    .deadline_miss_curve(results, ks)?
                    .into_iter()
                    .zip(ks)
                    .map(|(bound, &k)| composed_point(bound, k))
                    .collect();
                Ok(QueryOutcome::Path(PathOutcome {
                    hops: path
                        .hops()
                        .iter()
                        .map(|&h| site_name(&self.system, h))
                        .collect(),
                    latency,
                    composite_deadline: path.composite_deadline(&self.system),
                    points,
                }))
            }
            Query::Full { .. } => Err(ApiError::request(
                "`full` queries need a chain target; query sites individually instead",
            )),
            // The session answers these before it dispatches to a
            // backend.
            Query::Stats | Query::StorePut { .. } | Query::StoreAnalyze { .. } => Err(
                ApiError::request("service queries are answered by the session, not a backend"),
            ),
            Query::Simulate { .. } => Err(ApiError::request(
                "`simulate` queries need a chain target; simulate resources individually instead",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AnalysisRequest, Target};
    use crate::ApiErrorKind;
    use twca_chains::{latency_analysis, OverloadMode};
    use twca_model::case_study;

    const DOWNSTREAM: &str = "chain act periodic=200 deadline=200 sync { task a1 prio=1 wcet=20 }";

    fn case_study_text() -> String {
        // Re-render the paper's case study through the DSL so requests
        // can embed it.
        twca_model::render_system(&case_study())
    }

    fn dist_request() -> AnalysisRequest {
        AnalysisRequest {
            id: None,
            target: Target::Distributed {
                resources: vec![
                    ("ecu0".into(), case_study_text()),
                    ("ecu1".into(), DOWNSTREAM.into()),
                ],
                links: vec![crate::LinkSpec {
                    from: SiteSpec::parse("ecu0/sigma_c").unwrap(),
                    to: SiteSpec::parse("ecu1/act").unwrap(),
                }],
            },
            queries: Vec::new(),
            options: Default::default(),
        }
    }

    #[test]
    fn the_dsl_case_study_matches_the_builder_one() {
        let parsed = twca_model::parse_system(&case_study_text()).unwrap();
        let reference = case_study();
        let ctx = AnalysisContext::new(&parsed);
        let (c, _) = parsed.chain_by_name("sigma_c").unwrap();
        let wcl = latency_analysis(&ctx, c, OverloadMode::Include, Default::default())
            .unwrap()
            .worst_case_latency;
        assert_eq!(wcl, 331, "Table I");
        assert_eq!(parsed.chains().len(), reference.chains().len());
    }

    #[test]
    fn chain_backend_answers_table_1_and_2() {
        let session = Session::new();
        let request = AnalysisRequest::for_system(case_study_text())
            .with_query(Query::Latency {
                chain: Some("sigma_c".into()),
            })
            .with_query(Query::Dmm {
                chain: Some("sigma_c".into()),
                ks: vec![3, 10],
            })
            .with_query(Query::Witness {
                chain: "sigma_c".into(),
                k: 10,
            })
            .with_query(Query::WeaklyHard {
                chain: None,
                m: 5,
                k: 10,
            });
        let outcomes = session.analyze(&request).outcome.unwrap();
        let QueryOutcome::Latency(rows) = &outcomes[0] else {
            panic!("expected latency outcome");
        };
        assert_eq!(rows[0].worst_case_latency, Some(331));
        assert_eq!(rows[0].typical_latency, Some(166));
        let QueryOutcome::Dmm(rows) = &outcomes[1] else {
            panic!("expected dmm outcome");
        };
        assert_eq!(
            rows[0].points.iter().map(|p| p.bound).collect::<Vec<_>>(),
            vec![3, 5]
        );
        let QueryOutcome::Witness(witness) = &outcomes[2] else {
            panic!("expected witness outcome");
        };
        assert!(witness.has_witness);
        assert_eq!(witness.bound, 5);
        let QueryOutcome::WeaklyHard(rows) = &outcomes[3] else {
            panic!("expected weakly-hard outcome");
        };
        // sigma_c: dmm(10) = 5 ≤ 5; sigma_d never misses.
        assert!(rows.iter().all(|r| r.satisfied));
    }

    #[test]
    fn dist_backend_propagates_and_composes() {
        let session = Session::new();
        let request = dist_request()
            .with_query(Query::Latency {
                chain: Some("ecu0/sigma_c".into()),
            })
            .with_query(Query::Path {
                hops: vec![
                    SiteSpec::parse("ecu0/sigma_c").unwrap(),
                    SiteSpec::parse("ecu1/act").unwrap(),
                ],
                ks: vec![1, 10],
            });
        let outcomes = session.analyze(&request).outcome.unwrap();
        let QueryOutcome::Latency(rows) = &outcomes[0] else {
            panic!("expected latency outcome");
        };
        assert_eq!(rows[0].worst_case_latency, Some(331));
        let QueryOutcome::Path(path) = &outcomes[1] else {
            panic!("expected path outcome");
        };
        assert_eq!(path.hops, vec!["ecu0/sigma_c", "ecu1/act"]);
        assert_eq!(path.composite_deadline, Some(400));
        assert!(path.latency.unwrap() >= 331);
        assert!(path.points.iter().all(|p| p.bound <= p.k));
    }

    /// A `dmm` query with no window lengths still prepares each sweep,
    /// so a row whose preparation fails carries its error on both
    /// backends (distributed sites used to answer `points: []` with no
    /// error, because nothing was prepared without a `k`).
    #[test]
    fn empty_ks_still_reports_the_preparation_error() {
        let session = Session::new();
        let chain = AnalysisRequest::for_system(case_study_text()).with_query(Query::Dmm {
            chain: Some("sigma_a".into()),
            ks: Vec::new(),
        });
        let site = dist_request().with_query(Query::Dmm {
            chain: Some("ecu0/sigma_a".into()),
            ks: Vec::new(),
        });
        for (request, error) in [
            (chain, "chain#3 has no deadline"),
            (site, "resource#0/chain#3 has no deadline"),
        ] {
            let outcomes = session.analyze(&request).outcome.unwrap();
            let QueryOutcome::Dmm(rows) = &outcomes[0] else {
                panic!("expected dmm outcome");
            };
            assert!(rows[0].points.is_empty());
            let reported = rows[0].error.as_deref().expect("the error is reported");
            assert!(reported.starts_with(error), "{reported}");
        }
    }

    #[test]
    fn unknown_selectors_are_typed() {
        let session = Session::new();
        let bad_chain = AnalysisRequest::for_system(case_study_text()).with_query(Query::Latency {
            chain: Some("sigma_x".into()),
        });
        assert_eq!(
            session.analyze(&bad_chain).outcome.unwrap_err().kind,
            ApiErrorKind::NoSuchChain
        );
        let bad_resource = dist_request().with_query(Query::Latency {
            chain: Some("ecu9/act".into()),
        });
        assert_eq!(
            session.analyze(&bad_resource).outcome.unwrap_err().kind,
            ApiErrorKind::NoSuchResource
        );
        let not_a_site = dist_request().with_query(Query::Latency {
            chain: Some("justachain".into()),
        });
        assert_eq!(
            session.analyze(&not_a_site).outcome.unwrap_err().kind,
            ApiErrorKind::Request
        );
    }

    #[test]
    fn dist_budget_gates_the_holistic_iteration() {
        // A zero budget must fail before any holistic work: the charge
        // happens ahead of `results()` in every query arm.
        let session = Session::new();
        let request = dist_request()
            .with_query(Query::Dmm {
                chain: None,
                ks: vec![1, 10],
            })
            .with_options(crate::RequestOptions {
                budget: Some(0),
                ..Default::default()
            });
        assert_eq!(
            session.analyze(&request).outcome.unwrap_err().kind,
            ApiErrorKind::Budget
        );
        let request = dist_request()
            .with_query(Query::WeaklyHard {
                chain: None,
                m: 1,
                k: 10,
            })
            .with_options(crate::RequestOptions {
                budget: Some(0),
                ..Default::default()
            });
        assert_eq!(
            session.analyze(&request).outcome.unwrap_err().kind,
            ApiErrorKind::Budget
        );
    }

    /// Two resources where the linked producer has no latency bound:
    /// the façade error must say *which* limit was hit, not just
    /// "unbounded" (the two limits call for different fixes).
    #[test]
    fn unbounded_producer_reasons_reach_the_facade_error() {
        // Producer resource at utilization 1.2: per-q busy times
        // converge but the busy window never closes.
        let producer = "
chain feed periodic=10 sync { task f1 prio=1 wcet=6 }
chain noise periodic=10 sync { task n1 prio=2 wcet=6 }
";
        let request = |options: crate::RequestOptions| AnalysisRequest {
            id: None,
            target: Target::Distributed {
                resources: vec![
                    ("ecu0".into(), producer.into()),
                    ("ecu1".into(), DOWNSTREAM.into()),
                ],
                links: vec![crate::LinkSpec {
                    from: SiteSpec::parse("ecu0/feed").unwrap(),
                    to: SiteSpec::parse("ecu1/act").unwrap(),
                }],
            },
            queries: vec![Query::Latency { chain: None }],
            options,
        };

        let session = Session::new();
        let horizon_limited = session
            .analyze(&request(crate::RequestOptions {
                horizon: Some(1_000),
                ..Default::default()
            }))
            .outcome
            .unwrap_err();
        assert_eq!(horizon_limited.kind, ApiErrorKind::Dist);
        assert!(
            horizon_limited.message.contains("horizon 1000"),
            "{horizon_limited}"
        );

        let q_limited = session
            .analyze(&request(crate::RequestOptions {
                max_q: Some(3),
                ..Default::default()
            }))
            .outcome
            .unwrap_err();
        assert_eq!(q_limited.kind, ApiErrorKind::Dist);
        assert!(q_limited.message.contains("max_q = 3"), "{q_limited}");
    }

    #[test]
    fn zero_max_sweeps_is_rejected_at_the_boundary() {
        let session = Session::new();
        let request = dist_request()
            .with_query(Query::Latency { chain: None })
            .with_options(crate::RequestOptions {
                max_sweeps: Some(0),
                ..Default::default()
            });
        let error = session.analyze(&request).outcome.unwrap_err();
        assert_eq!(error.kind, ApiErrorKind::Dist);
        assert!(error.message.contains("max_sweeps"), "{error}");
    }

    #[test]
    fn mismatched_query_and_target_are_rejected() {
        let session = Session::new();
        let path_on_chains =
            AnalysisRequest::for_system(case_study_text()).with_query(Query::Path {
                hops: vec![SiteSpec::parse("a/b").unwrap()],
                ks: vec![1],
            });
        assert_eq!(
            session.analyze(&path_on_chains).outcome.unwrap_err().kind,
            ApiErrorKind::Request
        );
        let full_on_dist = dist_request().with_query(Query::Full { ks: vec![1] });
        assert_eq!(
            session.analyze(&full_on_dist).outcome.unwrap_err().kind,
            ApiErrorKind::Request
        );
        let simulate_on_dist = dist_request().with_query(Query::Simulate {
            chain: None,
            runs: 1,
            horizon: 1_000,
            seed: 0,
            threads: 1,
        });
        assert_eq!(
            session.analyze(&simulate_on_dist).outcome.unwrap_err().kind,
            ApiErrorKind::Request
        );
    }

    #[test]
    fn simulate_query_reports_empirical_rates() {
        let session = Session::new();
        let simulate = Query::Simulate {
            chain: Some("sigma_c".into()),
            runs: 6,
            horizon: 20_000,
            seed: 42,
            threads: 2,
        };
        let outcomes = session
            .analyze(&AnalysisRequest::for_system(case_study_text()).with_query(simulate.clone()))
            .outcome
            .unwrap();
        let QueryOutcome::Simulate(sim) = &outcomes[0] else {
            panic!("expected simulate outcome");
        };
        assert_eq!((sim.runs, sim.horizon, sim.seed), (6, 20_000, 42));
        assert_eq!(sim.chains.len(), 1);
        let row = &sim.chains[0];
        assert_eq!(row.name, "sigma_c");
        assert!(row.instances > 0);
        // Observed latency is a lower bound on the analytic WCL (331).
        assert!(row.max_latency.unwrap() <= 331);
        assert!(row.ci_low_ppm <= row.miss_rate_ppm && row.miss_rate_ppm <= row.ci_high_ppm);
    }

    #[test]
    fn simulate_budget_charges_per_run() {
        let session = Session::new();
        let request = AnalysisRequest::for_system(case_study_text())
            .with_query(Query::Simulate {
                chain: None,
                runs: 100,
                horizon: 1_000,
                seed: 0,
                threads: 1,
            })
            .with_options(crate::RequestOptions {
                budget: Some(10),
                ..Default::default()
            });
        assert_eq!(
            session.analyze(&request).outcome.unwrap_err().kind,
            ApiErrorKind::Budget
        );
        let bad_chain =
            AnalysisRequest::for_system(case_study_text()).with_query(Query::Simulate {
                chain: Some("sigma_x".into()),
                runs: 1,
                horizon: 1_000,
                seed: 0,
                threads: 1,
            });
        assert_eq!(
            session.analyze(&bad_chain).outcome.unwrap_err().kind,
            ApiErrorKind::NoSuchChain
        );
    }
}
