//! The typed request side of the wire schema.

use crate::error::ApiError;
use crate::json::Json;

/// The schema version this build speaks. Requests may omit `"v"`
/// (treated as current) or state it explicitly; responses always carry
/// it.
pub const SCHEMA_VERSION: u64 = 1;

/// What a request analyzes: one uniprocessor chain system, or a
/// distributed system of linked resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A single SPP resource, given as DSL text
    /// (see [`twca_model::parse_system`]).
    Chains {
        /// The system description.
        system: String,
    },
    /// A distributed system given resource-by-resource.
    Distributed {
        /// `(name, DSL text)` per resource, in declaration order.
        ///
        /// Names must be unique: they become JSON object keys on the
        /// wire, so a duplicate produces a document the parser rejects
        /// (analysis of a duplicate would fail with
        /// `DistError::DuplicateResource` anyway).
        resources: Vec<(String, String)>,
        /// Activation links between sites.
        links: Vec<LinkSpec>,
    },
    /// A distributed system given as one linked-resource document
    /// (see [`twca_dist::parse_distributed`]).
    DistText {
        /// The linked-resource description.
        text: String,
    },
    /// No analysis target at all: the request only asks about the
    /// serving process itself (every query is [`Query::Stats`]). On
    /// the wire this is a request with no `system`/`resources`/`dist`
    /// member.
    Service,
}

/// One site reference in `resource/chain` notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSpec {
    /// The resource name.
    pub resource: String,
    /// The chain name on that resource.
    pub chain: String,
}

impl SiteSpec {
    /// Parses `resource/chain`.
    ///
    /// # Errors
    ///
    /// [`ApiError`] when the `/` separator is missing.
    pub fn parse(text: &str) -> Result<SiteSpec, ApiError> {
        let (resource, chain) = text
            .split_once('/')
            .ok_or_else(|| ApiError::request(format!("site `{text}` is not `resource/chain`")))?;
        if resource.is_empty() || chain.is_empty() {
            return Err(ApiError::request(format!(
                "site `{text}` is not `resource/chain`"
            )));
        }
        Ok(SiteSpec {
            resource: resource.to_owned(),
            chain: chain.to_owned(),
        })
    }

    /// The `resource/chain` wire form.
    pub fn to_wire(&self) -> String {
        format!("{}/{}", self.resource, self.chain)
    }
}

/// One directed activation link between two sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSpec {
    /// The producing site.
    pub from: SiteSpec,
    /// The consuming site.
    pub to: SiteSpec,
}

/// One question asked of the target. Chain selectors (`chain`) name a
/// chain directly on a uniprocessor target and a `resource/chain` site
/// on a distributed target; `None` selects every chain/site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Worst-case (and typical) latency bounds.
    Latency {
        /// Restrict to one chain/site.
        chain: Option<String>,
    },
    /// Deadline-miss-model points `dmm(k)` for each `k` in `ks`.
    Dmm {
        /// Restrict to one chain/site.
        chain: Option<String>,
        /// Window lengths to evaluate.
        ks: Vec<u64>,
    },
    /// A packing witness explaining `dmm(k)` for one chain/site.
    Witness {
        /// The chain/site to explain.
        chain: String,
        /// The window length.
        k: u64,
    },
    /// Weakly-hard `(m, k)` verdicts.
    WeaklyHard {
        /// Restrict to one chain/site.
        chain: Option<String>,
        /// Tolerated misses.
        m: u64,
        /// Window length.
        k: u64,
    },
    /// Largest overload scaling (percent) under which `(m, k)` holds
    /// for one chain/site.
    Sensitivity {
        /// The chain/site to probe.
        chain: String,
        /// Tolerated misses.
        m: u64,
        /// Window length.
        k: u64,
        /// Upper end of the percentage search range.
        max_percent: u64,
    },
    /// End-to-end bounds along a linked path (distributed targets
    /// only).
    Path {
        /// The sites of the path, in order.
        hops: Vec<SiteSpec>,
        /// Window lengths for the end-to-end miss model.
        ks: Vec<u64>,
    },
    /// The full batch pipeline: per-chain latencies plus a miss-model
    /// sweep — exactly what one [`crate::batch`] slot computes.
    Full {
        /// Window lengths of the sweep.
        ks: Vec<u64>,
    },
    /// Cache statistics and service counters of the answering process.
    /// Usable without a target (see [`Target::Service`]); with a
    /// target it rides along with the analysis queries on the same
    /// session.
    ///
    /// The answer is a point-in-time snapshot of the counters when the
    /// query runs. A multi-worker server may run it before an earlier
    /// request on the same connection has been served (responses still
    /// come back in submission order), so it need not count that
    /// request yet.
    Stats,
    /// Stores (or replaces) a named system in the session's
    /// [`crate::SystemStore`]. Exactly one of `system` (uniprocessor
    /// DSL) and `dist` (linked-resource DSL) must be given. Usable
    /// without a target.
    StorePut {
        /// The entry name.
        name: String,
        /// Uniprocessor chain-system DSL text.
        system: Option<String>,
        /// Linked-resource document text.
        dist: Option<String>,
        /// Client-chosen idempotency id: a put carrying one is applied
        /// at most once, so a client may safely retry it after a
        /// transport failure that swallowed the acknowledgement.
        dedup: Option<String>,
    },
    /// Analyzes the current version of a stored system, reusing the
    /// entry's warm per-resource rows so only the parts affected by
    /// the latest edits are recomputed. Usable without a target.
    StoreAnalyze {
        /// The entry name.
        name: String,
        /// Window lengths of the per-chain miss-model sweep.
        ks: Vec<u64>,
    },
    /// Monte Carlo simulation: empirical per-chain miss rates with
    /// confidence intervals (uniprocessor targets only).
    Simulate {
        /// Restrict the report to one chain.
        chain: Option<String>,
        /// Number of simulation runs.
        runs: u64,
        /// Horizon of each run, in time units.
        horizon: u64,
        /// Base RNG seed; reports are deterministic in it.
        seed: u64,
        /// Worker threads; the report is identical at any count.
        threads: u64,
    },
}

impl Query {
    /// Whether the query asks about the serving process (its cache,
    /// counters, or system store) rather than a request target — the
    /// queries a [`Target::Service`] request may carry.
    pub fn is_service(&self) -> bool {
        matches!(
            self,
            Query::Stats | Query::StorePut { .. } | Query::StoreAnalyze { .. }
        )
    }
}

/// Per-request knobs; every field defaults to the session's setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestOptions {
    /// Busy-window divergence horizon.
    pub horizon: Option<u64>,
    /// Busy-window activation limit.
    pub max_q: Option<u64>,
    /// Explicit combination limit (under the default lazy engine this
    /// bounds witness expansion and the per-chain option arenas, not
    /// analysis feasibility).
    pub max_combinations: Option<u64>,
    /// Holistic sweep limit (distributed targets).
    pub max_sweeps: Option<u64>,
    /// Work budget in query units; see [`crate::RequestControl`].
    pub budget: Option<u64>,
}

impl RequestOptions {
    fn is_default(&self) -> bool {
        *self == RequestOptions::default()
    }
}

/// One unit of work for a [`crate::Session`]: a target, the questions
/// to answer about it, and option overrides.
///
/// # Examples
///
/// ```
/// use twca_api::{AnalysisRequest, Query, Target};
///
/// let request = AnalysisRequest::for_system("chain c periodic=100 { task t prio=1 wcet=10 }")
///     .with_id("q1")
///     .with_query(Query::Latency { chain: None });
/// let line = request.to_json().to_string();
/// let reparsed = AnalysisRequest::from_json(&twca_api::Json::parse(&line).unwrap()).unwrap();
/// assert_eq!(request, reparsed);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// What to analyze.
    pub target: Target,
    /// The questions, answered in order.
    pub queries: Vec<Query>,
    /// Option overrides.
    pub options: RequestOptions,
}

impl AnalysisRequest {
    /// A request against one chain system (DSL text) with no queries
    /// yet.
    pub fn for_system(system: impl Into<String>) -> AnalysisRequest {
        AnalysisRequest {
            id: None,
            target: Target::Chains {
                system: system.into(),
            },
            queries: Vec::new(),
            options: RequestOptions::default(),
        }
    }

    /// A request against a linked-resource document.
    pub fn for_dist_text(text: impl Into<String>) -> AnalysisRequest {
        AnalysisRequest {
            id: None,
            target: Target::DistText { text: text.into() },
            queries: Vec::new(),
            options: RequestOptions::default(),
        }
    }

    /// Sets the correlation id.
    #[must_use]
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(id.into());
        self
    }

    /// Appends a query.
    #[must_use]
    pub fn with_query(mut self, query: Query) -> Self {
        self.queries.push(query);
        self
    }

    /// Replaces the option overrides.
    #[must_use]
    pub fn with_options(mut self, options: RequestOptions) -> Self {
        self.options = options;
        self
    }

    /// Serializes the request as its wire object.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![("v".into(), Json::UInt(SCHEMA_VERSION))];
        if let Some(id) = &self.id {
            members.push(("id".into(), Json::str(id)));
        }
        match &self.target {
            Target::Chains { system } => {
                members.push(("system".into(), Json::str(system)));
            }
            Target::Distributed { resources, links } => {
                members.push((
                    "resources".into(),
                    Json::Object(
                        resources
                            .iter()
                            .map(|(name, text)| (name.clone(), Json::str(text)))
                            .collect(),
                    ),
                ));
                members.push((
                    "links".into(),
                    Json::Array(
                        links
                            .iter()
                            .map(|link| {
                                Json::Object(vec![
                                    ("from".into(), Json::str(link.from.to_wire())),
                                    ("to".into(), Json::str(link.to.to_wire())),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            Target::DistText { text } => {
                members.push(("dist".into(), Json::str(text)));
            }
            Target::Service => {}
        }
        members.push((
            "queries".into(),
            Json::Array(self.queries.iter().map(query_to_json).collect()),
        ));
        if !self.options.is_default() {
            members.push(("options".into(), options_to_json(&self.options)));
        }
        Json::Object(members)
    }

    /// Parses the wire object back into a request.
    ///
    /// # Errors
    ///
    /// [`ApiError`] of kind `version` for unsupported versions and
    /// `request` for structural problems.
    pub fn from_json(value: &Json) -> Result<AnalysisRequest, ApiError> {
        let obj = value
            .as_object()
            .ok_or_else(|| ApiError::request("a request must be a JSON object"))?;
        if let Some(v) = value.get("v") {
            let v = v
                .as_u64()
                .ok_or_else(|| ApiError::request("`v` must be an integer"))?;
            if v != SCHEMA_VERSION {
                return Err(ApiError::new(
                    crate::ApiErrorKind::Version,
                    format!(
                        "schema version {v} is not supported (this build speaks {SCHEMA_VERSION})"
                    ),
                ));
            }
        }
        let id = match value.get("id") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(ApiError::request("`id` must be a string")),
        };

        let has = |key: &str| obj.iter().any(|(k, _)| k == key);
        let target = if has("system") {
            if has("resources") || has("dist") {
                return Err(ApiError::request(
                    "give exactly one of `system`, `resources`, `dist`",
                ));
            }
            Target::Chains {
                system: value
                    .get("system")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ApiError::request("`system` must be a string"))?
                    .to_owned(),
            }
        } else if has("resources") {
            if has("dist") {
                return Err(ApiError::request(
                    "give exactly one of `system`, `resources`, `dist`",
                ));
            }
            let resources = value
                .get("resources")
                .and_then(Json::as_object)
                .ok_or_else(|| ApiError::request("`resources` must be an object"))?
                .iter()
                .map(|(name, text)| {
                    text.as_str()
                        .map(|t| (name.clone(), t.to_owned()))
                        .ok_or_else(|| {
                            ApiError::request(format!("resource `{name}` must map to DSL text"))
                        })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let links = match value.get("links") {
                None => Vec::new(),
                Some(Json::Array(items)) => items
                    .iter()
                    .map(|item| {
                        let from = item
                            .get("from")
                            .and_then(Json::as_str)
                            .ok_or_else(|| ApiError::request("a link needs a `from` site"))?;
                        let to = item
                            .get("to")
                            .and_then(Json::as_str)
                            .ok_or_else(|| ApiError::request("a link needs a `to` site"))?;
                        Ok(LinkSpec {
                            from: SiteSpec::parse(from)?,
                            to: SiteSpec::parse(to)?,
                        })
                    })
                    .collect::<Result<Vec<_>, ApiError>>()?,
                Some(_) => return Err(ApiError::request("`links` must be an array")),
            };
            Target::Distributed { resources, links }
        } else if has("dist") {
            Target::DistText {
                text: value
                    .get("dist")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ApiError::request("`dist` must be a string"))?
                    .to_owned(),
            }
        } else {
            Target::Service
        };

        let queries = match value.get("queries") {
            None => vec![Query::Latency { chain: None }],
            Some(Json::Array(items)) => items
                .iter()
                .map(query_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(ApiError::request("`queries` must be an array")),
        };
        if target == Target::Service
            && (queries.is_empty() || !queries.iter().all(Query::is_service))
        {
            return Err(ApiError::request(
                "a request needs a target: `system`, `resources` or `dist` \
                 (only `stats`, `store_put` and `store_analyze` requests may omit it)",
            ));
        }
        let options = match value.get("options") {
            None => RequestOptions::default(),
            Some(v) => options_from_json(v)?,
        };
        Ok(AnalysisRequest {
            id,
            target,
            queries,
            options,
        })
    }
}

fn push_opt_chain(members: &mut Vec<(String, Json)>, chain: &Option<String>) {
    if let Some(chain) = chain {
        members.push(("chain".into(), Json::str(chain)));
    }
}

fn query_to_json(query: &Query) -> Json {
    let (tag, body) = match query {
        Query::Latency { chain } => {
            let mut members = Vec::new();
            push_opt_chain(&mut members, chain);
            ("latency", members)
        }
        Query::Dmm { chain, ks } => {
            let mut members = Vec::new();
            push_opt_chain(&mut members, chain);
            members.push((
                "ks".into(),
                Json::Array(ks.iter().map(|&k| Json::UInt(k)).collect()),
            ));
            ("dmm", members)
        }
        Query::Witness { chain, k } => (
            "witness",
            vec![
                ("chain".into(), Json::str(chain)),
                ("k".into(), Json::UInt(*k)),
            ],
        ),
        Query::WeaklyHard { chain, m, k } => {
            let mut members = Vec::new();
            push_opt_chain(&mut members, chain);
            members.push(("m".into(), Json::UInt(*m)));
            members.push(("k".into(), Json::UInt(*k)));
            ("weakly_hard", members)
        }
        Query::Sensitivity {
            chain,
            m,
            k,
            max_percent,
        } => (
            "sensitivity",
            vec![
                ("chain".into(), Json::str(chain)),
                ("m".into(), Json::UInt(*m)),
                ("k".into(), Json::UInt(*k)),
                ("max_percent".into(), Json::UInt(*max_percent)),
            ],
        ),
        Query::Path { hops, ks } => (
            "path",
            vec![
                (
                    "hops".into(),
                    Json::Array(hops.iter().map(|h| Json::str(h.to_wire())).collect()),
                ),
                (
                    "ks".into(),
                    Json::Array(ks.iter().map(|&k| Json::UInt(k)).collect()),
                ),
            ],
        ),
        Query::Full { ks } => (
            "full",
            vec![(
                "ks".into(),
                Json::Array(ks.iter().map(|&k| Json::UInt(k)).collect()),
            )],
        ),
        Query::Stats => ("stats", Vec::new()),
        Query::StorePut {
            name,
            system,
            dist,
            dedup,
        } => {
            let mut members = vec![("name".into(), Json::str(name))];
            if let Some(system) = system {
                members.push(("system".into(), Json::str(system)));
            }
            if let Some(dist) = dist {
                members.push(("dist".into(), Json::str(dist)));
            }
            if let Some(dedup) = dedup {
                members.push(("dedup".into(), Json::str(dedup)));
            }
            ("store_put", members)
        }
        Query::StoreAnalyze { name, ks } => (
            "store_analyze",
            vec![
                ("name".into(), Json::str(name)),
                (
                    "ks".into(),
                    Json::Array(ks.iter().map(|&k| Json::UInt(k)).collect()),
                ),
            ],
        ),
        Query::Simulate {
            chain,
            runs,
            horizon,
            seed,
            threads,
        } => {
            let mut members = Vec::new();
            push_opt_chain(&mut members, chain);
            members.push(("runs".into(), Json::UInt(*runs)));
            members.push(("horizon".into(), Json::UInt(*horizon)));
            members.push(("seed".into(), Json::UInt(*seed)));
            members.push(("threads".into(), Json::UInt(*threads)));
            ("simulate", members)
        }
    };
    Json::Object(vec![(tag.into(), Json::Object(body))])
}

fn u64_list(value: &Json, what: &str) -> Result<Vec<u64>, ApiError> {
    value
        .as_array()
        .ok_or_else(|| ApiError::request(format!("`{what}` must be an array of integers")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| ApiError::request(format!("`{what}` must contain only integers")))
        })
        .collect()
}

fn opt_chain(body: &Json) -> Result<Option<String>, ApiError> {
    match body.get("chain") {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ApiError::request("`chain` must be a string")),
    }
}

fn req_u64(body: &Json, key: &str) -> Result<u64, ApiError> {
    body.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ApiError::request(format!("query needs an integer `{key}`")))
}

fn req_str(body: &Json, key: &str) -> Result<String, ApiError> {
    body.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ApiError::request(format!("query needs a string `{key}`")))
}

fn opt_str(body: &Json, key: &str) -> Result<Option<String>, ApiError> {
    match body.get(key) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ApiError::request(format!("`{key}` must be a string"))),
    }
}

fn query_from_json(value: &Json) -> Result<Query, ApiError> {
    let obj = value
        .as_object()
        .ok_or_else(|| ApiError::request("each query must be an object"))?;
    if obj.len() != 1 {
        return Err(ApiError::request(
            "each query must be a single `{\"kind\": {...}}` object",
        ));
    }
    let (tag, body) = &obj[0];
    Ok(match tag.as_str() {
        "latency" => Query::Latency {
            chain: opt_chain(body)?,
        },
        "dmm" => Query::Dmm {
            chain: opt_chain(body)?,
            ks: u64_list(
                body.get("ks")
                    .ok_or_else(|| ApiError::request("`dmm` needs `ks`"))?,
                "ks",
            )?,
        },
        "witness" => Query::Witness {
            chain: req_str(body, "chain")?,
            k: req_u64(body, "k")?,
        },
        "weakly_hard" => Query::WeaklyHard {
            chain: opt_chain(body)?,
            m: req_u64(body, "m")?,
            k: req_u64(body, "k")?,
        },
        "sensitivity" => Query::Sensitivity {
            chain: req_str(body, "chain")?,
            m: req_u64(body, "m")?,
            k: req_u64(body, "k")?,
            max_percent: req_u64(body, "max_percent")?,
        },
        "path" => Query::Path {
            hops: body
                .get("hops")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::request("`path` needs a `hops` array"))?
                .iter()
                .map(|h| {
                    h.as_str()
                        .ok_or_else(|| ApiError::request("each hop must be `resource/chain`"))
                        .and_then(SiteSpec::parse)
                })
                .collect::<Result<Vec<_>, _>>()?,
            ks: u64_list(
                body.get("ks")
                    .ok_or_else(|| ApiError::request("`path` needs `ks`"))?,
                "ks",
            )?,
        },
        "full" => Query::Full {
            ks: u64_list(
                body.get("ks")
                    .ok_or_else(|| ApiError::request("`full` needs `ks`"))?,
                "ks",
            )?,
        },
        "stats" => Query::Stats,
        "store_put" => Query::StorePut {
            name: req_str(body, "name")?,
            system: opt_str(body, "system")?,
            dist: opt_str(body, "dist")?,
            dedup: opt_str(body, "dedup")?,
        },
        "store_analyze" => Query::StoreAnalyze {
            name: req_str(body, "name")?,
            ks: u64_list(
                body.get("ks")
                    .ok_or_else(|| ApiError::request("`store_analyze` needs `ks`"))?,
                "ks",
            )?,
        },
        "simulate" => Query::Simulate {
            chain: opt_chain(body)?,
            runs: req_u64(body, "runs")?,
            horizon: req_u64(body, "horizon")?,
            seed: req_u64(body, "seed")?,
            threads: req_u64(body, "threads")?,
        },
        other => {
            return Err(ApiError::request(format!("unknown query kind `{other}`")));
        }
    })
}

fn options_to_json(options: &RequestOptions) -> Json {
    let mut members = Vec::new();
    let mut push = |key: &str, value: Option<u64>| {
        if let Some(v) = value {
            members.push((key.to_owned(), Json::UInt(v)));
        }
    };
    push("horizon", options.horizon);
    push("max_q", options.max_q);
    push("max_combinations", options.max_combinations);
    push("max_sweeps", options.max_sweeps);
    push("budget", options.budget);
    Json::Object(members)
}

fn options_from_json(value: &Json) -> Result<RequestOptions, ApiError> {
    let obj = value
        .as_object()
        .ok_or_else(|| ApiError::request("`options` must be an object"))?;
    let mut options = RequestOptions::default();
    for (key, v) in obj {
        // The key is checked before the value, so an unknown option is
        // reported as unknown whatever its value.
        let slot = match key.as_str() {
            "horizon" => &mut options.horizon,
            "max_q" => &mut options.max_q,
            "max_combinations" => &mut options.max_combinations,
            "max_sweeps" => &mut options.max_sweeps,
            "budget" => &mut options.budget,
            other => {
                return Err(ApiError::request(format!("unknown option `{other}`")));
            }
        };
        *slot = Some(
            v.as_u64()
                .ok_or_else(|| ApiError::request(format!("option `{key}` must be an integer")))?,
        );
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_defaults_to_latency() {
        let value =
            Json::parse(r#"{"system": "chain c periodic=10 { task t prio=1 wcet=1 }"}"#).unwrap();
        let request = AnalysisRequest::from_json(&value).unwrap();
        assert_eq!(request.queries, vec![Query::Latency { chain: None }]);
        assert!(request.id.is_none());
    }

    #[test]
    fn version_mismatch_is_typed() {
        let value = Json::parse(r#"{"v": 99, "system": "x"}"#).unwrap();
        let error = AnalysisRequest::from_json(&value).unwrap_err();
        assert_eq!(error.kind, crate::ApiErrorKind::Version);
    }

    #[test]
    fn ambiguous_targets_are_rejected() {
        let value = Json::parse(r#"{"system": "x", "dist": "y"}"#).unwrap();
        assert!(AnalysisRequest::from_json(&value).is_err());
        let value = Json::parse(r#"{"queries": []}"#).unwrap();
        assert!(AnalysisRequest::from_json(&value).is_err());
    }

    #[test]
    fn every_query_kind_round_trips() {
        let request = AnalysisRequest::for_system("chain c periodic=10 { task t prio=1 wcet=1 }")
            .with_id("all-queries")
            .with_query(Query::Latency { chain: None })
            .with_query(Query::Latency {
                chain: Some("c".into()),
            })
            .with_query(Query::Dmm {
                chain: None,
                ks: vec![1, 10, 100],
            })
            .with_query(Query::Witness {
                chain: "c".into(),
                k: 10,
            })
            .with_query(Query::WeaklyHard {
                chain: Some("c".into()),
                m: 1,
                k: 10,
            })
            .with_query(Query::Sensitivity {
                chain: "c".into(),
                m: 1,
                k: 10,
                max_percent: 200,
            })
            .with_query(Query::Path {
                hops: vec![
                    SiteSpec::parse("e0/c").unwrap(),
                    SiteSpec::parse("e1/d").unwrap(),
                ],
                ks: vec![5],
            })
            .with_query(Query::Full { ks: vec![1, 10] })
            .with_query(Query::Stats)
            .with_query(Query::StorePut {
                name: "plant".into(),
                system: Some("chain c periodic=10 { task t prio=1 wcet=1 }".into()),
                dist: None,
                dedup: None,
            })
            .with_query(Query::StorePut {
                name: "grid".into(),
                system: None,
                dist: Some("resource r { chain c periodic=10 { task t prio=1 wcet=1 } }".into()),
                dedup: Some("put-7f".into()),
            })
            .with_query(Query::StoreAnalyze {
                name: "plant".into(),
                ks: vec![1, 10],
            })
            .with_query(Query::Simulate {
                chain: Some("c".into()),
                runs: 50,
                horizon: 100_000,
                seed: 7,
                threads: 4,
            })
            .with_options(RequestOptions {
                horizon: Some(1_000_000),
                budget: Some(500),
                ..RequestOptions::default()
            });
        let wire = request.to_json().to_string();
        let reparsed = AnalysisRequest::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(request, reparsed);
    }

    #[test]
    fn pure_stats_requests_may_omit_the_target() {
        let value = Json::parse(r#"{"queries": [{"stats": {}}]}"#).unwrap();
        let request = AnalysisRequest::from_json(&value).unwrap();
        assert_eq!(request.target, Target::Service);
        assert_eq!(request.queries, vec![Query::Stats]);
        let wire = request.to_json().to_string();
        let reparsed = AnalysisRequest::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(request, reparsed);

        // Anything beyond service queries still needs a target.
        let value = Json::parse(r#"{"queries": [{"stats": {}}, {"latency": {}}]}"#).unwrap();
        assert!(AnalysisRequest::from_json(&value).is_err());
        let value = Json::parse("{}").unwrap();
        assert!(AnalysisRequest::from_json(&value).is_err());
    }

    #[test]
    fn store_requests_may_omit_the_target() {
        let value = Json::parse(
            r#"{"queries": [
                {"store_put": {"name": "s", "system": "chain c periodic=10 { task t prio=1 wcet=1 }"}},
                {"store_analyze": {"name": "s", "ks": [1, 10]}},
                {"stats": {}}
            ]}"#,
        )
        .unwrap();
        let request = AnalysisRequest::from_json(&value).unwrap();
        assert_eq!(request.target, Target::Service);
        assert_eq!(request.queries.len(), 3);
        let wire = request.to_json().to_string();
        let reparsed = AnalysisRequest::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(request, reparsed);
    }

    #[test]
    fn distributed_target_round_trips() {
        let request = AnalysisRequest {
            id: Some("d".into()),
            target: Target::Distributed {
                resources: vec![("e0".into(), "a".into()), ("e1".into(), "b".into())],
                links: vec![LinkSpec {
                    from: SiteSpec::parse("e0/c").unwrap(),
                    to: SiteSpec::parse("e1/d").unwrap(),
                }],
            },
            queries: vec![Query::Latency { chain: None }],
            options: RequestOptions::default(),
        };
        let wire = request.to_json().to_string();
        let reparsed = AnalysisRequest::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(request, reparsed);
    }

    #[test]
    fn bad_sites_and_options_are_rejected() {
        assert!(SiteSpec::parse("nochain").is_err());
        assert!(SiteSpec::parse("/c").is_err());
        let value = Json::parse(r#"{"system": "x", "options": {"bogus": 1}}"#).unwrap();
        assert!(AnalysisRequest::from_json(&value).is_err());
        let value = Json::parse(r#"{"system": "x", "options": {"max_q": "many"}}"#).unwrap();
        let error = AnalysisRequest::from_json(&value).unwrap_err();
        assert!(error.message.contains("must be an integer"), "{error}");
    }
}
