//! Property tests: every `AnalysisRequest` / `AnalysisResponse`
//! survives serialize → parse unchanged, for randomly generated DTOs
//! covering every query and outcome kind.

use proptest::prelude::*;

use twca_api::{
    AnalysisRequest, AnalysisResponse, ApiError, ApiErrorKind, ChainOutcome, DmmOutcome, DmmPoint,
    Json, LatencyOutcome, LinkSpec, MkOutcome, PathOutcome, Query, QueryOutcome, RequestOptions,
    SensitivityOutcome, SimChainOutcome, SimulateOutcome, SiteSpec, SystemOutcome, Target,
    WitnessOutcome,
};

fn any_bool() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

fn name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9_]{0,11}").expect("valid regex")
}

/// Free-form text fields: throw escapes, unicode and control
/// characters at the serializer.
fn text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\u{e9}\u{1F600}\n\t\"\\\\]{0,24}").expect("valid regex")
}

fn site() -> impl Strategy<Value = SiteSpec> {
    (name(), name()).prop_map(|(resource, chain)| SiteSpec { resource, chain })
}

fn ks() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..1000, 0..5)
}

fn opt_name() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), name().prop_map(Some)]
}

fn query() -> impl Strategy<Value = Query> {
    prop_oneof![
        opt_name().prop_map(|chain| Query::Latency { chain }),
        (opt_name(), ks()).prop_map(|(chain, ks)| Query::Dmm { chain, ks }),
        (name(), 1u64..100).prop_map(|(chain, k)| Query::Witness { chain, k }),
        (opt_name(), 0u64..10, 1u64..100).prop_map(|(chain, m, k)| Query::WeaklyHard {
            chain,
            m,
            k
        }),
        (name(), 0u64..10, 1u64..100, 1u64..500).prop_map(|(chain, m, k, max_percent)| {
            Query::Sensitivity {
                chain,
                m,
                k,
                max_percent,
            }
        }),
        (proptest::collection::vec(site(), 1..4), ks())
            .prop_map(|(hops, ks)| Query::Path { hops, ks }),
        ks().prop_map(|ks| Query::Full { ks }),
        (
            opt_name(),
            0u64..1000,
            0u64..1_000_000,
            0u64..u64::MAX,
            0u64..64
        )
            .prop_map(|(chain, runs, horizon, seed, threads)| Query::Simulate {
                chain,
                runs,
                horizon,
                seed,
                threads,
            }),
    ]
}

fn knob() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (1u64..1_000_000).prop_map(Some)]
}

fn options() -> impl Strategy<Value = RequestOptions> {
    (knob(), knob(), knob(), knob(), knob()).prop_map(
        |(horizon, max_q, max_combinations, max_sweeps, budget)| RequestOptions {
            horizon,
            max_q,
            max_combinations,
            max_sweeps,
            budget,
        },
    )
}

fn target() -> impl Strategy<Value = Target> {
    prop_oneof![
        text().prop_map(|system| Target::Chains { system }),
        text().prop_map(|text| Target::DistText { text }),
        (
            proptest::collection::vec((name(), text()), 1..3),
            proptest::collection::vec(
                site().prop_flat_map(|f| site().prop_map(move |t| {
                    LinkSpec {
                        from: f.clone(),
                        to: t,
                    }
                })),
                0..3
            ),
        )
            .prop_map(|(mut resources, links)| {
                // Resource names become JSON object keys, which the
                // parser requires to be unique.
                resources.sort_by(|a, b| a.0.cmp(&b.0));
                resources.dedup_by(|a, b| a.0 == b.0);
                Target::Distributed { resources, links }
            }),
    ]
}

fn request() -> impl Strategy<Value = AnalysisRequest> {
    (
        opt_name(),
        target(),
        proptest::collection::vec(query(), 0..5),
        options(),
    )
        .prop_map(|(id, target, queries, options)| AnalysisRequest {
            id,
            target,
            queries,
            options,
        })
}

fn point() -> impl Strategy<Value = DmmPoint> {
    (1u64..100, 0u64..100, any_bool()).prop_map(|(k, bound, informative)| DmmPoint {
        k,
        bound,
        informative,
    })
}

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..1_000_000).prop_map(Some)]
}

fn opt_text() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), text().prop_map(Some)]
}

fn chain_outcome() -> impl Strategy<Value = ChainOutcome> {
    (
        name(),
        opt_u64(),
        any_bool(),
        opt_u64(),
        opt_u64(),
        proptest::collection::vec(point(), 0..4),
        opt_text(),
    )
        .prop_map(
            |(name, deadline, overload, wcl, typical, miss_models, error)| ChainOutcome {
                name,
                deadline,
                overload,
                worst_case_latency: wcl,
                typical_latency: typical,
                miss_models,
                error,
            },
        )
}

fn outcome() -> impl Strategy<Value = QueryOutcome> {
    prop_oneof![
        proptest::collection::vec(
            (name(), opt_u64(), any_bool(), opt_u64(), opt_u64()).prop_map(
                |(name, deadline, overload, wcl, typical)| LatencyOutcome {
                    name,
                    deadline,
                    overload,
                    worst_case_latency: wcl,
                    typical_latency: typical,
                }
            ),
            0..4
        )
        .prop_map(QueryOutcome::Latency),
        proptest::collection::vec(
            (name(), proptest::collection::vec(point(), 0..4), opt_text()).prop_map(
                |(name, points, error)| DmmOutcome {
                    name,
                    points,
                    error,
                }
            ),
            0..4
        )
        .prop_map(QueryOutcome::Dmm),
        (name(), 1u64..100, 0u64..100, any_bool(), text()).prop_map(
            |(name, k, bound, has_witness, text)| {
                QueryOutcome::Witness(WitnessOutcome {
                    name,
                    k,
                    bound,
                    has_witness,
                    text,
                })
            }
        ),
        proptest::collection::vec(
            (name(), 0u64..10, 1u64..100, any_bool()).prop_map(|(name, m, k, satisfied)| {
                MkOutcome {
                    name,
                    m,
                    k,
                    satisfied,
                }
            }),
            0..4
        )
        .prop_map(QueryOutcome::WeaklyHard),
        (name(), 0u64..10, 1u64..100, opt_u64()).prop_map(|(name, m, k, max_percent)| {
            QueryOutcome::Sensitivity(SensitivityOutcome {
                name,
                m,
                k,
                max_percent,
            })
        }),
        (
            proptest::collection::vec(name(), 1..4),
            opt_u64(),
            opt_u64(),
            proptest::collection::vec(point(), 0..4)
        )
            .prop_map(|(hops, latency, composite_deadline, points)| {
                QueryOutcome::Path(PathOutcome {
                    hops,
                    latency,
                    composite_deadline,
                    points,
                })
            }),
        (
            0usize..1000,
            proptest::collection::vec(chain_outcome(), 0..4)
        )
            .prop_map(|(index, chains)| QueryOutcome::Full(SystemOutcome { index, chains })),
        (
            0u64..1000,
            0u64..1_000_000,
            0u64..u64::MAX,
            proptest::collection::vec(sim_row(), 0..4)
        )
            .prop_map(|(runs, horizon, seed, chains)| {
                QueryOutcome::Simulate(SimulateOutcome {
                    runs,
                    horizon,
                    seed,
                    chains,
                })
            }),
    ]
}

fn sim_row() -> impl Strategy<Value = SimChainOutcome> {
    (
        name(),
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..=1_000_000,
        0u64..=1_000_000,
        0u64..=1_000_000,
        opt_u64(),
    )
        .prop_map(
            |(name, instances, misses, miss_rate_ppm, ci_low_ppm, ci_high_ppm, max_latency)| {
                SimChainOutcome {
                    name,
                    instances,
                    misses,
                    miss_rate_ppm,
                    ci_low_ppm,
                    ci_high_ppm,
                    max_latency,
                }
            },
        )
}

fn api_error() -> impl Strategy<Value = ApiError> {
    let kind = prop_oneof![
        Just(ApiErrorKind::Version),
        Just(ApiErrorKind::Json),
        Just(ApiErrorKind::Request),
        Just(ApiErrorKind::Parse),
        Just(ApiErrorKind::Dist),
        Just(ApiErrorKind::Analysis),
        Just(ApiErrorKind::NoSuchChain),
        Just(ApiErrorKind::NoSuchResource),
        Just(ApiErrorKind::Canceled),
        Just(ApiErrorKind::Budget),
        Just(ApiErrorKind::Io),
    ];
    (kind, text()).prop_map(|(kind, message)| ApiError::new(kind, message))
}

fn response() -> impl Strategy<Value = AnalysisResponse> {
    (
        opt_name(),
        prop_oneof![
            proptest::collection::vec(outcome(), 0..5).prop_map(Ok),
            api_error().prop_map(Err),
        ],
    )
        .prop_map(|(id, outcome)| AnalysisResponse {
            v: twca_api::SCHEMA_VERSION,
            id,
            outcome,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip(request in request()) {
        let wire = request.to_json().to_string();
        let value = Json::parse(&wire).expect("serializer emits valid JSON");
        let reparsed = AnalysisRequest::from_json(&value).expect("round-trip parses");
        prop_assert_eq!(request, reparsed);
    }

    #[test]
    fn responses_round_trip(response in response()) {
        let wire = response.to_json().to_string();
        let value = Json::parse(&wire).expect("serializer emits valid JSON");
        let reparsed = AnalysisResponse::from_json(&value).expect("round-trip parses");
        prop_assert_eq!(response, reparsed);
    }

    /// The writer is canonical: parse → print → parse → print is a
    /// fixed point for arbitrary request documents.
    #[test]
    fn serialization_is_canonical(request in request()) {
        let first = request.to_json().to_string();
        let second = Json::parse(&first).unwrap().to_string();
        prop_assert_eq!(first, second);
    }
}
