//! Golden-file tests pinning schema version 1: the wire bytes of a
//! representative request, a representative response, and a request
//! stream answered line by line on one live session must match the
//! recorded fixtures exactly. A failure here means the schema changed
//! — bump [`twca_api::SCHEMA_VERSION`] and re-record deliberately,
//! never accidentally.

use twca_api::{
    respond_line, AnalysisRequest, AnalysisResponse, ApiError, ApiErrorKind, ChainOutcome,
    DmmOutcome, DmmPoint, Json, LatencyOutcome, Query, QueryOutcome, RequestOptions, Session,
    SiteSpec, StorePutOutcome, SystemOutcome, Target, WitnessOutcome,
};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden fixture {}: {e}", path.display()))
}

/// Answers every non-blank line of `input` through [`respond_line`] on
/// one session, one response line per request line.
fn replay(input: &str) -> String {
    let session = Session::new();
    input
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| format!("{}\n", respond_line(&session, line).to_json()))
        .collect()
}

fn golden_request() -> AnalysisRequest {
    AnalysisRequest {
        id: Some("golden-1".into()),
        target: Target::Distributed {
            resources: vec![
                (
                    "ecu0".into(),
                    "chain c periodic=100 deadline=100 sync { task t prio=1 wcet=10 }".into(),
                ),
                (
                    "ecu1".into(),
                    "chain d periodic=100 deadline=150 sync { task u prio=1 wcet=15 }".into(),
                ),
            ],
            links: vec![twca_api::LinkSpec {
                from: SiteSpec::parse("ecu0/c").unwrap(),
                to: SiteSpec::parse("ecu1/d").unwrap(),
            }],
        },
        queries: vec![
            Query::Latency { chain: None },
            Query::Dmm {
                chain: Some("ecu1/d".into()),
                ks: vec![1, 10, 100],
            },
            Query::Path {
                hops: vec![
                    SiteSpec::parse("ecu0/c").unwrap(),
                    SiteSpec::parse("ecu1/d").unwrap(),
                ],
                ks: vec![10],
            },
        ],
        options: RequestOptions {
            horizon: Some(2_000_000),
            budget: Some(10_000),
            ..RequestOptions::default()
        },
    }
}

fn golden_response() -> AnalysisResponse {
    AnalysisResponse::ok(
        Some("golden-1".into()),
        vec![
            QueryOutcome::Latency(vec![LatencyOutcome {
                name: "ecu0/c".into(),
                deadline: Some(100),
                overload: false,
                worst_case_latency: Some(10),
                typical_latency: None,
            }]),
            QueryOutcome::Dmm(vec![DmmOutcome {
                name: "ecu1/d".into(),
                points: vec![DmmPoint {
                    k: 10,
                    bound: 0,
                    informative: true,
                }],
                error: None,
            }]),
            QueryOutcome::Witness(WitnessOutcome {
                name: "c".into(),
                k: 10,
                bound: 5,
                has_witness: true,
                text: "dmm(10) = 5\n".into(),
            }),
            QueryOutcome::Full(SystemOutcome {
                index: 0,
                chains: vec![ChainOutcome {
                    name: "c".into(),
                    deadline: Some(100),
                    overload: false,
                    worst_case_latency: Some(10),
                    typical_latency: Some(10),
                    miss_models: vec![DmmPoint {
                        k: 1,
                        bound: 0,
                        informative: true,
                    }],
                    error: None,
                }],
            }),
        ],
    )
}

#[test]
fn request_schema_v1_is_stable() {
    let expected = fixture("request_v1.json");
    let actual = golden_request().to_json().to_string();
    assert_eq!(actual, expected.trim_end(), "request schema drifted");
    // And the fixture parses back to the identical DTO.
    let reparsed = AnalysisRequest::from_json(&Json::parse(expected.trim_end()).unwrap()).unwrap();
    assert_eq!(reparsed, golden_request());
}

#[test]
fn response_schema_v1_is_stable() {
    let expected = fixture("response_v1.json");
    let actual = golden_response().to_json().to_string();
    assert_eq!(actual, expected.trim_end(), "response schema drifted");
    let reparsed = AnalysisResponse::from_json(&Json::parse(expected.trim_end()).unwrap()).unwrap();
    assert_eq!(reparsed, golden_response());
}

#[test]
fn error_response_schema_v1_is_stable() {
    let expected = fixture("error_v1.json");
    let actual = AnalysisResponse::error(
        Some("golden-err".into()),
        ApiError::new(ApiErrorKind::Parse, "line 2: expected `{`"),
    )
    .to_json()
    .to_string();
    assert_eq!(actual, expected.trim_end(), "error schema drifted");
}

/// A live session over a fixed request stream must reproduce the
/// recorded responses byte for byte — the analysis is deterministic
/// and the serializer canonical.
#[test]
fn served_stream_v1_is_stable() {
    let input = fixture("stream_v1_requests.jsonl");
    let expected = fixture("stream_v1_responses.jsonl");
    assert_eq!(
        replay(&input),
        expected,
        "served bytes drifted from the recorded schema-v1 stream"
    );
}

/// Every outcome kind the goldens above leave out, and every optional
/// field in both of its states: weakly-hard verdicts, sensitivity with
/// and without a bound, fresh and deduped store puts, store analyses of
/// a uniprocessor and a distributed entry, a small simulation, `dmm`
/// and `full` rows that carry `error`, and divergent (`null`) latencies.
#[test]
fn all_outcome_kinds_v1_are_stable() {
    let input = fixture("all_kinds_v1_requests.jsonl");
    let expected = fixture("all_kinds_v1_responses.jsonl");
    let actual = replay(&input);
    assert_eq!(
        actual, expected,
        "served bytes drifted from the recorded all-kinds stream"
    );
    for line in expected.lines() {
        let parsed = Json::parse(line).unwrap();
        let response = AnalysisResponse::from_json(&parsed).unwrap();
        assert_eq!(response.to_json().to_string(), line, "decode lost a field");
    }
}

/// Bodies recorded before a field existed still decode: a `store_put`
/// receipt without `deduped` reads `false`, and a `stats` body without
/// the six edge counters reads them as zero.
#[test]
fn older_response_bodies_decode_with_their_defaults() {
    let put = Json::parse(
        r#"{"v": 1, "ok": [{"store_put": {"name": "g", "version": 2, "resources_changed": 1, "chains_changed": 1, "tasks_changed": 3}}]}"#,
    )
    .unwrap();
    let Ok(outcomes) = AnalysisResponse::from_json(&put).unwrap().outcome else {
        panic!("a store_put body decodes");
    };
    assert_eq!(
        outcomes,
        vec![QueryOutcome::StorePut(StorePutOutcome {
            name: "g".into(),
            version: 2,
            resources_changed: 1,
            chains_changed: 1,
            tasks_changed: 3,
            deduped: false,
        })]
    );

    let stats = Json::parse(
        r#"{"v": 1, "ok": [{"stats": {"cache_hits": 1, "cache_misses": 2, "cache_entries": 3, "evictions": 4, "resident_entries": 5, "resident_bytes_est": 6, "served": 7, "rejected": 8, "in_flight": 9, "panics": 10, "journal_appends": 11, "journal_bytes": 12, "journal_syncs": 13, "snapshots_written": 14, "recovered_records": 15, "truncated_bytes": 16}}]}"#,
    )
    .unwrap();
    let Ok(outcomes) = AnalysisResponse::from_json(&stats).unwrap().outcome else {
        panic!("a stats body decodes");
    };
    let [QueryOutcome::Stats(stats)] = outcomes.as_slice() else {
        panic!("one stats outcome, got {outcomes:?}");
    };
    let values: Vec<u64> = stats.fields().map(|(_, value)| value).collect();
    let mut expected: Vec<u64> = (1..=16).collect();
    expected.extend([0; 6]);
    assert_eq!(values, expected);
}

/// Options the schema does not define are rejected by name, whatever
/// their value — including the retired reference selectors (`solver`,
/// `engine`, `sim_engine`), which are not product options.
#[test]
fn unknown_options_v1_are_rejected_by_name() {
    let input = fixture("unknown_options_v1_requests.jsonl");
    let expected = fixture("unknown_options_v1_responses.jsonl");
    assert_eq!(
        replay(&input),
        expected,
        "unknown-option errors drifted from the recorded schema-v1 stream"
    );
}
