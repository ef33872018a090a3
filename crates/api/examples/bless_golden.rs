//! Re-records the golden wire-format fixtures under `tests/golden/`.
//!
//! Run after a **deliberate** schema change (with a
//! [`twca_api::SCHEMA_VERSION`] bump):
//!
//! ```text
//! cargo run -p twca-api --example bless_golden
//! ```
//!
//! The DTOs rendered here are kept in sync with the expectations in
//! `tests/golden.rs` — if you change one, change both.

use std::fs;
use std::path::Path;

use twca_api::{
    respond_line, AnalysisRequest, AnalysisResponse, ApiError, ApiErrorKind, ChainOutcome,
    DmmOutcome, DmmPoint, LatencyOutcome, LinkSpec, Query, QueryOutcome, RequestOptions, Session,
    SiteSpec, SystemOutcome, Target, WitnessOutcome,
};

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
            links: vec![LinkSpec {
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

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    fs::create_dir_all(&dir).expect("create golden dir");

    fs::write(
        dir.join("request_v1.json"),
        format!("{}\n", golden_request().to_json()),
    )
    .unwrap();
    fs::write(
        dir.join("response_v1.json"),
        format!("{}\n", golden_response().to_json()),
    )
    .unwrap();
    fs::write(
        dir.join("error_v1.json"),
        format!(
            "{}\n",
            AnalysisResponse::error(
                Some("golden-err".into()),
                ApiError::new(ApiErrorKind::Parse, "line 2: expected `{`"),
            )
            .to_json()
        ),
    )
    .unwrap();

    // Replay each recorded request stream through a fresh session.
    for stream in ["stream_v1", "all_kinds_v1", "unknown_options_v1"] {
        let requests = fs::read_to_string(dir.join(format!("{stream}_requests.jsonl")))
            .unwrap_or_else(|e| panic!("{stream}_requests.jsonl: {e}"));
        let session = Session::new();
        let responses: String = requests
            .lines()
            .filter(|line| !line.trim().is_empty())
            .map(|line| format!("{}\n", respond_line(&session, line).to_json()))
            .collect();
        fs::write(dir.join(format!("{stream}_responses.jsonl")), responses).unwrap();
    }

    println!("re-recorded golden fixtures in {}", dir.display());
}
