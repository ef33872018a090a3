//! Byte identity of the response line writer: every outcome kind,
//! both arms of the envelope, `null` numbers, absent and present
//! optional strings, and names that need escapes are written exactly as
//! the lines below, which the tree-building encoder this writer
//! replaced produced. Each line also reads back through [`Json`] and
//! renders to itself.

use twca_api::{
    AnalysisResponse, ApiError, ApiErrorKind, ChainOutcome, DmmOutcome, DmmPoint, Json,
    LatencyOutcome, MkOutcome, PathOutcome, QueryOutcome, SensitivityOutcome, SimChainOutcome,
    SimulateOutcome, StatsOutcome, StoreAnalyzeOutcome, StorePutOutcome, SystemOutcome,
    WitnessOutcome,
};

/// Names that need every kind of escape, plus non-ASCII.
const HOSTILE: &str = "q\"uote b\\ack nl\n tab\t cr\r u\u{1} del\u{7f} τ_é 😀";

fn point(k: u64, bound: u64, informative: bool) -> DmmPoint {
    DmmPoint {
        k,
        bound,
        informative,
    }
}

/// One response per outcome kind, the error arm with and without an
/// id, and rows with `null` numbers, absent and present optional
/// strings and names that need escapes.
fn responses() -> Vec<AnalysisResponse> {
    let latency = LatencyOutcome {
        name: HOSTILE.into(),
        overload: true,
        deadline: None,
        worst_case_latency: Some(u64::MAX),
        typical_latency: None,
    };
    let chain = |error: Option<&str>| ChainOutcome {
        name: "sigma_c".into(),
        overload: false,
        deadline: Some(200),
        worst_case_latency: None,
        typical_latency: Some(0),
        miss_models: vec![point(10, 5, true), point(1, 1, false)],
        error: error.map(str::to_owned),
    };
    let ok = |id: Option<&str>, outcome: QueryOutcome| {
        AnalysisResponse::ok(id.map(str::to_owned), vec![outcome])
    };
    vec![
        ok(Some("lat"), QueryOutcome::Latency(vec![latency.clone()])),
        ok(None, QueryOutcome::Latency(Vec::new())),
        ok(
            Some(HOSTILE),
            QueryOutcome::Dmm(vec![
                DmmOutcome {
                    name: "a".into(),
                    points: vec![point(3, 2, true)],
                    error: None,
                },
                DmmOutcome {
                    name: "b/c".into(),
                    points: Vec::new(),
                    error: Some(HOSTILE.into()),
                },
            ]),
        ),
        ok(
            Some("w"),
            QueryOutcome::Witness(WitnessOutcome {
                name: "c".into(),
                k: 10,
                bound: 3,
                has_witness: true,
                text: "line one\nline two\t\"packed\"".into(),
            }),
        ),
        ok(
            Some("mk"),
            QueryOutcome::WeaklyHard(vec![MkOutcome {
                name: "c".into(),
                m: 1,
                k: 10,
                satisfied: false,
            }]),
        ),
        ok(
            Some("sens"),
            QueryOutcome::Sensitivity(SensitivityOutcome {
                name: "c".into(),
                m: 0,
                k: 1,
                max_percent: None,
            }),
        ),
        ok(
            Some("path"),
            QueryOutcome::Path(PathOutcome {
                hops: vec!["r0/a".into(), HOSTILE.into()],
                latency: None,
                composite_deadline: Some(300),
                points: vec![point(100, 7, true)],
            }),
        ),
        ok(
            Some("full"),
            QueryOutcome::Full(SystemOutcome {
                index: 3,
                chains: vec![chain(None), chain(Some("boom \u{1f}"))],
            }),
        ),
        ok(
            Some("stats"),
            QueryOutcome::Stats(StatsOutcome {
                cache_hits: 1,
                resident_bytes_est: 4096,
                queue_depth_peak: 42,
                ..StatsOutcome::default()
            }),
        ),
        ok(
            Some("put"),
            QueryOutcome::StorePut(StorePutOutcome {
                name: HOSTILE.into(),
                version: 2,
                resources_changed: 1,
                chains_changed: 0,
                tasks_changed: 3,
                deduped: true,
            }),
        ),
        ok(
            Some("sa"),
            QueryOutcome::StoreAnalyze(StoreAnalyzeOutcome {
                name: "plant".into(),
                version: 4,
                rows_analyzed: 0,
                memo_hits: 98,
                latency: vec![latency],
                dmm: Vec::new(),
            }),
        ),
        ok(
            Some("sim"),
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
                    max_latency: None,
                }],
            }),
        ),
        AnalysisResponse::ok(Some(String::new()), Vec::new()),
        AnalysisResponse::error(
            Some("e".into()),
            ApiError::new(ApiErrorKind::Parse, "line 3: expected `{`, found `\"`"),
        ),
        AnalysisResponse::error(None, ApiError::new(ApiErrorKind::Internal, HOSTILE)),
    ]
}

/// The lines of [`responses`], in order.
const EXPECTED: [&str; 15] = [
    "{\"v\": 1, \"id\": \"lat\", \"ok\": [{\"latency\": [{\"name\": \"q\\\"uote b\\\\ack nl\\n tab\\t cr\\r u\\u0001 del\u{7f} τ_é 😀\", \"overload\": true, \"deadline\": null, \"wcl\": 18446744073709551615, \"typical_wcl\": null}]}]}",
    "{\"v\": 1, \"ok\": [{\"latency\": []}]}",
    "{\"v\": 1, \"id\": \"q\\\"uote b\\\\ack nl\\n tab\\t cr\\r u\\u0001 del\u{7f} τ_é 😀\", \"ok\": [{\"dmm\": [{\"name\": \"a\", \"points\": [{\"k\": 3, \"bound\": 2, \"informative\": true}]}, {\"name\": \"b/c\", \"points\": [], \"error\": \"q\\\"uote b\\\\ack nl\\n tab\\t cr\\r u\\u0001 del\u{7f} τ_é 😀\"}]}]}",
    "{\"v\": 1, \"id\": \"w\", \"ok\": [{\"witness\": {\"name\": \"c\", \"k\": 10, \"bound\": 3, \"has_witness\": true, \"text\": \"line one\\nline two\\t\\\"packed\\\"\"}}]}",
    "{\"v\": 1, \"id\": \"mk\", \"ok\": [{\"weakly_hard\": [{\"name\": \"c\", \"m\": 1, \"k\": 10, \"satisfied\": false}]}]}",
    "{\"v\": 1, \"id\": \"sens\", \"ok\": [{\"sensitivity\": {\"name\": \"c\", \"m\": 0, \"k\": 1, \"max_percent\": null}}]}",
    "{\"v\": 1, \"id\": \"path\", \"ok\": [{\"path\": {\"hops\": [\"r0/a\", \"q\\\"uote b\\\\ack nl\\n tab\\t cr\\r u\\u0001 del\u{7f} τ_é 😀\"], \"latency\": null, \"composite_deadline\": 300, \"points\": [{\"k\": 100, \"bound\": 7, \"informative\": true}]}}]}",
    "{\"v\": 1, \"id\": \"full\", \"ok\": [{\"full\": {\"index\": 3, \"chains\": [{\"name\": \"sigma_c\", \"overload\": false, \"deadline\": 200, \"wcl\": null, \"typical_wcl\": 0, \"dmm\": [{\"k\": 10, \"bound\": 5, \"informative\": true}, {\"k\": 1, \"bound\": 1, \"informative\": false}]}, {\"name\": \"sigma_c\", \"overload\": false, \"deadline\": 200, \"wcl\": null, \"typical_wcl\": 0, \"dmm\": [{\"k\": 10, \"bound\": 5, \"informative\": true}, {\"k\": 1, \"bound\": 1, \"informative\": false}], \"error\": \"boom \\u001f\"}]}}]}",
    "{\"v\": 1, \"id\": \"stats\", \"ok\": [{\"stats\": {\"cache_hits\": 1, \"cache_misses\": 0, \"cache_entries\": 0, \"evictions\": 0, \"resident_entries\": 0, \"resident_bytes_est\": 4096, \"served\": 0, \"rejected\": 0, \"in_flight\": 0, \"panics\": 0, \"journal_appends\": 0, \"journal_bytes\": 0, \"journal_syncs\": 0, \"snapshots_written\": 0, \"recovered_records\": 0, \"truncated_bytes\": 0, \"open_connections\": 0, \"reaped\": 0, \"timeouts\": 0, \"resets\": 0, \"slow_consumers\": 0, \"queue_depth_peak\": 42}}]}",
    "{\"v\": 1, \"id\": \"put\", \"ok\": [{\"store_put\": {\"name\": \"q\\\"uote b\\\\ack nl\\n tab\\t cr\\r u\\u0001 del\u{7f} τ_é 😀\", \"version\": 2, \"resources_changed\": 1, \"chains_changed\": 0, \"tasks_changed\": 3, \"deduped\": true}}]}",
    "{\"v\": 1, \"id\": \"sa\", \"ok\": [{\"store_analyze\": {\"name\": \"plant\", \"version\": 4, \"rows_analyzed\": 0, \"memo_hits\": 98, \"latency\": [{\"name\": \"q\\\"uote b\\\\ack nl\\n tab\\t cr\\r u\\u0001 del\u{7f} τ_é 😀\", \"overload\": true, \"deadline\": null, \"wcl\": 18446744073709551615, \"typical_wcl\": null}], \"dmm\": []}}]}",
    "{\"v\": 1, \"id\": \"sim\", \"ok\": [{\"simulate\": {\"runs\": 100, \"horizon\": 50000, \"seed\": 42, \"chains\": [{\"name\": \"c\", \"instances\": 5000, \"misses\": 125, \"miss_rate_ppm\": 25000, \"ci_low_ppm\": 21000, \"ci_high_ppm\": 29600, \"max_latency\": null}]}}]}",
    "{\"v\": 1, \"id\": \"\", \"ok\": []}",
    "{\"v\": 1, \"id\": \"e\", \"error\": {\"kind\": \"parse\", \"message\": \"line 3: expected `{`, found `\\\"`\"}}",
    "{\"v\": 1, \"error\": {\"kind\": \"internal\", \"message\": \"q\\\"uote b\\\\ack nl\\n tab\\t cr\\r u\\u0001 del\u{7f} τ_é 😀\"}}",
];

#[test]
fn written_lines_match_the_recorded_bytes() {
    let responses = responses();
    assert_eq!(responses.len(), EXPECTED.len());
    for (response, expected) in responses.iter().zip(EXPECTED) {
        let line = response.to_line();
        assert_eq!(line, expected);
        assert_eq!(response.to_json().to_string(), line);
        assert_eq!(Json::parse(&line).unwrap().to_string(), line);
        let reparsed = AnalysisResponse::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(&reparsed, response);
    }
}

#[test]
fn chain_outcomes_write_the_bytes_of_their_response_rows() {
    let responses = responses();
    let Ok(outcomes) = &responses[7].outcome else {
        panic!("the `full` response is an ok response");
    };
    let QueryOutcome::Full(system) = &outcomes[0] else {
        panic!("the `full` response answers a full query");
    };
    let rows: Vec<String> = system
        .chains
        .iter()
        .map(|chain| chain.to_json().to_string())
        .collect();
    assert!(EXPECTED[7].contains(&rows.join(", ")), "{rows:?}");
    let body = EXPECTED[7]
        .strip_prefix("{\"v\": 1, \"id\": \"full\", \"ok\": [{\"full\": ")
        .and_then(|rest| rest.strip_suffix("}]}"))
        .expect("the `full` line wraps one system object");
    assert_eq!(system.to_json().to_string(), body);
}
