//! A request/response golden for the distributed backend: `latency`,
//! `dmm`, `weakly_hard` and `path` on the corpus `.dist` documents (and
//! on the pipeline with its resources declared in reverse), explicit
//! queries on deadline-less sites (the error rows), and a
//! `store_put` + `store_analyze` pair followed by a one-WCET edit and
//! its delta re-analysis. Every line is answered through
//! [`twca_api::respond_line`] on one session (the store queries share
//! its in-memory store) and must match the recorded bytes exactly.

use twca_api::{respond_line, Session};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden fixture {}: {e}", path.display()))
}

#[test]
fn distributed_answers_match_the_golden() {
    let requests = fixture("dist_requests.jsonl");
    let expected = fixture("dist_responses.jsonl");
    let session = Session::new();
    let requests: Vec<&str> = requests.lines().collect();
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(requests.len(), expected.len(), "one response per request");
    for (request, want) in requests.iter().zip(expected) {
        let got = respond_line(&session, request).to_json().to_string();
        assert_eq!(got, want, "distributed answer drifted");
    }
}
