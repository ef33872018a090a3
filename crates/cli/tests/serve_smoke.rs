//! Smoke tests of the real `twca serve` binary: requests piped through
//! stdin (or `--file`) come back one response per request, in input
//! order, from one warm session — and the stdio lane is a worker-pool
//! lane in both modes: hostile lines draw typed errors without ending
//! the stream, one lane never overflows the queue, and `stats` sees
//! the pool's counters.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

use twca_api::{AnalysisResponse, ApiErrorKind, Json, QueryOutcome};

const CHAIN: &str = "chain c periodic=100 deadline=100 sync { task t prio=1 wcet=10 }";
const DIST: &str = "resource e0 { chain c periodic=100 deadline=100 { task t prio=1 wcet=10 } } \
                    resource e1 { chain d periodic=100 deadline=150 { task u prio=1 wcet=15 } } \
                    link e0/c -> e1/d";

/// Runs `twca serve ARGS` with `input` on stdin until it exits.
fn run_serve(args: &[&str], input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_twca"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn twca serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input = input.to_vec();
    // Feed stdin from its own thread so a large input cannot deadlock
    // against the responses filling the stdout pipe.
    let feeder = std::thread::spawn(move || stdin.write_all(&input));
    let output = child.wait_with_output().expect("twca serve exits");
    feeder.join().unwrap().expect("write requests");
    assert!(
        output.status.success(),
        "serve exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn responses(output: &Output) -> Vec<AnalysisResponse> {
    String::from_utf8(output.stdout.clone())
        .expect("UTF-8 responses")
        .lines()
        .map(|line| AnalysisResponse::from_json(&Json::parse(line).expect("valid JSON line")))
        .collect::<Result<_, _>>()
        .expect("every line is a response")
}

fn chain_request(id: &str) -> String {
    format!("{{\"id\": \"{id}\", \"system\": \"{CHAIN}\"}}\n")
}

/// The request error a response carries, with its message.
fn request_error(response: &AnalysisResponse) -> &str {
    let error = response.outcome.as_ref().expect_err("an error response");
    assert_eq!(error.kind, ApiErrorKind::Request, "{error}");
    &error.message
}

#[test]
fn serve_streams_mixed_requests_in_input_order() {
    // The empty and whitespace-only lines are skipped: not answered,
    // not counted, and no gap in the lane's sequence.
    let requests = format!(
        "\n{}\n\n{}\n \t \n{}\n",
        format_args!(
            "{{\"id\": \"chain-1\", \"system\": \"{CHAIN}\", \
             \"queries\": [{{\"dmm\": {{\"ks\": [1, 10]}}}}]}}"
        ),
        format_args!(
            "{{\"id\": \"dist-2\", \"dist\": \"{DIST}\", \
             \"queries\": [{{\"latency\": {{}}}}, \
             {{\"path\": {{\"hops\": [\"e0/c\", \"e1/d\"], \"ks\": [10]}}}}]}}"
        ),
        chain_request("chain-3"),
    );
    let output = run_serve(&[], requests.as_bytes());
    let responses = responses(&output);
    assert_eq!(responses.len(), 3, "one response per request");
    let ids: Vec<&str> = responses.iter().filter_map(|r| r.id.as_deref()).collect();
    assert_eq!(
        ids,
        ["chain-1", "dist-2", "chain-3"],
        "responses must arrive in input order"
    );
    for response in &responses {
        assert!(response.outcome.is_ok(), "all three requests analyze");
    }
    let stderr = String::from_utf8(output.stderr).expect("UTF-8 summary");
    assert!(
        stderr.contains("served 3 request(s), 0 error(s)"),
        "unexpected summary: {stderr}"
    );
}

#[test]
fn one_lane_waits_instead_of_overflowing_a_small_queue() {
    let path = std::env::temp_dir().join(format!("twca_serve_window_{}.jsonl", std::process::id()));
    let requests: String = (0..200).map(|i| chain_request(&format!("r{i}"))).collect();
    std::fs::write(&path, requests).unwrap();
    let file = path.to_string_lossy().to_string();
    let args = [
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--queue",
        "8",
        "--file",
        &file,
    ];
    let output = run_serve(&args, b"");
    std::fs::remove_file(&path).ok();
    let responses = responses(&output);
    assert_eq!(responses.len(), 200);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.id.as_deref(), Some(format!("r{i}").as_str()));
        assert!(response.outcome.is_ok(), "r{i}: {:?}", response.outcome);
    }
}

#[test]
fn a_non_utf8_line_draws_a_typed_error_and_the_stream_goes_on() {
    let mut input = b"{\"id\": \"bad\xff\"}\n".to_vec();
    input.extend_from_slice(chain_request("after").as_bytes());
    let output = run_serve(&[], &input);
    let responses = responses(&output);
    assert_eq!(responses.len(), 2);
    assert!(request_error(&responses[0]).contains("not valid UTF-8"));
    assert_eq!(responses[1].id.as_deref(), Some("after"));
    assert!(responses[1].outcome.is_ok());
}

#[test]
fn a_line_over_the_frame_cap_draws_a_typed_error_and_the_stream_goes_on() {
    let mut input = vec![b'x'; (1 << 20) + 1];
    input.push(b'\n');
    input.extend_from_slice(chain_request("after").as_bytes());
    let output = run_serve(&[], &input);
    let responses = responses(&output);
    assert_eq!(responses.len(), 2);
    assert!(request_error(&responses[0]).contains("frame too large"));
    assert_eq!(responses[1].id.as_deref(), Some("after"));
    assert!(responses[1].outcome.is_ok());
}

#[test]
fn an_unreadable_input_fails_the_command() {
    let output = Command::new(env!("CARGO_BIN_EXE_twca"))
        .args(["serve", "--file"])
        .arg(std::env::temp_dir())
        .stdin(Stdio::null())
        .output()
        .expect("spawn twca serve");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    // The OS error comes through whole, not reduced to its kind.
    assert!(
        stderr.contains("cannot read input") && stderr.contains("(os error"),
        "{stderr}"
    );
}

#[test]
fn stdio_stats_see_the_pool_counters() {
    let input = format!(
        "{}{}{{\"id\": \"stats\", \"queries\": [{{\"stats\": {{}}}}]}}\n",
        chain_request("a"),
        chain_request("b")
    );
    let output = run_serve(&[], input.as_bytes());
    let responses = responses(&output);
    assert_eq!(responses.len(), 3);
    let outcomes = responses[2].outcome.as_ref().expect("stats answer");
    let QueryOutcome::Stats(stats) = &outcomes[0] else {
        panic!("expected a stats outcome, got {outcomes:?}");
    };
    // The stats request itself is the one in flight.
    assert_eq!((stats.served, stats.in_flight), (2, 1));
}
