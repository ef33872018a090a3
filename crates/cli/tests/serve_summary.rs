//! Pins every line of the real `twca serve` drain summary except the
//! latency timings: the `served`/`cache:` line (with an error
//! counted), the `persist:` line
//! of a durable store before and after a restart, and the `edge:`
//! line of a TCP server whose connection counters moved.

use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::{Shutdown, TcpStream};
use std::process::{Command, Stdio};

const PUT_10: &str = r#"{"queries": [{"store_put": {"name": "plant", "system": "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }"}}]}"#;
const PUT_12: &str = r#"{"queries": [{"store_put": {"name": "plant", "system": "chain c periodic=100 deadline=100 { task t prio=1 wcet=12 }"}}]}"#;
const ANALYZE: &str = r#"{"queries": [{"store_analyze": {"name": "plant", "ks": [1, 10]}}]}"#;
const MISSING: &str = r#"{"queries": [{"store_analyze": {"name": "missing", "ks": [1]}}]}"#;
const CHAIN: &str =
    r#"{"id": "tcp", "system": "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }"}"#;

/// The summary with the latency timings masked: each number followed
/// by `µs` on the `latency:` line becomes `_`.
fn mask_latency(stderr: &str) -> String {
    stderr
        .lines()
        .map(|line| {
            if !line.starts_with("latency: ") {
                return line.to_owned();
            }
            let words: Vec<&str> = line.split(' ').collect();
            words
                .iter()
                .enumerate()
                .map(|(i, word)| match words.get(i + 1) {
                    Some(&"µs") => "_",
                    _ => word,
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .map(|line| line + "\n")
        .collect()
}

/// Runs `twca serve ARGS` over `input` and returns its stderr.
fn serve_stderr(args: &[&str], input: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_twca"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("twca serve runs");
    assert!(output.status.success(), "{output:?}");
    String::from_utf8(output.stderr).expect("UTF-8 summary")
}

#[test]
fn the_durable_drain_summary_is_pinned_across_a_restart() {
    let dir = std::env::temp_dir().join(format!("twca-serve-summary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let args = ["--store-dir", dir_arg];

    let first = serve_stderr(
        &args,
        &format!("{PUT_10}\n{PUT_12}\n{MISSING}\n{ANALYZE}\n"),
    );
    assert_eq!(
        mask_latency(&first),
        format!(
            "recovered store from {dir_arg}: 0 entries (0 journal record(s) replayed, \
             0 skipped, 0 torn byte(s) truncated)\n\
             served 4 request(s), 1 error(s); cache: 1 hits / 4 misses \
             (4 entries, 0 evicted, ~0 KiB resident)\n\
             latency: min _ µs / mean _ µs / max _ µs over 4 timed request(s)\n\
             persist: 2 journal append(s) (222 bytes, 2 fsync(s)), 1 snapshot(s); \
             recovered 0 entries (0 replayed, 0 skipped, 0 torn byte(s) truncated)\n"
        )
    );

    // The restart recovers from the drain snapshot; its own drain
    // flushes one more snapshot, which the `persist:` line counts.
    let second = serve_stderr(&args, &format!("{ANALYZE}\n"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        mask_latency(&second),
        format!(
            "recovered store from {dir_arg}: 1 entry (0 journal record(s) replayed, \
             0 skipped, 0 torn byte(s) truncated)\n\
             served 1 request(s), 0 error(s); cache: 1 hits / 4 misses \
             (4 entries, 0 evicted, ~0 KiB resident)\n\
             latency: min _ µs / mean _ µs / max _ µs over 1 timed request(s)\n\
             persist: 0 journal append(s) (0 bytes, 0 fsync(s)), 1 snapshot(s); \
             recovered 1 entry (0 replayed, 0 skipped, 0 torn byte(s) truncated)\n"
        )
    );
}

#[test]
fn the_edge_line_is_pinned_after_a_tcp_request() {
    let mut server = Command::new(env!("CARGO_BIN_EXE_twca"))
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn twca serve --listen");
    // Keep stdin open: EOF on the stdio lane is the drain signal.
    let stdin = server.stdin.take().expect("piped stdin");
    let mut stderr = BufReader::new(server.stderr.take().expect("piped stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read listen banner");
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();

    // One request over TCP: its response is the connection's only
    // queued line, so the queue depth peak is exactly 1.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    writeln!(stream, "{CHAIN}").expect("send request");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.contains("\"id\": \"tcp\""), "{response}");
    drop(stream);

    drop(stdin);
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("read summary");
    assert!(server.wait().expect("serve exits").success(), "{rest}");
    assert_eq!(
        mask_latency(&rest),
        "served 1 request(s), 0 error(s); cache: 0 hits / 2 misses \
         (2 entries, 0 evicted, ~0 KiB resident)\n\
         latency: min _ µs / mean _ µs / max _ µs over 1 timed request(s)\n\
         edge: 0 connection(s) open, queue depth peak 1; 0 reaped, 0 timeout(s), \
         0 reset(s), 0 slow consumer(s)\n"
    );
}
