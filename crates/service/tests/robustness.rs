//! Satellite 4: the malformed/truncated/oversized frame battery driven
//! through the real socket path. Every hostile frame must draw exactly
//! one typed error response — no panics, no dropped connections — and
//! a valid request after the battery must still be answered.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use twca_api::{AnalysisResponse, Counter, Json, Session};
use twca_service::{FrameFuzzer, ServiceConfig, TcpServer};

#[test]
fn the_socket_survives_a_malformed_frame_battery() {
    let config = ServiceConfig {
        workers: 2,
        max_frame_bytes: 4096,
        ..ServiceConfig::default()
    };
    let server = TcpServer::start("127.0.0.1:0", Session::new(), &config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let mut fuzzer = FrameFuzzer::new(99);
    let mut sent = 0usize;
    // Interleave reading with writing so neither side's socket buffer
    // can fill up and deadlock the pipeline.
    let drain = |reader: &mut BufReader<TcpStream>, upto: &mut usize, sent: usize| {
        let mut line = String::new();
        let mut errors = 0;
        while *upto < sent {
            line.clear();
            if reader.read_line(&mut line).unwrap() == 0 {
                panic!("connection died after {upto} responses");
            }
            let response = AnalysisResponse::from_json(&Json::parse(&line).unwrap())
                .unwrap_or_else(|e| panic!("untyped response {line:?}: {e}"));
            assert!(response.outcome.is_err(), "hostile frame accepted: {line}");
            errors += 1;
            *upto += 1;
        }
        errors
    };
    let mut answered = 0usize;
    for batch in 0..10 {
        for frame in fuzzer.frames(30) {
            stream.write_all(&frame).unwrap();
            stream.write_all(b"\n").unwrap();
            sent += 1;
        }
        if batch % 2 == 1 {
            let big = fuzzer.oversized(config.max_frame_bytes);
            stream.write_all(&big).unwrap();
            stream.write_all(b"\n").unwrap();
            sent += 1;
        }
        drain(&mut reader, &mut answered, sent);
    }
    assert_eq!(answered, sent);

    // The stream must still serve a valid request after the battery.
    writeln!(
        stream,
        "{{\"id\": \"alive\", \"system\": \
         \"chain c periodic=100 deadline=100 {{ task t prio=1 wcet=10 }}\"}}"
    )
    .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = AnalysisResponse::from_json(&Json::parse(&line).unwrap()).unwrap();
    assert_eq!(response.id.as_deref(), Some("alive"));
    assert!(response.outcome.is_ok());

    let summary = server.shutdown(Duration::from_secs(10));
    assert_eq!(summary.requests, sent + 1);
    assert_eq!(summary.errors, sent);
}

/// PR 9 satellite: a client that dies mid-`store_put` — half a request
/// line, no newline, then a dropped socket — must leave the durable
/// journal consistent: nothing of the torn request is journaled,
/// acknowledged puts keep their versions, and a reopen of the store
/// directory replays exactly the acknowledged history.
#[test]
fn a_rude_disconnect_mid_store_put_keeps_the_durable_journal_consistent() {
    use std::sync::Arc;
    use twca_api::{DirIo, PersistPolicy, SystemStore};

    let dir = std::env::temp_dir().join(format!("twca-rude-put-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open_store = || {
        SystemStore::durable(
            Arc::new(DirIo::open(&dir).expect("store dir opens")),
            PersistPolicy::default(),
        )
        .expect("durable store opens")
    };
    let (store, _) = open_store();
    let session = Session::new().with_store(Arc::new(store));
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let server = TcpServer::start("127.0.0.1:0", session, &config).unwrap();

    let put = |wcet: u64| {
        format!(
            "{{\"queries\": [{{\"store_put\": {{\"name\": \"plant\", \"system\": \
             \"chain c periodic=100 deadline=100 {{ task t prio=1 wcet={wcet} }}\"}}}}]}}"
        )
    };
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    writeln!(stream, "{}", put(10)).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"version\": 1"), "first put refused: {line}");

    // The rude client: half a store_put, never a newline, then gone.
    let torn = put(99);
    let mut rude = TcpStream::connect(server.local_addr()).unwrap();
    rude.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
    drop(rude);

    // The surviving connection still puts; the torn request claimed no
    // version and journaled nothing.
    line.clear();
    writeln!(stream, "{}", put(12)).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"version\": 2"),
        "second put refused: {line}"
    );
    stream.shutdown(Shutdown::Write).unwrap();
    let _ = server.shutdown(Duration::from_secs(10));

    // Reopen the directory: exactly the two acknowledged puts replay —
    // no torn bytes, no trace of wcet=99.
    let (reopened, report) = open_store();
    assert_eq!(report.replayed, 2);
    assert_eq!(report.truncated_bytes, 0);
    let dump = reopened.export();
    assert_eq!(dump.len(), 1);
    let (name, version, body) = &dump[0];
    assert_eq!((name.as_str(), *version), ("plant", 2));
    match body {
        twca_api::StoredBody::Uni(system) => {
            let wcets: Vec<u64> = system.chains()[0]
                .tasks()
                .iter()
                .map(|t| t.wcet())
                .collect();
            assert_eq!(
                wcets,
                vec![12],
                "recovered body is not the acknowledged one"
            );
        }
        other => panic!("recovered body has the wrong shape: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// PR 10 satellite: the slow-loris client — one byte every few tens of
/// milliseconds, never a newline — must be reaped at the idle timeout
/// while a concurrent well-behaved client on the same pool keeps
/// receiving its responses in order.
#[test]
fn a_slow_loris_is_reaped_while_honest_clients_keep_flowing() {
    use std::time::Instant;

    let config = ServiceConfig {
        workers: 2,
        read_timeout: Some(Duration::from_secs(2)),
        idle_timeout: Some(Duration::from_millis(250)),
        ..ServiceConfig::default()
    };
    let server = TcpServer::start("127.0.0.1:0", Session::new(), &config).unwrap();
    let addr = server.local_addr();

    // The loris: drip one byte of a would-be request every 30 ms. Each
    // byte resets any byte-silence clock, so only the completed-frame
    // (idle) clock can catch it.
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let started = Instant::now();
        let body = b"{\"id\": \"loris\", \"system\": \"chain";
        let mut buf = [0u8; 64];
        // Drip bytes while watching the read side: a reaped connection
        // shows as EOF (the server's half-close) or a reset — writes
        // into a half-closed socket can keep succeeding, so they are
        // not the signal.
        for chunk in body.iter().cycle() {
            if stream.write_all(std::slice::from_ref(chunk)).is_err() {
                break;
            }
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break,
            }
            std::thread::sleep(Duration::from_millis(10));
            assert!(
                started.elapsed() <= Duration::from_secs(8),
                "the loris was never reaped"
            );
        }
        started.elapsed()
    });

    // Meanwhile an honest client gets every response, in order.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..10 {
        writeln!(
            stream,
            "{{\"id\": \"ok{i}\", \"system\": \
             \"chain c periodic=100 deadline=100 {{ task t prio=1 wcet=10 }}\"}}"
        )
        .unwrap();
        // Spread the writes across the loris's lifetime so the pool
        // serves both clients concurrently.
        std::thread::sleep(Duration::from_millis(40));
    }
    stream.shutdown(Shutdown::Write).unwrap();
    let mut ids = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let response = AnalysisResponse::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert!(response.outcome.is_ok(), "honest request failed: {line}");
        ids.push(response.id.unwrap());
    }
    let expected: Vec<String> = (0..10).map(|i| format!("ok{i}")).collect();
    assert_eq!(ids, expected, "honest responses out of order or missing");

    let reaped_after = loris.join().unwrap();
    assert!(
        reaped_after < Duration::from_secs(8),
        "loris outlived the idle timeout: {reaped_after:?}"
    );

    let metrics = server.pool().metrics();
    let summary = server.shutdown(Duration::from_secs(10));
    assert!(
        metrics.get(Counter::Reaped) >= 1,
        "the reap was counted: {metrics:?}"
    );
    assert_eq!(summary.requests, 10, "only honest requests were admitted");
}
