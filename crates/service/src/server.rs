//! The front ends: a TCP listener and a stdio lane, both read by
//! [`serve_lane`] into a [`WorkerPool`].
//!
//! Shutdown semantics: [`TcpServer::shutdown`] first stops accepting,
//! then gives connected clients a grace period to finish their input
//! streams, then half-closes stragglers' read sides (their queued work
//! is still answered — the write halves stay open until the pool has
//! drained). Nothing admitted is ever silently dropped.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use twca_api::{ApiError, Counter, Session};

use crate::frame::{Frame, FrameReader, FrameStep};
use crate::pool::{Connection, ServeSummary, ServiceConfig, WorkerPool};

/// Per-lane serving knobs; the subset of [`ServiceConfig`] a single
/// read loop enforces.
#[derive(Debug, Clone)]
pub struct LaneOptions {
    /// Largest accepted frame in bytes.
    pub max_frame_bytes: usize,
    /// Longest tolerated byte-silence; requires the underlying stream
    /// to surface `WouldBlock`/`TimedOut` (e.g. a socket read
    /// timeout), which the lane treats as deadline ticks.
    pub read_timeout: Option<Duration>,
    /// Longest tolerated wall time since the last *completed* frame —
    /// the slow-loris defense: a byte-dripping client keeps resetting
    /// any byte-silence clock but never completes a frame.
    pub idle_timeout: Option<Duration>,
}

impl LaneOptions {
    /// Timeout-free options at the given frame cap (the stdio shape).
    #[must_use]
    pub fn unlimited(max_frame_bytes: usize) -> LaneOptions {
        LaneOptions {
            max_frame_bytes,
            read_timeout: None,
            idle_timeout: None,
        }
    }
}

/// Why a lane's read loop ended. Whatever the reason, everything the
/// lane admitted has been answered by the time [`serve_lane`] returns.
#[derive(Debug)]
pub enum LaneEnd {
    /// The input was exhausted cleanly.
    Eof,
    /// The lane died first: the client stopped reading responses, or
    /// the write side failed, or a slow-consumer kill.
    ClientGone,
    /// The idle timeout passed with no completed frame (slow loris).
    Reaped,
    /// The read timeout passed with complete byte-silence.
    TimedOut,
    /// The peer reset or abandoned the connection mid-stream.
    Reset,
    /// Any other read error.
    ReadError(std::io::Error),
}

/// How a lane ended: why its read loop stopped, and how many frames it
/// submitted. Every submitted frame draws exactly one answer (a
/// worker's, a rejection, or a local framing error).
#[derive(Debug)]
pub struct LaneReport {
    /// Why the read loop ended.
    pub end: LaneEnd,
    /// Frames the lane submitted (blank lines are skipped, not
    /// submitted).
    pub frames: u64,
}

/// Reads frames from `input` and submits them to `pool` on `conn`'s
/// ordered response lane, enforcing the lane's frame cap and
/// timeouts. Returns why the loop ended and how many frames it
/// submitted, and only once every one of them has been answered — a
/// front end may close the connection as soon as this returns.
///
/// A lane never holds more than the pool's queue capacity of
/// unanswered submissions: past that window it waits for its oldest
/// answer before reading on, so one lane alone never overflows the
/// queue. It waits for the answer, not for its write: a client that
/// stops reading still overflows its buffered lane's byte budget and
/// is disconnected as a slow consumer. The wait is the server's, not
/// the client's — both timeout clocks restart after it.
pub fn serve_lane(
    pool: &WorkerPool,
    input: impl BufRead,
    conn: &Arc<Connection>,
    opts: &LaneOptions,
) -> LaneReport {
    let metrics = pool.metrics();
    let window = pool.queue_capacity() as u64;
    let mut reader = FrameReader::new(input, opts.max_frame_bytes);
    let mut seq = 0u64;
    let mut last_byte = Instant::now();
    let mut last_frame = last_byte;
    let reap_check = |last_frame: Instant| {
        opts.idle_timeout
            .is_some_and(|idle| last_frame.elapsed() >= idle)
    };
    let end = loop {
        if conn.is_dead() {
            break LaneEnd::ClientGone;
        }
        match reader.step() {
            Ok(FrameStep::Eof) => break LaneEnd::Eof,
            Ok(FrameStep::NeedMore) => {
                // Bytes arrived but no frame completed: the byte clock
                // resets, the frame clock keeps running (the loris
                // path).
                last_byte = Instant::now();
                if reap_check(last_frame) {
                    metrics.add(Counter::Reaped, 1);
                    break LaneEnd::Reaped;
                }
            }
            Ok(FrameStep::Frame(frame)) => {
                let blank = matches!(&frame, Frame::Line(line) if line.trim().is_empty());
                if !blank && seq >= window {
                    conn.await_answered(seq + 1 - window);
                }
                last_byte = Instant::now();
                last_frame = last_byte;
                match frame {
                    Frame::Line(_) if blank => continue,
                    Frame::Line(line) => pool.submit(conn, seq, line),
                    Frame::Oversized { bytes } => pool.respond_local_error(
                        conn,
                        seq,
                        ApiError::request(format!(
                            "frame too large: {bytes} byte(s) exceed the {} byte frame limit",
                            opts.max_frame_bytes
                        )),
                    ),
                    Frame::Invalid { offset, bytes } => pool.respond_local_error(
                        conn,
                        seq,
                        ApiError::request(format!(
                            "frame is not valid UTF-8: invalid byte at offset {offset} of the \
                             {bytes}-byte frame"
                        )),
                    ),
                }
                seq += 1;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // A deadline tick from an armed socket timeout: no
                // byte arrived this interval. Without lane timeouts
                // there is nothing to enforce, so treat it as a plain
                // read error rather than spinning forever.
                if opts.read_timeout.is_none() && opts.idle_timeout.is_none() {
                    break LaneEnd::ReadError(e);
                }
                if opts
                    .read_timeout
                    .is_some_and(|rt| last_byte.elapsed() >= rt)
                {
                    metrics.add(Counter::Timeouts, 1);
                    break LaneEnd::TimedOut;
                }
                if reap_check(last_frame) {
                    metrics.add(Counter::Reaped, 1);
                    break LaneEnd::Reaped;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::BrokenPipe
                ) =>
            {
                metrics.add(Counter::Resets, 1);
                break LaneEnd::Reset;
            }
            Err(e) => break LaneEnd::ReadError(e),
        }
    };
    conn.await_retired(seq);
    LaneReport { end, frames: seq }
}

/// Reads frames from `input`, submits them to `pool`, and streams the
/// ordered responses into `writer`. Returns once the input is
/// exhausted, or a read or write fails, *and* every frame submitted up
/// to that point has been answered — so a front end may close the
/// connection as soon as this returns.
///
/// This is the synchronous-writer, timeout-free lane shape (stdio and
/// tests); the TCP front end arms timeouts and buffered writers via
/// [`serve_lane`].
///
/// # Errors
///
/// The read error that ended the input, or the write error that
/// stopped the responses (the lane then reads no further).
pub fn serve_connection(
    pool: &WorkerPool,
    input: impl BufRead,
    writer: Box<dyn Write + Send>,
    max_frame_bytes: usize,
) -> std::io::Result<()> {
    let conn = Connection::new(writer);
    let end = serve_lane(pool, input, &conn, &LaneOptions::unlimited(max_frame_bytes)).end;
    // The write may fail on the last answer, after the input ended.
    if let Some(e) = conn.take_write_error() {
        return Err(e);
    }
    match end {
        LaneEnd::Eof => Ok(()),
        LaneEnd::ReadError(e) => Err(e),
        LaneEnd::Reset => Err(ErrorKind::ConnectionReset.into()),
        // Not reached: only a failed write kills a synchronous lane,
        // and a timeout-free lane is never reaped or timed out.
        other => Err(std::io::Error::other(format!("the lane ended: {other:?}"))),
    }
}

/// Live connections: each entry keeps the accepted stream (for the
/// shutdown half-close) next to its reader thread's handle.
type ReaderRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// A running TCP front end over a [`WorkerPool`].
#[derive(Debug)]
pub struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    readers: ReaderRegistry,
    pool: Arc<WorkerPool>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections, each served by a reader thread
    /// over the shared pool.
    ///
    /// # Errors
    ///
    /// I/O errors of the bind itself.
    pub fn start(
        addr: impl ToSocketAddrs,
        session: Session,
        config: &ServiceConfig,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let pool = Arc::new(WorkerPool::new(session, config));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: ReaderRegistry = Arc::new(Mutex::new(Vec::new()));
        let lane_opts = LaneOptions {
            max_frame_bytes: config.max_frame_bytes,
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
        };
        // Enforcing lane timeouts needs the socket to tick: arm a read
        // timeout well under the tightest lane bound so even a fully
        // silent client is checked on time.
        let tick = [config.read_timeout, config.idle_timeout]
            .into_iter()
            .flatten()
            .min()
            .map(|t| (t / 2).max(Duration::from_millis(5)));
        let write_timeout = config.write_timeout;
        let write_buffer_bytes = config.write_buffer_bytes;
        let accept = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let readers = Arc::clone(&readers);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let _ = stream.set_nonblocking(false);
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_read_timeout(tick);
                            let _ = stream.set_write_timeout(write_timeout);
                            let Ok(tracked) = stream.try_clone() else {
                                continue;
                            };
                            let pool = Arc::clone(&pool);
                            let lane_opts = lane_opts.clone();
                            let handle = std::thread::spawn(move || {
                                let metrics = pool.metrics();
                                metrics.add(Counter::OpenConnections, 1);
                                if let (Ok(writer), Ok(closer), Ok(killer)) =
                                    (stream.try_clone(), stream.try_clone(), stream.try_clone())
                                {
                                    let conn = Connection::buffered(
                                        Box::new(writer),
                                        write_buffer_bytes,
                                        Arc::clone(&metrics),
                                        Some(killer),
                                    );
                                    let end = serve_lane(
                                        &pool,
                                        BufReader::new(stream),
                                        &conn,
                                        &lane_opts,
                                    )
                                    .end;
                                    // Everything admitted has been
                                    // answered; let the client see EOF.
                                    // (Clones keep the fd alive, so an
                                    // explicit half-close is needed.)
                                    // A reaped or timed-out peer also
                                    // loses its read side: we are done
                                    // listening to it.
                                    let how = match end {
                                        LaneEnd::Reaped | LaneEnd::TimedOut => Shutdown::Both,
                                        _ => Shutdown::Write,
                                    };
                                    let _ = closer.shutdown(how);
                                }
                                metrics.sub(Counter::OpenConnections, 1);
                            });
                            readers
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push((tracked, handle));
                        }
                        // Nonblocking accept: poll so the stop flag is
                        // honored promptly and portably.
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
        };
        Ok(TcpServer {
            local_addr,
            stop,
            accept: Some(accept),
            readers,
            pool,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared pool, e.g. to serve an extra stdio lane through it.
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Graceful drain: stops accepting, waits up to `grace` for
    /// clients to finish their input streams, half-closes the read
    /// side of stragglers, answers everything admitted, and
    /// summarizes.
    #[must_use]
    pub fn shutdown(mut self, grace: Duration) -> ServeSummary {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + grace;
        loop {
            let all_done = self
                .readers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
                .all(|(_, handle)| handle.is_finished());
            if all_done || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let readers = std::mem::take(
            &mut *self
                .readers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for (stream, handle) in readers {
            // Stop further submissions from stragglers; their write
            // half stays open so drained answers still reach them.
            let _ = stream.shutdown(Shutdown::Read);
            let _ = handle.join();
        }
        self.pool.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_api::{AnalysisResponse, Json};

    const CHAIN: &str = "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }";

    /// `count` cheap requests, one per line, with ids `{prefix}{i}`.
    fn request_lines(prefix: &str, count: usize) -> String {
        (0..count)
            .map(|i| format!("{{\"id\": \"{prefix}{i}\", \"system\": \"{CHAIN}\"}}\n"))
            .collect::<Vec<_>>()
            .concat()
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn tcp_round_trip_serves_ordered_responses() {
        let server =
            TcpServer::start("127.0.0.1:0", Session::new(), &ServiceConfig::default()).unwrap();
        let (mut stream, mut reader) = connect(server.local_addr());
        for i in 0..5 {
            writeln!(stream, "{{\"id\": \"t{i}\", \"system\": \"{CHAIN}\"}}").unwrap();
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
            assert!(response.outcome.is_ok());
            ids.push(response.id.unwrap());
        }
        assert_eq!(ids, ["t0", "t1", "t2", "t3", "t4"]);
        let summary = server.shutdown(Duration::from_secs(5));
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn oversized_tcp_frames_draw_typed_errors_and_the_stream_survives() {
        let config = ServiceConfig {
            max_frame_bytes: 256,
            ..ServiceConfig::default()
        };
        let server = TcpServer::start("127.0.0.1:0", Session::new(), &config).unwrap();
        let (mut stream, mut reader) = connect(server.local_addr());
        let huge = "x".repeat(1000);
        writeln!(stream, "{huge}").unwrap();
        writeln!(stream, "{{\"id\": \"after\", \"system\": \"{CHAIN}\"}}").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let first = AnalysisResponse::from_json(&Json::parse(&line).unwrap()).unwrap();
        let error = first.outcome.unwrap_err();
        assert_eq!(error.kind, twca_api::ApiErrorKind::Request);
        assert!(error.message.contains("frame too large"), "{error}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        let second = AnalysisResponse::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(second.id.as_deref(), Some("after"));
        assert!(second.outcome.is_ok());
        let _ = server.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn a_lane_waits_for_its_window_instead_of_overflowing_the_queue() {
        let pool = WorkerPool::new(
            Session::new(),
            &ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                ..ServiceConfig::default()
            },
        );
        let input = request_lines("w", 40);
        let sink = crate::pool::tests::SharedSink::default();
        serve_connection(&pool, input.as_bytes(), Box::new(sink.clone()), 1 << 20).unwrap();
        let summary = pool.shutdown();
        assert_eq!((summary.requests, summary.errors), (40, 0));
        assert_eq!(
            pool.metrics().get(Counter::Rejected),
            0,
            "nothing was rejected"
        );
        assert_eq!(sink.text().lines().count(), 40);
    }

    #[test]
    fn overload_across_lanes_is_still_a_typed_error() {
        // The only worker holds lane A's request until released; lane B
        // then fills the one-slot queue, and lane C finds it full.
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        let executor: crate::pool::Executor = Arc::new(
            move |session: &Session, line: &str, cancel: Option<&twca_api::CancelToken>| {
                if line.contains("hold") {
                    entered_tx.lock().unwrap().send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
                twca_api::respond_line_with(session, line, cancel)
            },
        );
        let pool = WorkerPool::with_executor(
            Session::new(),
            &ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
            &executor,
        );
        let sinks: [crate::pool::tests::SharedSink; 3] = Default::default();
        let lane = |prefix: &str, sink: &crate::pool::tests::SharedSink| {
            serve_connection(
                &pool,
                request_lines(prefix, 1).as_bytes(),
                Box::new(sink.clone()),
                1 << 20,
            )
            .unwrap();
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| lane("hold", &sinks[0]));
            entered.recv().unwrap();
            let b = scope.spawn(|| lane("b", &sinks[1]));
            while pool.metrics().get(Counter::InFlight) < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            lane("c", &sinks[2]);
            release.send(()).unwrap();
            a.join().unwrap();
            b.join().unwrap();
        });
        let answer = |sink: &crate::pool::tests::SharedSink| {
            AnalysisResponse::from_json(&Json::parse(sink.text().trim_end()).unwrap()).unwrap()
        };
        assert!(answer(&sinks[0]).outcome.is_ok());
        assert!(answer(&sinks[1]).outcome.is_ok());
        let rejected = answer(&sinks[2]).outcome.unwrap_err();
        assert_eq!(rejected.kind, twca_api::ApiErrorKind::Overloaded);
    }

    #[test]
    fn waiting_on_the_window_is_not_charged_to_the_idle_clock() {
        // Each answer takes twice the idle timeout and the window is one
        // submission, so the lane waits that long before reading on. The
        // frames then trickle in one byte per read: had the wait counted
        // against the idle clock, the lane would reap its own client.
        let executor: crate::pool::Executor = Arc::new(
            |session: &Session, line: &str, cancel: Option<&twca_api::CancelToken>| {
                std::thread::sleep(Duration::from_millis(300));
                twca_api::respond_line_with(session, line, cancel)
            },
        );
        let pool = WorkerPool::with_executor(
            Session::new(),
            &ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
            &executor,
        );
        let input = request_lines("s", 3);
        let sink = crate::pool::tests::SharedSink::default();
        let conn = Connection::new(Box::new(sink.clone()));
        let opts = LaneOptions {
            idle_timeout: Some(Duration::from_millis(150)),
            ..LaneOptions::unlimited(1 << 20)
        };
        let report = serve_lane(
            &pool,
            BufReader::with_capacity(1, input.as_bytes()),
            &conn,
            &opts,
        );
        assert!(matches!(report.end, LaneEnd::Eof), "{report:?}");
        assert_eq!(report.frames, 3);
        assert_eq!(sink.text().lines().count(), 3);
    }

    #[test]
    fn a_client_that_stops_reading_is_cut_off_not_waited_on() {
        // A writer that blocks until released: a client that stopped
        // reading its answers.
        #[derive(Clone, Default)]
        struct Stalled(Arc<(Mutex<bool>, std::sync::Condvar)>);
        impl Write for Stalled {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let (released, wake) = &*self.0;
                let mut released = released.lock().unwrap();
                while !*released {
                    released = wake.wait(released).unwrap();
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let pool = WorkerPool::new(
            Session::new(),
            &ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                ..ServiceConfig::default()
            },
        );
        let stalled = Stalled::default();
        // A byte budget of a few answers, well above the window's two.
        let conn = Connection::buffered(Box::new(stalled.clone()), 1024, pool.metrics(), None);
        let input = request_lines("c", 40);
        let (cut_off, end) = std::thread::scope(|scope| {
            let lane = scope.spawn(|| {
                serve_lane(
                    &pool,
                    input.as_bytes(),
                    &conn,
                    &LaneOptions::unlimited(1 << 20),
                )
                .end
            });
            // The window waits for answers, not for their writes, so
            // the backlog outgrows the budget and the lane is cut off.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !conn.is_dead() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let cut_off = conn.is_dead();
            let (released, wake) = &*stalled.0;
            *released.lock().unwrap() = true;
            wake.notify_all();
            (cut_off, lane.join().unwrap())
        });
        assert!(cut_off, "the lane waited on a stalled writer");
        assert!(matches!(end, LaneEnd::ClientGone), "{end:?}");
        assert_eq!(pool.metrics().get(Counter::SlowConsumers), 1);
    }

    #[test]
    fn stdio_lane_shares_the_tcp_pool() {
        let server =
            TcpServer::start("127.0.0.1:0", Session::new(), &ServiceConfig::default()).unwrap();
        let input = format!("{{\"id\": \"s\", \"system\": \"{CHAIN}\"}}\n");
        let sink = crate::pool::tests::SharedSink::default();
        serve_connection(
            server.pool(),
            input.as_bytes(),
            Box::new(sink.clone()),
            ServiceConfig::default().max_frame_bytes,
        )
        .unwrap();
        let summary = server.shutdown(Duration::from_secs(5));
        assert_eq!(summary.requests, 1);
        assert!(sink.text().contains("\"id\": \"s\""));
    }
}
