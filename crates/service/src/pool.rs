//! The worker pool: a bounded pending-request queue fanned out across
//! N worker threads, each answering through a [`Session`] clone that
//! shares one `AnalysisCache` — warm-cache hits survive sharding.
//!
//! Admission control and backpressure live here: a submission against
//! a full queue is answered immediately with a typed `overloaded`
//! error *through the same ordered response lane* as real answers, so
//! clients see backpressure as data, never as a dropped connection.
//! Per-request deadlines ride the existing [`CancelToken`] seam: a
//! watchdog thread raises the token when the deadline passes, and the
//! request streams back a typed `canceled` error whether it was still
//! queued or already mid-analysis.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use twca_api::{
    respond_line_with, AnalysisResponse, ApiError, CancelToken, Counter, Json, Metrics, Session,
};

/// Deployment knobs of a service front end.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads answering requests (at least 1).
    pub workers: usize,
    /// Bounded pending-request queue capacity; submissions beyond it
    /// are rejected with a typed `overloaded` error.
    pub queue_capacity: usize,
    /// Per-request deadline from admission to answer; `None` disables
    /// the watchdog.
    pub deadline: Option<Duration>,
    /// Largest accepted frame (request line) in bytes.
    pub max_frame_bytes: usize,
    /// Longest tolerated byte-silence while reading a connection;
    /// exceeding it closes the connection (counted under `timeouts`).
    /// `None` disables the check.
    pub read_timeout: Option<Duration>,
    /// Longest tolerated wall time since a connection's last
    /// *completed* frame; exceeding it reaps the connection (the
    /// slow-loris defense — a byte-dripping client completes no frame
    /// and cannot evade it). `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Socket write timeout armed on accepted connections; a response
    /// write blocked longer kills the lane. `None` leaves writes
    /// unbounded.
    pub write_timeout: Option<Duration>,
    /// Bound on a connection's buffered outbound responses, in bytes.
    /// A client that stops reading while the budget overflows is
    /// disconnected as a slow consumer; workers never block on a
    /// client's socket either way. `0` disables the bound.
    pub write_buffer_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            queue_capacity: 1024,
            deadline: None,
            max_frame_bytes: 1 << 20,
            read_timeout: None,
            idle_timeout: None,
            write_timeout: None,
            write_buffer_bytes: 4 << 20,
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A worker that panicked mid-request must not take the whole
    // service down with lock poisoning.
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One client connection's response lane. Responses are handed in by
/// whichever thread finishes first but written strictly in submission
/// order; a write failure (the client is gone) retires the lane
/// silently without touching any other connection.
///
/// Lanes come in two flavors. [`Connection::new`] writes responses
/// synchronously in the delivering thread — the right shape for tests
/// and the stdio lane, where the writer never blocks on a hostile
/// peer. [`Connection::buffered`] spawns a dedicated writer thread
/// draining a bounded outbound queue, so a worker thread only ever
/// *enqueues* a response and can never be wedged by a client that
/// stopped reading; a client whose backlog overflows the byte budget
/// is disconnected as a slow consumer.
pub struct Connection {
    out: Mutex<OutState>,
    dead: Arc<AtomicBool>,
    retired: Condvar,
    lane: Option<Arc<LaneShared>>,
    metrics: Option<Arc<Metrics>>,
    write_budget: usize,
    closer: Option<std::net::TcpStream>,
}

struct OutState {
    /// `Some` on synchronous lanes; buffered lanes moved the writer
    /// into their writer thread.
    writer: Option<Box<dyn Write + Send>>,
    next_seq: u64,
    parked: BTreeMap<u64, String>,
    parked_bytes: usize,
    /// The write failure that killed a synchronous lane.
    write_error: Option<std::io::Error>,
}

/// The writer thread's side of a buffered lane.
struct LaneShared {
    queue: Mutex<LaneQueue>,
    work: Condvar,
    done: Condvar,
}

struct LaneQueue {
    /// In-order lines awaiting the writer thread.
    ready: VecDeque<String>,
    /// Bytes held in `ready` (incl. newlines).
    ready_bytes: usize,
    /// Lines written (or dropped on a dead lane) by the writer.
    written: u64,
    /// No further deliveries will arrive; drain and exit.
    finished: bool,
}

/// Writes one answer and its newline in a single `write_all`, so an
/// unbuffered socket sends it with one call. The lanes account for the
/// line as `line.len() + 1` bytes, which is what this writes.
fn send_line(writer: &mut (dyn Write + Send), mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("dead", &self.is_dead())
            .field("buffered", &self.lane.is_some())
            .finish_non_exhaustive()
    }
}

impl Connection {
    /// Wraps the write half of a connection; responses are written
    /// synchronously by whichever thread completes them in order.
    #[must_use]
    pub fn new(writer: Box<dyn Write + Send>) -> Arc<Connection> {
        Arc::new(Connection {
            out: Mutex::new(OutState {
                writer: Some(writer),
                next_seq: 0,
                parked: BTreeMap::new(),
                parked_bytes: 0,
                write_error: None,
            }),
            dead: Arc::new(AtomicBool::new(false)),
            retired: Condvar::new(),
            lane: None,
            metrics: None,
            write_budget: 0,
            closer: None,
        })
    }

    /// Wraps the write half of a connection behind a dedicated writer
    /// thread and a bounded outbound buffer (`write_budget` bytes;
    /// `0` = unbounded). `metrics` receives queue-depth observations
    /// and the slow-consumer, timeout and reset tallies; `closer`, when given,
    /// is shut down as soon as the lane dies so a blocked reader
    /// wakes up promptly.
    #[must_use]
    pub fn buffered(
        writer: Box<dyn Write + Send>,
        write_budget: usize,
        metrics: Arc<Metrics>,
        closer: Option<std::net::TcpStream>,
    ) -> Arc<Connection> {
        let lane = Arc::new(LaneShared {
            queue: Mutex::new(LaneQueue {
                ready: VecDeque::new(),
                ready_bytes: 0,
                written: 0,
                finished: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let dead = Arc::new(AtomicBool::new(false));
        {
            let lane = Arc::clone(&lane);
            let dead = Arc::clone(&dead);
            let metrics = Arc::clone(&metrics);
            let closer = closer.as_ref().and_then(|s| s.try_clone().ok());
            let mut writer = writer;
            std::thread::spawn(move || {
                let mut queue = lock(&lane.queue);
                loop {
                    if let Some(line) = queue.ready.pop_front() {
                        queue.ready_bytes -= line.len() + 1;
                        drop(queue);
                        if !dead.load(Ordering::Relaxed) {
                            if let Err(e) = send_line(&mut writer, line) {
                                match e.kind() {
                                    std::io::ErrorKind::TimedOut
                                    | std::io::ErrorKind::WouldBlock => {
                                        metrics.add(Counter::Timeouts, 1);
                                    }
                                    std::io::ErrorKind::ConnectionReset
                                    | std::io::ErrorKind::ConnectionAborted
                                    | std::io::ErrorKind::BrokenPipe => {
                                        metrics.add(Counter::Resets, 1);
                                    }
                                    _ => {}
                                }
                                dead.store(true, Ordering::Relaxed);
                                if let Some(closer) = &closer {
                                    let _ = closer.shutdown(std::net::Shutdown::Both);
                                }
                            }
                        }
                        queue = lock(&lane.queue);
                        queue.written += 1;
                        lane.done.notify_all();
                        continue;
                    }
                    if queue.finished {
                        return;
                    }
                    queue = lane
                        .work
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            });
        }
        Arc::new(Connection {
            out: Mutex::new(OutState {
                writer: None,
                next_seq: 0,
                parked: BTreeMap::new(),
                parked_bytes: 0,
                write_error: None,
            }),
            dead,
            retired: Condvar::new(),
            lane: Some(lane),
            metrics: Some(metrics),
            write_budget,
            closer,
        })
    }

    /// Whether a write has failed (the client disconnected) or the
    /// lane was killed (slow consumer).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Kills the lane: deliveries keep sequencing (so `await_retired`
    /// still completes) but nothing further is written, and the
    /// underlying socket, when known, is shut down to unblock its
    /// reader. Returns whether this call did the killing.
    fn kill(&self) -> bool {
        let first = !self.dead.swap(true, Ordering::Relaxed);
        if first {
            if let Some(closer) = &self.closer {
                let _ = closer.shutdown(std::net::Shutdown::Both);
            }
            if let Some(lane) = &self.lane {
                // Wake the writer so it drains the backlog as drops.
                lane.work.notify_all();
            }
        }
        first
    }

    /// Hands in the response for submission number `seq` (0-based per
    /// connection). It is written once every earlier submission has
    /// been; out-of-order completions are parked until their turn.
    pub fn deliver(&self, seq: u64, line: String) {
        let mut out = lock(&self.out);
        out.parked_bytes += line.len() + 1;
        out.parked.insert(seq, line);
        let mut unparked: Vec<String> = Vec::new();
        loop {
            let next = out.next_seq;
            let Some(line) = out.parked.remove(&next) else {
                break;
            };
            out.next_seq += 1;
            out.parked_bytes -= line.len() + 1;
            if self.lane.is_some() {
                unparked.push(line);
            } else {
                // Synchronous lane: write in the delivering thread.
                if self.dead.load(Ordering::Relaxed) {
                    continue; // keep sequencing so the lane retires
                }
                let writer = out.writer.as_mut().expect("sync lane has a writer");
                if let Err(e) = send_line(writer, line) {
                    self.dead.store(true, Ordering::Relaxed);
                    out.write_error = Some(e);
                }
            }
        }
        if let Some(lane) = &self.lane {
            // Push under the `out` lock: it is what serializes the
            // in-order unparking, so releasing it before the queue
            // push would let two deliverers enqueue out of order.
            // Lock order is always out → queue; the writer thread
            // takes only the queue lock, so this cannot deadlock.
            let (depth, overflow) = {
                let mut queue = lock(&lane.queue);
                for line in unparked {
                    queue.ready_bytes += line.len() + 1;
                    queue.ready.push_back(line);
                }
                let depth = (queue.ready.len() + out.parked.len()) as u64;
                let outstanding = queue.ready_bytes + out.parked_bytes;
                let overflow =
                    self.write_budget > 0 && outstanding > self.write_budget && !self.is_dead();
                (depth, overflow)
            };
            drop(out);
            if let Some(metrics) = &self.metrics {
                metrics.peak(Counter::QueueDepthPeak, depth);
                if overflow && self.kill() {
                    metrics.add(Counter::SlowConsumers, 1);
                }
            }
            lane.work.notify_one();
        } else {
            drop(out);
        }
        self.retired.notify_all();
    }

    /// The write failure that killed this synchronous lane, if one
    /// did (taken: a second call returns `None`).
    pub(crate) fn take_write_error(&self) -> Option<std::io::Error> {
        lock(&self.out).write_error.take()
    }

    /// Blocks until the responses of submissions `0..count` have all
    /// been handed to the lane in order. A synchronous lane has then
    /// written them; a buffered lane may still hold them for its
    /// writer thread, bounded by its slow-consumer byte budget — so a
    /// client that stops reading cannot stall this wait forever.
    pub(crate) fn await_answered(&self, count: u64) {
        let mut out = lock(&self.out);
        while out.next_seq < count {
            out = self
                .retired
                .wait(out)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Blocks until the responses of submissions `0..count` have all
    /// passed through the lane (written or, on a dead lane, retired).
    /// Lets a front end half-close the connection's write side only
    /// once everything admitted has been answered.
    pub fn await_retired(&self, count: u64) {
        let Some(lane) = &self.lane else {
            return self.await_answered(count);
        };
        let mut queue = lock(&lane.queue);
        while queue.written < count {
            queue = lane
                .done
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        if let Some(lane) = &self.lane {
            lock(&lane.queue).finished = true;
            lane.work.notify_all();
        }
    }
}

struct Job {
    seq: u64,
    line: String,
    conn: Arc<Connection>,
    cancel: CancelToken,
}

struct PoolState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    ready: Condvar,
    capacity: usize,
}

/// A deadline entry, min-ordered by expiry instant so the earliest
/// deadline sits on top of the watchdog's heap.
struct Expiry {
    at: Instant,
    token: CancelToken,
}

impl PartialEq for Expiry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for Expiry {}
impl PartialOrd for Expiry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Expiry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at) // reversed: BinaryHeap pops the earliest
    }
}

struct WatchdogShared {
    state: Mutex<(BinaryHeap<Expiry>, bool)>,
    wake: Condvar,
}

struct Watchdog {
    shared: Option<Arc<WatchdogShared>>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Watchdog {
    fn disabled() -> Watchdog {
        Watchdog {
            shared: None,
            handle: Mutex::new(None),
        }
    }

    fn start() -> Watchdog {
        let shared = Arc::new(WatchdogShared {
            state: Mutex::new((BinaryHeap::new(), false)),
            wake: Condvar::new(),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let mut guard = lock(&worker.state);
            loop {
                if guard.1 {
                    break;
                }
                let now = Instant::now();
                while guard.0.peek().is_some_and(|e| e.at <= now) {
                    let expired = guard.0.pop().expect("peeked");
                    expired.token.cancel();
                }
                guard = match guard.0.peek() {
                    Some(next) => {
                        let timeout = next.at.saturating_duration_since(now);
                        worker
                            .wake
                            .wait_timeout(guard, timeout)
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .0
                    }
                    None => worker
                        .wake
                        .wait(guard)
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                };
            }
        });
        Watchdog {
            shared: Some(shared),
            handle: Mutex::new(Some(handle)),
        }
    }

    fn register(&self, at: Instant, token: CancelToken) {
        if let Some(shared) = &self.shared {
            lock(&shared.state).0.push(Expiry { at, token });
            shared.wake.notify_one();
        }
    }

    fn stop(&self) {
        if let Some(shared) = &self.shared {
            lock(&shared.state).1 = true;
            shared.wake.notify_all();
        }
        if let Some(handle) = lock(&self.handle).take() {
            let _ = handle.join();
        }
    }
}

/// Per-request wall-clock latency accumulation: count, total, and the
/// min/max extremes, all in nanoseconds. Mergeable across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Requests timed.
    pub count: u64,
    /// Summed latency of all timed requests.
    pub total_ns: u64,
    /// Fastest request; 0 when nothing was timed.
    pub min_ns: u64,
    /// Slowest request; 0 when nothing was timed.
    pub max_ns: u64,
}

impl LatencyStats {
    /// Records one request latency.
    pub fn record(&mut self, elapsed: Duration) {
        self.record_ns(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one request latency given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Folds another accumulation into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    /// Mean latency in nanoseconds; 0 when nothing was timed.
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// What a [`WorkerPool`] answered before its drain
/// ([`WorkerPool::shutdown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Submissions answered, rejections included (blank lines are
    /// never submitted).
    pub requests: usize,
    /// Responses whose outcome was an error.
    pub errors: usize,
    /// Analysis time of every request a worker ran, from its pickup
    /// to its answer (queue wait excluded).
    pub latency: LatencyStats,
}

/// How a worker turns a request line into a response. Injectable so
/// tests can drive the panic-isolation path with a purpose-built
/// panicking executor; production pools use [`respond_line_with`].
pub(crate) type Executor =
    Arc<dyn Fn(&Session, &str, Option<&CancelToken>) -> AnalysisResponse + Send + Sync>;

/// The sharded multi-worker request engine; see the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    metrics: Arc<Metrics>,
    deadline: Option<Duration>,
    watchdog: Watchdog,
    workers: Mutex<Vec<JoinHandle<LatencyStats>>>,
    summary: Mutex<Option<ServeSummary>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("capacity", &self.shared.capacity)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns `config.workers` threads, each owning a clone of
    /// `session` (the clones share one cache and one counter registry,
    /// which the pool records into).
    #[must_use]
    pub fn new(session: Session, config: &ServiceConfig) -> WorkerPool {
        let executor: Executor = Arc::new(
            |session: &Session, line: &str, cancel: Option<&CancelToken>| {
                respond_line_with(session, line, cancel)
            },
        );
        WorkerPool::with_executor(session, config, &executor)
    }

    /// [`WorkerPool::new`] with an injected request executor; the seam
    /// the panic-isolation tests use to make a request panic on cue.
    pub(crate) fn with_executor(
        session: Session,
        config: &ServiceConfig,
        executor: &Executor,
    ) -> WorkerPool {
        let metrics = session.metrics();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: config.queue_capacity.max(1),
        });
        let workers = vec![session; config.workers.max(1)]
            .into_iter()
            .map(|session| {
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                let executor = Arc::clone(executor);
                // The outer loop is the respawn: should a panic ever
                // escape the per-job catch (e.g. while delivering),
                // the worker restarts instead of shrinking the pool.
                std::thread::spawn(move || {
                    let mut latency = LatencyStats::default();
                    loop {
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            worker_loop(&shared, &metrics, &session, &executor)
                        }));
                        match run {
                            Ok(stats) => {
                                latency.merge(&stats);
                                return latency;
                            }
                            Err(_) => metrics.add(Counter::Panics, 1),
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            shared,
            metrics,
            deadline: config.deadline,
            watchdog: match config.deadline {
                Some(_) => Watchdog::start(),
                None => Watchdog::disabled(),
            },
            workers: Mutex::new(workers),
            summary: Mutex::new(None),
        }
    }

    /// The counter registry the pool records into: its session's.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The admission queue's capacity (`queue_capacity`, at least 1).
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Submits request line number `seq` of `conn`. Never fails: a
    /// full or closed queue answers with a typed `overloaded` error on
    /// the connection's ordered lane.
    pub fn submit(&self, conn: &Arc<Connection>, seq: u64, line: String) {
        {
            let mut state = lock(&self.shared.state);
            if !state.closed && state.jobs.len() < self.shared.capacity {
                self.metrics.add(Counter::InFlight, 1);
                let cancel = CancelToken::new();
                if let Some(deadline) = self.deadline {
                    self.watchdog
                        .register(Instant::now() + deadline, cancel.clone());
                }
                state.jobs.push_back(Job {
                    seq,
                    line,
                    conn: Arc::clone(conn),
                    cancel,
                });
                drop(state);
                self.shared.ready.notify_one();
                return;
            }
            // Rejected: fall through without the queue lock held (the
            // client write below must not serialize admission).
            if state.closed {
                drop(state);
                self.reject(conn, seq, &line, ApiError::draining());
            } else {
                drop(state);
                self.reject(conn, seq, &line, ApiError::overloaded(self.shared.capacity));
            }
        }
    }

    fn reject(&self, conn: &Arc<Connection>, seq: u64, line: &str, error: ApiError) {
        self.metrics.add(Counter::Rejected, 1);
        self.metrics.add(Counter::Errors, 1);
        conn.deliver(
            seq,
            AnalysisResponse::error(request_id(line), error).to_line(),
        );
    }

    /// Answers submission `seq` with a locally produced error, without
    /// queueing (used for oversized frames the reader already
    /// discarded). Counts as one served, errored request.
    pub fn respond_local_error(&self, conn: &Arc<Connection>, seq: u64, error: ApiError) {
        self.metrics.add(Counter::Served, 1);
        self.metrics.add(Counter::Errors, 1);
        conn.deliver(seq, AnalysisResponse::error(None, error).to_line());
    }

    /// Graceful drain: closes admission (new submissions become typed
    /// `overloaded` errors), answers everything already queued, joins
    /// the workers, and summarizes. Idempotent.
    pub fn shutdown(&self) -> ServeSummary {
        let mut slot = lock(&self.summary);
        if let Some(summary) = *slot {
            return summary;
        }
        lock(&self.shared.state).closed = true;
        self.shared.ready.notify_all();
        let mut latency = LatencyStats::default();
        for handle in lock(&self.workers).drain(..) {
            if let Ok(stats) = handle.join() {
                latency.merge(&stats);
            }
        }
        self.watchdog.stop();
        let count = |counter| self.metrics.get(counter) as usize;
        let summary = ServeSummary {
            requests: count(Counter::Served) + count(Counter::Rejected),
            errors: count(Counter::Errors),
            latency,
        };
        *slot = Some(summary);
        summary
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    shared: &PoolShared,
    metrics: &Metrics,
    session: &Session,
    executor: &Executor,
) -> LatencyStats {
    let mut latency = LatencyStats::default();
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.closed {
                    return latency;
                }
                state = shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // A panicking analysis must never hang the connection or
        // shrink the pool: catch it, answer the lane with a typed
        // `internal` error, count it, and keep the worker alive.
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            executor(session, &job.line, Some(&job.cancel))
        }));
        let response = match run {
            Ok(response) => response,
            Err(payload) => {
                metrics.add(Counter::Panics, 1);
                AnalysisResponse::error(
                    request_id(&job.line),
                    ApiError::internal(panic_detail(&*payload)),
                )
            }
        };
        if response.outcome.is_err() {
            metrics.add(Counter::Errors, 1);
        }
        metrics.add(Counter::Served, 1);
        metrics.sub(Counter::InFlight, 1);
        latency.record(started.elapsed());
        job.conn.deliver(job.seq, response.to_line());
    }
}

/// The `id` of a request line, when one is recoverable: answers the
/// pool makes itself (rejections, caught panics) echo it, as
/// [`respond_line_with`] does.
fn request_id(line: &str) -> Option<String> {
    Json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_owned))
}

/// Best-effort extraction of a panic payload's message.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_owned()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A shared in-memory sink usable as a connection writer.
    #[derive(Clone, Default)]
    pub(crate) struct SharedSink(pub Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedSink {
        pub(crate) fn text(&self) -> String {
            String::from_utf8_lossy(&lock(&self.0)).into_owned()
        }
    }

    const CHAIN: &str = "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }";

    /// A writer that counts its `write` calls. When given a gate, its
    /// first write reports itself on `entered` and then waits for
    /// `release`, holding the lane's writer thread inside that write.
    struct CountingSink {
        writes: Arc<std::sync::atomic::AtomicUsize>,
        bytes: SharedSink,
        gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.fetch_add(1, Ordering::Relaxed);
            if let Some((entered, release)) = self.gate.take() {
                entered.send(()).unwrap();
                release.recv().unwrap();
            }
            self.bytes.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_answer_is_one_write_on_both_lanes() {
        for buffered in [false, true] {
            let writes = Arc::default();
            let bytes = SharedSink::default();
            let sink = Box::new(CountingSink {
                writes: Arc::clone(&writes),
                bytes: bytes.clone(),
                gate: None,
            });
            let conn = if buffered {
                Connection::buffered(sink, 0, Arc::new(Metrics::new()), None)
            } else {
                Connection::new(sink)
            };
            // Out of order, so parked answers are written too.
            for (seq, line) in [(2, "{\"c\": 3}"), (0, "{\"v\": 1}"), (1, "")] {
                conn.deliver(seq, line.to_owned());
            }
            conn.await_retired(3);
            assert_eq!(writes.load(Ordering::Relaxed), 3, "buffered: {buffered}");
            assert_eq!(bytes.text(), "{\"v\": 1}\n\n{\"c\": 3}\n");
        }
    }

    #[test]
    fn the_write_budget_counts_each_line_and_its_newline() {
        let (entered, entered_rx) = mpsc::channel();
        let (release_tx, release) = mpsc::channel();
        let sink = CountingSink {
            writes: Arc::default(),
            bytes: SharedSink::default(),
            gate: Some((entered, release)),
        };
        let metrics = Arc::new(Metrics::new());
        let conn = Connection::buffered(Box::new(sink), 10, Arc::clone(&metrics), None);
        conn.deliver(0, "held".to_owned());
        // The writer thread has taken line 0 and is stuck writing it, so
        // only later lines are outstanding.
        entered_rx.recv().unwrap();
        conn.deliver(1, "abcd".to_owned());
        conn.deliver(2, "abcd".to_owned());
        assert!(!conn.is_dead(), "10 outstanding bytes fit a 10-byte budget");
        conn.deliver(3, String::new());
        assert!(conn.is_dead(), "the empty line's newline is the 11th byte");
        assert_eq!(metrics.get(Counter::SlowConsumers), 1);
        release_tx.send(()).unwrap();
        conn.await_retired(4);
    }

    fn request_line(id: &str) -> String {
        format!("{{\"id\": \"{id}\", \"system\": \"{CHAIN}\"}}")
    }

    #[test]
    fn responses_come_back_in_submission_order() {
        let pool = WorkerPool::new(
            Session::new(),
            &ServiceConfig {
                workers: 4,
                ..ServiceConfig::default()
            },
        );
        let sink = SharedSink::default();
        let conn = Connection::new(Box::new(sink.clone()));
        for i in 0..20 {
            pool.submit(&conn, i, request_line(&format!("r{i}")));
        }
        let summary = pool.shutdown();
        assert_eq!(summary.requests, 20);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.latency.count, 20);
        let ids: Vec<String> = sink
            .text()
            .lines()
            .map(|line| {
                AnalysisResponse::from_json(&Json::parse(line).unwrap())
                    .unwrap()
                    .id
                    .unwrap()
            })
            .collect();
        let expected: Vec<String> = (0..20).map(|i| format!("r{i}")).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn queue_overflow_is_a_typed_overloaded_error() {
        // Zero workers are clamped to one, but a closed... keep the
        // queue tiny and flood it before workers can drain: use a
        // 1-capacity queue and many submissions; at least one must be
        // rejected with the typed kind, and every submission must be
        // answered.
        let pool = WorkerPool::new(
            Session::new(),
            &ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
        );
        let sink = SharedSink::default();
        let conn = Connection::new(Box::new(sink.clone()));
        for i in 0..50 {
            pool.submit(&conn, i, request_line(&format!("r{i}")));
        }
        let summary = pool.shutdown();
        assert_eq!(summary.requests, 50, "rejections still count as requests");
        let responses: Vec<AnalysisResponse> = sink
            .text()
            .lines()
            .map(|l| AnalysisResponse::from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(responses.len(), 50, "every submission draws a response");
        let rejected = responses
            .iter()
            .filter(
                |r| matches!(&r.outcome, Err(e) if e.kind == twca_api::ApiErrorKind::Overloaded),
            )
            .count();
        assert!(
            rejected > 0,
            "a 1-deep queue under 50 submissions must reject"
        );
        assert_eq!(summary.errors, rejected);
        // Rejections echo the id for correlation.
        let overloaded = responses
            .iter()
            .find(|r| matches!(&r.outcome, Err(e) if e.kind == twca_api::ApiErrorKind::Overloaded))
            .unwrap();
        assert!(overloaded.id.is_some());
    }

    #[test]
    fn panicking_requests_answer_typed_internal_errors_and_spare_the_pool() {
        // One worker, so a swallowed panic would hang every later
        // request on this connection — the strongest version of
        // "never hang a connection or shrink the pool".
        let executor: Executor = Arc::new(
            |session: &Session, line: &str, cancel: Option<&CancelToken>| {
                assert!(!line.contains("boom"), "injected analysis panic");
                respond_line_with(session, line, cancel)
            },
        );
        let pool = WorkerPool::with_executor(
            Session::new(),
            &ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            &executor,
        );
        let sink = SharedSink::default();
        let conn = Connection::new(Box::new(sink.clone()));
        pool.submit(&conn, 0, request_line("ok-before"));
        pool.submit(&conn, 1, request_line("boom"));
        pool.submit(&conn, 2, request_line("ok-after"));
        let summary = pool.shutdown();
        assert_eq!(summary.requests, 3, "the panicked request still counts");
        assert_eq!(summary.errors, 1);
        assert_eq!(pool.metrics().get(Counter::Panics), 1);
        let responses: Vec<AnalysisResponse> = sink
            .text()
            .lines()
            .map(|l| AnalysisResponse::from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(responses.len(), 3, "the panic never swallowed a response");
        assert!(responses[0].outcome.is_ok());
        assert!(
            responses[2].outcome.is_ok(),
            "the worker survived the panic"
        );
        assert_eq!(
            responses[1].id.as_deref(),
            Some("boom"),
            "the panic answer echoes the request id"
        );
        let error = responses[1].outcome.as_ref().unwrap_err();
        assert_eq!(error.kind, twca_api::ApiErrorKind::Internal);
        assert!(error.message.contains("injected analysis panic"), "{error}");
    }

    #[test]
    fn latency_stats_accumulate_and_merge() {
        let mut a = LatencyStats::default();
        a.record_ns(10);
        a.record_ns(30);
        assert_eq!((a.count, a.min_ns, a.max_ns, a.mean_ns()), (2, 10, 30, 20));
        let mut b = LatencyStats::default();
        b.record_ns(5);
        a.merge(&b);
        assert_eq!((a.count, a.min_ns, a.max_ns), (3, 5, 30));
        let mut empty = LatencyStats::default();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn submissions_after_shutdown_are_draining_errors() {
        let pool = WorkerPool::new(Session::new(), &ServiceConfig::default());
        pool.shutdown();
        let sink = SharedSink::default();
        let conn = Connection::new(Box::new(sink.clone()));
        pool.submit(&conn, 0, request_line("late"));
        let response =
            AnalysisResponse::from_json(&Json::parse(sink.text().lines().next().unwrap()).unwrap())
                .unwrap();
        let error = response.outcome.unwrap_err();
        assert_eq!(error.kind, twca_api::ApiErrorKind::Overloaded);
        assert!(error.message.contains("shutting down"), "{error}");
    }

    #[test]
    fn expired_deadlines_cancel_queued_work() {
        let pool = WorkerPool::new(
            Session::new(),
            &ServiceConfig {
                workers: 1,
                deadline: Some(Duration::from_millis(0)),
                ..ServiceConfig::default()
            },
        );
        let sink = SharedSink::default();
        let conn = Connection::new(Box::new(sink.clone()));
        // An already-expired deadline: the watchdog raises the token
        // before (or while) the worker runs, and the answer must be a
        // typed canceled error, not a hang or a dropped line.
        std::thread::sleep(Duration::from_millis(5));
        for i in 0..5 {
            pool.submit(&conn, i, request_line(&format!("r{i}")));
        }
        let summary = pool.shutdown();
        assert_eq!(summary.requests, 5);
        let canceled = sink
            .text()
            .lines()
            .map(|l| AnalysisResponse::from_json(&Json::parse(l).unwrap()).unwrap())
            .filter(|r| matches!(&r.outcome, Err(e) if e.kind == twca_api::ApiErrorKind::Canceled))
            .count();
        assert_eq!(
            canceled, 5,
            "expired deadlines produce typed canceled errors"
        );
    }

    #[test]
    fn a_dead_connection_never_poisons_others() {
        struct BrokenPipe;
        impl Write for BrokenPipe {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "client gone",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let pool = WorkerPool::new(Session::new(), &ServiceConfig::default());
        let broken = Connection::new(Box::new(BrokenPipe));
        let sink = SharedSink::default();
        let healthy = Connection::new(Box::new(sink.clone()));
        for i in 0..10 {
            pool.submit(&broken, i, request_line(&format!("b{i}")));
            pool.submit(&healthy, i, request_line(&format!("h{i}")));
        }
        let summary = pool.shutdown();
        assert!(broken.is_dead());
        assert!(!healthy.is_dead());
        assert_eq!(summary.requests, 20, "dead-lane answers still count");
        assert_eq!(sink.text().lines().count(), 10);
    }

    #[test]
    fn pool_cache_is_shared_across_workers() {
        let session = Session::new();
        let cache = session.cache();
        let pool = WorkerPool::new(
            session,
            &ServiceConfig {
                workers: 4,
                ..ServiceConfig::default()
            },
        );
        let sink = SharedSink::default();
        let conn = Connection::new(Box::new(sink.clone()));
        let line =
            format!("{{\"system\": \"{CHAIN}\", \"queries\": [{{\"dmm\": {{\"ks\": [10]}}}}]}}");
        for i in 0..16 {
            pool.submit(&conn, i, line.clone());
        }
        pool.shutdown();
        assert!(cache.stats().hits > 0, "workers must share one cache");
    }

    #[test]
    fn stats_queries_see_the_pool_counters() {
        let pool = WorkerPool::new(Session::new(), &ServiceConfig::default());
        let sink = SharedSink::default();
        let conn = Connection::new(Box::new(sink.clone()));
        pool.submit(&conn, 0, request_line("warm"));
        // `stats` is a point-in-time snapshot and the pool may run it on
        // another worker before the earlier request is served: wait
        // until that response is out (a worker counts a request served
        // before delivering its response).
        let deadline = Instant::now() + Duration::from_secs(30);
        while sink.text().lines().count() == 0 {
            assert!(
                Instant::now() < deadline,
                "the warm request was never answered"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.submit(&conn, 1, "{\"queries\": [{\"stats\": {}}]}".into());
        pool.shutdown();
        let last = sink.text().lines().last().unwrap().to_owned();
        let response = AnalysisResponse::from_json(&Json::parse(&last).unwrap()).unwrap();
        let outcomes = response.outcome.unwrap();
        let twca_api::QueryOutcome::Stats(stats) = outcomes[0] else {
            panic!("expected stats outcome");
        };
        assert!(stats.served >= 1);
    }
}
