//! The load generator behind `twca loadgen` and the
//! `service_saturation` bench: N logical request streams multiplexed
//! over C TCP connections, fully pipelined, with per-request latency
//! sampling.
//!
//! One OS thread per *connection* (not per stream) keeps 10k+
//! concurrent streams practical on small machines: each connection
//! carries its share of streams round-robin, a writer thread keeps the
//! pipeline full, and the reader thread matches responses to send
//! timestamps by order — the server guarantees per-connection response
//! ordering, so no id bookkeeping is needed.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use twca_api::{
    AnalysisRequest, AnalysisResponse, Counter, Json, LinkSpec, Query, QueryOutcome, SiteSpec,
    StatsOutcome, Target,
};

use crate::retry::RetryPolicy;

/// What kind of requests a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestMix {
    /// Uniprocessor chain-system requests only.
    Chain,
    /// Distributed linked-resource requests only.
    Dist,
    /// Alternating chain and distributed requests.
    Mixed,
    /// Store writes: every request is a `store_put` carrying a
    /// deterministic dedup id, so the whole corpus is safely
    /// retryable and exercises the at-most-once ledger.
    Store,
}

impl RequestMix {
    /// Parses the CLI/wire name.
    #[must_use]
    pub fn parse(name: &str) -> Option<RequestMix> {
        Some(match name {
            "chain" => RequestMix::Chain,
            "dist" => RequestMix::Dist,
            "mixed" => RequestMix::Mixed,
            "store" => RequestMix::Store,
            _ => return None,
        })
    }
}

/// Knobs of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Logical request streams.
    pub streams: usize,
    /// Requests sent per stream.
    pub requests_per_stream: usize,
    /// TCP connections the streams are multiplexed over.
    pub connections: usize,
    /// Request kinds.
    pub mix: RequestMix,
    /// Seed of the deterministic request corpus.
    pub seed: u64,
    /// Retry transport failures with exponential backoff. `None`
    /// keeps the fully pipelined fire-and-forget path (the bench
    /// shape); `Some` switches to windowed driving where unanswered
    /// requests are retried over a fresh connection — `store_put`s
    /// only because the corpus gives every one a dedup id.
    pub retry: Option<RetryPolicy>,
    /// Client-side fault injection: probability (parts per million)
    /// that a request's connection is torn down right after sending
    /// it, deterministic in `(seed, stream, round)`. Requires `retry`
    /// to recover; `0` disables.
    pub reset_ppm: u32,
    /// Fetch the server's `stats` outcome (open connections, queue
    /// depth peak, reap/timeout/reset counts) over a fresh connection
    /// after the timed run and attach it to the report.
    pub fetch_stats: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            streams: 100,
            requests_per_stream: 10,
            connections: 8,
            mix: RequestMix::Mixed,
            seed: 42,
            retry: None,
            reset_ppm: 0,
            fetch_stats: false,
        }
    }
}

/// The deterministic request for `(stream, index)` under `mix` and
/// `seed`. A small parameter space (the same few systems recur across
/// streams) makes the run exercise the service tier — sharding,
/// queueing, cache sharing — rather than raw analysis throughput.
#[must_use]
pub fn request_for(mix: RequestMix, seed: u64, stream: usize, index: usize) -> AnalysisRequest {
    let variant = (seed as usize)
        .wrapping_add(stream.wrapping_mul(31))
        .wrapping_add(index.wrapping_mul(7));
    let id = format!("s{stream}-r{index}");
    if mix == RequestMix::Store {
        let period = 60 + 20 * (variant % 4) as u64;
        let wcet = 5 + (variant % 3) as u64;
        return AnalysisRequest {
            id: Some(id),
            target: Target::Service,
            queries: vec![Query::StorePut {
                name: format!("sys-{stream}"),
                system: Some(format!(
                    "chain c periodic={period} deadline={period} sync \
                     {{ task a prio=2 wcet={wcet} task b prio=1 wcet=10 }}"
                )),
                dist: None,
                // The dedup id is what makes a retried put safe: the
                // store answers a replay from its ledger instead of
                // double-applying.
                dedup: Some(format!("dd-{seed}-{stream}-{index}")),
            }],
            options: twca_api::RequestOptions::default(),
        };
    }
    let chain = match mix {
        RequestMix::Chain | RequestMix::Store => true,
        RequestMix::Dist => false,
        RequestMix::Mixed => (stream + index).is_multiple_of(2),
    };
    if chain {
        let period = 60 + 20 * (variant % 4) as u64;
        let wcet = 5 + (variant % 3) as u64;
        let request = AnalysisRequest::for_system(format!(
            "chain c periodic={period} deadline={period} sync {{ \
             task a prio=2 wcet={wcet} task b prio=1 wcet=10 }}\n\
             chain burst sporadic=900 overload {{ task x prio=3 wcet=15 }}"
        ))
        .with_id(id);
        match variant % 3 {
            0 => request.with_query(Query::Latency { chain: None }),
            1 => request.with_query(Query::Dmm {
                chain: Some("c".into()),
                ks: vec![1, 5, 10],
            }),
            _ => request.with_query(Query::WeaklyHard {
                chain: Some("c".into()),
                m: 2,
                k: 10,
            }),
        }
    } else {
        let period = 80 + 20 * (variant % 3) as u64;
        AnalysisRequest {
            id: Some(id),
            target: Target::Distributed {
                resources: vec![
                    (
                        "e0".into(),
                        format!(
                            "chain feed periodic={period} deadline={period} sync \
                             {{ task f prio=1 wcet=12 }}"
                        ),
                    ),
                    (
                        "e1".into(),
                        "chain act periodic=200 deadline=200 sync { task a prio=1 wcet=20 }".into(),
                    ),
                ],
                links: vec![LinkSpec {
                    from: SiteSpec {
                        resource: "e0".into(),
                        chain: "feed".into(),
                    },
                    to: SiteSpec {
                        resource: "e1".into(),
                        chain: "act".into(),
                    },
                }],
            },
            queries: vec![Query::Latency { chain: None }],
            options: twca_api::RequestOptions::default(),
        }
    }
}

/// The outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests sent (and responses received).
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// Error responses other than `overloaded`.
    pub errors: u64,
    /// Typed `overloaded` rejections.
    pub rejected: u64,
    /// Responses that never arrived (server died mid-run, or the
    /// retry budget ran out).
    pub lost: u64,
    /// Retry attempts beyond each request's first send.
    pub retries: u64,
    /// `store_put` responses answered from the dedup ledger (a
    /// retried put whose first attempt had landed).
    pub deduped: u64,
    /// Client-side connection teardowns injected via `reset_ppm`.
    pub injected_resets: u64,
    /// The server's `stats` outcome, when `fetch_stats` asked for it
    /// (fetched after the timed run, over a fresh connection).
    pub server_stats: Option<StatsOutcome>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    latencies_ns: Vec<u64>,
}

impl LoadgenReport {
    /// Sustained request rate over the whole run.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / secs
    }

    /// The `q`-quantile (0 < q ≤ 1) of per-request latency in
    /// nanoseconds, by the nearest-rank rule `rank = ⌈q·n⌉`; 0 when
    /// nothing completed.
    #[must_use]
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let n = self.latencies_ns.len() as u64;
        // Integer basis points: floating-point `q * n` can land a hair
        // above an exact rank (0.99 × 100 = 99.000…01) and its ceil
        // then indexes one past the intended sample.
        let bp = (q * 10_000.0).round() as u64;
        let rank = bp.saturating_mul(n).div_ceil(10_000).clamp(1, n) as usize;
        self.latencies_ns[rank - 1]
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} request(s) in {:.3}s — {:.0} req/s\n\
             ok {} · errors {} · rejected {} · lost {}\n\
             latency p50 {} µs · p95 {} µs · p99 {} µs\n",
            self.requests,
            self.elapsed.as_secs_f64(),
            self.requests_per_sec(),
            self.ok,
            self.errors,
            self.rejected,
            self.lost,
            self.percentile_ns(0.50) / 1_000,
            self.percentile_ns(0.95) / 1_000,
            self.percentile_ns(0.99) / 1_000,
        );
        if self.retries + self.deduped + self.injected_resets > 0 {
            let _ = writeln!(
                out,
                "retries {} · deduped {} · injected resets {}",
                self.retries, self.deduped, self.injected_resets
            );
        }
        if let Some(stats) = &self.server_stats {
            let fields: Vec<String> = server_fields(stats)
                .map(|(name, value)| format!("{} {value}", name.replace('_', " ")))
                .collect();
            let _ = writeln!(out, "server: {}", fields.join(" · "));
        }
        out
    }

    /// Serializes the report for `--json` consumers.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("requests".into(), Json::UInt(self.requests)),
            ("ok".into(), Json::UInt(self.ok)),
            ("errors".into(), Json::UInt(self.errors)),
            ("rejected".into(), Json::UInt(self.rejected)),
            ("lost".into(), Json::UInt(self.lost)),
            ("retries".into(), Json::UInt(self.retries)),
            ("deduped".into(), Json::UInt(self.deduped)),
            ("injected_resets".into(), Json::UInt(self.injected_resets)),
            (
                "elapsed_ns".into(),
                Json::UInt(self.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64),
            ),
            (
                "requests_per_sec".into(),
                Json::UInt(self.requests_per_sec() as u64),
            ),
            ("p50_ns".into(), Json::UInt(self.percentile_ns(0.50))),
            ("p95_ns".into(), Json::UInt(self.percentile_ns(0.95))),
            ("p99_ns".into(), Json::UInt(self.percentile_ns(0.99))),
        ];
        if let Some(stats) = &self.server_stats {
            fields.push((
                "server_stats".into(),
                Json::Object(
                    server_fields(stats)
                        .map(|(name, value)| (name.into(), Json::UInt(value)))
                        .collect(),
                ),
            ));
        }
        Json::Object(fields)
    }
}

/// The server's edge counters a report shows, in report order.
const SERVER_COUNTERS: [Counter; 6] = [
    Counter::OpenConnections,
    Counter::QueueDepthPeak,
    Counter::Reaped,
    Counter::Timeouts,
    Counter::Resets,
    Counter::SlowConsumers,
];

/// `(wire name, value)` of every [`SERVER_COUNTERS`] entry.
fn server_fields(stats: &StatsOutcome) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    SERVER_COUNTERS
        .iter()
        .filter_map(|&counter| Some((counter.wire_name()?, stats.counter(counter)?)))
}

#[derive(Default)]
struct ConnTally {
    ok: u64,
    errors: u64,
    rejected: u64,
    lost: u64,
    retries: u64,
    deduped: u64,
    injected_resets: u64,
    latencies_ns: Vec<u64>,
}

/// Drives `config` against the server at `addr`.
///
/// # Errors
///
/// Connection-establishment failures (on the retry path, only once
/// the retry budget is spent); mid-run losses are reported in the
/// `lost` counter instead of aborting the run.
pub fn run_loadgen(
    addr: impl ToSocketAddrs + Clone,
    config: &LoadgenConfig,
) -> std::io::Result<LoadgenReport> {
    let connections = config.connections.clamp(1, config.streams.max(1));
    let addrs: Vec<std::net::SocketAddr> = addr.to_socket_addrs()?.collect();
    let started = Instant::now();
    let mut handles = Vec::with_capacity(connections);
    for conn_index in 0..connections {
        let streams: Vec<usize> = (0..config.streams)
            .filter(|s| s % connections == conn_index)
            .collect();
        if streams.is_empty() {
            continue;
        }
        let config = config.clone();
        if config.retry.is_some() || config.reset_ppm > 0 {
            let addrs = addrs.clone();
            handles.push(std::thread::spawn(move || {
                drive_connection_retry(&addrs[..], &streams, &config)
            }));
        } else {
            let stream = TcpStream::connect(&addrs[..])?;
            stream.set_nodelay(true)?;
            handles.push(std::thread::spawn(move || {
                drive_connection(stream, &streams, &config)
            }));
        }
    }
    let mut total = ConnTally::default();
    for handle in handles {
        let tally = handle.join().unwrap_or_default();
        total.ok += tally.ok;
        total.errors += tally.errors;
        total.rejected += tally.rejected;
        total.lost += tally.lost;
        total.retries += tally.retries;
        total.deduped += tally.deduped;
        total.injected_resets += tally.injected_resets;
        total.latencies_ns.extend(tally.latencies_ns);
    }
    total.latencies_ns.sort_unstable();
    let elapsed = started.elapsed();
    // Fetched outside the timed window so the extra round trip never
    // skews the latency picture.
    let server_stats = if config.fetch_stats {
        fetch_server_stats(&addrs[..])
    } else {
        None
    };
    Ok(LoadgenReport {
        requests: (config.streams * config.requests_per_stream) as u64,
        ok: total.ok,
        errors: total.errors,
        rejected: total.rejected,
        lost: total.lost,
        retries: total.retries,
        deduped: total.deduped,
        injected_resets: total.injected_resets,
        server_stats,
        elapsed,
        latencies_ns: total.latencies_ns,
    })
}

/// One `stats` round trip over a fresh connection; `None` on any
/// failure (the report is best-effort observability, not a gate).
fn fetch_server_stats(addrs: &[std::net::SocketAddr]) -> Option<StatsOutcome> {
    let mut stream = TcpStream::connect(addrs).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    writeln!(stream, "{{\"queries\": [{{\"stats\": {{}}}}]}}").ok()?;
    stream.shutdown(Shutdown::Write).ok()?;
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let response = AnalysisResponse::from_json(&Json::parse(&line).ok()?).ok()?;
    match response.outcome.ok()?.into_iter().next()? {
        QueryOutcome::Stats(stats) => Some(stats),
        _ => None,
    }
}

fn drive_connection(stream: TcpStream, streams: &[usize], config: &LoadgenConfig) -> ConnTally {
    let total = streams.len() * config.requests_per_stream;
    let sent: Arc<Mutex<VecDeque<Instant>>> = Arc::new(Mutex::new(VecDeque::new()));
    let writer_sent = Arc::clone(&sent);
    let Ok(mut write_half) = stream.try_clone() else {
        return ConnTally {
            lost: total as u64,
            ..ConnTally::default()
        };
    };
    let my_streams = streams.to_vec();
    let mix = config.mix;
    let seed = config.seed;
    let rounds = config.requests_per_stream;
    let writer = std::thread::spawn(move || {
        let mut line = String::new();
        for round in 0..rounds {
            for &s in &my_streams {
                line.clear();
                line.push_str(&request_for(mix, seed, s, round).to_json().to_string());
                line.push('\n');
                writer_sent
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push_back(Instant::now());
                if write_half.write_all(line.as_bytes()).is_err() {
                    return;
                }
            }
        }
        // Half-close so the server's reader sees EOF once the pipeline
        // is drained.
        let _ = write_half.shutdown(Shutdown::Write);
    });

    let mut tally = ConnTally {
        latencies_ns: Vec::with_capacity(total),
        ..ConnTally::default()
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for _ in 0..total {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let received = Instant::now();
        let sent_at = sent
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_front();
        if let Some(sent_at) = sent_at {
            let ns = received
                .saturating_duration_since(sent_at)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            tally.latencies_ns.push(ns);
        }
        match classify(&line) {
            Outcome::Ok { deduped } => {
                tally.ok += 1;
                tally.deduped += u64::from(deduped);
            }
            Outcome::Rejected => tally.rejected += 1,
            Outcome::Error => tally.errors += 1,
        }
    }
    let _ = writer.join();
    let answered = tally.ok + tally.errors + tally.rejected;
    tally.lost = (total as u64).saturating_sub(answered);
    tally
}

/// How many requests the retry driver keeps in flight per connection:
/// enough pipelining to stay busy, small enough that a mid-window
/// teardown re-sends little.
const RETRY_WINDOW: usize = 16;

/// One not-yet-answered request on the retry path.
struct PendingRequest {
    stream: usize,
    round: usize,
    attempt: u32,
}

/// Whether a request is safe to re-send after a transport failure
/// that may or may not have swallowed its answer: every query must be
/// idempotent, and a `store_put` counts only when it carries a dedup
/// id the store applies at most once.
fn retryable(request: &AnalysisRequest) -> bool {
    request.queries.iter().all(|q| match q {
        Query::StorePut { dedup, .. } => dedup.is_some(),
        _ => true,
    })
}

/// Deterministic per-request coin for client-side reset injection.
fn injects_reset(config: &LoadgenConfig, stream: usize, round: usize) -> bool {
    if config.reset_ppm == 0 {
        return false;
    }
    let mut x = config
        .seed
        .wrapping_add((stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((round as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) % 1_000_000 < u64::from(config.reset_ppm)
}

/// The windowed retry driver: requests go out in bounded windows, the
/// window's responses are read back, and anything unanswered when the
/// transport fails is re-sent over a fresh connection after an
/// exponential backoff — requests that are not [`retryable`] (or
/// whose budget runs out) are counted lost instead.
#[allow(clippy::too_many_lines)] // one window pipeline reads better unsplit
fn drive_connection_retry(
    addrs: &[std::net::SocketAddr],
    streams: &[usize],
    config: &LoadgenConfig,
) -> ConnTally {
    let policy = config.retry.unwrap_or(RetryPolicy {
        attempts: 1,
        ..RetryPolicy::default()
    });
    let mut queue: VecDeque<PendingRequest> = VecDeque::new();
    for round in 0..config.requests_per_stream {
        for &stream in streams {
            queue.push_back(PendingRequest {
                stream,
                round,
                attempt: 0,
            });
        }
    }
    let mut tally = ConnTally {
        latencies_ns: Vec::with_capacity(queue.len()),
        ..ConnTally::default()
    };
    let backoff_seed = config.seed ^ streams.first().copied().unwrap_or(0) as u64;
    let mut connect_failures = 0u32;
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    while !queue.is_empty() {
        // (Re)establish the transport, backing off on failure.
        if conn.is_none() {
            let Ok(stream) = TcpStream::connect(addrs) else {
                connect_failures += 1;
                if !policy.allows(connect_failures) {
                    tally.lost += queue.len() as u64;
                    return tally;
                }
                std::thread::sleep(policy.backoff(backoff_seed, connect_failures));
                continue;
            };
            let _ = stream.set_nodelay(true);
            let Ok(read_half) = stream.try_clone() else {
                continue;
            };
            conn = Some((stream, BufReader::new(read_half)));
            connect_failures = 0;
        }
        let Some((stream, reader)) = conn.as_mut() else {
            continue;
        };
        // Send one window, noting a scheduled mid-window teardown.
        let window: Vec<PendingRequest> = {
            let take = queue.len().min(RETRY_WINDOW);
            queue.drain(..take).collect()
        };
        let mut teardown = false;
        let mut wrote = 0usize;
        let mut sent_at: Vec<Instant> = Vec::with_capacity(window.len());
        for pending in &window {
            let line = request_for(config.mix, config.seed, pending.stream, pending.round)
                .to_json()
                .to_string();
            sent_at.push(Instant::now());
            if writeln!(stream, "{line}").is_err() {
                teardown = true;
                break;
            }
            wrote += 1;
            if pending.attempt == 0 && injects_reset(config, pending.stream, pending.round) {
                tally.injected_resets += 1;
                let _ = stream.shutdown(Shutdown::Both);
                teardown = true;
                break;
            }
        }
        // Read back what the server managed to answer.
        let mut answered = 0usize;
        let mut line = String::new();
        while answered < wrote {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    teardown = true;
                    break;
                }
                Ok(_) => {}
            }
            let ns = Instant::now()
                .saturating_duration_since(sent_at[answered])
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            tally.latencies_ns.push(ns);
            match classify(&line) {
                Outcome::Ok { deduped } => {
                    tally.ok += 1;
                    tally.deduped += u64::from(deduped);
                }
                Outcome::Rejected => tally.rejected += 1,
                Outcome::Error => tally.errors += 1,
            }
            answered += 1;
        }
        // Requeue (or write off) the unanswered tail.
        let mut max_backoff = Duration::ZERO;
        for pending in window.into_iter().skip(answered) {
            let request = request_for(config.mix, config.seed, pending.stream, pending.round);
            let next_attempt = pending.attempt + 1;
            if retryable(&request) && policy.allows(next_attempt) {
                tally.retries += 1;
                max_backoff = max_backoff.max(policy.backoff(backoff_seed, next_attempt));
                queue.push_back(PendingRequest {
                    attempt: next_attempt,
                    ..pending
                });
            } else {
                tally.lost += 1;
            }
        }
        if teardown {
            conn = None;
            if !max_backoff.is_zero() {
                std::thread::sleep(max_backoff);
            }
        }
    }
    if let Some((stream, mut reader)) = conn {
        // Drain the half-close handshake so the server sees a clean
        // EOF rather than a reset.
        let _ = stream.shutdown(Shutdown::Write);
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    }
    tally
}

enum Outcome {
    Ok {
        /// Whether a `store_put` outcome was answered from the dedup
        /// ledger.
        deduped: bool,
    },
    Rejected,
    Error,
}

fn classify(line: &str) -> Outcome {
    match Json::parse(line) {
        Err(_) => Outcome::Error,
        Ok(value) => match value.get("error") {
            None => {
                let deduped = value
                    .get("ok")
                    .and_then(|outcomes| match outcomes {
                        Json::Array(items) => Some(items),
                        _ => None,
                    })
                    .is_some_and(|items| {
                        items.iter().any(|o| {
                            o.get("store_put")
                                .and_then(|p| p.get("deduped"))
                                .and_then(Json::as_bool)
                                == Some(true)
                        })
                    });
                Outcome::Ok { deduped }
            }
            Some(error) => match error.get("kind").and_then(Json::as_str) {
                Some("overloaded") => Outcome::Rejected,
                _ => Outcome::Error,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServiceConfig;
    use crate::server::TcpServer;
    use twca_api::Session;

    #[test]
    fn corpus_is_deterministic_and_valid() {
        for mix in [
            RequestMix::Chain,
            RequestMix::Dist,
            RequestMix::Mixed,
            RequestMix::Store,
        ] {
            for stream in 0..4 {
                for index in 0..4 {
                    let a = request_for(mix, 42, stream, index);
                    let b = request_for(mix, 42, stream, index);
                    assert_eq!(a, b);
                    let wire = a.to_json().to_string();
                    let reparsed =
                        AnalysisRequest::from_json(&Json::parse(&wire).unwrap()).unwrap();
                    assert_eq!(a, reparsed);
                }
            }
        }
    }

    #[test]
    fn loadgen_round_trip_is_clean() {
        let server =
            TcpServer::start("127.0.0.1:0", Session::new(), &ServiceConfig::default()).unwrap();
        let config = LoadgenConfig {
            streams: 20,
            requests_per_stream: 3,
            connections: 4,
            mix: RequestMix::Mixed,
            seed: 7,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(server.local_addr(), &config).unwrap();
        assert_eq!(report.requests, 60);
        assert_eq!(report.ok, 60);
        assert_eq!(report.errors + report.rejected + report.lost, 0);
        assert!(report.percentile_ns(0.5) <= report.percentile_ns(0.99));
        let summary = server.shutdown(std::time::Duration::from_secs(5));
        assert_eq!(summary.requests, 60);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn percentiles_come_from_the_sorted_tail() {
        let report = LoadgenReport {
            requests: 4,
            ok: 4,
            errors: 0,
            rejected: 0,
            lost: 0,
            retries: 0,
            deduped: 0,
            injected_resets: 0,
            server_stats: None,
            elapsed: Duration::from_secs(1),
            latencies_ns: vec![10, 20, 30, 100],
        };
        assert_eq!(report.percentile_ns(0.50), 20);
        assert_eq!(report.percentile_ns(0.99), 100);
        assert_eq!(report.requests_per_sec() as u64, 4);
    }

    fn report_with(latencies_ns: Vec<u64>) -> LoadgenReport {
        LoadgenReport {
            requests: latencies_ns.len() as u64,
            ok: latencies_ns.len() as u64,
            errors: 0,
            rejected: 0,
            lost: 0,
            retries: 0,
            deduped: 0,
            injected_resets: 0,
            server_stats: None,
            elapsed: Duration::from_secs(1),
            latencies_ns,
        }
    }

    /// The human report and its `--json` form, byte for byte, with
    /// every server edge counter distinct so the field order shows.
    #[test]
    fn reports_with_server_stats_render_byte_for_byte() {
        let report = LoadgenReport {
            server_stats: Some(StatsOutcome {
                open_connections: 1,
                queue_depth_peak: 2,
                reaped: 3,
                timeouts: 4,
                resets: 5,
                slow_consumers: 6,
                served: 99,
                ..StatsOutcome::default()
            }),
            ..report_with(vec![1_000, 2_000_000])
        };
        assert_eq!(
            report.render(),
            "2 request(s) in 1.000s — 2 req/s\n\
             ok 2 · errors 0 · rejected 0 · lost 0\n\
             latency p50 1 µs · p95 2000 µs · p99 2000 µs\n\
             server: open connections 1 · queue depth peak 2 · reaped 3 · timeouts 4 \
             · resets 5 · slow consumers 6\n"
        );
        assert_eq!(
            report.to_json().to_string(),
            r#"{"requests": 2, "ok": 2, "errors": 0, "rejected": 0, "lost": 0, "retries": 0, "deduped": 0, "injected_resets": 0, "elapsed_ns": 1000000000, "requests_per_sec": 2, "p50_ns": 1000, "p95_ns": 2000000, "p99_ns": 2000000, "server_stats": {"open_connections": 1, "queue_depth_peak": 2, "reaped": 3, "timeouts": 4, "resets": 5, "slow_consumers": 6}}"#
        );
    }

    /// Nearest-rank on small sample counts: `rank = ⌈q·n⌉` exactly,
    /// never one past it (the old float ceil indexed past the intended
    /// rank whenever `q·n` was representable a hair above an integer).
    #[test]
    fn small_sample_percentiles_use_exact_nearest_rank() {
        // 1 sample: every quantile is that sample.
        let one = report_with(vec![7]);
        for q in [0.01, 0.50, 0.95, 0.99, 1.0] {
            assert_eq!(one.percentile_ns(q), 7, "q={q}");
        }

        // 2 samples: ranks split at q = 0.5.
        let two = report_with(vec![10, 20]);
        assert_eq!(two.percentile_ns(0.50), 10);
        assert_eq!(two.percentile_ns(0.95), 20);
        assert_eq!(two.percentile_ns(0.99), 20);

        // 99 samples 1..=99: ⌈q·99⌉ directly names the value.
        let ninety_nine = report_with((1..=99).collect());
        assert_eq!(ninety_nine.percentile_ns(0.50), 50);
        assert_eq!(ninety_nine.percentile_ns(0.95), 95); // ⌈94.05⌉
        assert_eq!(ninety_nine.percentile_ns(0.99), 99); // ⌈98.01⌉

        // 100 samples 1..=100: q·n is an exact integer — the rank must
        // be q·n itself, not one past it.
        let hundred = report_with((1..=100).collect());
        assert_eq!(hundred.percentile_ns(0.95), 95);
        assert_eq!(hundred.percentile_ns(0.99), 99);
        assert_eq!(hundred.percentile_ns(1.0), 100);
    }

    #[test]
    fn retry_recovers_every_request_under_injected_resets() {
        let server =
            TcpServer::start("127.0.0.1:0", Session::new(), &ServiceConfig::default()).unwrap();
        let config = LoadgenConfig {
            streams: 12,
            requests_per_stream: 4,
            connections: 3,
            mix: RequestMix::Store,
            seed: 11,
            retry: Some(RetryPolicy {
                attempts: 6,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(20),
            }),
            // ~15% of requests tear their connection down right after
            // sending — with 48 requests this injects essentially
            // always; the run must still end clean.
            reset_ppm: 150_000,
            fetch_stats: true,
        };
        let report = run_loadgen(server.local_addr(), &config).unwrap();
        assert_eq!(report.requests, 48);
        assert_eq!(report.ok, 48, "retry must recover every request");
        assert_eq!(report.errors + report.rejected + report.lost, 0);
        assert!(
            report.injected_resets > 0,
            "a 15% ppm rate over 48 requests injects"
        );
        assert!(
            report.retries >= report.injected_resets,
            "every teardown forces at least its own request to retry"
        );
        let stats = report.server_stats.expect("fetch_stats was on");
        assert!(
            stats.resets > 0,
            "the server counted the injected teardowns: {stats:?}"
        );
        let rendered = report.render();
        assert!(rendered.contains("retries"), "{rendered}");
        assert!(rendered.contains("open connections"), "{rendered}");
        let _ = server.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn retried_store_puts_are_deduplicated_not_double_applied() {
        // Force the worst case deterministically: send a put, tear the
        // connection down before reading the ack, then retry the same
        // dedup id. The store must answer the replay from its ledger.
        let server =
            TcpServer::start("127.0.0.1:0", Session::new(), &ServiceConfig::default()).unwrap();
        let request = request_for(RequestMix::Store, 5, 0, 0)
            .to_json()
            .to_string();
        {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            writeln!(stream, "{request}").unwrap();
            // Wait for the ack so the put has definitely applied, then
            // drop the connection as if the ack never arrived.
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(!line.contains("\"deduped\": true"), "{line}");
        }
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        writeln!(stream, "{request}").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let Outcome::Ok { deduped } = classify(&line) else {
            panic!("retried put failed: {line}");
        };
        assert!(deduped, "the replayed put came from the ledger: {line}");
        let _ = server.shutdown(Duration::from_secs(5));
    }
}
