//! The server under test — a fresh `twca serve --listen` process — and
//! the closed-loop client that drives it, plus the `/proc` readings
//! taken around the measured phase.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Longest wait for the server to listen, to answer or to exit.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running `twca serve --listen 127.0.0.1:0`. Dropping it kills the
/// process; [`Server::shutdown`] drains it.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Spawns the server with `workers` worker threads (and a durable
    /// store in `store_dir`, if given) and waits until it listens.
    ///
    /// # Errors
    ///
    /// A message when the process cannot start or never listens.
    pub fn spawn(twca: &Path, workers: usize, store_dir: Option<&Path>) -> Result<Server, String> {
        let mut command = Command::new(twca);
        command
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string());
        if let Some(dir) = store_dir {
            command.arg("--store-dir").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", twca.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (listening, addr) = mpsc::channel();
        // Reads stderr to the end, so the server never blocks on it,
        // and reports the address the server announces.
        let reader = thread::spawn(move || {
            let mut log = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("listening on ") {
                    let _ = listening.send(rest.split_whitespace().next().unwrap_or("").to_owned());
                }
                log.push_str(&line);
                log.push('\n');
            }
            log
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        match addr.recv_timeout(PATIENCE).map(|text| text.parse()) {
            Ok(Ok(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => {
                server.kill();
                let log = server.stderr.take().map(|r| r.join().unwrap_or_default());
                Err(format!(
                    "the server did not announce a listening address; stderr:\n{}",
                    log.unwrap_or_default()
                ))
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens one client connection.
    ///
    /// # Errors
    ///
    /// A message when the connection fails.
    pub fn connect(&self) -> Result<Client, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connecting: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(PATIENCE)))
            .map_err(|e| format!("configuring the socket: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            frame: Vec::new(),
        })
    }

    /// Closes the server's stdin — its drain signal — and waits for it
    /// to exit. Close every client first: the drain waits for them.
    ///
    /// # Errors
    ///
    /// A message with the server's stderr when it does not exit
    /// cleanly in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + PATIENCE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(1)),
                _ => break None,
            }
        };
        if status.is_none() {
            self.kill();
        }
        let log = self
            .stderr
            .take()
            .map(|reader| reader.join().unwrap_or_default())
            .unwrap_or_default();
        match status {
            Some(status) if status.success() => Ok(()),
            Some(status) => Err(format!("the server exited with {status}; stderr:\n{log}")),
            None => Err(format!("the server did not drain in time; stderr:\n{log}")),
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// One client connection with at most one request outstanding.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    frame: Vec<u8>,
}

impl Client {
    /// Sends one request line and reads its response line (without the
    /// newline).
    ///
    /// # Errors
    ///
    /// The I/O error, a timeout or an early end of stream.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.frame.clear();
        self.frame.extend_from_slice(line.as_bytes());
        self.frame.push(b'\n');
        self.writer.write_all(&self.frame)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if response.ends_with('\n') {
            response.pop();
        }
        Ok(response)
    }
}

/// The client-side record of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Drive {
    /// Index in the driven lines and latency, send to full response
    /// line, of each answered request.
    pub latencies_ns: Vec<(usize, u64)>,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered with exactly the expected line.
    pub ok: usize,
    /// Wall time from the first send to the last answer.
    pub wall_ns: u64,
    /// The first failure seen, for the report.
    pub first_failure: Option<String>,
}

/// Drives `lines` through `connections` closed-loop clients, each
/// taking the next unsent line of the shared list, and checks every
/// answer against `expected`. A transport failure ends its connection:
/// the lines it never sent count as failed.
///
/// # Errors
///
/// A message when a connection cannot be opened.
pub fn drive(
    server: &Server,
    connections: usize,
    lines: &[String],
    expected: &[String],
) -> Result<Drive, String> {
    let clients = (0..connections)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_client: Vec<Drive> = thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut record = Drive::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = lines.get(i) else { break };
                        record.sent += 1;
                        let sent = Instant::now();
                        match client.call(line) {
                            Ok(response) => {
                                record
                                    .latencies_ns
                                    .push((i, sent.elapsed().as_nanos() as u64));
                                if response == expected[i] {
                                    record.ok += 1;
                                } else if record.first_failure.is_none() {
                                    record.first_failure =
                                        Some(mismatch(i, &response, &expected[i]));
                                }
                            }
                            Err(e) => {
                                record.first_failure = Some(format!("line {i}: {e}"));
                                break;
                            }
                        }
                    }
                    record
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_ns = started.elapsed().as_nanos() as u64;
    let mut total = Drive {
        wall_ns,
        ..Drive::default()
    };
    for record in per_client {
        total.latencies_ns.extend(record.latencies_ns);
        total.sent += record.sent;
        total.ok += record.ok;
        total.first_failure = total.first_failure.or(record.first_failure);
    }
    Ok(total)
}

/// A short description of an answer that differs from the replay's.
pub fn mismatch(index: usize, got: &str, expected: &str) -> String {
    let at = got
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(expected.len()));
    let from = at.saturating_sub(40);
    format!(
        "line {index}: answer differs from the replay at byte {at}: got `{}`, expected `{}`",
        got.get(from..(at + 40).min(got.len())).unwrap_or(""),
        expected
            .get(from..(at + 40).min(expected.len()))
            .unwrap_or("")
    )
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of process `pid`, all threads.
///
/// # Errors
///
/// A message when `/proc/<pid>/stat` cannot be read.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / USER_HZ),
        _ => Err(format!("unexpected /proc/{pid}/stat: {stat}")),
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
///
/// # Errors
///
/// A message when `/proc/<pid>/status` cannot be read.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Host-wide CPU time counters from `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    /// Reads the aggregate `cpu` line; zeros where `/proc/stat` is not
    /// readable (the steal share then reads 0).
    pub fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .find(|line| line.starts_with("cpu "))
            .map(|line| {
                line.split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal; guest time is
        // already inside user.
        HostCpu {
            total: ticks.iter().take(8).sum(),
            steal: ticks.get(7).copied().unwrap_or(0),
        }
    }

    /// Percentage of host CPU time stolen by the hypervisor since
    /// `earlier`.
    pub fn steal_pct_since(self, earlier: HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
