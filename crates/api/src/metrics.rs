//! The one counter registry of a serving process: a fixed array of
//! relaxed atomics indexed by [`Counter`], read back as a
//! [`crate::StatsOutcome`] by the wire `stats` query, the drain
//! summary and the load generator's server report.

use std::sync::atomic::{AtomicU64, Ordering};

/// One registry counter. The first sixteen are `stats` wire fields, in
/// wire order (the wire puts the six cache fields of
/// [`twca_chains::CacheStats`] before them); [`Counter::Errors`] is
/// process-local and never on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Requests answered by the service (ok or error).
    Served,
    /// Requests rejected at admission (`overloaded` or draining).
    Rejected,
    /// Requests admitted but not yet answered (a gauge).
    InFlight,
    /// Worker panics caught and answered with typed `internal` errors.
    Panics,
    /// Put records appended to the store journal.
    JournalAppends,
    /// Bytes appended to the store journal.
    JournalBytes,
    /// Journal fsyncs issued.
    JournalSyncs,
    /// Store snapshots written (including drain flushes).
    SnapshotsWritten,
    /// Journal records replayed when the store was recovered.
    RecoveredRecords,
    /// Torn-tail bytes truncated when the store was recovered.
    TruncatedBytes,
    /// Client connections currently open at the service edge (a gauge).
    OpenConnections,
    /// Connections reaped at the idle timeout (slow-loris defense).
    Reaped,
    /// Connections closed after a read or a write timed out.
    Timeouts,
    /// Connections that ended in a reset (theirs or injected).
    Resets,
    /// Connections disconnected for overflowing their bounded outbound
    /// response buffer (slow-consumer defense).
    SlowConsumers,
    /// Largest per-connection response-queue depth observed (a peak).
    QueueDepthPeak,
    /// Answers whose outcome was an error, rejections included. Read by
    /// the drain summary; not a `stats` field.
    Errors,
}

/// Shared observability counters, all relaxed atomics: monotone
/// operational telemetry (plus two gauges and one peak), not
/// synchronization.
///
/// A [`crate::Session`] owns one, shared by its clones, and a worker
/// pool records its admission, edge and error counters into the
/// registry of the session it is given; a [`crate::SystemStore`] owns
/// another for its journal and recovery counters, since one store can
/// back several sessions. [`crate::Session::stats_outcome`] folds both
/// into one snapshot.
///
/// # Examples
///
/// ```
/// use twca_api::{Counter, Metrics};
///
/// let metrics = Metrics::new();
/// metrics.add(Counter::InFlight, 2);
/// metrics.sub(Counter::InFlight, 1);
/// metrics.peak(Counter::QueueDepthPeak, 7);
/// metrics.peak(Counter::QueueDepthPeak, 3);
/// assert_eq!(metrics.get(Counter::InFlight), 1);
/// assert_eq!(metrics.get(Counter::QueueDepthPeak), 7);
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    cells: [AtomicU64; Counter::Errors as usize + 1],
}

impl Metrics {
    /// A fresh registry, every counter zero.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `by` to `counter`.
    pub fn add(&self, counter: Counter, by: u64) {
        self.cells[counter as usize].fetch_add(by, Ordering::Relaxed);
    }

    /// Subtracts `by` from a gauge.
    pub fn sub(&self, counter: Counter, by: u64) {
        self.cells[counter as usize].fetch_sub(by, Ordering::Relaxed);
    }

    /// Raises `counter` to `value` if that is larger (a peak gauge).
    pub fn peak(&self, counter: Counter, value: u64) {
        self.cells[counter as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.cells[counter as usize].load(Ordering::Relaxed)
    }

    /// Every counter's current value, in [`Counter`] order.
    pub(crate) fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells.iter().map(|cell| cell.load(Ordering::Relaxed))
    }
}
