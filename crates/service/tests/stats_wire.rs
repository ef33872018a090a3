//! Pins the exact bytes of a `stats` answer: field names, field order
//! and every value, after a fixed script through a one-worker pool on
//! a durable in-memory store (two `store_put`s, one analysis, then
//! `stats`).

use std::sync::{Arc, Mutex};

use twca_api::{MemIo, PersistPolicy, Session, StoreIo, SystemStore};
use twca_service::{serve_connection, ServiceConfig, WorkerPool};

#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

const SCRIPT: &str = concat!(
    r#"{"id": "put-1", "queries": [{"store_put": {"name": "plant", "system": "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }"}}]}"#,
    "\n",
    r#"{"id": "put-2", "queries": [{"store_put": {"name": "plant", "system": "chain c periodic=100 deadline=100 { task t prio=1 wcet=12 }"}}]}"#,
    "\n",
    r#"{"id": "analyze", "system": "chain c periodic=100 deadline=100 sync { task a prio=2 wcet=10 task b prio=1 wcet=20 } chain o sporadic=1000 overload { task x prio=3 wcet=30 }", "queries": [{"latency": {}}, {"dmm": {"ks": [1, 10]}}]}"#,
    "\n",
    r#"{"id": "stats", "queries": [{"stats": {}}]}"#,
    "\n",
);

const STATS_LINE: &str = r#"{"v": 1, "id": "stats", "ok": [{"stats": {"cache_hits": 1, "cache_misses": 6, "cache_entries": 6, "evictions": 0, "resident_entries": 6, "resident_bytes_est": 1308, "served": 3, "rejected": 0, "in_flight": 1, "panics": 0, "journal_appends": 2, "journal_bytes": 222, "journal_syncs": 2, "snapshots_written": 0, "recovered_records": 0, "truncated_bytes": 0, "open_connections": 0, "reaped": 0, "timeouts": 0, "resets": 0, "slow_consumers": 0, "queue_depth_peak": 0}}]}"#;

#[test]
fn the_stats_answer_line_is_pinned_byte_for_byte() {
    let (store, _) = SystemStore::durable(
        Arc::new(MemIo::new()) as Arc<dyn StoreIo>,
        PersistPolicy::default(),
    )
    .unwrap();
    let pool = WorkerPool::new(
        Session::new().with_store(Arc::new(store)),
        &ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let sink = Sink::default();
    serve_connection(&pool, SCRIPT.as_bytes(), Box::new(sink.clone()), 1 << 20).unwrap();
    let _ = pool.shutdown();
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "{out}");
    assert_eq!(lines[3], STATS_LINE);
}
