//! Parallel batch analysis for TWCA sweeps.
//!
//! Design-space studies (random priority assignments, generator sweeps,
//! sensitivity scans) analyze hundreds to millions of
//! [`twca_model::System`]s with the same pipeline: worst-case latencies
//! (Theorem 2), then deadline miss models over a set of window lengths
//! (Theorem 3). [`BatchEngine`] turns that loop into a front end that
//!
//! * **fans out** across CPU cores through the suite's one ordered
//!   fan-out ([`twca_model::ordered_par_map`]) — the parallel output is
//!   bit-identical to the serial one;
//! * **memoizes** the expensive sub-computations (busy-window fixed
//!   points, latency analyses, overload budgets, distance lookups) in a
//!   shared [`AnalysisCache`], so repeated work across similar systems
//!   and across `k`-values is done once;
//! * reports **progress** through a pluggable callback and exposes
//!   cache effectiveness via [`BatchEngine::cache_stats`].
//!
//! Each batch slot runs [`Session::system_outcome`] — the same pipeline
//! behind `twca serve`'s `full` queries — and the verdict types are the
//! shared wire DTOs, so the batch JSON ([`batch_to_json`]) and the
//! streaming responses cannot drift apart.
//!
//! # Examples
//!
//! ```
//! use twca_api::batch::BatchEngine;
//! use twca_model::case_study;
//!
//! let engine = BatchEngine::new().with_ks([1, 10]);
//! let batch = engine.run([case_study(), case_study()]);
//! assert_eq!(batch.len(), 2);
//! // Table I/II for the industrial case study:
//! let sigma_c = batch[0].chain("sigma_c").unwrap();
//! assert_eq!(sigma_c.worst_case_latency, Some(331));
//! assert_eq!(sigma_c.miss_models[1].bound, 5); // dmm(10) = 5
//! // The second (identical) system was answered from the cache.
//! assert!(engine.cache_stats().hits > 0);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::response::{ChainOutcome, SystemOutcome, Wire};
use crate::session::Session;
use twca_chains::AnalysisOptions;
pub use twca_chains::{AnalysisCache, CacheStats};
use twca_model::{ordered_par_map, System};

/// The analysis outcome of one chain within a batch system.
pub type ChainVerdict = ChainOutcome;

/// The analysis outcome of one system in a batch.
pub type SystemVerdict = SystemOutcome;

/// Progress observer: called with `(completed, total)` after every
/// finished system.
pub type ProgressFn = dyn Fn(usize, usize) + Send + Sync;

/// The batch-analysis front end; see the [module docs](self).
///
/// An engine owns one [`AnalysisCache`] that every run (serial or
/// parallel) shares; clone-cheap handles to the same cache can be
/// obtained with [`BatchEngine::cache`].
pub struct BatchEngine {
    threads: Option<usize>,
    ks: Vec<u64>,
    session: Session,
    progress: Option<Box<ProgressFn>>,
}

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchEngine {
    /// An engine with default options, `dmm` windows `[1, 10, 100]`, a
    /// fresh cache, and one worker per available core.
    pub fn new() -> Self {
        BatchEngine::from_session(Session::new())
    }

    /// An engine fanning out over an existing [`Session`] (sharing its
    /// cache and options).
    pub fn from_session(session: Session) -> Self {
        BatchEngine {
            threads: None,
            ks: vec![1, 10, 100],
            session,
            progress: None,
        }
    }

    /// Sets the number of worker threads (`1` forces the serial path).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Replaces the per-chain analysis options.
    #[must_use]
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.session = self.session.with_options(options);
        self
    }

    /// Replaces the miss-model window lengths evaluated per chain.
    #[must_use]
    pub fn with_ks(mut self, ks: impl IntoIterator<Item = u64>) -> Self {
        self.ks = ks.into_iter().collect();
        self
    }

    /// Shares an existing cache (e.g. across engines or sessions).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<AnalysisCache>) -> Self {
        self.session = self.session.with_cache(cache);
        self
    }

    /// Installs a progress observer.
    #[must_use]
    pub fn with_progress(
        mut self,
        progress: impl Fn(usize, usize) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(progress));
        self
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The shared cache handle.
    pub fn cache(&self) -> Arc<AnalysisCache> {
        self.session.cache()
    }

    /// Hit/miss counters of the shared cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.session.cache_stats()
    }

    /// Worker count the next [`BatchEngine::run`] will use.
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Analyzes every system, fanning out across
    /// [`BatchEngine::effective_threads`] workers.
    ///
    /// Results come back **in input order** and are bit-identical to
    /// [`BatchEngine::run_serial`] on the same input: each verdict is a
    /// pure function of its system, and the shared cache only ever
    /// returns values equal to what recomputation would produce.
    pub fn run(&self, systems: impl IntoIterator<Item = System>) -> Vec<SystemVerdict> {
        self.fan_out(systems, self.effective_threads())
    }

    /// Analyzes every system on the calling thread, still going through
    /// the shared cache. Reference implementation for equivalence tests
    /// and baseline benchmarks.
    pub fn run_serial(&self, systems: impl IntoIterator<Item = System>) -> Vec<SystemVerdict> {
        self.fan_out(systems, 1)
    }

    /// Fans the per-system pipeline out over `workers` threads: latency
    /// analysis per chain, then a `k`-sweep of the miss model for every
    /// deadline chain (see [`Session::system_outcome`]).
    fn fan_out(
        &self,
        systems: impl IntoIterator<Item = System>,
        workers: usize,
    ) -> Vec<SystemVerdict> {
        let jobs: Vec<System> = systems.into_iter().collect();
        let total = jobs.len();
        let done = AtomicUsize::new(0);
        ordered_par_map(
            total,
            workers,
            || (),
            |_, index| {
                let verdict = self.session.system_outcome(index, &jobs[index], &self.ks);
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(progress) = &self.progress {
                    progress(completed, total);
                }
                verdict
            },
        )
    }
}

/// Renders a batch (and the cache counters of the run) as one JSON
/// document, stable across runs and thread counts: the `systems`
/// section is a pure function of the input, and the optional `cache`
/// section carries only the entry count — the one cache counter that
/// is schedule-independent (racing workers may double-count a miss,
/// but the key set is fixed). Hit/miss diagnostics are available via
/// [`CacheStats`] for human-facing output instead.
///
/// The per-chain objects are written by the response encoder (the
/// bytes of [`ChainOutcome::to_json`]) — the same bytes `twca serve`
/// streams — wrapped in the batch document's stable two-space-indent
/// scaffolding (locked by a golden-file test in `twca-cli`).
///
/// # Examples
///
/// ```
/// use twca_api::batch::{batch_to_json, BatchEngine};
/// use twca_model::case_study;
///
/// let engine = BatchEngine::new().with_ks([10]);
/// let batch = engine.run([case_study()]);
/// let json = batch_to_json(&batch, Some(engine.cache_stats()));
/// assert!(json.contains("\"name\": \"sigma_c\""));
/// assert!(json.contains("\"bound\": 5"));
/// ```
pub fn batch_to_json(batch: &[SystemVerdict], cache: Option<CacheStats>) -> String {
    let mut out = String::from("{\n  \"systems\": [\n");
    for (i, system) in batch.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"index\": {}, \"chains\": [\n",
            system.index
        ));
        for (j, chain) in system.chains.iter().enumerate() {
            out.push_str("      ");
            chain.encode(&mut out);
            out.push_str(if j + 1 < system.chains.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("    ]}");
        out.push_str(if i + 1 < batch.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if let Some(stats) = cache {
        // Only the entry count is deterministic across schedules (two
        // workers racing on one key both record a miss, but the key set
        // is fixed); hit/miss counters stay out of the document so
        // parallel and serial runs render byte-identically.
        out.push_str(&format!(
            ",\n  \"cache\": {{\"entries\": {}}}",
            stats.entries
        ));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DmmPoint;
    use twca_model::case_study;

    #[test]
    fn parallel_equals_serial_on_copies_of_the_case_study() {
        let systems: Vec<System> = (0..8).map(|_| case_study()).collect();
        let engine = BatchEngine::new().with_ks([1, 3, 10, 76]).with_threads(4);
        let parallel = engine.run(systems.clone());
        let serial = BatchEngine::new()
            .with_ks([1, 3, 10, 76])
            .with_threads(1)
            .run_serial(systems);
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), 8);
        assert_eq!(
            parallel[7].chain("sigma_c").unwrap().miss_models[3].bound,
            23
        );
    }

    #[test]
    fn cache_is_shared_across_systems() {
        let engine = BatchEngine::new().with_ks([10]);
        let _ = engine.run((0..4).map(|_| case_study()));
        let stats = engine.cache_stats();
        assert!(stats.hits > 0, "identical systems must share cache entries");
        assert!(stats.entries > 0);
    }

    #[test]
    fn progress_reports_every_system() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let engine = BatchEngine::new()
            .with_ks([1])
            .with_threads(2)
            .with_progress(move |_done, total| {
                assert_eq!(total, 5);
                seen.fetch_add(1, Ordering::Relaxed);
            });
        let _ = engine.run((0..5).map(|_| case_study()));
        assert_eq!(calls.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn chains_without_deadline_have_no_miss_models() {
        let engine = BatchEngine::new();
        let batch = engine.run([case_study()]);
        let sigma_a = batch[0].chain("sigma_a").unwrap();
        assert!(sigma_a.miss_models.is_empty());
        assert!(sigma_a.overload);
    }

    #[test]
    fn empty_batch_renders() {
        let json = batch_to_json(&[], None);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"systems\": ["));
    }

    #[test]
    fn chain_lines_match_the_legacy_hand_rolled_format() {
        let batch = [SystemOutcome {
            index: 0,
            chains: vec![ChainOutcome {
                name: "c".into(),
                deadline: Some(100),
                overload: false,
                worst_case_latency: Some(35),
                typical_latency: None,
                miss_models: vec![DmmPoint {
                    k: 10,
                    bound: 0,
                    informative: true,
                }],
                error: Some("why \"quoted\"".into()),
            }],
        }];
        let json = batch_to_json(&batch, None);
        assert!(json.contains(
            "      {\"name\": \"c\", \"overload\": false, \"deadline\": 100, \"wcl\": 35, \
             \"typical_wcl\": null, \"dmm\": [{\"k\": 10, \"bound\": 0, \"informative\": true}], \
             \"error\": \"why \\\"quoted\\\"\"}\n"
        ));
    }
}
