//! End-to-end deadline miss models for task chains — an implementation of
//! *"Bounding Deadline Misses in Weakly-Hard Real-Time Systems with Task
//! Dependencies"* (Hammadeh, Ernst, Quinton, Henia, Rioux — DATE 2017).
//!
//! Given a uniprocessor SPP system of task chains
//! ([`twca_model::System`]), this crate computes:
//!
//! * multiple-event **busy times** `B_b(q)` (Theorem 1) —
//!   [`busy_time::busy_time`];
//! * the **worst-case latency** `WCL_b` and busy-window population `K_b`
//!   (Theorem 2) — [`latency::latency_analysis`];
//! * the **schedulability criterion** for overload combinations
//!   (Equations 4–5) — [`criterion`];
//! * **combinations of active segments** (Definition 9) —
//!   [`combinations`];
//! * overload budgets `Ω_a^b` (Lemma 4) and misses-per-window `N_b`
//!   (Lemma 3) — [`omega`], [`dmm`];
//! * the **deadline miss model** `dmm_b(k)` via the Theorem 3 packing
//!   ILP — [`dmm::deadline_miss_model`];
//! * weakly-hard `(m,k)` verification and overload sensitivity on top —
//!   [`weakly_hard`];
//! * a tighter, trace-assumption-based refinement of the overload budgets
//!   (documented extension, not part of the paper) — [`refinement`];
//! * the retained reference implementations the verifier checks the
//!   fast pipeline against — [`reference`](mod@reference).
//!
//! The entry point for most users is [`ChainAnalysis`].
//!
//! # Examples
//!
//! Reproducing Table I and the DMM of the paper's industrial case study:
//!
//! ```
//! use twca_chains::ChainAnalysis;
//! use twca_model::case_study;
//!
//! # fn main() -> Result<(), twca_chains::AnalysisError> {
//! let system = case_study();
//! let analysis = ChainAnalysis::new(&system);
//!
//! let (c, _) = system.chain_by_name("sigma_c").unwrap();
//! let (d, _) = system.chain_by_name("sigma_d").unwrap();
//! assert_eq!(analysis.worst_case_latency(c)?.worst_case_latency, 331);
//! assert_eq!(analysis.worst_case_latency(d)?.worst_case_latency, 175);
//!
//! // σc misses deadlines only when σa and σb strike together:
//! let dmm = analysis.deadline_miss_model(c, 3)?;
//! assert_eq!(dmm.bound, 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod busy_time;
pub mod cache;
pub mod combinations;
mod config;
mod context;
pub mod criterion;
pub mod dmm;
mod error;
mod explain;
pub mod latency;
pub mod omega;
pub mod paths;
pub mod reference;
pub mod refinement;
mod report;
pub mod weakly_hard;

mod analysis;

pub use analysis::ChainAnalysis;
pub use busy_time::{
    busy_time, busy_time_breakdown, busy_time_with_extra, busy_times, BusyTimeBreakdown,
};
pub use cache::{
    AnalysisCache, CacheCapacity, CacheStats, FingerprintGuard, SystemFingerprint, SystemKey,
};
pub use combinations::{
    Combination, CombinationSet, ItemArena, OverloadSegment, PreparedCombinations,
};
pub use config::AnalysisOptions;
pub use context::AnalysisContext;
pub use criterion::{combination_schedulable_exact, typical_load, typical_slack};
pub use dmm::{
    deadline_miss_model, deadline_miss_model_exact, DmmResult, DmmSweep, DmmWitness, WitnessRow,
};
pub use error::AnalysisError;
pub use explain::explain;
pub use latency::{
    latency_analysis, latency_analysis_detailed, LatencyFailure, LatencyResult, OverloadMode,
};
pub use omega::overload_budget;
pub use report::{ChainReport, SystemReport};
pub use weakly_hard::{
    max_consecutive_misses, max_overload_scaling, min_deadline_for, MkConstraint,
};
