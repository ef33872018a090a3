//! Umbrella crate for the TWCA task-chain analysis suite.
//!
//! This crate re-exports the workspace members so the runnable examples in
//! `examples/` and the cross-crate integration tests in `tests/` have a
//! single dependency root. Library users should depend on the individual
//! crates ([`twca_chains`], [`twca_model`], …) directly.

pub use twca_api as api;
pub use twca_assign as assign;
pub use twca_chains as chains;
pub use twca_curves as curves;
pub use twca_dist as dist;
pub use twca_gen as gen;
pub use twca_ilp as ilp;
pub use twca_independent as independent;
pub use twca_model as model;
pub use twca_report as report;
pub use twca_sim as sim;
pub use twca_verify as verify;
