//! The exact solver for the Theorem 3 integer program.
//!
//! The DATE 2017 paper bounds the deadline-miss model `dmm(k)` by a
//! multi-dimensional knapsack over the `Ω` budgets of the active
//! segments (Theorem 3):
//!
//! ```text
//! max Σ_i x_i   s.t.   ∀r: Σ_{i ∋ r} x_i ≤ cap_r,   x_i ∈ ℕ
//! ```
//!
//! Every item (an unschedulable combination) consumes one unit of each
//! resource (active segment) it contains. The program has a 0/1
//! constraint matrix and an all-ones objective, so this crate solves it
//! with one dedicated exact solver, [`PackingProblem`], rather than a
//! general ILP: a memoized dynamic program over the remaining
//! capacities, with a budgeted branch and bound behind it. The search is
//! bounded by a deterministic budget (`PackingProblem::DEFAULT_BUDGET`
//! by default); on exhaustion the [`PackingSolution`] reports a sound
//! upper bound and says it is not exact. The property tests check the
//! solver against brute-force enumeration.
//!
//! # Examples
//!
//! Two segments with budgets 5 and 4; one combination needs the first
//! segment alone, another needs both:
//!
//! ```
//! use twca_ilp::PackingProblem;
//!
//! # fn main() -> Result<(), twca_ilp::IlpError> {
//! let p = PackingProblem::new(vec![5, 4], vec![vec![0], vec![0, 1]])?;
//! let solution = p.solve();
//! assert!(solution.is_exact());
//! assert_eq!(solution.packed_total(), 5); // the first segment's budget
//! # Ok(())
//! # }
//! ```

mod error;
mod knapsack;

pub use error::IlpError;
pub use knapsack::{PackingProblem, PackingSolution};
