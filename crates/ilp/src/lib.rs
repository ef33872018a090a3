//! A small, self-contained exact linear / integer-linear programming
//! solver, plus a specialized multi-dimensional packing solver.
//!
//! The DATE 2017 paper formulates the deadline-miss-model computation as a
//! multi-dimensional knapsack problem and solves it as an ILP (Theorem 3).
//! Mature ILP solver bindings are not available offline in the Rust
//! ecosystem, so this crate implements the required machinery from
//! scratch:
//!
//! * [`Rational`] — exact arithmetic over `i128` fractions, so simplex
//!   pivoting is free of floating-point drift;
//! * [`solve_lp`] — a two-phase primal simplex with Bland's rule
//!   (guaranteed termination, handles infeasible and unbounded programs);
//! * [`solve_ilp`] — branch-and-bound on the exact LP relaxation;
//! * [`PackingProblem`] — a dedicated exact solver for the pure packing
//!   structure produced by TWCA (all-ones objective, 0/1 constraint
//!   matrix). It is the only solver the analysis calls, bounded by a
//!   search budget (`PackingProblem::DEFAULT_BUDGET` by default); the
//!   property tests cross-check it against the general ILP and brute
//!   force.
//!
//! # Examples
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x ≤ 2` over integers:
//!
//! ```
//! use twca_ilp::{Problem, solve_ilp};
//!
//! # fn main() -> Result<(), twca_ilp::IlpError> {
//! let mut p = Problem::maximize(2);
//! p.set_objective(0, 3);
//! p.set_objective(1, 2);
//! p.add_le_constraint(vec![(0, 1), (1, 1)], 4)?;
//! p.add_le_constraint(vec![(0, 1)], 2)?;
//! let solution = solve_ilp(&p)?.expect_optimal();
//! assert_eq!(solution.objective_value(), 10); // x = 2, y = 2
//! # Ok(())
//! # }
//! ```

mod branch_bound;
mod error;
mod knapsack;
mod problem;
mod rational;
mod simplex;

pub use branch_bound::{solve_ilp, solve_ilp_with, IlpOptions, IlpOutcome, IlpSolution};
pub use error::IlpError;
pub use knapsack::{PackingProblem, PackingSolution};
pub use problem::{Constraint, Problem};
pub use rational::Rational;
pub use simplex::{solve_lp, LpOutcome, LpSolution};
