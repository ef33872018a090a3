//! System model for weakly-hard real-time systems with task dependencies.
//!
//! This crate models the systems analyzed by the DATE 2017 paper
//! *"Bounding Deadline Misses in Weakly-Hard Real-Time Systems with Task
//! Dependencies"*: a uniprocessor scheduled with **Static Priority
//! Preemptive (SPP)** running a finite set of disjoint **task chains**.
//!
//! * A [`Task`] has a priority (larger value = higher priority) and a
//!   worst-case execution time.
//! * A [`Chain`] is a sequence of distinct tasks activating each other,
//!   with an activation model at its head and an optional end-to-end
//!   deadline. Chains are [`ChainKind::Synchronous`] (a new instance waits
//!   for the previous one) or [`ChainKind::Asynchronous`] (instances
//!   queue independently), and may be flagged as rare **overload** chains.
//! * A [`System`] is a validated set of chains, built with
//!   [`SystemBuilder`].
//!
//! The crate also implements the *structural* definitions of the paper:
//! interference classification (Definition 2), segments (Definition 3),
//! header/critical segments (Definitions 4–5) and active segments
//! (Definition 8) — see [`segments`].
//!
//! # Examples
//!
//! ```
//! use twca_model::{SystemBuilder, ChainKind};
//!
//! # fn main() -> Result<(), twca_model::ModelError> {
//! let system = SystemBuilder::new()
//!     .chain("sigma_c")
//!     .periodic(200)?
//!     .deadline(200)
//!     .kind(ChainKind::Synchronous)
//!     .task("c1", 8, 4)
//!     .task("c2", 7, 6)
//!     .task("c3", 1, 41)
//!     .done()
//!     .chain("sigma_a")
//!     .sporadic(700)?
//!     .overload()
//!     .task("a1", 4, 10)
//!     .task("a2", 3, 10)
//!     .done()
//!     .build()?;
//! assert_eq!(system.chains().len(), 2);
//! # Ok(())
//! # }
//! ```

mod builder;
mod case_study;
mod chain;
mod dot;
mod error;
mod ids;
mod par;
mod parse;
pub mod segments;
mod system;
mod task;

pub use builder::{ChainBuilder, SystemBuilder};
pub use case_study::{
    case_study, case_study_priorities, case_study_with_priorities, figure1_example,
    CASE_STUDY_TASK_COUNT,
};
pub use chain::{Chain, ChainKind};
pub use dot::render_dot;
pub use error::ModelError;
pub use ids::{ChainId, Priority, TaskRef};
pub use par::ordered_par_map;
pub use parse::{parse_system, render_system, ParseError};
pub use segments::{ActiveSegment, InterferenceClass, InterferenceTerms, Segment, SegmentView};
pub use system::System;
pub use task::Task;

/// Re-export of the time type used across the workspace.
pub use twca_curves::Time;
