//! **Distributed extension** of the DATE 2017 chain analysis: multiple
//! SPP resources whose task chains feed each other across resource
//! boundaries.
//!
//! The paper's conclusion motivates extending TWCA "towards the
//! practical design of distributed embedded systems"; this crate
//! provides that layer in the style of compositional performance
//! analysis (CPA):
//!
//! * a [`DistributedSystem`] is a set of named resources (each a
//!   [`twca_model::System`]) plus directed [`Link`]s stating that the
//!   completions of one chain activate another chain on another
//!   resource;
//! * [`analyze`] runs the **holistic iteration**: per-resource chain
//!   analysis ([`twca_chains`]) alternating with **output event-model
//!   propagation** along the links
//!   ([`twca_independent::propagate_output_model`]) until the effective
//!   activation models reach a fixed point;
//! * [`DistPath`] composes per-hop bounds into end-to-end latency and
//!   deadline-miss bounds;
//! * [`propagate_simulation`] cross-checks the bounds against the
//!   discrete-event simulator ([`twca_sim`]) with completion-trace
//!   forwarding, and [`soundness_violations`] automates the comparison;
//! * [`max_path_overload_scaling`] answers sensitivity questions along a
//!   path.
//!
//! # Examples
//!
//! ```
//! use twca_dist::{analyze, DistOptions, DistributedSystemBuilder};
//! use twca_model::{case_study, SystemBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let downstream = SystemBuilder::new()
//!     .chain("act").periodic(200)?.deadline(200)
//!     .task("a1", 1, 20).done()
//!     .build()?;
//! let dist = DistributedSystemBuilder::new()
//!     .resource("ecu0", case_study())
//!     .resource("ecu1", downstream)
//!     .link(("ecu0", "sigma_c"), ("ecu1", "act"))
//!     .build()?;
//! let results = analyze(&dist, DistOptions::default())?;
//! let c = dist.site("ecu0", "sigma_c").unwrap();
//! // Embedding does not change local bounds: Table I says 331.
//! assert_eq!(results.worst_case_latency(c), Some(331));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod analyze;
mod error;
mod parse;
mod path;
pub mod reference;
mod sensitivity;
mod simulate;
mod system;

pub use analyze::{
    analyze, analyze_with_memo, jitter_shifted, DeltaReport, DistOptions, DistResults, HolisticMemo,
};
pub use error::DistError;
pub use parse::{parse_distributed, render_distributed};
pub use path::DistPath;
pub use sensitivity::max_path_overload_scaling;
pub use simulate::{propagate_simulation, soundness_violations, PropagateSimulation, StimulusKind};
pub use system::{DistributedSystem, DistributedSystemBuilder, Link, Resource, ResourceId, SiteId};
