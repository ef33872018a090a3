//! The reference implementation that proved the holistic worklist.
//!
//! [`analyze`] is the original full-sweep holistic driver, retained for
//! the verifier (the `solver-agreement` and `lazy-agreement` oracles,
//! the agreement tests and `twca bench`). Its per-resource chain
//! analyses run a [`twca_chains::reference::Reference`], so one entry
//! point covers both the iterative busy-window solver and the
//! materialized combination engine. No [`DistOptions`] field selects it,
//! and it never touches a [`crate::HolisticMemo`].

use crate::analyze::{
    propagate_with_floor, propagation_parameters, wcl_row, DistOptions, DistResults,
};
use crate::error::DistError;
use crate::system::DistributedSystem;
use twca_chains::reference::Reference;
use twca_curves::Time;
use twca_model::System;

/// The holistic fixed point by the full-sweep driver, every
/// per-resource chain analysis running `reference`.
///
/// Every resource is re-analyzed on every sweep and whole systems are
/// re-cloned per propagated link. The results match [`crate::analyze`]
/// bit for bit in sweeps, latency bounds and effective activation
/// models, and answer [`DistResults::deadline_miss_model`] under
/// `reference` too. [`Reference::MaterializedEngine`] may refuse a
/// miss model the lazy engine answers (`TooManyCombinations`), the one
/// sanctioned divergence.
///
/// # Errors
///
/// Exactly those of [`crate::analyze`].
///
/// # Examples
///
/// ```
/// use twca_chains::reference::Reference;
/// use twca_dist::{analyze, reference, DistOptions, DistributedSystemBuilder};
/// use twca_model::case_study;
///
/// let dist = DistributedSystemBuilder::new()
///     .resource("ecu0", case_study())
///     .build()
///     .unwrap();
/// let options = DistOptions::default();
/// let full = reference::analyze(&dist, options, Reference::IterativeSolver).unwrap();
/// let worklist = analyze(&dist, options).unwrap();
/// let c = dist.site("ecu0", "sigma_c").unwrap();
/// assert_eq!(full.sweeps(), worklist.sweeps());
/// assert_eq!(full.worst_case_latency(c), worklist.worst_case_latency(c));
/// ```
pub fn analyze(
    system: &DistributedSystem,
    options: DistOptions,
    reference: Reference,
) -> Result<DistResults, DistError> {
    if options.max_sweeps == 0 {
        return Err(DistError::ZeroSweeps);
    }
    let mut effective: Vec<System> = system
        .resources()
        .iter()
        .map(|r| r.system().clone())
        .collect();

    for sweep in 1..=options.max_sweeps {
        // Per-resource chain analysis under the current models.
        let wcl: Vec<Vec<Result<Time, twca_chains::LatencyFailure>>> = effective
            .iter()
            .map(|local| wcl_row(&reference.context(local), options.chain_options))
            .collect();

        // Propagate along every link.
        let mut changed = false;
        for link in system.links() {
            let (from, to) = (link.from(), link.to());
            let bound = match wcl[from.resource().index()][from.chain().index()] {
                Ok(bound) => bound,
                Err(reason) => {
                    return Err(DistError::UnboundedLatency {
                        site: from,
                        reason: Some(reason),
                    });
                }
            };
            let source_system = &effective[from.resource().index()];
            let input = source_system.chain(from.chain()).activation().clone();
            let (floor, jitter) = propagation_parameters(source_system, from.chain(), bound);
            let output = propagate_with_floor(&input, jitter, floor);
            let destination = &effective[to.resource().index()];
            if *destination.chain(to.chain()).activation() != output {
                effective[to.resource().index()] = destination.with_activation(to.chain(), output);
                changed = true;
            }
        }

        if !changed {
            return Ok(DistResults {
                effective,
                wcl: wcl
                    .into_iter()
                    .map(|row| row.into_iter().map(Result::ok).collect())
                    .collect(),
                sweeps: sweep,
                options,
                reference: Some(reference),
            });
        }
    }
    Err(DistError::Diverged {
        sweeps: options.max_sweeps,
    })
}
