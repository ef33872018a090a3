//! The reference implementations that proved the fast pipeline.
//!
//! Each [`Reference`] is a retained, slower implementation of one stage
//! of the analysis that computes bit-identical results to the product
//! path. They exist for the verifier — the `twca-verify` agreement
//! oracles, the agreement tests and `twca bench` — and are reachable
//! only through [`Reference::context`]: no [`crate::AnalysisOptions`]
//! field, wire option, CLI flag or cache key selects one. A reference
//! context carries no [`crate::AnalysisCache`], so a reference value can
//! never be memoized next to (or answered from) a product value.
//!
//! # Examples
//!
//! ```
//! use twca_chains::reference::Reference;
//! use twca_chains::{busy_time, AnalysisContext, AnalysisOptions, OverloadMode};
//! use twca_model::case_study;
//!
//! let system = case_study();
//! let (c, _) = system.chain_by_name("sigma_c").unwrap();
//! let opts = AnalysisOptions::default();
//! let fast = busy_time(&AnalysisContext::new(&system), c, 2, OverloadMode::Include, opts);
//! let iterative = Reference::IterativeSolver.context(&system);
//! assert_eq!(busy_time(&iterative, c, 2, OverloadMode::Include, opts), fast);
//! ```

use crate::busy_time::BusyTimeBreakdown;
use crate::config::AnalysisOptions;
use crate::context::AnalysisContext;
use crate::latency::OverloadMode;
use twca_curves::{EventModel, Time};
use twca_model::{segments::self_header_segment, ChainId, InterferenceClass, System};

/// A retained reference implementation a memo-less
/// [`AnalysisContext`] runs in place of the product path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reference {
    /// Theorem 1 busy windows by naive successive substitution,
    /// re-partitioning the interferers and re-evaluating every arrival
    /// curve per call (no interference plans, no warm starts) — the
    /// reference of the scheduling-point solver.
    IterativeSolver,
    /// Definition 9 classified over the full materialized Cartesian
    /// product ([`crate::CombinationSet::enumerate`]) — the reference of
    /// the lazy dominance-pruned engine. It refuses instances whose
    /// product exceeds [`AnalysisOptions::max_combinations`] with
    /// [`crate::AnalysisError::TooManyCombinations`], the one sanctioned
    /// divergence from the lazy engine.
    MaterializedEngine,
}

impl Reference {
    /// A context of `system` whose analyses run this reference. It has
    /// no cache; every module-level analysis function accepts it.
    pub fn context(self, system: &System) -> AnalysisContext<'_> {
        AnalysisContext::for_reference(system, self)
    }
}

/// The original uncached Theorem 1 successive substitution behind
/// [`Reference::IterativeSolver`].
pub(crate) fn iterative_busy_time(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    q: u64,
    mode: OverloadMode,
    extra: Time,
    options: AnalysisOptions,
) -> Option<BusyTimeBreakdown> {
    let system = ctx.system();
    let chain_b = system.chain(observed);
    let own_work = q.saturating_mul(chain_b.total_wcet());

    // Self-interference only applies to asynchronous chains; precompute
    // the header subchain cost.
    let self_header_wcet: Time = if chain_b.kind().is_synchronous() {
        0
    } else {
        chain_b.wcet_of(&self_header_segment(chain_b))
    };

    // Partition the interferers once.
    struct Interferer<'v> {
        id: ChainId,
        class: InterferenceClass,
        synchronous: bool,
        view: &'v twca_model::SegmentView,
    }
    let interferers: Vec<Interferer<'_>> = ctx
        .others(observed)
        .filter(|&a| match mode {
            OverloadMode::Include => true,
            OverloadMode::Exclude => !system.chain(a).is_overload(),
        })
        .map(|a| Interferer {
            id: a,
            class: ctx.view(a, observed).class(),
            synchronous: system.chain(a).kind().is_synchronous(),
            view: ctx.view(a, observed),
        })
        .collect();

    // Window-independent components.
    let mut deferred_sync: Time = 0;
    let mut deferred_segments_const: Time = 0;
    for i in &interferers {
        if i.class == InterferenceClass::Deferred {
            let chain_a = system.chain(i.id);
            if i.synchronous {
                deferred_sync = deferred_sync
                    .saturating_add(i.view.critical_segment().map_or(0, |s| s.wcet(chain_a)));
            } else {
                deferred_segments_const =
                    deferred_segments_const.saturating_add(i.view.segments_total_wcet(chain_a));
            }
        }
    }

    let constant = own_work
        .saturating_add(deferred_sync)
        .saturating_add(deferred_segments_const)
        .saturating_add(extra);

    // Fixed-point iteration on the window length.
    let mut window = constant;
    loop {
        if window > options.horizon {
            return None;
        }
        let mut self_interference: Time = 0;
        if !chain_b.kind().is_synchronous() {
            let backlog = chain_b.activation().eta_plus(window).saturating_sub(q);
            self_interference = backlog.saturating_mul(self_header_wcet);
        }
        let mut arbitrary: Time = 0;
        let mut deferred_async_var: Time = 0;
        for i in &interferers {
            let chain_a = system.chain(i.id);
            let eta = chain_a.activation().eta_plus(window);
            match i.class {
                InterferenceClass::ArbitrarilyInterfering => {
                    arbitrary = arbitrary.saturating_add(eta.saturating_mul(chain_a.total_wcet()));
                }
                InterferenceClass::Deferred if !i.synchronous => {
                    deferred_async_var = deferred_async_var
                        .saturating_add(eta.saturating_mul(i.view.header_segment_wcet(chain_a)));
                }
                InterferenceClass::Deferred => {}
            }
        }
        let next = constant
            .saturating_add(self_interference)
            .saturating_add(arbitrary)
            .saturating_add(deferred_async_var);
        if next == window {
            return Some(BusyTimeBreakdown {
                own_work,
                self_interference,
                arbitrary,
                deferred_async: deferred_async_var.saturating_add(deferred_segments_const),
                deferred_sync,
                total: window,
            });
        }
        window = next;
    }
}
