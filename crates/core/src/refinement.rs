//! **Extension beyond the paper**: refined overload budgets from phase
//! knowledge.
//!
//! Lemma 4 budgets every overload chain independently, so a combination
//! of several overload chains can be packed as often as its scarcest
//! member allows — even when the chains provably cannot strike in the
//! same busy window that often. When the designer knows more about the
//! overload sources — e.g. recovery chains triggered by periodic
//! watchdogs with *fixed phases* — the number of co-occurrence
//! opportunities can be counted explicitly and used as a per-combination
//! cap `x_c̄ ≤ cap(c̄)` in the Theorem 3 packing.
//!
//! This module is **not part of the DATE 2017 paper**; its soundness
//! rests on the extra assumption that each listed overload chain recurs
//! with a fixed period and phase. For plain sporadic chains (which may
//! re-phase adversarially) the refinement must not be applied — chains
//! without an entry in [`PhasedRecurrence`] are simply left uncapped.
//!
//! Because each cap attaches an artificial packing resource to one
//! specific combination, the capped pipeline always works on the
//! **explicit** unschedulable expansion (the lazy engine's antichain
//! reduction does not apply — a capped superset is not interchangeable
//! with its minimal subset). Refined miss models therefore keep the
//! original [`AnalysisOptions::max_combinations`] feasibility gate on
//! the implicit product, under either engine.

use crate::combinations::{Combination, OverloadSegment};
use crate::config::AnalysisOptions;
use crate::context::AnalysisContext;
use crate::dmm::{deadline_miss_model_with_caps, DmmResult};
use crate::error::AnalysisError;
use crate::latency::{latency_analysis, OverloadMode};
use twca_curves::{EventModel, Time};
use twca_model::ChainId;

/// Known fixed-phase periodic recurrence of overload chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasedRecurrence {
    entries: Vec<(ChainId, Time, Time)>, // (chain, period, offset)
}

impl PhasedRecurrence {
    /// Creates an empty phase table (no refinement).
    pub fn new() -> Self {
        PhasedRecurrence {
            entries: Vec::new(),
        }
    }

    /// Declares that `chain` fires exactly at `offset + i·period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn with_phase(mut self, chain: ChainId, period: Time, offset: Time) -> Self {
        assert!(period > 0, "period must be positive");
        self.entries.retain(|&(c, _, _)| c != chain);
        self.entries.push((chain, period, offset));
        self
    }

    /// The declared phases.
    pub fn entries(&self) -> &[(ChainId, Time, Time)] {
        &self.entries
    }

    fn phase_of(&self, chain: ChainId) -> Option<(Time, Time)> {
        self.entries
            .iter()
            .find(|&&(c, _, _)| c == chain)
            .map(|&(_, p, o)| (p, o))
    }

    /// Counts the co-occurrence opportunities of `chains` within
    /// `horizon`: instants where every chain has an activation within a
    /// window of length `window`. Returns `None` if some chain has no
    /// declared phase (refinement not applicable).
    ///
    /// The result is incremented by one to cover a co-occurrence just
    /// before the analyzed activation sequence, mirroring the `+1` of
    /// Lemma 4.
    pub fn cooccurrence_cap(&self, chains: &[ChainId], window: Time, horizon: Time) -> Option<u64> {
        if chains.len() < 2 {
            return None; // Ω already budgets single chains
        }
        let mut phased = Vec::with_capacity(chains.len());
        for &c in chains {
            phased.push(self.phase_of(c)?);
        }
        // Anchor on the sparsest chain.
        let (anchor_idx, &(anchor_period, anchor_offset)) = phased
            .iter()
            .enumerate()
            .max_by_key(|&(_, &(p, _))| p)
            .expect("at least two chains");
        let mut count = 0u64;
        let mut t = anchor_offset;
        while t <= horizon {
            let all_close = phased.iter().enumerate().all(|(i, &(p, o))| {
                if i == anchor_idx {
                    return true;
                }
                // Does chain i have an event in [t − window, t + window]?
                if t + window < o {
                    return false;
                }
                let lower = t.saturating_sub(window);
                let first_after_lower = if lower <= o {
                    o
                } else {
                    o + (lower - o).div_ceil(p) * p
                };
                first_after_lower <= t.saturating_add(window)
            });
            if all_close {
                count += 1;
            }
            match t.checked_add(anchor_period) {
                Some(next) => t = next,
                None => break,
            }
        }
        Some(count.saturating_add(1))
    }
}

impl Default for PhasedRecurrence {
    fn default() -> Self {
        PhasedRecurrence::new()
    }
}

/// [`crate::deadline_miss_model`] with phase-based per-combination caps.
///
/// Combinations spanning several phased overload chains are additionally
/// bounded by their co-occurrence count within the `k`-sequence horizon
/// `δ+_b(k) + B_b(K_b)`. Everything else is the plain Theorem 3
/// computation.
///
/// # Errors
///
/// See [`crate::deadline_miss_model`].
///
/// # Examples
///
/// ```
/// use twca_chains::refinement::{refined_deadline_miss_model, PhasedRecurrence};
/// use twca_chains::{AnalysisContext, AnalysisOptions};
/// use twca_model::case_study;
///
/// # fn main() -> Result<(), twca_chains::AnalysisError> {
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let (a, _) = system.chain_by_name("sigma_a").unwrap();
/// let (b, _) = system.chain_by_name("sigma_b").unwrap();
/// // Suppose σa and σb are watchdog-driven with fixed phases 0 / 300.
/// let phases = PhasedRecurrence::new()
///     .with_phase(a, 700, 0)
///     .with_phase(b, 600, 300);
/// let refined = refined_deadline_miss_model(&ctx, c, 76, &phases,
///     AnalysisOptions::default())?;
/// assert!(refined.bound <= 46); // never worse than Theorem 3
/// # Ok(())
/// # }
/// ```
pub fn refined_deadline_miss_model(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k: u64,
    phases: &PhasedRecurrence,
    options: AnalysisOptions,
) -> Result<DmmResult, AnalysisError> {
    // Validate before indexing, as the prepare step does.
    if !ctx.contains(observed) {
        return Err(AnalysisError::UnknownChain { chain: observed });
    }
    let chain_b = ctx.system().chain(observed);
    let full = latency_analysis(ctx, observed, OverloadMode::Include, options);
    let horizon = match (&full, chain_b.activation().delta_plus(k)) {
        (Some(f), Some(span)) => {
            let busy_span = f.busy_times.last().copied().unwrap_or(0);
            Some((span.saturating_add(busy_span), busy_span))
        }
        _ => None,
    };
    let hook = |combo: &Combination, segments: &[OverloadSegment]| -> Option<u64> {
        let (horizon, window) = horizon?;
        let mut chains: Vec<ChainId> = combo.members.iter().map(|&m| segments[m].chain).collect();
        chains.sort_unstable();
        chains.dedup();
        phases.cooccurrence_cap(&chains, window, horizon)
    };
    deadline_miss_model_with_caps(ctx, observed, k, options, &hook)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmm::deadline_miss_model;
    use twca_model::{case_study, SystemBuilder};

    #[test]
    fn cap_requires_phases_for_all_members() {
        let phases = PhasedRecurrence::new().with_phase(ChainId::from_index(0), 100, 0);
        assert_eq!(
            phases.cooccurrence_cap(&[ChainId::from_index(0), ChainId::from_index(1)], 10, 1_000),
            None
        );
    }

    #[test]
    fn single_chain_combinations_are_not_capped() {
        let phases = PhasedRecurrence::new().with_phase(ChainId::from_index(0), 100, 0);
        assert_eq!(
            phases.cooccurrence_cap(&[ChainId::from_index(0)], 10, 1_000),
            None
        );
    }

    #[test]
    fn aligned_chains_cooccur_every_anchor_period() {
        let phases = PhasedRecurrence::new()
            .with_phase(ChainId::from_index(0), 100, 0)
            .with_phase(ChainId::from_index(1), 100, 0);
        // Horizon 1000 → anchor events at 0..1000 step 100 = 11, +1 = 12.
        assert_eq!(
            phases.cooccurrence_cap(&[ChainId::from_index(0), ChainId::from_index(1)], 0, 1_000),
            Some(12)
        );
    }

    #[test]
    fn disjoint_phases_never_cooccur() {
        let phases = PhasedRecurrence::new()
            .with_phase(ChainId::from_index(0), 10_000, 0)
            .with_phase(ChainId::from_index(1), 10_000, 5_000);
        assert_eq!(
            phases.cooccurrence_cap(
                &[ChainId::from_index(0), ChainId::from_index(1)],
                100,
                4_000
            ),
            Some(1) // 0 co-occurrences + 1 safety margin
        );
    }

    #[test]
    fn refinement_never_exceeds_theorem3() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let (a, _) = s.chain_by_name("sigma_a").unwrap();
        let (b, _) = s.chain_by_name("sigma_b").unwrap();
        let phases = PhasedRecurrence::new()
            .with_phase(a, 700, 0)
            .with_phase(b, 600, 0);
        let opts = AnalysisOptions::default();
        for k in [3, 10, 76] {
            let plain = deadline_miss_model(&ctx, c, k, opts).unwrap();
            let refined = refined_deadline_miss_model(&ctx, c, k, &phases, opts).unwrap();
            assert!(refined.bound <= plain.bound, "k={k}");
        }
    }

    #[test]
    fn refinement_tightens_disjoint_overloads() {
        // Two rare overload chains with disjoint phases; each alone is
        // harmless, together they overrun the slack — but they can never
        // meet within the horizon.
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(100)
            .unwrap()
            .deadline(100)
            .task("x1", 1, 60)
            .done()
            .chain("o1")
            .sporadic(10_000)
            .unwrap()
            .overload()
            .task("p1", 3, 30)
            .done()
            .chain("o2")
            .sporadic(10_000)
            .unwrap()
            .overload()
            .task("p2", 2, 30)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let x = ChainId::from_index(0);
        let o1 = ChainId::from_index(1);
        let o2 = ChainId::from_index(2);
        let opts = AnalysisOptions::default();
        let plain = deadline_miss_model(&ctx, x, 20, opts).unwrap();
        assert!(plain.bound > 0, "combined overloads overrun the slack");
        let phases = PhasedRecurrence::new()
            .with_phase(o1, 10_000, 0)
            .with_phase(o2, 10_000, 5_000);
        let refined = refined_deadline_miss_model(&ctx, x, 20, &phases, opts).unwrap();
        assert!(
            refined.bound < plain.bound,
            "refined {} < plain {}",
            refined.bound,
            plain.bound
        );
    }

    /// An unknown chain is a typed error, not an index panic: the
    /// refinement validates `observed` the way the prepare step does.
    #[test]
    fn unknown_chain_is_a_typed_error() {
        let system = case_study();
        let ctx = AnalysisContext::new(&system);
        let bogus = ChainId::from_index(99);
        let err = refined_deadline_miss_model(
            &ctx,
            bogus,
            10,
            &PhasedRecurrence::new(),
            AnalysisOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, AnalysisError::UnknownChain { chain: bogus });
    }
}
