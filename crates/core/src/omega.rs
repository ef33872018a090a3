//! Overload activation budgets (Lemma 4 of the paper).

use crate::context::AnalysisContext;
use twca_curves::{EventModel, Time};
use twca_model::ChainId;

/// Computes `Ω_a^b` (Lemma 4): the maximum number of activations of the
/// overload chain `overload` that can impact any `k` consecutive
/// activations of `observed`:
///
/// ```text
/// Ω_a^b = η+_a( δ+_b(k) + WCL_b ) + 1
/// ```
///
/// The `+1` accounts for one overload activation arriving *before* the
/// `k`-sequence whose busy window the first activation lands in (the
/// paper assumes at most one activation of an overload chain per busy
/// window).
///
/// If `δ+_b(k)` is unbounded (the observed chain is itself sporadic and
/// may spread its activations arbitrarily), every one of the `k`
/// activations could meet a fresh overload activation, so the budget
/// degrades to `k` — which is what the final `min(k, ·)` cap of the DMM
/// would enforce anyway.
///
/// # Panics
///
/// Panics if either id is out of range or both are equal.
///
/// # Examples
///
/// ```
/// use twca_chains::{overload_budget, AnalysisContext};
/// use twca_model::case_study;
///
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (a, _) = system.chain_by_name("sigma_a").unwrap();
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// // k = 3, WCL_c = 331: η+_a(400 + 331) + 1 = 2 + 1 = 3.
/// assert_eq!(overload_budget(&ctx, a, c, 3, 331), 3);
/// ```
pub fn overload_budget(
    ctx: &AnalysisContext<'_>,
    overload: ChainId,
    observed: ChainId,
    k: u64,
    worst_case_latency: Time,
) -> u64 {
    assert_ne!(overload, observed, "a chain cannot overload itself");
    let system = ctx.system();
    let chain_a = system.chain(overload);
    let chain_b = system.chain(observed);
    match chain_b.activation().delta_plus(k) {
        Some(span) => chain_a
            .activation()
            .eta_plus(span.saturating_add(worst_case_latency))
            .saturating_add(1),
        None => k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::{case_study, SystemBuilder};

    #[test]
    fn case_study_budgets() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (a, _) = s.chain_by_name("sigma_a").unwrap();
        let (b, _) = s.chain_by_name("sigma_b").unwrap();
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        // k=3: δ+_c(3) = 400; horizon 731: η+_a = ⌈731/700⌉ = 2 → 3;
        // η+_b = ⌈731/600⌉ = 2 → 3.
        assert_eq!(overload_budget(&ctx, a, c, 3, 331), 3);
        assert_eq!(overload_budget(&ctx, b, c, 3, 331), 3);
        // k=76: horizon 15331: η+_a = 22 → 23; η+_b = 26 → 27.
        assert_eq!(overload_budget(&ctx, a, c, 76, 331), 23);
        assert_eq!(overload_budget(&ctx, b, c, 76, 331), 27);
    }

    #[test]
    fn sporadic_observed_chain_degrades_to_k() {
        let s = SystemBuilder::new()
            .chain("x")
            .sporadic(100)
            .unwrap()
            .deadline(100)
            .task("x1", 1, 10)
            .done()
            .chain("over")
            .sporadic(1_000)
            .unwrap()
            .overload()
            .task("o1", 2, 5)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let x = twca_model::ChainId::from_index(0);
        let o = twca_model::ChainId::from_index(1);
        assert_eq!(overload_budget(&ctx, o, x, 7, 50), 7);
    }

    #[test]
    #[should_panic(expected = "cannot overload itself")]
    fn same_chain_panics() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (a, _) = s.chain_by_name("sigma_a").unwrap();
        let _ = overload_budget(&ctx, a, a, 1, 0);
    }
}
