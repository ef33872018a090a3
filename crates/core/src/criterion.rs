//! The efficient schedulability criterion for overload combinations
//! (Equations 4–5 of the paper).
//!
//! Instead of re-running the busy-time fixed point for every combination
//! `c̄` (Equation 3), the paper evaluates the *typical* load `L_b(q)` —
//! all interference except the overload chains — at the fixed horizon
//! `δ−_b(q) + D_b`, and declares `c̄` schedulable iff
//!
//! ```text
//! ∀q ∈ [1, K_b]:  L_b(q) + Σ_{s ∈ c̄} C_s  ≤  δ−_b(q) + D_b
//! ```
//!
//! Because the combination only enters through its total execution time,
//! the whole criterion collapses to a single number: the **typical
//! slack** `min_q (δ−_b(q) + D_b − L_b(q))`. A combination is
//! unschedulable exactly when its total cost exceeds that slack.

use crate::busy_time::busy_time_seeded;
use crate::config::AnalysisOptions;
use crate::context::AnalysisContext;
use crate::latency::OverloadMode;
use twca_curves::{EventModel, Time};
use twca_model::{segments::self_header_segment, ChainId, InterferenceClass};

/// Computes `L_b(q)` (Equation 4): the work competing with `q`
/// activations of `observed` within the deadline horizon
/// `δ−_b(q) + D_b`, with all overload chains excluded.
///
/// # Panics
///
/// Panics if `observed` is out of range, has no deadline, or `q == 0`.
///
/// # Examples
///
/// ```
/// use twca_chains::{typical_load, AnalysisContext};
/// use twca_model::case_study;
///
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// // Experiment 1: L_c(1) = 51 + η+_d(200)·115 = 166.
/// assert_eq!(typical_load(&ctx, c, 1), 166);
/// ```
pub fn typical_load(ctx: &AnalysisContext<'_>, observed: ChainId, q: u64) -> Time {
    assert!(q > 0, "typical load is defined for q >= 1");
    let system = ctx.system();
    let chain_b = system.chain(observed);
    let deadline = chain_b
        .deadline()
        .expect("typical load needs a deadline horizon");
    let horizon = chain_b.activation().delta_min(q).saturating_add(deadline);

    let mut load = q.saturating_mul(chain_b.total_wcet());

    if !chain_b.kind().is_synchronous() {
        let backlog = chain_b.activation().eta_plus(horizon).saturating_sub(q);
        let header = chain_b.wcet_of(&self_header_segment(chain_b));
        load = load.saturating_add(backlog.saturating_mul(header));
    }

    for a in ctx.others(observed) {
        let chain_a = system.chain(a);
        if chain_a.is_overload() {
            continue; // overload contributions enter per combination
        }
        let terms = ctx.terms(a, observed);
        let eta = chain_a.activation().eta_plus(horizon);
        match terms.class() {
            InterferenceClass::ArbitrarilyInterfering => {
                load = load.saturating_add(eta.saturating_mul(chain_a.total_wcet()));
            }
            InterferenceClass::Deferred => {
                if chain_a.kind().is_synchronous() {
                    load = load.saturating_add(terms.critical_wcet());
                } else {
                    load = load
                        .saturating_add(eta.saturating_mul(terms.header_wcet()))
                        .saturating_add(terms.segments_wcet());
                }
            }
        }
    }
    load
}

/// Computes the typical slack of `observed` over the busy-window range
/// `q ∈ [1, k_b]`:
///
/// ```text
/// slack_b = min_q ( δ−_b(q) + D_b − L_b(q) )
/// ```
///
/// A combination `c̄` is schedulable (Equation 5) iff `Σ_{s∈c̄} C_s ≤
/// slack_b`. A negative slack means `observed` can miss deadlines even
/// without any overload activation.
///
/// # Panics
///
/// Panics if `observed` is out of range, has no deadline, or `k_b == 0`.
///
/// # Examples
///
/// ```
/// use twca_chains::{typical_slack, AnalysisContext};
/// use twca_model::case_study;
///
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// // Experiment 1: slack 200 − 166 = 34 at q = 1 (binding), so the
/// // σa-segment (20) and σb-segment (30) are schedulable alone but not
/// // together (50 > 34).
/// assert_eq!(typical_slack(&ctx, c, 3), 34);
/// ```
pub fn typical_slack(ctx: &AnalysisContext<'_>, observed: ChainId, k_b: u64) -> i128 {
    assert!(k_b > 0, "slack is defined over at least one activation");
    let chain_b = ctx.system().chain(observed);
    let deadline = chain_b.deadline().expect("slack needs a deadline");
    (1..=k_b)
        .map(|q| {
            let rhs = chain_b.activation().delta_min(q).saturating_add(deadline) as i128;
            rhs - typical_load(ctx, observed, q) as i128
        })
        .min()
        .expect("k_b >= 1 yields at least one candidate")
}

/// The **exact** combination criterion (Equation 3 of the paper):
/// computes the per-combination busy time `B^c̄_b(q)` — typical
/// interference plus the combination's execution demand injected as a
/// constant — and declares `c̄` schedulable iff
/// `∀q ∈ [1, k_b]: B^c̄_b(q) − δ−_b(q) ≤ D_b`.
///
/// This is strictly more precise than the sufficient slack test of
/// [`typical_slack`] (Equation 5): the fixed point can close *before*
/// the deadline horizon and thus see fewer interfering activations.
/// Returns `false` (unschedulable, conservative) when a fixed point
/// diverges.
///
/// # Panics
///
/// Panics if `observed` is out of range, has no deadline, or `k_b == 0`.
///
/// # Examples
///
/// ```
/// use twca_chains::{combination_schedulable_exact, typical_slack,
///     AnalysisContext, AnalysisOptions};
/// use twca_model::case_study;
///
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// // Experiment 1: both criteria agree that cost 50 is unschedulable
/// // and cost 30 is schedulable.
/// let opts = AnalysisOptions::default();
/// assert!(!combination_schedulable_exact(&ctx, c, 50, 2, opts));
/// assert!(combination_schedulable_exact(&ctx, c, 30, 2, opts));
/// ```
pub fn combination_schedulable_exact(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    combination_wcet: Time,
    k_b: u64,
    options: AnalysisOptions,
) -> bool {
    combination_schedulable_exact_seeded(
        ctx,
        observed,
        combination_wcet,
        k_b,
        options,
        &[],
        &mut Vec::new(),
    )
}

/// The warm-started Equation 3 check behind
/// [`combination_schedulable_exact`], used by the exact-threshold
/// bisection of the miss model. `seeds[q - 1]` may hold the converged
/// busy time of a **smaller or equal** injected cost (the fixed point is
/// monotone in the injected cost, so such values are sound lower
/// bounds); within the call, each `B(q)` additionally seeds `B(q+1)`.
/// On a fully schedulable verdict, `out` holds the converged busy times
/// `B(1..=k_b)` for reuse as seeds of costlier probes. The verdict is
/// identical to the cold check.
pub(crate) fn combination_schedulable_exact_seeded(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    combination_wcet: Time,
    k_b: u64,
    options: AnalysisOptions,
    seeds: &[Time],
    out: &mut Vec<Time>,
) -> bool {
    assert!(k_b > 0, "need at least one activation");
    let chain_b = ctx.system().chain(observed);
    let deadline = chain_b
        .deadline()
        .expect("exact criterion needs a deadline");
    out.clear();
    let mut warm: Time = 0;
    for q in 1..=k_b {
        let seed = warm.max(seeds.get(q as usize - 1).copied().unwrap_or(0));
        let Some(busy) = busy_time_seeded(
            ctx,
            observed,
            q,
            OverloadMode::Exclude,
            combination_wcet,
            options,
            seed,
        ) else {
            return false; // divergent: conservatively unschedulable
        };
        let arrival = chain_b.activation().delta_min(q);
        out.push(busy.total);
        if busy.total.saturating_sub(arrival) > deadline {
            return false;
        }
        warm = busy.total;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::{case_study, ChainKind, SystemBuilder};

    #[test]
    fn experiment1_loads() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        // Hand-derived: L(1) = 166, L(2) = 102 + 2·115 = 332,
        // L(3) = 153 + 3·115 = 498.
        assert_eq!(typical_load(&ctx, c, 1), 166);
        assert_eq!(typical_load(&ctx, c, 2), 332);
        assert_eq!(typical_load(&ctx, c, 3), 498);
    }

    #[test]
    fn experiment1_slack_binds_at_q1() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        // Slacks: q=1: 200-166=34; q=2: 400-332=68; q=3: 600-498=102.
        assert_eq!(typical_slack(&ctx, c, 1), 34);
        assert_eq!(typical_slack(&ctx, c, 3), 34);
    }

    #[test]
    fn combination_schedulability_matches_paper() {
        // c̄1 = {σa seg} cost 20 ≤ 34 → schedulable;
        // c̄2 = {σb seg} cost 30 ≤ 34 → schedulable;
        // c̄3 = both, cost 50 > 34 → unschedulable.
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let slack = typical_slack(&ctx, c, 3);
        assert!(20 <= slack);
        assert!(30 <= slack);
        assert!(50 > slack);
    }

    #[test]
    fn negative_slack_for_typically_unschedulable_chain() {
        // A lone chain whose own work exceeds its deadline.
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(100)
            .unwrap()
            .deadline(10)
            .task("x1", 1, 50)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        assert!(typical_slack(&ctx, twca_model::ChainId::from_index(0), 1) < 0);
    }

    #[test]
    fn async_observed_chain_adds_self_backlog() {
        // Async chain, period 10, deadline 100, header 4 + tail 20: at the
        // horizon δ−(1)+100 = 100, η+ = 10, backlog 9 × header 4 = 36.
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .deadline(100)
            .kind(ChainKind::Asynchronous)
            .task("x1", 2, 4)
            .task("x2", 1, 20)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let l = typical_load(&ctx, twca_model::ChainId::from_index(0), 1);
        assert_eq!(l, 24 + 36);
    }

    #[test]
    fn exact_criterion_agrees_on_case_study() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let opts = AnalysisOptions::default();
        // Slack verdicts (34): 20 ok, 30 ok, 50 bad — exact must agree.
        assert!(combination_schedulable_exact(&ctx, c, 20, 2, opts));
        assert!(combination_schedulable_exact(&ctx, c, 30, 2, opts));
        assert!(!combination_schedulable_exact(&ctx, c, 50, 2, opts));
    }

    #[test]
    fn exact_criterion_is_strictly_tighter_sometimes() {
        // Victim x (C=10, P=D=100) with an interferer y (C=30, P=90).
        // Sufficient (Eq. 5) at cost 31: L(1) = 10 + η_y(100)·30 = 70,
        // 70 + 31 = 101 > 100 → declared unschedulable. Exact (Eq. 3):
        // the busy window closes at 71 before y's second arrival (90),
        // so the combination is actually schedulable.
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(100)
            .unwrap()
            .deadline(100)
            .task("x1", 1, 10)
            .done()
            .chain("y")
            .periodic(90)
            .unwrap()
            .task("y1", 5, 30)
            .done()
            .chain("o")
            .sporadic(10_000)
            .unwrap()
            .overload()
            .task("o1", 9, 31)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let x = twca_model::ChainId::from_index(0);
        let opts = AnalysisOptions::default();
        let slack = typical_slack(&ctx, x, 1);
        assert!(31 > slack, "Eq. 5 declares cost 31 unschedulable");
        assert!(
            combination_schedulable_exact(&ctx, x, 31, 1, opts),
            "Eq. 3 sees the busy window close before y's next arrival"
        );
    }

    #[test]
    #[should_panic(expected = "needs a deadline")]
    fn missing_deadline_panics() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (a, _) = s.chain_by_name("sigma_a").unwrap();
        let _ = typical_load(&ctx, a, 1);
    }
}
