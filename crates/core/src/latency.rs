//! Worst-case latency of task chains (Theorem 2 of the paper).

use crate::busy_time::busy_time_seeded;
use crate::config::AnalysisOptions;
use crate::context::AnalysisContext;
use twca_curves::{EventModel, Time};
use twca_model::ChainId;

/// Whether overload chains contribute interference to an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverloadMode {
    /// Overload chains interfere like any other chain (the full
    /// worst case).
    Include,
    /// Overload chains are abstracted away (the *typical* system of
    /// TWCA).
    Exclude,
}

/// Why a latency analysis produced no bound — the two exits that
/// [`latency_analysis`] collapses into `None`.
///
/// The distinction matters operationally: a horizon exceedance means
/// the busy window provably does not close within the configured
/// divergence horizon (the chain is worst-case overloaded), while a
/// `max_q` exhaustion means the busy window kept closing but the end of
/// the window was not found within the configured activation budget —
/// raising `max_q` may still produce a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LatencyFailure {
    /// The `q`-event busy time exceeded `options.horizon`.
    HorizonExceeded {
        /// The activation count whose fixed point diverged.
        q: u64,
        /// The configured divergence horizon.
        horizon: Time,
    },
    /// The busy-window end search exhausted `options.max_q`.
    MaxQExceeded {
        /// The configured activation budget.
        max_q: u64,
    },
}

impl std::fmt::Display for LatencyFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatencyFailure::HorizonExceeded { q, horizon } => write!(
                f,
                "busy window diverged past the horizon {horizon} at q = {q} (worst-case overload)"
            ),
            LatencyFailure::MaxQExceeded { max_q } => write!(
                f,
                "busy-window end not found within max_q = {max_q} activations"
            ),
        }
    }
}

/// Result of a latency analysis of one chain.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LatencyResult {
    /// `K_b`: number of activations in the longest `σb`-busy-window.
    pub busy_window_activations: u64,
    /// Busy times `B_b(q)` for `q = 1..=K_b`.
    pub busy_times: Vec<Time>,
    /// `WCL_b = max_q (B_b(q) − δ−_b(q))`.
    pub worst_case_latency: Time,
}

impl LatencyResult {
    /// Whether the chain provably meets `deadline` in the analyzed mode.
    pub fn is_schedulable(&self, deadline: Time) -> bool {
        self.worst_case_latency <= deadline
    }

    /// Number of deadline misses attributable to one busy window
    /// (Lemma 3): `N_b = #{q : B_b(q) − δ−_b(q) > D_b}`.
    pub fn misses_per_window(&self, deadline: Time, delta_min: impl Fn(u64) -> Time) -> u64 {
        self.busy_times
            .iter()
            .enumerate()
            .filter(|&(i, &b)| b.saturating_sub(delta_min(i as u64 + 1)) > deadline)
            .count() as u64
    }
}

/// Computes `K_b`, the busy times and the worst-case latency of
/// `observed` (Theorem 2):
///
/// ```text
/// K_b   = min{ q ≥ 1 | B_b(q) ≤ δ−_b(q+1) }
/// WCL_b = max_{q ∈ [1, K_b]} ( B_b(q) − δ−_b(q) )
/// ```
///
/// Returns `None` when the busy window does not provably close within
/// `options` (the chain is worst-case overloaded and has no finite
/// latency bound). Use [`latency_analysis_detailed`] to learn *which*
/// limit was hit.
///
/// # Panics
///
/// Panics if `observed` is out of range.
///
/// # Examples
///
/// ```
/// use twca_chains::{latency_analysis, AnalysisContext, AnalysisOptions, OverloadMode};
/// use twca_model::case_study;
///
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let full = latency_analysis(&ctx, c, OverloadMode::Include, AnalysisOptions::default())
///     .expect("busy window closes");
/// assert_eq!(full.worst_case_latency, 331);
/// assert_eq!(full.busy_window_activations, 2);
/// ```
pub fn latency_analysis(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    mode: OverloadMode,
    options: AnalysisOptions,
) -> Option<LatencyResult> {
    latency_analysis_detailed(ctx, observed, mode, options).ok()
}

/// Like [`latency_analysis`], but reporting the typed [`LatencyFailure`]
/// instead of collapsing both failure exits into `None`.
///
/// # Errors
///
/// * [`LatencyFailure::HorizonExceeded`] when a busy-time fixed point
///   diverged past `options.horizon`;
/// * [`LatencyFailure::MaxQExceeded`] when the end of the busy window
///   was not found within `options.max_q` activations.
///
/// # Panics
///
/// Panics if `observed` is out of range.
pub fn latency_analysis_detailed(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    mode: OverloadMode,
    options: AnalysisOptions,
) -> Result<LatencyResult, LatencyFailure> {
    match ctx.memo() {
        Some(memo) => memo.latency(observed, mode, options, || {
            compute_latency_analysis(ctx, observed, mode, options)
        }),
        None => compute_latency_analysis(ctx, observed, mode, options),
    }
}

/// The uncached Theorem 2 iteration behind [`latency_analysis`]. Each
/// `B(q+1)` fixed point is warm-started from `B(q)` (the busy time is
/// monotone in `q`), which the scheduling-point solver exploits; the
/// converged values are identical to cold solves.
fn compute_latency_analysis(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    mode: OverloadMode,
    options: AnalysisOptions,
) -> Result<LatencyResult, LatencyFailure> {
    let activation = ctx.system().chain(observed).activation();
    // `δ−(q+1)` of one rung is `δ−(q)` of the next: each is computed once.
    let mut delta_q = activation.delta_min(1);
    let mut busy_times = Vec::new();
    let mut wcl: Time = 0;
    let mut warm: Time = 0;
    let mut q = 1u64;
    loop {
        if q > options.max_q {
            return Err(LatencyFailure::MaxQExceeded {
                max_q: options.max_q,
            });
        }
        let busy = busy_time_seeded(ctx, observed, q, mode, 0, options, warm)
            .ok_or(LatencyFailure::HorizonExceeded {
                q,
                horizon: options.horizon,
            })?
            .total;
        busy_times.push(busy);
        wcl = wcl.max(busy.saturating_sub(delta_q));
        let delta_next = activation.delta_min(q + 1);
        if busy <= delta_next {
            break;
        }
        delta_q = delta_next;
        warm = busy;
        q += 1;
    }
    Ok(LatencyResult {
        busy_window_activations: q,
        busy_times,
        worst_case_latency: wcl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::case_study;

    #[test]
    fn table1_is_reproduced() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let opts = AnalysisOptions::default();
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let (d, _) = s.chain_by_name("sigma_d").unwrap();

        let rc = latency_analysis(&ctx, c, OverloadMode::Include, opts).unwrap();
        assert_eq!(rc.worst_case_latency, 331);
        assert_eq!(rc.busy_window_activations, 2);
        assert_eq!(rc.busy_times, vec![331, 382]);
        assert!(!rc.is_schedulable(200));

        let rd = latency_analysis(&ctx, d, OverloadMode::Include, opts).unwrap();
        assert_eq!(rd.worst_case_latency, 175);
        assert_eq!(rd.busy_window_activations, 1);
        assert!(rd.is_schedulable(200));
    }

    #[test]
    fn typical_system_is_schedulable() {
        // "σc meets its deadline if neither σa nor σb are activated."
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let opts = AnalysisOptions::default();
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let r = latency_analysis(&ctx, c, OverloadMode::Exclude, opts).unwrap();
        assert_eq!(r.worst_case_latency, 166);
        assert!(r.is_schedulable(200));
    }

    #[test]
    fn misses_per_window_counts_late_qs() {
        // σc: B = [331, 382], δ− = [0, 200], D = 200:
        // 331 > 200 miss, 382 − 200 = 182 ≤ 200 ok → N = 1.
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, chain) = s.chain_by_name("sigma_c").unwrap();
        let r =
            latency_analysis(&ctx, c, OverloadMode::Include, AnalysisOptions::default()).unwrap();
        let act = chain.activation().clone();
        use twca_curves::EventModel;
        assert_eq!(r.misses_per_window(200, |k| act.delta_min(k)), 1);
    }

    #[test]
    fn divergence_reasons_are_distinguished() {
        use twca_model::SystemBuilder;
        // Over-utilized pair: the busy window never closes. A small
        // horizon reports HorizonExceeded; an enormous horizon with a
        // tiny max_q reports MaxQExceeded instead.
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .task("x1", 2, 6)
            .done()
            .chain("y")
            .periodic(10)
            .unwrap()
            .task("y1", 1, 6)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let id = twca_model::ChainId::from_index(1);

        let tight_horizon = AnalysisOptions {
            horizon: 100,
            ..AnalysisOptions::default()
        };
        let failure =
            latency_analysis_detailed(&ctx, id, OverloadMode::Include, tight_horizon).unwrap_err();
        assert!(
            matches!(
                failure,
                LatencyFailure::HorizonExceeded { horizon: 100, .. }
            ),
            "{failure:?}"
        );
        assert!(failure.to_string().contains("horizon"));

        let tight_q = AnalysisOptions {
            max_q: 5,
            ..AnalysisOptions::default()
        };
        let failure =
            latency_analysis_detailed(&ctx, id, OverloadMode::Include, tight_q).unwrap_err();
        assert_eq!(failure, LatencyFailure::MaxQExceeded { max_q: 5 });
        assert!(failure.to_string().contains("max_q"));

        // Both collapse to None on the untyped surface.
        assert_eq!(
            latency_analysis(&ctx, id, OverloadMode::Include, tight_horizon),
            None
        );
        assert_eq!(
            latency_analysis(&ctx, id, OverloadMode::Include, tight_q),
            None
        );
    }

    #[test]
    fn detailed_failures_are_cached_with_their_reason() {
        use std::sync::Arc;
        use twca_model::SystemBuilder;
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .task("x1", 2, 6)
            .done()
            .chain("y")
            .periodic(10)
            .unwrap()
            .task("y1", 1, 6)
            .done()
            .build()
            .unwrap();
        let cache = Arc::new(crate::AnalysisCache::new());
        let ctx = AnalysisContext::with_cache(&s, Arc::clone(&cache));
        let id = twca_model::ChainId::from_index(1);
        let opts = AnalysisOptions {
            max_q: 5,
            ..AnalysisOptions::default()
        };
        let first = latency_analysis_detailed(&ctx, id, OverloadMode::Include, opts);
        let second = latency_analysis_detailed(&ctx, id, OverloadMode::Include, opts);
        assert_eq!(first, second);
        assert_eq!(
            first.unwrap_err(),
            LatencyFailure::MaxQExceeded { max_q: 5 }
        );
        assert!(cache.stats().hits > 0);
    }
}
