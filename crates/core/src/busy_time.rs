//! Multiple-event busy times for task chains (Theorem 1 of the paper).
//!
//! The `q`-event busy time of chain `σb` is the maximum time needed to
//! process `q` activations of `σb` inside one `σb`-busy-window. It is the
//! least fixed point of
//!
//! ```text
//! B_b(q) = q·C_b
//!        + max(0, η+_b(B_b(q)) − q) · C(s_header_b)          [σb ∈ AC]
//!        + Σ_{σa ∈ IC(b)}       η+_a(B_b(q)) · C_a
//!        + Σ_{σa ∈ AC∩DC(b)}    η+_a(B_b(q)) · C(s_header_a,b) + Σ_{s ∈ S_b^a} C_s
//!        + Σ_{σa ∈ SC∩DC(b)}    C(s_crit_a,b)
//! ```
//!
//! The five components are exposed individually through
//! [`BusyTimeBreakdown`] so callers can inspect *why* a busy window is
//! long.
//!
//! The **scheduling-point** solver converges the fixed point off a
//! per-`(observed, mode)` interference plan cached on the
//! [`AnalysisContext`]: each iteration re-evaluates only the arrival
//! curves whose next activation breakpoint (the pseudo-inversion jump
//! of [`twca_curves::EventModel::next_step`], derived from the already
//! computed count) was crossed, recognizes a candidate below every
//! breakpoint as the fixed point without another sweep, and accepts
//! monotone warm starts. The retained iterative reference
//! ([`crate::reference::Reference::IterativeSolver`]) re-partitions the
//! interferers and re-evaluates every curve per call; both compute the
//! identical least fixed point.

use crate::config::AnalysisOptions;
use crate::context::AnalysisContext;
use crate::latency::OverloadMode;
use crate::reference::Reference;
use twca_curves::{ActivationModel, EventModel, Time};
use twca_model::{segments::self_header_segment, ChainId, InterferenceClass};

/// The five interference components of a converged busy time (Theorem 1),
/// in the order of the equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct BusyTimeBreakdown {
    /// `q · C_b`: the work of the analyzed activations themselves.
    pub own_work: Time,
    /// Self-interference of additional activations of an asynchronous
    /// `σb` (zero for synchronous chains).
    pub self_interference: Time,
    /// Interference from arbitrarily interfering chains.
    pub arbitrary: Time,
    /// Interference from deferred asynchronous chains (header segments of
    /// backlogged instances plus one pass over every segment).
    pub deferred_async: Time,
    /// Interference from deferred synchronous chains (one critical
    /// segment each).
    pub deferred_sync: Time,
    /// The converged busy time (sum of all components).
    pub total: Time,
}

/// One window-dependent interference source of a plan: an arrival curve
/// with the execution cost each admitted activation contributes.
#[derive(Debug, Clone)]
struct PlanEntry {
    activation: ActivationModel,
    coefficient: Time,
}

/// The flattened Theorem 1 right-hand side for one `(observed, mode)`
/// pair: interferer classes resolved, WCET coefficients extracted, and
/// the window-independent components pre-summed. Built once per context
/// and shared by every `(q, extra)` fixed point of the scheduling-point
/// solver — the per-call re-partitioning of the iterative reference is
/// exactly the work this removes from the hot path.
#[derive(Debug, Clone)]
pub(crate) struct InterferencePlan {
    /// `C_b` of the observed chain.
    chain_wcet: Time,
    /// Whether the observed chain is synchronous (no self-interference).
    synchronous: bool,
    /// `C(s_header_b)` for asynchronous observed chains.
    self_header_wcet: Time,
    /// The observed chain's own arrival curve (self-backlog term).
    observed_activation: ActivationModel,
    /// `Σ_{σa ∈ SC∩DC(b)} C(s_crit_a,b)` — window-independent.
    deferred_sync: Time,
    /// `Σ_{σa ∈ AC∩DC(b)} Σ_{s ∈ S_b^a} C_s` — window-independent.
    deferred_const: Time,
    /// Arbitrarily interfering chains: whole-chain WCET per activation.
    arbitrary: Vec<PlanEntry>,
    /// Deferred asynchronous chains: header-segment WCET per activation.
    deferred_async: Vec<PlanEntry>,
}

impl InterferencePlan {
    /// Flattens the interference structure of `observed` under `mode`.
    pub(crate) fn build(
        ctx: &AnalysisContext<'_>,
        observed: ChainId,
        mode: OverloadMode,
    ) -> InterferencePlan {
        let system = ctx.system();
        let chain_b = system.chain(observed);
        let synchronous = chain_b.kind().is_synchronous();
        let self_header_wcet = if synchronous {
            0
        } else {
            chain_b.wcet_of(&self_header_segment(chain_b))
        };
        let mut plan = InterferencePlan {
            chain_wcet: chain_b.total_wcet(),
            synchronous,
            self_header_wcet,
            observed_activation: chain_b.activation().clone(),
            deferred_sync: 0,
            deferred_const: 0,
            arbitrary: Vec::new(),
            deferred_async: Vec::new(),
        };
        for a in ctx.others(observed) {
            let chain_a = system.chain(a);
            if mode == OverloadMode::Exclude && chain_a.is_overload() {
                continue;
            }
            let terms = ctx.terms(a, observed);
            match terms.class() {
                InterferenceClass::ArbitrarilyInterfering => plan.arbitrary.push(PlanEntry {
                    activation: chain_a.activation().clone(),
                    coefficient: chain_a.total_wcet(),
                }),
                InterferenceClass::Deferred if chain_a.kind().is_synchronous() => {
                    plan.deferred_sync = plan.deferred_sync.saturating_add(terms.critical_wcet());
                }
                InterferenceClass::Deferred => {
                    plan.deferred_const = plan.deferred_const.saturating_add(terms.segments_wcet());
                    plan.deferred_async.push(PlanEntry {
                        activation: chain_a.activation().clone(),
                        coefficient: terms.header_wcet(),
                    });
                }
            }
        }
        plan
    }
}

/// Per-entry solver state: the activation count admitted by the current
/// window, its contribution, and the next window length at which the
/// count can grow.
struct EntryState {
    count: u64,
    contribution: Time,
    next_bp: Time,
}

impl EntryState {
    fn at(activation: &ActivationModel, coefficient: Time, window: Time) -> EntryState {
        let count = activation.eta_plus(window);
        // The breakpoint follows from the count by pseudo-inversion
        // (`η+` jumps to `count + 1` at `δ−(count + 1) + 1`) — the
        // [`EventModel::next_step`] contract, inlined so the
        // already-computed count is reused instead of paying a second
        // arrival-curve search for models whose `eta_plus` is derived
        // (burst, table). The debug assertion pins the two against
        // each other, so a model overriding `next_step` inconsistently
        // cannot silently desynchronize the solver.
        let next_bp = if activation.is_recurring() {
            activation
                .delta_min(count.saturating_add(1))
                .saturating_add(1)
                .max(window.saturating_add(1))
        } else {
            Time::MAX
        };
        debug_assert_eq!(
            next_bp,
            activation.next_step(window),
            "scheduling-point breakpoint must match EventModel::next_step"
        );
        EntryState {
            count,
            contribution: count.saturating_mul(coefficient),
            next_bp,
        }
    }
}

/// The scheduling-point solver state: per-curve counts and breakpoints
/// at the current window, with the interference sums maintained
/// incrementally as `u128`s — bit-identical to the reference's nested
/// saturating folds, because a saturating fold of non-negative terms
/// equals `min(u64::MAX, Σ)`. An iteration costs one pass of compares
/// plus curve evaluations for the crossed entries only.
///
/// The state stays valid as the window grows, so one solver instance
/// serves a whole monotone `q`-ladder: rung `q + 1` resumes from rung
/// `q`'s converged window instead of re-initializing every curve.
struct LadderSolver<'p> {
    plan: &'p InterferencePlan,
    self_state: Option<EntryState>,
    states: Vec<EntryState>,
    arbitrary_sum: u128,
    deferred_sum: u128,
    min_bp: Time,
    window: Time,
}

impl<'p> LadderSolver<'p> {
    /// Initializes every curve at `window`.
    fn new(plan: &'p InterferencePlan, window: Time) -> LadderSolver<'p> {
        let self_state =
            (!plan.synchronous).then(|| EntryState::at(&plan.observed_activation, 0, window));
        let arbitrary_len = plan.arbitrary.len();
        let mut states: Vec<EntryState> =
            Vec::with_capacity(arbitrary_len + plan.deferred_async.len());
        let mut arbitrary_sum: u128 = 0;
        let mut deferred_sum: u128 = 0;
        let mut min_bp: Time = self_state.as_ref().map_or(Time::MAX, |s| s.next_bp);
        for (index, entry) in plan
            .arbitrary
            .iter()
            .chain(&plan.deferred_async)
            .enumerate()
        {
            let state = EntryState::at(&entry.activation, entry.coefficient, window);
            if index < arbitrary_len {
                arbitrary_sum += state.contribution as u128;
            } else {
                deferred_sum += state.contribution as u128;
            }
            min_bp = min_bp.min(state.next_bp);
            states.push(state);
        }
        LadderSolver {
            plan,
            self_state,
            states,
            arbitrary_sum,
            deferred_sum,
            min_bp,
            window,
        }
    }

    /// Advances the window to `next` (crossing at least one breakpoint):
    /// one fused pass refreshes the crossed curves, adjusts the running
    /// sums and re-derives the earliest breakpoint.
    fn advance_to(&mut self, next: Time) {
        let arbitrary_len = self.plan.arbitrary.len();
        self.min_bp = Time::MAX;
        if let Some(state) = &mut self.self_state {
            if state.next_bp <= next {
                *state = EntryState::at(&self.plan.observed_activation, 0, next);
            }
            self.min_bp = state.next_bp;
        }
        for (index, state) in self.states.iter_mut().enumerate() {
            if state.next_bp <= next {
                let entry = if index < arbitrary_len {
                    &self.plan.arbitrary[index]
                } else {
                    &self.plan.deferred_async[index - arbitrary_len]
                };
                let refreshed = EntryState::at(&entry.activation, entry.coefficient, next);
                if index < arbitrary_len {
                    self.arbitrary_sum += refreshed.contribution as u128;
                    self.arbitrary_sum -= state.contribution as u128;
                } else {
                    self.deferred_sum += refreshed.contribution as u128;
                    self.deferred_sum -= state.contribution as u128;
                }
                *state = refreshed;
            }
            self.min_bp = self.min_bp.min(state.next_bp);
        }
        self.window = next;
    }

    /// Converges `B(q)` with `extra` injected, resuming from the current
    /// window. Sound whenever the current window is a lower bound on the
    /// least fixed point — which monotonicity in `q` and `extra`
    /// guarantees along a ladder. Returns `None` (and leaves the state
    /// wherever the divergence hit) when the fixed point exceeds
    /// `horizon`; by the same monotonicity every later rung diverges
    /// too.
    fn solve(&mut self, q: u64, extra: Time, horizon: Time) -> Option<BusyTimeBreakdown> {
        let own_work = q.saturating_mul(self.plan.chain_wcet);
        let constant = own_work
            .saturating_add(self.plan.deferred_sync)
            .saturating_add(self.plan.deferred_const)
            .saturating_add(extra);
        if constant > self.window {
            self.advance_to(constant);
        }
        loop {
            if self.window > horizon {
                return None;
            }
            let self_interference = self.self_state.as_ref().map_or(0, |s| {
                s.count
                    .saturating_sub(q)
                    .saturating_mul(self.plan.self_header_wcet)
            });
            let saturate = |sum: u128| sum.min(Time::MAX as u128) as Time;
            let next = saturate(
                constant as u128
                    + self_interference as u128
                    + self.arbitrary_sum.min(Time::MAX as u128)
                    + self.deferred_sum.min(Time::MAX as u128),
            );
            if next == self.window || (next > self.window && next < self.min_bp && next <= horizon)
            {
                // Converged — either exactly, or because no arrival
                // breakpoint lies in `(window, next]`, so the demand at
                // `next` equals the demand at `window` and `next` is the
                // fixed point without another sweep (the states stay
                // valid at `next` for the same reason).
                self.window = next;
                return Some(BusyTimeBreakdown {
                    own_work,
                    self_interference,
                    arbitrary: saturate(self.arbitrary_sum),
                    deferred_async: saturate(self.deferred_sum)
                        .saturating_add(self.plan.deferred_const),
                    deferred_sync: self.plan.deferred_sync,
                    total: next,
                });
            }
            if next < self.window {
                // A window above the least fixed point would make the
                // seed unsound; the monotone seeds this solver receives
                // cannot produce one. Restart cold as a safety net.
                debug_assert!(false, "warm start overshot the busy-window fixed point");
                *self = LadderSolver::new(self.plan, constant);
                continue;
            }
            if next > horizon {
                return None;
            }
            self.advance_to(next);
        }
    }
}

/// One warm-started scheduling-point solve; see [`LadderSolver`].
/// `warm` must be a proven lower bound on the least fixed point (0 for
/// a cold solve); the converged value is identical either way.
fn solve_scheduling_points(
    plan: &InterferencePlan,
    q: u64,
    extra: Time,
    horizon: Time,
    warm: Time,
) -> Option<BusyTimeBreakdown> {
    let constant = q
        .saturating_mul(plan.chain_wcet)
        .saturating_add(plan.deferred_sync)
        .saturating_add(plan.deferred_const)
        .saturating_add(extra);
    LadderSolver::new(plan, warm.max(constant)).solve(q, extra, horizon)
}

/// Computes `B_b(q)`, the `q`-event busy time of `observed` (Theorem 1).
///
/// `mode` selects whether overload chains contribute interference
/// ([`OverloadMode::Include`]) or are abstracted away
/// ([`OverloadMode::Exclude`], the *typical* system of TWCA).
///
/// Returns `None` if the fixed point exceeds `options.horizon`, i.e. the
/// busy window does not provably close (worst-case overload).
///
/// # Panics
///
/// Panics if `observed` is out of range or `q == 0`.
///
/// # Examples
///
/// ```
/// use twca_chains::{busy_time, AnalysisContext, AnalysisOptions, OverloadMode};
/// use twca_model::case_study;
///
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let b1 = busy_time(&ctx, c, 1, OverloadMode::Include, AnalysisOptions::default());
/// assert_eq!(b1, Some(331)); // Table I: WCL(σc) = B(1) − δ−(1) = 331
/// ```
pub fn busy_time(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    q: u64,
    mode: OverloadMode,
    options: AnalysisOptions,
) -> Option<Time> {
    busy_time_breakdown(ctx, observed, q, mode, options).map(|b| b.total)
}

/// Like [`busy_time`], additionally reporting the per-component
/// breakdown of the converged fixed point.
///
/// # Panics
///
/// Panics if `observed` is out of range or `q == 0`.
pub fn busy_time_breakdown(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    q: u64,
    mode: OverloadMode,
    options: AnalysisOptions,
) -> Option<BusyTimeBreakdown> {
    busy_time_with_extra(ctx, observed, q, mode, 0, options)
}

/// The Equation 3 busy time: like [`busy_time_breakdown`], with an
/// additional window-independent workload `extra` injected into the
/// fixed point. Used by the exact combination criterion, where `extra`
/// is `Σ_{s ∈ c̄} C_s · r_s` — the execution demand of the overload
/// combination under test (whose chains must then be excluded via
/// [`OverloadMode::Exclude`]).
///
/// # Panics
///
/// Panics if `observed` is out of range or `q == 0`.
pub fn busy_time_with_extra(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    q: u64,
    mode: OverloadMode,
    extra: Time,
    options: AnalysisOptions,
) -> Option<BusyTimeBreakdown> {
    busy_time_seeded(ctx, observed, q, mode, extra, options, 0)
}

/// The multiple-event busy-time ladder `B_b(1..=q_max)` (Theorem 1),
/// bit-identical to `q_max` independent [`busy_time`] calls — `None`
/// entries are the `q`s whose fixed point exceeds `options.horizon`.
///
/// This is the form every consumer of Theorem 1 actually needs (the
/// Theorem 2 window search, miss models, weakly-hard checks), and the
/// scheduling-point solver exploits it: the busy time is monotone in
/// `q`, so each converged `B(q)` seeds `B(q+1)` and most rungs converge
/// in one or two evaluations instead of a full cold fixed point. Under
/// the [`Reference::IterativeSolver`] reference every rung is solved
/// cold, exactly as `q_max` separate calls would.
///
/// # Panics
///
/// Panics if `observed` is out of range.
///
/// # Examples
///
/// ```
/// use twca_chains::{busy_time, busy_times, AnalysisContext, AnalysisOptions, OverloadMode};
/// use twca_model::case_study;
///
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let opts = AnalysisOptions::default();
/// let ladder = busy_times(&ctx, c, 2, OverloadMode::Include, opts);
/// assert_eq!(ladder, vec![Some(331), Some(382)]);
/// assert_eq!(ladder[1], busy_time(&ctx, c, 2, OverloadMode::Include, opts));
/// ```
pub fn busy_times(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    q_max: u64,
    mode: OverloadMode,
    options: AnalysisOptions,
) -> Vec<Option<Time>> {
    let mut ladder = Vec::with_capacity(q_max as usize);
    if ctx.reference().is_none() {
        // Ladder-native path: one solver instance carries its per-curve
        // state up every rung — rung `q + 1` resumes from rung `q`'s
        // converged window instead of re-initializing every curve.
        let plan = ctx.plan(observed, mode);
        let mut solver = LadderSolver::new(&plan, 0);
        for q in 1..=q_max {
            match solver.solve(q, 0, options.horizon) {
                Some(busy) => ladder.push(Some(busy.total)),
                None => break,
            }
        }
    } else {
        let mut warm: Time = 0;
        for q in 1..=q_max {
            match busy_time_seeded(ctx, observed, q, mode, 0, options, warm) {
                Some(busy) => {
                    warm = busy.total;
                    ladder.push(Some(busy.total));
                }
                None => break,
            }
        }
    }
    // The busy time is monotone in `q`: once one rung exceeds the
    // horizon, every later rung does too — no further fixed points
    // needed (a pointwise call for any of them would compute the same
    // `None` the slow way).
    ladder.resize(q_max as usize, None);
    ladder
}

/// The internal warm-started entry behind [`busy_time_with_extra`]:
/// `warm` must be a proven lower bound on the least fixed point (the
/// busy-time fixed point is monotone in both `q` and `extra`, so
/// `B(q)` seeds `B(q+1)` and `B(q, extra)` seeds `B(q, extra' > extra)`).
/// The converged value is identical to a cold solve; the seed only
/// skips already-proven iterations. The iterative reference solver
/// ignores the seed entirely.
pub(crate) fn busy_time_seeded(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    q: u64,
    mode: OverloadMode,
    extra: Time,
    options: AnalysisOptions,
    warm: Time,
) -> Option<BusyTimeBreakdown> {
    assert!(q > 0, "busy times are defined for q >= 1");
    if ctx.reference() == Some(Reference::IterativeSolver) {
        return crate::reference::iterative_busy_time(ctx, observed, q, mode, extra, options);
    }
    let plan = ctx.plan(observed, mode);
    solve_scheduling_points(&plan, q, extra, options.horizon, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::{case_study, ChainKind, SystemBuilder};

    fn ctx_ids(
        system: &twca_model::System,
    ) -> (AnalysisContext<'_>, ChainId, ChainId, ChainId, ChainId) {
        let ctx = AnalysisContext::new(system);
        let d = system.chain_by_name("sigma_d").unwrap().0;
        let c = system.chain_by_name("sigma_c").unwrap().0;
        let b = system.chain_by_name("sigma_b").unwrap().0;
        let a = system.chain_by_name("sigma_a").unwrap().0;
        (ctx, d, c, b, a)
    }

    #[test]
    fn case_study_busy_times_for_sigma_c() {
        // Least fixed points: B(1) = 51 + 2·115 + 20 + 30 = 331 (with
        // η+_d(331) = 2); B(2) = 102 + 2·115 + 20 + 30 = 382 (η+_d(382)
        // is still 2, and 382 ≤ δ−(3) = 400 closes the window).
        let s = case_study();
        let (ctx, _, c, _, _) = ctx_ids(&s);
        let opts = AnalysisOptions::default();
        assert_eq!(
            busy_time(&ctx, c, 1, OverloadMode::Include, opts),
            Some(331)
        );
        assert_eq!(
            busy_time(&ctx, c, 2, OverloadMode::Include, opts),
            Some(382)
        );
    }

    #[test]
    fn case_study_busy_time_for_sigma_d() {
        // B_d(1) = 115 + 20 (σa) + 30 (σb) + 10 (σc critical segment) = 175.
        let s = case_study();
        let (ctx, d, _, _, _) = ctx_ids(&s);
        let b = busy_time_breakdown(
            &ctx,
            d,
            1,
            OverloadMode::Include,
            AnalysisOptions::default(),
        )
        .unwrap();
        assert_eq!(b.own_work, 115);
        assert_eq!(b.arbitrary, 50);
        assert_eq!(b.deferred_sync, 10);
        assert_eq!(b.self_interference, 0);
        assert_eq!(b.total, 175);
    }

    #[test]
    fn typical_mode_excludes_overload() {
        // Without σa/σb: B_c(1) = 51 + 115 (σd twice? no: η+_d(166)=1) = 166.
        let s = case_study();
        let (ctx, _, c, _, _) = ctx_ids(&s);
        let b = busy_time(
            &ctx,
            c,
            1,
            OverloadMode::Exclude,
            AnalysisOptions::default(),
        );
        assert_eq!(b, Some(166));
    }

    #[test]
    fn divergent_busy_window_returns_none() {
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
        // Utilization 1.2: the per-q fixed points still converge
        // (B(q) ≈ 15q), but the busy window never closes; a small horizon
        // surfaces the divergence at moderate q.
        let opts = AnalysisOptions {
            horizon: 100,
            ..AnalysisOptions::default()
        };
        assert_eq!(
            busy_time(&ctx, ChainId::from_index(1), 1, OverloadMode::Include, opts),
            Some(18)
        );
        assert_eq!(
            busy_time(&ctx, ChainId::from_index(1), 7, OverloadMode::Include, opts),
            None
        );
    }

    #[test]
    fn asynchronous_self_interference_term() {
        // Single async chain, period 10, tasks (hi 5, lo... ) with the
        // lowest priority at the tail: header segment = first task.
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .kind(ChainKind::Asynchronous)
            .task("x1", 2, 4)
            .task("x2", 1, 20)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let opts = AnalysisOptions::default();
        // B(1): own 24; η+(24)=3 backlog 2 × header 4 = 8 → 32; η+(32)=4
        // → backlog 3 × 4 = 12 → 36; η+(36)=4 → 36. Fixed point 36.
        let b = busy_time_breakdown(&ctx, ChainId::from_index(0), 1, OverloadMode::Include, opts)
            .unwrap();
        assert_eq!(b.own_work, 24);
        assert_eq!(b.self_interference, 12);
        assert_eq!(b.total, 36);
    }

    #[test]
    fn synchronous_chain_has_no_self_interference() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .kind(ChainKind::Synchronous)
            .task("x1", 2, 4)
            .task("x2", 1, 20)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let b = busy_time_breakdown(
            &ctx,
            ChainId::from_index(0),
            1,
            OverloadMode::Include,
            AnalysisOptions::default(),
        )
        .unwrap();
        assert_eq!(b.self_interference, 0);
        assert_eq!(b.total, 24);
    }

    #[test]
    fn deferred_async_interferer_uses_header_and_segments() {
        // σa async deferred by σb: header segment interferes per
        // activation, every segment once.
        let s = SystemBuilder::new()
            .chain("a")
            .periodic(100)
            .unwrap()
            .kind(ChainKind::Asynchronous)
            .task("a1", 9, 3) // header segment (prio > min_b = 4)
            .task("a2", 1, 5) // below min(σb): defers
            .task("a3", 8, 7) // second segment
            .done()
            .chain("b")
            .periodic(1000)
            .unwrap()
            .task("b1", 5, 10)
            .task("b2", 4, 10)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let b = busy_time_breakdown(
            &ctx,
            ChainId::from_index(1),
            1,
            OverloadMode::Include,
            AnalysisOptions::default(),
        )
        .unwrap();
        // own 20; segments of a wrt b: (a1)=3 and (a3)=7 (no wrap: a2 low).
        // constant segment sum = 10; header (a1) = 3 per activation.
        // Window: 20+10+3·η. η(33)=1 → 33; fixed at η(33)=1 → 33.
        assert_eq!(b.own_work, 20);
        assert_eq!(b.deferred_async, 10 + 3);
        assert_eq!(b.total, 33);
    }

    #[test]
    #[should_panic(expected = "q >= 1")]
    fn zero_q_panics() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let _ = busy_time(
            &ctx,
            ChainId::from_index(0),
            0,
            OverloadMode::Include,
            AnalysisOptions::default(),
        );
    }

    /// Both solvers must agree bit-for-bit on totals, breakdowns and
    /// divergence verdicts — here on the case study across modes, `q`s
    /// and injected extras; the randomized sweep lives in the workspace
    /// property tests and the `solver-agreement` verify oracle.
    #[test]
    fn solvers_agree_on_the_case_study() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let iterative = Reference::IterativeSolver.context(&s);
        let opts = AnalysisOptions::default();
        for (id, _) in s.iter() {
            for mode in [OverloadMode::Include, OverloadMode::Exclude] {
                for q in 1..=4u64 {
                    for extra in [0u64, 17, 115, 10_000] {
                        assert_eq!(
                            busy_time_with_extra(&ctx, id, q, mode, extra, opts),
                            busy_time_with_extra(&iterative, id, q, mode, extra, opts),
                            "chain {id} mode {mode:?} q={q} extra={extra}"
                        );
                    }
                }
            }
        }
    }

    /// The ladder is bit-identical to independent pointwise calls under
    /// both solvers (the warm seeds are invisible in the results).
    #[test]
    fn ladder_equals_pointwise_calls() {
        let s = case_study();
        let opts = AnalysisOptions::default();
        for ctx in [
            AnalysisContext::new(&s),
            Reference::IterativeSolver.context(&s),
        ] {
            for (id, _) in s.iter() {
                for mode in [OverloadMode::Include, OverloadMode::Exclude] {
                    let ladder = busy_times(&ctx, id, 6, mode, opts);
                    let pointwise: Vec<Option<Time>> = (1..=6)
                        .map(|q| busy_time(&ctx, id, q, mode, opts))
                        .collect();
                    assert_eq!(
                        ladder,
                        pointwise,
                        "chain {id} mode {mode:?} {:?}",
                        ctx.reference()
                    );
                }
            }
        }
    }

    /// Warm seeds below the fixed point converge to the identical value.
    #[test]
    fn warm_seeds_do_not_change_the_fixed_point() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let opts = AnalysisOptions::default();
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let cold = busy_time_seeded(&ctx, c, 2, OverloadMode::Include, 0, opts, 0).unwrap();
        for warm in [1, 51, 331, 381, cold.total] {
            let seeded =
                busy_time_seeded(&ctx, c, 2, OverloadMode::Include, 0, opts, warm).unwrap();
            assert_eq!(seeded, cold, "warm={warm}");
        }
    }

    /// Saturation near the horizon: huge WCETs saturate the demand sum;
    /// both solvers must report divergence identically (and a `u64::MAX`
    /// horizon makes the saturated stall the fixed point itself).
    #[test]
    fn saturating_demand_agrees_across_solvers() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .task("x1", 2, u64::MAX / 2)
            .done()
            .chain("y")
            .periodic(10)
            .unwrap()
            .task("y1", 1, u64::MAX / 2)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let iterative = Reference::IterativeSolver.context(&s);
        for horizon in [1_000u64, u64::MAX - 1, u64::MAX] {
            let opts = AnalysisOptions {
                horizon,
                ..AnalysisOptions::default()
            };
            for q in [1u64, 2] {
                let id = ChainId::from_index(1);
                assert_eq!(
                    busy_time_breakdown(&ctx, id, q, OverloadMode::Include, opts),
                    busy_time_breakdown(&iterative, id, q, OverloadMode::Include, opts),
                    "horizon={horizon} q={q}"
                );
            }
        }
    }
}
