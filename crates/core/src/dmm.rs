//! Deadline miss models for task chains (Theorem 3 and Lemma 3 of the
//! paper).

use crate::combinations::{
    Combination, CombinationSet, ItemArena, OverloadSegment, PreparedCombinations,
};
use crate::config::AnalysisOptions;
use crate::context::AnalysisContext;
use crate::criterion::typical_slack;
use crate::error::AnalysisError;
use crate::latency::{latency_analysis, OverloadMode};
use crate::omega::overload_budget;
use crate::reference::Reference;
use twca_curves::EventModel;
use twca_ilp::{PackingProblem, PackingSolution};
use twca_model::ChainId;

/// Saturates an implicit (possibly astronomically large) count into the
/// `usize` fields of [`DmmResult`].
fn saturate_count(count: u128) -> usize {
    count.min(usize::MAX as u128) as usize
}

/// The classified Definition 9 state the Theorem 3 packing consumes:
/// the segment (resource) table, the combination counts, and the
/// packing items in whichever representation the active engine tier
/// produced.
#[derive(Debug, Clone)]
struct ClassifiedCombinations {
    segments: Vec<OverloadSegment>,
    /// Total combinations (implicit count, saturated at `usize::MAX`).
    combinations: usize,
    /// Unschedulable combinations (saturated likewise).
    unschedulable: usize,
    items: PackingItems,
}

/// The packing-item tiers. The lazy engine picks the representation
/// that is provably bit-identical to the materialized reference
/// wherever the reference can run at all:
///
/// * up to `PackingProblem::DOMINANCE_LIMIT` unschedulable combinations
///   the reference solver reduces the raw item list to the
///   inclusion-minimal antichain itself, so handing it the antichain
///   directly changes nothing — `Pruned`;
/// * beyond that limit (where the reference solver skips its dominance
///   prefilter) but within the explicit product bound, the exact raw
///   item list is reproduced — `Explicit`;
/// * past the explicit product bound the reference errors out with
///   `TooManyCombinations` and the antichain tier is the only (and
///   newly possible) behavior — `Pruned`.
#[derive(Debug, Clone)]
enum PackingItems {
    /// Explicit member lists of every unschedulable combination, in
    /// enumeration order — the materialized reference shape.
    Explicit(ItemArena),
    /// The inclusion-minimal antichain, plus the engine and slack
    /// needed to re-expand explicit members on the witness path.
    Pruned {
        minimal: ItemArena,
        prepared: Box<PreparedCombinations>,
        slack: i128,
    },
}

impl PackingItems {
    /// Solves the Theorem 3 packing over these items.
    fn solve(&self, capacities: Vec<u64>, budget: u64) -> PackingSolution {
        match self {
            PackingItems::Explicit(items) => {
                PackingProblem::from_arena(capacities, items.offsets(), items.members())
                    .expect("indices in range by construction")
                    .solve_with_budget(budget)
            }
            PackingItems::Pruned { minimal, .. } => {
                PackingProblem::from_arena(capacities, minimal.offsets(), minimal.members())
                    .expect("indices in range by construction")
                    .solve_assuming_antichain(budget)
            }
        }
    }
}

/// Classifies the combination space of `observed` against `slack`
/// through the lazy engine (or, on a
/// [`Reference::MaterializedEngine`] context, the materialized one).
fn classify_combinations(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k_b: u64,
    slack: i128,
    options: AnalysisOptions,
) -> Result<ClassifiedCombinations, AnalysisError> {
    if ctx.reference() == Some(Reference::MaterializedEngine) {
        let set = CombinationSet::enumerate(ctx, observed, options)?;
        let multipliers = set.window_multipliers(ctx, observed, k_b);
        let items: ItemArena = set
            .unschedulable_scaled(slack, &multipliers)
            .map(|c| c.members.clone())
            .collect();
        return Ok(ClassifiedCombinations {
            segments: set.segments().to_vec(),
            combinations: set.combinations().len(),
            unschedulable: items.len(),
            items: PackingItems::Explicit(items),
        });
    }
    let prepared = PreparedCombinations::prepare(ctx, observed, k_b, options)?;
    classify_lazy(prepared, slack, options)
}

/// The lazy tier choice; see [`PackingItems`] for why each tier is
/// bit-identical to the reference on its regime.
///
/// # Errors
///
/// [`AnalysisError::TooManyCombinations`] when the counting or
/// antichain walk exhausts its deterministic budget — possible only on
/// adversarial instances whose schedulable/unschedulable *boundary* is
/// itself combinatorial (instances the materialized reference could
/// run can never exhaust it; see
/// [`PreparedCombinations::walk_budget`]).
fn classify_lazy(
    prepared: PreparedCombinations,
    slack: i128,
    options: AnalysisOptions,
) -> Result<ClassifiedCombinations, AnalysisError> {
    let too_many = || AnalysisError::TooManyCombinations {
        limit: options.max_combinations,
    };
    let budget = PreparedCombinations::walk_budget(&options);
    let total = prepared.total_combinations();
    let count = prepared
        .count_unschedulable_within(slack, budget)
        .ok_or_else(too_many)?;
    let segments = prepared.segments().to_vec();
    let items = if count <= PackingProblem::DOMINANCE_LIMIT as u128
        || total >= options.max_combinations as u128
    {
        PackingItems::Pruned {
            minimal: prepared
                .minimal_unschedulable_within(slack, budget)
                .ok_or_else(too_many)?,
            prepared: Box::new(prepared),
            slack,
        }
    } else {
        // Between the reference's dominance-prefilter limit and its
        // explicit product bound: reproduce its raw item list exactly
        // (the reference would not have reduced to the antichain here).
        let expanded = prepared
            .expand_unschedulable(slack, options.max_combinations)
            .expect("the unschedulable count is bounded by the product, which fits the cap");
        PackingItems::Explicit(expanded.into_iter().map(|c| c.members).collect())
    };
    Ok(ClassifiedCombinations {
        segments,
        combinations: saturate_count(total),
        unschedulable: saturate_count(count),
        items,
    })
}

/// Every unschedulable combination explicitly, for the per-combination
/// cap hook (whose artificial cap resources defeat the antichain
/// reduction). Mirrors the materialized product gate on every context.
fn explicit_unschedulable_for_hook(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k_b: u64,
    slack: i128,
    options: AnalysisOptions,
) -> Result<(Vec<OverloadSegment>, usize, Vec<Combination>), AnalysisError> {
    if ctx.reference() == Some(Reference::MaterializedEngine) {
        let set = CombinationSet::enumerate(ctx, observed, options)?;
        let multipliers = set.window_multipliers(ctx, observed, k_b);
        let combos: Vec<Combination> = set
            .unschedulable_scaled(slack, &multipliers)
            .cloned()
            .collect();
        return Ok((set.segments().to_vec(), set.combinations().len(), combos));
    }
    let prepared = PreparedCombinations::prepare(ctx, observed, k_b, options)?;
    let total = prepared.total_combinations();
    if total >= options.max_combinations as u128 {
        return Err(AnalysisError::TooManyCombinations {
            limit: options.max_combinations,
        });
    }
    let combos = prepared
        .expand_unschedulable(slack, options.max_combinations)
        .expect("the product fits the explicit cap");
    Ok((prepared.segments().to_vec(), total as usize, combos))
}

/// A computed deadline miss model value `dmm_b(k)`, with the intermediate
/// quantities of Theorem 3 exposed for inspection.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DmmResult {
    /// The window length `k` the bound refers to.
    pub k: u64,
    /// The bound: at most `bound` of any `k` consecutive activations of
    /// the chain miss their deadline.
    pub bound: u64,
    /// Whether the bound is informative (`true`) or the trivial `k`
    /// fallback for chains whose busy window diverges or that are
    /// unschedulable even without overload (`false`).
    pub informative: bool,
    /// `N_b` (Lemma 3): worst-case misses per busy window.
    pub misses_per_window: u64,
    /// Optimal value of the Theorem 3 packing (number of busy windows
    /// spoiled by unschedulable combinations).
    pub packed_windows: u64,
    /// Whether the packing value is a proven optimum (`true`, the
    /// normal case) or a sound upper bound reported because the
    /// packing search exhausted its deterministic budget on an
    /// adversarial instance (`false`; the miss bound is then still
    /// valid, just possibly looser).
    pub packing_exact: bool,
    /// Typical slack (Equation 5 threshold); combinations costlier than
    /// this are unschedulable.
    pub typical_slack: i128,
    /// Overload budgets `Ω_a^b` per overload chain.
    pub omegas: Vec<(ChainId, u64)>,
    /// Number of valid combinations (Definition 9). Under the lazy
    /// engine this is the *implicit* count — nothing was materialized
    /// to obtain it — saturated at `usize::MAX` for astronomically
    /// large products.
    pub combinations: usize,
    /// Number of unschedulable combinations (the ILP items).
    pub unschedulable_combinations: usize,
}

/// Computes `dmm_b(k)` for `observed` (Theorem 3):
///
/// 1. full latency analysis → `K_b`, `WCL_b`, `N_b` (Lemma 3);
/// 2. typical slack via Equations 4–5;
/// 3. combination enumeration over active segments (Definition 9);
/// 4. budgets `Ω_a^b` (Lemma 4);
/// 5. pack unschedulable combinations into busy windows (the
///    multi-dimensional knapsack of Theorem 3, solved exactly);
/// 6. `dmm_b(k) = min(k, N_b · packing value)` — the `min(k, ·)` cap is
///    implicit in the definition of a DMM over `k` activations.
///
/// Chains whose busy window diverges, or that are unschedulable even with
/// all overload chains silent, receive the trivial bound `k` (flagged
/// `informative = false`).
///
/// # Errors
///
/// * [`AnalysisError::UnknownChain`] for an id outside the system;
/// * [`AnalysisError::MissingDeadline`] if the chain has no deadline;
/// * [`AnalysisError::TooManyCombinations`] if enumeration explodes.
///
/// # Examples
///
/// ```
/// use twca_chains::{deadline_miss_model, AnalysisContext, AnalysisOptions};
/// use twca_model::case_study;
///
/// # fn main() -> Result<(), twca_chains::AnalysisError> {
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let dmm = deadline_miss_model(&ctx, c, 3, AnalysisOptions::default())?;
/// assert_eq!(dmm.bound, 3);
/// assert_eq!(dmm.misses_per_window, 1);
/// assert_eq!(dmm.unschedulable_combinations, 1);
/// # Ok(())
/// # }
/// ```
pub fn deadline_miss_model(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k: u64,
    options: AnalysisOptions,
) -> Result<DmmResult, AnalysisError> {
    if let Some((cache, sys)) = ctx.memo() {
        return cache.dmm(sys, observed, k, options, false, || {
            deadline_miss_model_with_caps(ctx, observed, k, options, None)
        });
    }
    deadline_miss_model_with_caps(ctx, observed, k, options, None)
}

/// Like [`deadline_miss_model`], with an optional per-combination cap on
/// how many busy windows one combination may spoil.
///
/// The cap hook receives each unschedulable combination together with the
/// global segment table and returns `Some(cap)` to add the constraint
/// `x_c̄ ≤ cap`, or `None` to leave the combination unconstrained beyond
/// the Ω budgets. This is the entry point used by the
/// [`crate::refinement`] extension; passing `None` for the hook yields
/// the plain Theorem 3 bound.
///
/// # Errors
///
/// See [`deadline_miss_model`].
#[allow(clippy::type_complexity)]
pub fn deadline_miss_model_with_caps(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k: u64,
    options: AnalysisOptions,
    item_cap: Option<&dyn Fn(&Combination, &[OverloadSegment]) -> Option<u64>>,
) -> Result<DmmResult, AnalysisError> {
    if !ctx.contains(observed) {
        return Err(AnalysisError::UnknownChain { chain: observed });
    }
    let chain_b = ctx.system().chain(observed);
    let Some(deadline) = chain_b.deadline() else {
        return Err(AnalysisError::MissingDeadline { chain: observed });
    };

    let trivial = |informative: bool, misses: u64| DmmResult {
        k,
        bound: k,
        informative,
        misses_per_window: misses,
        packed_windows: 0,
        packing_exact: true,
        typical_slack: 0,
        omegas: Vec::new(),
        combinations: 0,
        unschedulable_combinations: 0,
    };

    // Step 1: full worst-case latency analysis.
    let Some(full) = latency_analysis(ctx, observed, OverloadMode::Include, options) else {
        return Ok(trivial(false, k));
    };
    let activation = chain_b.activation().clone();
    let misses_per_window = full.misses_per_window(deadline, |q| activation.delta_min(q));
    if misses_per_window == 0 {
        // Schedulable even in the full worst case: no misses at all.
        return Ok(DmmResult {
            k,
            bound: 0,
            informative: true,
            misses_per_window: 0,
            packed_windows: 0,
            packing_exact: true,
            typical_slack: 0,
            omegas: Vec::new(),
            combinations: 0,
            unschedulable_combinations: 0,
        });
    }

    // Step 2: typical slack (Equations 4–5).
    let slack = typical_slack(ctx, observed, full.busy_window_activations);
    if slack < 0 {
        // Misses occur even without overload: TWCA cannot help.
        return Ok(trivial(false, misses_per_window));
    }

    // Step 4: budgets Ω_a^b per overload chain, mapped onto the segment
    // resources. A busy window can only miss when an unschedulable
    // combination executes in it, so an empty classification solves to
    // a zero packing without touching the solver.
    let omegas = budgets(ctx, observed, k, &full);
    let omega_of = |chain: ChainId| -> u64 {
        omegas
            .iter()
            .find(|(id, _)| *id == chain)
            .map(|&(_, w)| w)
            .expect("every overload chain has a budget")
    };

    // Steps 3 and 5: combinations classified under the soundly scaled
    // costs (each segment × its chain's activations per deadline
    // horizon; all multipliers are 1 on the paper's rare-overload
    // domain), then packed into busy windows under the Ω capacities.
    // The per-combination cap hook needs every unschedulable
    // combination explicitly (its artificial cap resources defeat the
    // antichain reduction); the plain Theorem 3 path goes through the
    // configured engine's tiers.
    let (combinations, num_unschedulable, solution) = match item_cap {
        Some(hook) => {
            let (segments, combinations, unschedulable) = explicit_unschedulable_for_hook(
                ctx,
                observed,
                full.busy_window_activations,
                slack,
                options,
            )?;
            let solution = if unschedulable.is_empty() {
                None
            } else {
                // Resources: one per overload active segment (capacity
                // = its chain's Ω), plus one artificial resource per
                // capped item.
                let mut capacities: Vec<u64> = segments.iter().map(|s| omega_of(s.chain)).collect();
                let mut items: Vec<Vec<usize>> = Vec::with_capacity(unschedulable.len());
                for combo in &unschedulable {
                    let mut resources = combo.members.clone();
                    if let Some(cap) = hook(combo, &segments) {
                        let extra = capacities.len();
                        capacities.push(cap);
                        resources.push(extra);
                    }
                    items.push(resources);
                }
                Some(
                    PackingProblem::new(capacities, items)?
                        .solve_with_budget(options.packing_budget),
                )
            };
            (combinations, unschedulable.len(), solution)
        }
        None => {
            let classified =
                classify_combinations(ctx, observed, full.busy_window_activations, slack, options)?;
            let solution = if classified.unschedulable == 0 {
                None
            } else {
                let capacities: Vec<u64> = classified
                    .segments
                    .iter()
                    .map(|s| omega_of(s.chain))
                    .collect();
                Some(classified.items.solve(capacities, options.packing_budget))
            };
            (classified.combinations, classified.unschedulable, solution)
        }
    };
    let (packed, packing_exact) = solution
        .map(|s| (s.packed_total(), s.is_exact()))
        .unwrap_or((0, true));

    // Step 6: the DMM value.
    Ok(DmmResult {
        k,
        bound: k.min(misses_per_window.saturating_mul(packed)),
        informative: true,
        misses_per_window,
        packed_windows: packed,
        packing_exact,
        typical_slack: slack,
        omegas,
        combinations,
        unschedulable_combinations: num_unschedulable,
    })
}

/// Like [`deadline_miss_model`], but classifying combinations with the
/// **exact** Equation 3 criterion instead of the sufficient Equation 5
/// slack test. Combinations the slack test already admits are skipped
/// (Equation 5 is sufficient for schedulability), so only borderline
/// combinations pay for a busy-time fixed point.
///
/// The resulting bound is never larger than the plain one, and can be
/// strictly smaller when a combination's busy window closes before the
/// deadline horizon.
///
/// # Errors
///
/// See [`deadline_miss_model`].
pub fn deadline_miss_model_exact(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k: u64,
    options: AnalysisOptions,
) -> Result<DmmResult, AnalysisError> {
    if let Some((cache, sys)) = ctx.memo() {
        if ctx.contains(observed) {
            return cache.dmm(sys, observed, k, options, true, || {
                compute_deadline_miss_model_exact(ctx, observed, k, options)
            });
        }
    }
    compute_deadline_miss_model_exact(ctx, observed, k, options)
}

/// The uncached Equation 3 classification behind
/// [`deadline_miss_model_exact`].
fn compute_deadline_miss_model_exact(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k: u64,
    options: AnalysisOptions,
) -> Result<DmmResult, AnalysisError> {
    if !ctx.contains(observed) {
        return Err(AnalysisError::UnknownChain { chain: observed });
    }
    let chain_b = ctx.system().chain(observed);
    let Some(deadline) = chain_b.deadline() else {
        return Err(AnalysisError::MissingDeadline { chain: observed });
    };

    let Some(full) = latency_analysis(ctx, observed, OverloadMode::Include, options) else {
        return Ok(DmmResult {
            k,
            bound: k,
            informative: false,
            misses_per_window: 0,
            packed_windows: 0,
            packing_exact: true,
            typical_slack: 0,
            omegas: Vec::new(),
            combinations: 0,
            unschedulable_combinations: 0,
        });
    };
    let activation = chain_b.activation().clone();
    let misses_per_window = full.misses_per_window(deadline, |q| activation.delta_min(q));
    if misses_per_window == 0 {
        return Ok(DmmResult {
            k,
            bound: 0,
            informative: true,
            misses_per_window: 0,
            packed_windows: 0,
            packing_exact: true,
            typical_slack: 0,
            omegas: Vec::new(),
            combinations: 0,
            unschedulable_combinations: 0,
        });
    }
    let k_b = full.busy_window_activations;
    let slack = typical_slack(ctx, observed, k_b);
    // The *empty* combination must be schedulable for TWCA to apply.
    if !crate::criterion::combination_schedulable_exact(ctx, observed, 0, k_b, options) {
        return Ok(DmmResult {
            k,
            bound: k,
            informative: false,
            misses_per_window,
            packed_windows: 0,
            packing_exact: true,
            typical_slack: slack,
            omegas: Vec::new(),
            combinations: 0,
            unschedulable_combinations: 0,
        });
    }

    let classified = if ctx.reference() == Some(Reference::MaterializedEngine) {
        let set = CombinationSet::enumerate(ctx, observed, options)?;
        let multipliers = set.window_multipliers(ctx, observed, k_b);
        let items: ItemArena = set
            .combinations()
            .iter()
            .filter(|c| {
                let cost = set.effective_cost(c, &multipliers);
                // Fast path: Equation 5 proves schedulability.
                if (cost as i128) <= slack {
                    return false;
                }
                !crate::criterion::combination_schedulable_exact(ctx, observed, cost, k_b, options)
            })
            .map(|c| c.members.clone())
            .collect();
        ClassifiedCombinations {
            segments: set.segments().to_vec(),
            combinations: set.combinations().len(),
            unschedulable: items.len(),
            items: PackingItems::Explicit(items),
        }
    } else {
        // Equation 3 only sees a combination through its total cost,
        // and the injected cost enters the busy-window fixed point as a
        // constant, so exact schedulability is monotone (downward
        // closed) in the cost: one threshold bisection replaces the
        // per-combination fixed points, and the slack machinery
        // classifies against the exact threshold.
        let prepared = PreparedCombinations::prepare(ctx, observed, k_b, options)?;
        let threshold = exact_threshold(
            ctx,
            observed,
            k_b,
            slack,
            prepared.max_total_cost(),
            options,
        );
        classify_lazy(prepared, threshold, options)?
    };
    let omegas = budgets(ctx, observed, k, &full);
    let (packed, packing_exact) = if classified.unschedulable == 0 {
        (0, true)
    } else {
        let omega_of = |chain: ChainId| -> u64 {
            omegas
                .iter()
                .find(|(id, _)| *id == chain)
                .map(|&(_, w)| w)
                .expect("every overload chain has a budget")
        };
        let capacities: Vec<u64> = classified
            .segments
            .iter()
            .map(|s| omega_of(s.chain))
            .collect();
        let solution = classified.items.solve(capacities, options.packing_budget);
        (solution.packed_total(), solution.is_exact())
    };
    Ok(DmmResult {
        k,
        bound: k.min(misses_per_window.saturating_mul(packed)),
        informative: true,
        misses_per_window,
        packed_windows: packed,
        packing_exact,
        typical_slack: slack,
        omegas,
        combinations: classified.combinations,
        unschedulable_combinations: classified.unschedulable,
    })
}

/// The largest cost `T ≥ slack` such that a combination costing `T` is
/// schedulable under the exact Equation 3 criterion (costs at or below
/// the slack are schedulable by Equation 5 without any fixed point).
/// Combinations are then exactly-unschedulable iff their cost exceeds
/// `T`, by monotonicity of the injected-cost fixed point.
fn exact_threshold(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k_b: u64,
    slack: i128,
    max_cost: u64,
    options: AnalysisOptions,
) -> i128 {
    if slack >= max_cost as i128 {
        // No combination costs more than the slack.
        return slack;
    }
    let mut lo: u64 = if slack < 0 { 0 } else { slack as u64 };
    let mut hi: u64 = max_cost;
    if crate::criterion::combination_schedulable_exact(ctx, observed, hi, k_b, options) {
        // Even the costliest combination closes its busy window in time.
        return hi as i128;
    }
    // Invariant: schedulable at `lo` (or `lo` is the slack boundary),
    // unschedulable at `hi`. The injected-cost fixed point is monotone
    // in the cost, so the busy times of the best schedulable probe so
    // far (`lo`) warm-start every later probe (all at costs > `lo`);
    // the verdicts are identical to cold checks.
    let mut lo_seeds: Vec<twca_curves::Time> = Vec::new();
    let mut probe_seeds: Vec<twca_curves::Time> = Vec::new();
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if crate::criterion::combination_schedulable_exact_seeded(
            ctx,
            observed,
            mid,
            k_b,
            options,
            &lo_seeds,
            &mut probe_seeds,
        ) {
            lo = mid;
            std::mem::swap(&mut lo_seeds, &mut probe_seeds);
        } else {
            hi = mid;
        }
    }
    lo as i128
}

fn budgets(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k: u64,
    full: &crate::latency::LatencyResult,
) -> Vec<(ChainId, u64)> {
    ctx.system()
        .overload_chains()
        .filter(|&a| a != observed)
        .map(|a| {
            (
                a,
                overload_budget(ctx, a, observed, k, full.worst_case_latency),
            )
        })
        .collect()
}

/// Precomputed state for evaluating `dmm_b(k)` at many window lengths
/// `k`.
///
/// The expensive parts of Theorem 3 — the latency analysis, the typical
/// slack and the combination enumeration — do not depend on `k`; only the
/// budgets `Ω_a^b` and the packing do. A sweep prepares the former once
/// and re-solves only the (small) packing per `k`, which makes dmm curves
/// and design-space sweeps much cheaper than repeated
/// [`deadline_miss_model`] calls.
///
/// # Examples
///
/// ```
/// use twca_chains::{deadline_miss_model, AnalysisContext, AnalysisOptions, DmmSweep};
/// use twca_model::case_study;
///
/// # fn main() -> Result<(), twca_chains::AnalysisError> {
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let opts = AnalysisOptions::default();
/// let sweep = DmmSweep::prepare(&ctx, c, opts)?;
/// for k in [1, 3, 10, 76, 250] {
///     assert_eq!(
///         sweep.at(k).bound,
///         deadline_miss_model(&ctx, c, k, opts)?.bound,
///     );
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DmmSweep<'a> {
    ctx: &'a AnalysisContext<'a>,
    observed: ChainId,
    options: AnalysisOptions,
    /// `None` for the trivial cases (divergent, always-schedulable or
    /// typically unschedulable): `kind` holds the fixed verdict.
    state: SweepState,
}

#[derive(Debug, Clone)]
enum SweepState {
    /// Busy window diverges or typical slack is negative: `dmm(k) = k`.
    /// `misses_per_window` is `None` for the divergent case (reported as
    /// `k`, matching [`deadline_miss_model`]).
    TrivialK { misses_per_window: Option<u64> },
    /// Never misses: `dmm(k) = 0`.
    Zero,
    Packing {
        misses_per_window: u64,
        slack: i128,
        worst_case_latency: twca_curves::Time,
        /// The `k`-independent Definition 9 classification, computed
        /// once and shared by every window length of the sweep (the
        /// budgets and the packing are the only `k`-dependent parts).
        classified: ClassifiedCombinations,
    },
}

impl<'a> DmmSweep<'a> {
    /// Runs the `k`-independent part of Theorem 3 once.
    ///
    /// # Errors
    ///
    /// See [`deadline_miss_model`].
    pub fn prepare(
        ctx: &'a AnalysisContext<'a>,
        observed: ChainId,
        options: AnalysisOptions,
    ) -> Result<Self, AnalysisError> {
        if !ctx.contains(observed) {
            return Err(AnalysisError::UnknownChain { chain: observed });
        }
        let chain_b = ctx.system().chain(observed);
        let Some(deadline) = chain_b.deadline() else {
            return Err(AnalysisError::MissingDeadline { chain: observed });
        };
        let Some(full) = latency_analysis(ctx, observed, OverloadMode::Include, options) else {
            return Ok(DmmSweep {
                ctx,
                observed,
                options,
                state: SweepState::TrivialK {
                    misses_per_window: None,
                },
            });
        };
        let activation = chain_b.activation().clone();
        let misses_per_window = full.misses_per_window(deadline, |q| activation.delta_min(q));
        if misses_per_window == 0 {
            return Ok(DmmSweep {
                ctx,
                observed,
                options,
                state: SweepState::Zero,
            });
        }
        let slack = typical_slack(ctx, observed, full.busy_window_activations);
        if slack < 0 {
            return Ok(DmmSweep {
                ctx,
                observed,
                options,
                state: SweepState::TrivialK {
                    misses_per_window: Some(misses_per_window),
                },
            });
        }
        let classified =
            classify_combinations(ctx, observed, full.busy_window_activations, slack, options)?;
        Ok(DmmSweep {
            ctx,
            observed,
            options,
            state: SweepState::Packing {
                misses_per_window,
                slack,
                worst_case_latency: full.worst_case_latency,
                classified,
            },
        })
    }

    /// Evaluates the miss model at one window length.
    ///
    /// Goes through the context's [`crate::AnalysisCache`] (when one is
    /// attached) under the same key as [`deadline_miss_model`] — the two
    /// produce identical results by construction, so sweeps and
    /// pointwise queries share entries.
    pub fn at(&self, k: u64) -> DmmResult {
        if let Some((cache, sys)) = self.ctx.memo() {
            return cache
                .dmm(sys, self.observed, k, self.options, false, || {
                    Ok(self.compute_at(k))
                })
                .expect("computation is infallible");
        }
        self.compute_at(k)
    }

    /// The uncached evaluation behind [`DmmSweep::at`].
    fn compute_at(&self, k: u64) -> DmmResult {
        match &self.state {
            SweepState::TrivialK { misses_per_window } => DmmResult {
                k,
                bound: k,
                informative: false,
                misses_per_window: misses_per_window.unwrap_or(k),
                packed_windows: 0,
                packing_exact: true,
                typical_slack: 0,
                omegas: Vec::new(),
                combinations: 0,
                unschedulable_combinations: 0,
            },
            SweepState::Zero => DmmResult {
                k,
                bound: 0,
                informative: true,
                misses_per_window: 0,
                packed_windows: 0,
                packing_exact: true,
                typical_slack: 0,
                omegas: Vec::new(),
                combinations: 0,
                unschedulable_combinations: 0,
            },
            SweepState::Packing {
                misses_per_window,
                slack,
                worst_case_latency,
                classified,
            } => {
                let omegas: Vec<(ChainId, u64)> = self
                    .ctx
                    .system()
                    .overload_chains()
                    .filter(|&a| a != self.observed)
                    .map(|a| {
                        (
                            a,
                            overload_budget(self.ctx, a, self.observed, k, *worst_case_latency),
                        )
                    })
                    .collect();
                let (packed, packing_exact) = if classified.unschedulable == 0 {
                    (0, true)
                } else {
                    let omega_of = |chain: ChainId| -> u64 {
                        omegas
                            .iter()
                            .find(|(id, _)| *id == chain)
                            .map(|&(_, w)| w)
                            .expect("every overload chain has a budget")
                    };
                    let capacities: Vec<u64> = classified
                        .segments
                        .iter()
                        .map(|s| omega_of(s.chain))
                        .collect();
                    let solution = classified
                        .items
                        .solve(capacities, self.options.packing_budget);
                    (solution.packed_total(), solution.is_exact())
                };
                DmmResult {
                    k,
                    bound: k.min(misses_per_window.saturating_mul(packed)),
                    informative: true,
                    misses_per_window: *misses_per_window,
                    packed_windows: packed,
                    packing_exact,
                    typical_slack: *slack,
                    omegas,
                    combinations: classified.combinations,
                    unschedulable_combinations: classified.unschedulable,
                }
            }
        }
    }

    /// Evaluates the sweep over a range of window lengths.
    pub fn curve(&self, ks: impl IntoIterator<Item = u64>) -> Vec<DmmResult> {
        ks.into_iter().map(|k| self.at(k)).collect()
    }

    /// Extracts a *witness* of the Theorem 3 packing at window length
    /// `k`: which unschedulable combination spoils how many busy windows
    /// in the optimal packing. Returns `None` when the bound is trivial
    /// (divergent busy window or negative typical slack) or the chain
    /// never misses — there is no packing to witness then.
    ///
    /// The witness explains the bound: `bound = min(k, N_b · Σ windows)`.
    ///
    /// Under the lazy engine, explicit witness rows are reconstructed
    /// on demand; when more than
    /// [`AnalysisOptions::max_combinations`] unschedulable combinations
    /// would have to be expanded (a regime the materialized reference
    /// cannot reach at all), the rows are truncated to the packed
    /// minimal antichain — the bound, budgets and totals stay complete.
    pub fn witness(&self, k: u64) -> Option<DmmWitness> {
        let SweepState::Packing {
            misses_per_window,
            worst_case_latency,
            classified,
            ..
        } = &self.state
        else {
            return None;
        };
        let segments = &classified.segments;
        let omegas: Vec<(ChainId, u64)> = self
            .ctx
            .system()
            .overload_chains()
            .filter(|&a| a != self.observed)
            .map(|a| {
                (
                    a,
                    overload_budget(self.ctx, a, self.observed, k, *worst_case_latency),
                )
            })
            .collect();
        let mut rows = Vec::new();
        let mut packed = 0u64;
        let mut packing_exact = true;
        if classified.unschedulable > 0 {
            let omega_of = |chain: ChainId| -> u64 {
                omegas
                    .iter()
                    .find(|(id, _)| *id == chain)
                    .map(|&(_, w)| w)
                    .expect("every overload chain has a budget")
            };
            let capacities: Vec<u64> = segments.iter().map(|s| omega_of(s.chain)).collect();
            let solution = classified
                .items
                .solve(capacities, self.options.packing_budget);
            packed = solution.packed_total();
            packing_exact = solution.is_exact();
            let row_for = |members: &[usize], windows: u64| WitnessRow {
                segments: members.iter().map(|&i| segments[i].clone()).collect(),
                wcet: members.iter().map(|&i| segments[i].wcet).sum(),
                windows,
            };
            match &classified.items {
                PackingItems::Explicit(items) => {
                    for (members, &windows) in items.iter().zip(solution.counts()) {
                        rows.push(row_for(members, windows));
                    }
                }
                PackingItems::Pruned {
                    minimal,
                    prepared,
                    slack,
                } => {
                    // Non-minimal items can never carry a positive
                    // multiplicity (the solver reduces to the antichain
                    // itself), so the explicit row list is the lazy
                    // expansion with the antichain's counts scattered
                    // onto the minimal members and zero elsewhere.
                    let by_members: std::collections::HashMap<&[usize], u64> = minimal
                        .iter()
                        .zip(solution.counts().iter().copied())
                        .collect();
                    match prepared.expand_unschedulable(*slack, self.options.max_combinations) {
                        Some(all) => {
                            for combo in &all {
                                let windows = by_members
                                    .get(combo.members.as_slice())
                                    .copied()
                                    .unwrap_or(0);
                                rows.push(row_for(&combo.members, windows));
                            }
                        }
                        None => {
                            for (members, &windows) in minimal.iter().zip(solution.counts()) {
                                rows.push(row_for(members, windows));
                            }
                        }
                    }
                }
            }
        }
        Some(DmmWitness {
            k,
            bound: k.min(misses_per_window.saturating_mul(packed)),
            misses_per_window: *misses_per_window,
            packed_windows: packed,
            packing_exact,
            omegas,
            rows,
        })
    }
}

/// One unschedulable combination in a packing witness, with the number
/// of busy windows the optimal packing spoils with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessRow {
    /// The member active segments of the combination.
    pub segments: Vec<OverloadSegment>,
    /// Total execution cost `Σ C_s` of the combination.
    pub wcet: twca_curves::Time,
    /// Multiplicity `x_c̄` in the optimal packing.
    pub windows: u64,
}

/// A packing witness for one `dmm(k)` value — see [`DmmSweep::witness`].
///
/// # Examples
///
/// ```
/// use twca_chains::{AnalysisContext, AnalysisOptions, DmmSweep};
/// use twca_model::case_study;
///
/// # fn main() -> Result<(), twca_chains::AnalysisError> {
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let sweep = DmmSweep::prepare(&ctx, c, AnalysisOptions::default())?;
/// let witness = sweep.witness(10).expect("σc has a non-trivial packing");
/// assert_eq!(witness.bound, 5);
/// // One unschedulable combination ({σa, σb} together) spoils 5 windows.
/// assert_eq!(witness.rows.iter().map(|r| r.windows).sum::<u64>(), 5);
/// println!("{}", witness.render(&system));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmmWitness {
    /// Window length.
    pub k: u64,
    /// The witnessed miss bound `min(k, N_b · packed)`.
    pub bound: u64,
    /// `N_b` (Lemma 3).
    pub misses_per_window: u64,
    /// Total packed windows `Σ x_c̄`.
    pub packed_windows: u64,
    /// Whether the packing was solved to proven optimality; when
    /// `false` (budget-exhausted adversarial instance),
    /// `packed_windows` is a sound upper bound and the row
    /// multiplicities may sum to less than it.
    pub packing_exact: bool,
    /// Budgets `Ω_a` per overload chain (Lemma 4).
    pub omegas: Vec<(ChainId, u64)>,
    /// Per-combination multiplicities.
    pub rows: Vec<WitnessRow>,
}

impl DmmWitness {
    /// Renders the witness with chain names resolved against `system`.
    pub fn render(&self, system: &twca_model::System) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "dmm({}) = {}  (N_b = {}, packed windows = {})",
            self.k, self.bound, self.misses_per_window, self.packed_windows
        );
        for (chain, omega) in &self.omegas {
            let _ = writeln!(out, "  Ω[{}] = {}", system.chain(*chain).name(), omega);
        }
        for row in &self.rows {
            let members: Vec<String> = row
                .segments
                .iter()
                .map(|s| format!("{}#{}", system.chain(s.chain).name(), s.active_index))
                .collect();
            let _ = writeln!(
                out,
                "  {{{}}} (C = {}) spoils {} window(s)",
                members.join(", "),
                row.wcet,
                row.windows
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::{case_study, SystemBuilder};

    fn case_ctx(s: &twca_model::System) -> (AnalysisContext<'_>, ChainId, ChainId) {
        let ctx = AnalysisContext::new(s);
        let c = s.chain_by_name("sigma_c").unwrap().0;
        let d = s.chain_by_name("sigma_d").unwrap().0;
        (ctx, c, d)
    }

    #[test]
    fn sigma_d_never_misses() {
        let s = case_study();
        let (ctx, _, d) = case_ctx(&s);
        let dmm = deadline_miss_model(&ctx, d, 10, AnalysisOptions::default()).unwrap();
        assert_eq!(dmm.bound, 0);
        assert!(dmm.informative);
        assert_eq!(dmm.misses_per_window, 0);
    }

    #[test]
    fn sigma_c_small_k_is_capped_at_k() {
        // Table II: dmm_c(3) = 3 (the k-cap binds: N_c·packing = 1·3 = 3).
        let s = case_study();
        let (ctx, c, _) = case_ctx(&s);
        let dmm = deadline_miss_model(&ctx, c, 3, AnalysisOptions::default()).unwrap();
        assert_eq!(dmm.bound, 3);
        assert_eq!(dmm.misses_per_window, 1);
        assert_eq!(dmm.typical_slack, 34);
        assert_eq!(dmm.combinations, 3);
        assert_eq!(dmm.unschedulable_combinations, 1);
        assert_eq!(dmm.packed_windows, 3); // min(Ω_a, Ω_b) = 3
    }

    #[test]
    fn sigma_c_larger_k_follows_formulas() {
        // At k = 76 the published table says 4, which is not derivable
        // from Lemma 4 as printed (see DESIGN.md / EXPERIMENTS.md): the
        // budgets are Ω_a = 23, Ω_b = 27, so the packing places 23
        // windows and the bound is min(76, 1·23) = 23.
        let s = case_study();
        let (ctx, c, _) = case_ctx(&s);
        let dmm = deadline_miss_model(&ctx, c, 76, AnalysisOptions::default()).unwrap();
        assert_eq!(dmm.omegas.len(), 2);
        let omega_values: Vec<u64> = dmm.omegas.iter().map(|&(_, w)| w).collect();
        assert!(omega_values.contains(&23) && omega_values.contains(&27));
        assert_eq!(dmm.packed_windows, 23);
        assert_eq!(dmm.bound, 23);
    }

    #[test]
    fn dmm_is_monotone_in_k() {
        let s = case_study();
        let (ctx, c, _) = case_ctx(&s);
        let opts = AnalysisOptions::default();
        let mut previous = 0;
        for k in [1, 2, 3, 5, 10, 20, 50, 76, 120, 250] {
            let dmm = deadline_miss_model(&ctx, c, k, opts).unwrap();
            assert!(dmm.bound >= previous, "k={k}");
            assert!(dmm.bound <= k, "k={k}");
            previous = dmm.bound;
        }
    }

    #[test]
    fn missing_deadline_is_an_error() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (a, _) = s.chain_by_name("sigma_a").unwrap();
        assert_eq!(
            deadline_miss_model(&ctx, a, 3, AnalysisOptions::default()).unwrap_err(),
            AnalysisError::MissingDeadline { chain: a }
        );
    }

    #[test]
    fn typically_unschedulable_chain_gets_trivial_bound() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(100)
            .unwrap()
            .deadline(10)
            .task("x1", 1, 50)
            .done()
            .chain("o")
            .sporadic(10_000)
            .unwrap()
            .overload()
            .task("o1", 2, 5)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let x = twca_model::ChainId::from_index(0);
        let dmm = deadline_miss_model(&ctx, x, 9, AnalysisOptions::default()).unwrap();
        assert_eq!(dmm.bound, 9);
        assert!(!dmm.informative);
    }

    #[test]
    fn divergent_chain_gets_trivial_bound() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .deadline(10)
            .task("x1", 1, 6)
            .done()
            .chain("y")
            .periodic(10)
            .unwrap()
            .task("y1", 2, 6)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let opts = AnalysisOptions {
            horizon: 50_000,
            ..AnalysisOptions::default()
        };
        let dmm = deadline_miss_model(&ctx, twca_model::ChainId::from_index(0), 5, opts).unwrap();
        assert_eq!(dmm.bound, 5);
        assert!(!dmm.informative);
    }

    #[test]
    fn exact_dmm_never_exceeds_sufficient_dmm() {
        let s = case_study();
        let (ctx, c, d) = case_ctx(&s);
        let opts = AnalysisOptions::default();
        for chain in [c, d] {
            for k in [1u64, 3, 10, 76] {
                let plain = deadline_miss_model(&ctx, chain, k, opts).unwrap();
                let exact = deadline_miss_model_exact(&ctx, chain, k, opts).unwrap();
                assert!(exact.bound <= plain.bound, "chain {chain} k={k}");
                assert!(exact.unschedulable_combinations <= plain.unschedulable_combinations);
            }
        }
    }

    #[test]
    fn exact_dmm_is_strictly_tighter_on_borderline_systems() {
        // Victim x (C=10, P=D=100), interferer y (C=30, P=90), overloads
        // o1 (31) and o2 (40). Slack is 30, so Eq. 5 flags all three
        // combinations; Eq. 3 shows the singletons close their busy
        // window before y's second arrival and only {o1, o2} truly
        // overruns — a strictly smaller packing.
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
            .chain("o1")
            .sporadic(10_000)
            .unwrap()
            .overload()
            .task("o1_t", 9, 31)
            .done()
            .chain("o2")
            .sporadic(10_000)
            .unwrap()
            .overload()
            .task("o2_t", 8, 40)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let x = ChainId::from_index(0);
        let opts = AnalysisOptions::default();
        let plain = deadline_miss_model(&ctx, x, 10, opts).unwrap();
        let exact = deadline_miss_model_exact(&ctx, x, 10, opts).unwrap();
        assert_eq!(plain.unschedulable_combinations, 3);
        assert_eq!(exact.unschedulable_combinations, 1);
        assert!(plain.bound > 0);
        assert!(
            exact.bound < plain.bound,
            "exact {} should beat sufficient {}",
            exact.bound,
            plain.bound
        );
    }

    #[test]
    fn sweep_matches_pointwise_dmm() {
        let s = case_study();
        let (ctx, c, d) = case_ctx(&s);
        let opts = AnalysisOptions::default();
        for chain in [c, d] {
            let sweep = DmmSweep::prepare(&ctx, chain, opts).unwrap();
            for k in [1u64, 2, 3, 7, 10, 25, 76, 250] {
                let direct = deadline_miss_model(&ctx, chain, k, opts).unwrap();
                let swept = sweep.at(k);
                assert_eq!(swept, direct, "chain {chain} k={k}");
            }
        }
    }

    #[test]
    fn sweep_curve_is_monotone() {
        let s = case_study();
        let (ctx, c, _) = case_ctx(&s);
        let sweep = DmmSweep::prepare(&ctx, c, AnalysisOptions::default()).unwrap();
        let curve = sweep.curve(1..=120);
        for pair in curve.windows(2) {
            assert!(pair[0].bound <= pair[1].bound);
        }
    }

    #[test]
    fn sweep_trivial_states() {
        // Divergent chain.
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .deadline(10)
            .task("x1", 1, 6)
            .done()
            .chain("y")
            .periodic(10)
            .unwrap()
            .task("y1", 2, 6)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let opts = AnalysisOptions {
            horizon: 50_000,
            ..AnalysisOptions::default()
        };
        let sweep = DmmSweep::prepare(&ctx, ChainId::from_index(0), opts).unwrap();
        assert_eq!(sweep.at(9).bound, 9);
        assert!(!sweep.at(9).informative);
    }

    /// A deferred overload chain with two segments: Definition 9 forbids
    /// combining active segments across segments, so the only items are
    /// the two singletons.
    #[test]
    fn deferred_overload_respects_segment_constraint() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(100)
            .unwrap()
            .deadline(100)
            .task("x1", 5, 30)
            .task("x2", 2, 30)
            .done()
            .chain("o")
            .sporadic(5_000)
            .unwrap()
            .overload()
            .task("o1", 9, 25)
            .task("o2", 1, 1) // below min(x): splits the chain
            .task("o3", 8, 25)
            .task("o4", 1, 1) // low tail prevents the modulo wrap-around
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let x = ChainId::from_index(0);
        let set =
            crate::combinations::CombinationSet::enumerate(&ctx, x, AnalysisOptions::default())
                .unwrap();
        assert_eq!(set.segments().len(), 2);
        // Only singletons: {o1}, {o3} — never {o1, o3}.
        assert_eq!(set.combinations().len(), 2);
        assert!(set.combinations().iter().all(|c| c.members.len() == 1));

        // Slack: typical load L(1) = 60 → slack 40; wait: the deferred
        // overload contributes only per combination. Each segment costs
        // 25 ≤ 40 → no unschedulable combination → dmm 0. Shrink the
        // deadline to 80: slack 20 < 25 → both singletons unschedulable.
        let tight = s.with_deadline(x, Some(80));
        let tight_ctx = AnalysisContext::new(&tight);
        let dmm = deadline_miss_model(&tight_ctx, x, 10, AnalysisOptions::default()).unwrap();
        assert_eq!(dmm.unschedulable_combinations, 2);
        // One overload activation spans two busy windows (one per
        // segment), each spoiling at most N_b misses.
        assert!(dmm.bound > 0);
        assert!(dmm.informative);
    }

    /// Asynchronous observed chain: the self-interference term enters
    /// both the busy time and the typical load; the DMM machinery must
    /// still converge and stay monotone.
    #[test]
    fn asynchronous_observed_chain_dmm() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(100)
            .unwrap()
            .deadline(150)
            .kind(twca_model::ChainKind::Asynchronous)
            .task("x1", 5, 20)
            .task("x2", 1, 40)
            .done()
            .chain("o")
            .sporadic(2_000)
            .unwrap()
            .overload()
            .task("o1", 9, 50)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let x = ChainId::from_index(0);
        let opts = AnalysisOptions::default();
        let mut previous = 0;
        for k in [1u64, 5, 10, 30] {
            let dmm = deadline_miss_model(&ctx, x, k, opts).unwrap();
            assert!(dmm.bound >= previous);
            assert!(dmm.bound <= k);
            previous = dmm.bound;
        }
    }

    #[test]
    fn item_caps_tighten_the_packing() {
        let s = case_study();
        let (ctx, c, _) = case_ctx(&s);
        let cap_one = |_c: &Combination, _s: &[OverloadSegment]| Some(1u64);
        let dmm =
            deadline_miss_model_with_caps(&ctx, c, 76, AnalysisOptions::default(), Some(&cap_one))
                .unwrap();
        assert_eq!(dmm.packed_windows, 1);
        assert_eq!(dmm.bound, 1);
    }

    #[test]
    fn witness_explains_the_bound() {
        let s = case_study();
        let (ctx, c, _) = case_ctx(&s);
        let opts = AnalysisOptions::default();
        let sweep = DmmSweep::prepare(&ctx, c, opts).unwrap();
        for k in [3u64, 10, 76] {
            let witness = sweep.witness(k).expect("non-trivial packing");
            let result = sweep.at(k);
            assert_eq!(witness.bound, result.bound);
            assert_eq!(witness.packed_windows, result.packed_windows);
            assert_eq!(witness.misses_per_window, result.misses_per_window);
            // Multiplicities sum to the packed total.
            let total: u64 = witness.rows.iter().map(|r| r.windows).sum();
            assert_eq!(total, witness.packed_windows);
            // The single unschedulable combination is {σa, σb}: two
            // segments, cost 20 + 30.
            assert_eq!(witness.rows.len(), 1);
            assert_eq!(witness.rows[0].segments.len(), 2);
            assert_eq!(witness.rows[0].wcet, 50);
            // Packing respects each chain's Ω budget.
            for (chain, omega) in &witness.omegas {
                let used: u64 = witness
                    .rows
                    .iter()
                    .filter(|r| r.segments.iter().any(|seg| seg.chain == *chain))
                    .map(|r| r.windows)
                    .sum();
                assert!(used <= *omega, "Ω budget exceeded");
            }
        }
    }

    #[test]
    fn witness_renders_with_chain_names() {
        let s = case_study();
        let (ctx, c, _) = case_ctx(&s);
        let sweep = DmmSweep::prepare(&ctx, c, AnalysisOptions::default()).unwrap();
        let text = sweep.witness(10).unwrap().render(&s);
        assert!(text.contains("dmm(10) = 5"));
        assert!(text.contains("Ω[sigma_a]"));
        assert!(text.contains("sigma_b#0"));
        assert!(text.contains("spoils 5 window(s)"));
    }

    #[test]
    fn schedulable_chain_has_no_witness() {
        let s = case_study();
        let (ctx, _, d) = case_ctx(&s);
        let sweep = DmmSweep::prepare(&ctx, d, AnalysisOptions::default()).unwrap();
        assert!(sweep.witness(10).is_none());
    }

    /// The borderline system of
    /// [`exact_dmm_is_strictly_tighter_on_borderline_systems`].
    fn borderline_system() -> twca_model::System {
        SystemBuilder::new()
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
            .chain("o1")
            .sporadic(10_000)
            .unwrap()
            .overload()
            .task("o1_t", 9, 31)
            .done()
            .chain("o2")
            .sporadic(10_000)
            .unwrap()
            .overload()
            .task("o2_t", 8, 40)
            .done()
            .build()
            .unwrap()
    }

    /// The lazy engine must reproduce the materialized reference
    /// bit-for-bit: pointwise dmm, sweeps, witnesses, the exact
    /// variant, and the capped (refinement) entry point.
    #[test]
    fn lazy_and_materialized_pipelines_agree_bit_for_bit() {
        let systems = [case_study(), borderline_system()];
        for s in &systems {
            let ctx = AnalysisContext::new(s);
            let mat = Reference::MaterializedEngine.context(s);
            let opts = AnalysisOptions::default();
            for (id, chain) in s.iter() {
                if chain.deadline().is_none() {
                    continue;
                }
                let sweep_lazy = DmmSweep::prepare(&ctx, id, opts).unwrap();
                let sweep_ref = DmmSweep::prepare(&mat, id, opts).unwrap();
                for k in [1u64, 2, 3, 7, 10, 76, 250] {
                    assert_eq!(
                        deadline_miss_model(&ctx, id, k, opts).unwrap(),
                        deadline_miss_model(&mat, id, k, opts).unwrap(),
                        "dmm({k})"
                    );
                    assert_eq!(sweep_lazy.at(k), sweep_ref.at(k), "sweep({k})");
                    assert_eq!(sweep_lazy.witness(k), sweep_ref.witness(k), "witness({k})");
                    assert_eq!(
                        deadline_miss_model_exact(&ctx, id, k, opts).unwrap(),
                        deadline_miss_model_exact(&mat, id, k, opts).unwrap(),
                        "exact dmm({k})"
                    );
                    let cap_one = |_c: &Combination, _s: &[OverloadSegment]| Some(1u64);
                    assert_eq!(
                        deadline_miss_model_with_caps(&ctx, id, k, opts, Some(&cap_one)).unwrap(),
                        deadline_miss_model_with_caps(&mat, id, k, opts, Some(&cap_one)).unwrap(),
                        "capped dmm({k})"
                    );
                }
            }
        }
    }

    /// Implicit products beyond `max_combinations` were a hard error;
    /// the lazy engine analyzes them (and its bound matches the
    /// reference run under a raised explicit limit).
    #[test]
    fn lazy_dmm_analyzes_beyond_the_explicit_combination_bound() {
        let mut builder = SystemBuilder::new()
            .chain("victim")
            .periodic(10_000)
            .unwrap()
            .deadline(300)
            .task("v_min", 1, 100)
            .task("v_tail", 50, 100)
            .done();
        for o in 0..6 {
            builder = builder
                .chain(format!("over_{o}"))
                .sporadic(500_000)
                .unwrap()
                .overload()
                .task(format!("o{o}_a"), 100, 40)
                .task(format!("o{o}_x"), 2, 1)
                .task(format!("o{o}_b"), 101, 40)
                .task(format!("o{o}_y"), 2, 1)
                .task(format!("o{o}_c"), 102, 40)
                .done();
        }
        let s = builder.build().unwrap();
        let ctx = AnalysisContext::new(&s);
        let mat = Reference::MaterializedEngine.context(&s);
        let victim = ChainId::from_index(0);
        let tight = AnalysisOptions {
            max_combinations: 1_000,
            ..AnalysisOptions::default()
        };
        assert_eq!(
            deadline_miss_model(&mat, victim, 10, tight).unwrap_err(),
            AnalysisError::TooManyCombinations { limit: 1_000 }
        );
        let lazy = deadline_miss_model(&ctx, victim, 10, tight).unwrap();
        let reference = deadline_miss_model(&mat, victim, 10, AnalysisOptions::default()).unwrap();
        assert_eq!(lazy, reference);
        assert!(lazy.combinations > 100_000);
    }
}
