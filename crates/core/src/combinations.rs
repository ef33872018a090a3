//! Combinations of active segments (Definition 9 of the paper).
//!
//! A combination is a set of active segments of overload chains w.r.t.
//! the observed chain, with the restriction that two active segments of
//! the *same* chain may only appear together when they belong to the same
//! segment (otherwise they provably cannot execute in one busy window,
//! Lemma 1).
//!
//! Two engines classify the combination space against the Equation 5
//! slack test:
//!
//! * [`CombinationSet::enumerate`] **materializes** the full Cartesian
//!   product — the original reference pipeline, bounded by
//!   [`AnalysisOptions::max_combinations`];
//! * [`PreparedCombinations`] enumerates only the **per-chain options**
//!   (one flat arena per overload chain) and then *streams* the product:
//!   unschedulable combinations are counted with branch-and-bound
//!   cutoffs and closed-form subtree counts, and the Theorem 3 packing
//!   receives the inclusion-minimal antichain of unschedulable member
//!   sets instead of exploded members. Since segment costs are
//!   non-negative, unschedulability under the slack test is
//!   upward-closed, which makes both the antichain reduction and the
//!   subtree cutoffs exact rather than approximate.
//!
//! The two engines are bit-identical on every instance the materialized
//! one can handle (enforced by the `twca-verify` lazy-agreement oracle);
//! the lazy engine additionally analyzes instances whose implicit
//! product exceeds `max_combinations`.

use crate::config::AnalysisOptions;
use crate::context::AnalysisContext;
use crate::error::AnalysisError;
use twca_curves::{EventModel, Time};
use twca_model::ChainId;

/// One active segment of an overload chain w.r.t. the observed chain,
/// with its cost and packing metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadSegment {
    /// The overload chain owning the segment.
    pub chain: ChainId,
    /// Index of the active segment within
    /// [`twca_model::SegmentView::active_segments`].
    pub active_index: usize,
    /// Index of the parent segment within
    /// [`twca_model::SegmentView::segments`].
    pub parent_segment: usize,
    /// Total execution time of the active segment.
    pub wcet: Time,
}

/// One combination `c̄`: indices into [`CombinationSet::segments`] plus
/// the combination's total execution cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Combination {
    /// Indices of the member active segments (global, see
    /// [`CombinationSet::segments`]).
    pub members: Vec<usize>,
    /// `Σ_{s ∈ c̄} C_s`.
    pub wcet: Time,
}

/// All valid combinations of overload active segments w.r.t. one observed
/// chain.
///
/// # Examples
///
/// Experiment 1 of the paper: σa and σb contribute one active segment
/// each, giving three combinations `{a}`, `{b}`, `{a, b}`.
///
/// ```
/// use twca_chains::{AnalysisContext, AnalysisOptions, CombinationSet};
/// use twca_model::case_study;
///
/// # fn main() -> Result<(), twca_chains::AnalysisError> {
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let set = CombinationSet::enumerate(&ctx, c, AnalysisOptions::default())?;
/// assert_eq!(set.segments().len(), 2);
/// assert_eq!(set.combinations().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinationSet {
    segments: Vec<OverloadSegment>,
    combinations: Vec<Combination>,
}

impl CombinationSet {
    /// Enumerates every combination of active segments of the system's
    /// overload chains w.r.t. `observed` (Definition 9).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::TooManyCombinations`] if the enumeration
    /// would exceed `options.max_combinations`.
    ///
    /// # Panics
    ///
    /// Panics if `observed` is out of range.
    pub fn enumerate(
        ctx: &AnalysisContext<'_>,
        observed: ChainId,
        options: AnalysisOptions,
    ) -> Result<Self, AnalysisError> {
        let (segments, per_chain_groups) = collect_overload_structure(ctx, observed);

        // Per-chain options: "absent", or any non-empty subset of the
        // active segments of one parent segment. The count is checked
        // *before* the subset masks are walked: a parent segment with
        // ≥ `usize::BITS` active segments used to overflow `1 << g`
        // (silently wrapping in release builds and dropping whole
        // option groups — an unsound undercount); any such group now
        // fails the same `TooManyCombinations` gate the product check
        // below would have reported, since the product is at least the
        // per-chain option count.
        let mut per_chain_options: Vec<Vec<Vec<usize>>> = Vec::new();
        for groups in &per_chain_groups {
            chain_option_count(groups, options.max_combinations)?;
            let mut options_for_chain: Vec<Vec<usize>> = vec![Vec::new()]; // absent
            for group in groups {
                let g = group.len();
                for mask in 1usize..(1 << g) {
                    let subset: Vec<usize> = (0..g)
                        .filter(|&b| mask & (1 << b) != 0)
                        .map(|b| group[b])
                        .collect();
                    options_for_chain.push(subset);
                }
            }
            per_chain_options.push(options_for_chain);
        }

        // Check the product size before materializing.
        let mut product: usize = 1;
        for o in &per_chain_options {
            product = product.saturating_mul(o.len());
            if product > options.max_combinations {
                return Err(AnalysisError::TooManyCombinations {
                    limit: options.max_combinations,
                });
            }
        }

        // Cartesian product, skipping the all-absent choice.
        let mut combinations: Vec<Combination> = Vec::new();
        let mut cursor = vec![0usize; per_chain_options.len()];
        loop {
            let mut members: Vec<usize> = Vec::new();
            for (chain_idx, &opt) in cursor.iter().enumerate() {
                members.extend_from_slice(&per_chain_options[chain_idx][opt]);
            }
            if !members.is_empty() {
                let wcet = members.iter().map(|&m| segments[m].wcet).sum();
                combinations.push(Combination { members, wcet });
            }
            // Advance the mixed-radix cursor.
            let mut done = true;
            for (pos, c) in cursor.iter_mut().enumerate() {
                *c += 1;
                if *c < per_chain_options[pos].len() {
                    done = false;
                    break;
                }
                *c = 0;
            }
            if done {
                break;
            }
        }

        Ok(CombinationSet {
            segments,
            combinations,
        })
    }

    /// The global list of overload active segments (the packing
    /// resources).
    pub fn segments(&self) -> &[OverloadSegment] {
        &self.segments
    }

    /// All valid combinations (Definition 9), each a non-empty set of
    /// segment ids.
    pub fn combinations(&self) -> &[Combination] {
        &self.combinations
    }

    /// The combinations whose total cost exceeds `slack` — the
    /// unschedulable set `U` per Equation 5, costing every segment
    /// once (the paper's rare-overload reading; see
    /// [`CombinationSet::window_multipliers`]).
    pub fn unschedulable(&self, slack: i128) -> impl Iterator<Item = &Combination> {
        self.combinations
            .iter()
            .filter(move |c| c.wcet as i128 > slack)
    }

    /// Per-segment **window multipliers**: for each active segment, the
    /// largest number of activations of its overload chain that can
    /// fall within the observed chain's deadline horizon
    /// `δ−_b(k_b) + D_b` (at least 1).
    ///
    /// Equation 5 costs each active segment once, which is exact only
    /// under the paper's *rare overload* premise — at most one
    /// activation of an overload chain per deadline horizon, always
    /// true for its case study. A generated system can violate the
    /// premise (e.g. a sporadic overload with a minimum distance far
    /// below the victim's deadline); the real interference of a
    /// combination is then `η+_a(horizon)` copies of its segments, and
    /// costing them once lets the slack test declare truly
    /// unschedulable combinations schedulable — an *undercounting* miss
    /// model, caught by the `twca-verify` simulation-soundness oracle.
    /// Scaling every member segment by its multiplier restores
    /// soundness and degenerates to the paper's exact costing (all
    /// multipliers 1) on its intended domain.
    ///
    /// # Panics
    ///
    /// Panics if `observed` has no deadline or `k_b == 0`.
    pub fn window_multipliers(
        &self,
        ctx: &AnalysisContext<'_>,
        observed: ChainId,
        k_b: u64,
    ) -> Vec<u64> {
        window_multipliers_for(ctx, observed, k_b, &self.segments)
    }

    /// The effective (soundly scaled) execution cost of a combination:
    /// `Σ_{s ∈ c̄} multiplier_s · C_s`, saturating.
    pub fn effective_cost(&self, combination: &Combination, multipliers: &[u64]) -> Time {
        combination
            .members
            .iter()
            .map(|&i| multipliers[i].saturating_mul(self.segments[i].wcet))
            .fold(0u64, Time::saturating_add)
    }

    /// The unschedulable set `U` under the soundly scaled costs:
    /// combinations whose [`CombinationSet::effective_cost`] exceeds
    /// `slack`.
    pub fn unschedulable_scaled<'m>(
        &'m self,
        slack: i128,
        multipliers: &'m [u64],
    ) -> impl Iterator<Item = &'m Combination> {
        self.combinations
            .iter()
            .filter(move |c| self.effective_cost(c, multipliers) as i128 > slack)
    }
}

/// Collects the active segments of every overload chain w.r.t.
/// `observed`, grouped by chain and parent segment — the shared front
/// end of both combination engines.
fn collect_overload_structure(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
) -> (Vec<OverloadSegment>, Vec<Vec<Vec<usize>>>) {
    let system = ctx.system();
    let mut segments: Vec<OverloadSegment> = Vec::new();
    // Per chain: per parent segment: global segment ids.
    let mut per_chain_groups: Vec<Vec<Vec<usize>>> = Vec::new();
    for a in system.overload_chains() {
        if a == observed {
            continue;
        }
        let chain_a = system.chain(a);
        let view = ctx.view(a, observed);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); view.segments().len()];
        for (idx, active) in view.active_segments().iter().enumerate() {
            let id = segments.len();
            segments.push(OverloadSegment {
                chain: a,
                active_index: idx,
                parent_segment: active.segment_index(),
                wcet: active.wcet(chain_a),
            });
            groups[active.segment_index()].push(id);
        }
        groups.retain(|g| !g.is_empty());
        if !groups.is_empty() {
            per_chain_groups.push(groups);
        }
    }
    (segments, per_chain_groups)
}

/// Number of per-chain options (`absent` plus every non-empty subset of
/// one parent-segment group), computed in `u128` so parent segments
/// with ≥ 64 active segments cannot overflow the shift.
///
/// # Errors
///
/// [`AnalysisError::TooManyCombinations`] when the count exceeds
/// `limit` — the full product is at least this count, so the
/// materialized engine would report the same error at its product gate.
fn chain_option_count(groups: &[Vec<usize>], limit: usize) -> Result<usize, AnalysisError> {
    let too_many = AnalysisError::TooManyCombinations { limit };
    let mut count: u128 = 1; // absent
    for group in groups {
        let g = u32::try_from(group.len()).map_err(|_| too_many.clone())?;
        let subsets = 1u128.checked_shl(g).ok_or_else(|| too_many.clone())? - 1;
        count += subsets;
        if count > limit as u128 {
            return Err(too_many);
        }
    }
    Ok(count as usize)
}

/// Per-segment window multipliers; see
/// [`CombinationSet::window_multipliers`] for the semantics.
pub(crate) fn window_multipliers_for(
    ctx: &AnalysisContext<'_>,
    observed: ChainId,
    k_b: u64,
    segments: &[OverloadSegment],
) -> Vec<u64> {
    assert!(k_b > 0, "multipliers are defined over at least one window");
    let chain_b = ctx.system().chain(observed);
    let deadline = chain_b
        .deadline()
        .expect("window multipliers need a deadline horizon");
    let horizon = chain_b.activation().delta_min(k_b).saturating_add(deadline);
    segments
        .iter()
        .map(|s| {
            ctx.system()
                .chain(s.chain)
                .activation()
                .eta_plus(horizon)
                .max(1)
        })
        .collect()
}

/// A flat arena of packing-item member lists — the **grouped-item
/// interface** between the combination engines and the Theorem 3
/// packing layer: one shared index buffer plus offsets instead of one
/// heap `Vec` per item.
///
/// Feed it to `twca_ilp::PackingProblem::from_arena` without exploding
/// it back into per-item vectors.
///
/// # Examples
///
/// ```
/// use twca_chains::ItemArena;
///
/// let mut arena = ItemArena::new();
/// arena.push_item(&[0, 2]);
/// arena.push_item(&[1]);
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.item(0), &[0, 2]);
/// assert_eq!(arena.iter().count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ItemArena {
    /// `members[offsets[i]..offsets[i + 1]]` are item `i`'s resource
    /// indices.
    offsets: Vec<usize>,
    members: Vec<usize>,
}

impl ItemArena {
    /// An empty arena.
    pub fn new() -> ItemArena {
        ItemArena {
            offsets: vec![0],
            members: Vec::new(),
        }
    }

    /// Appends one item given its member resource indices.
    pub fn push_item(&mut self, members: &[usize]) {
        self.members.extend_from_slice(members);
        self.offsets.push(self.members.len());
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The member indices of item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn item(&self, i: usize) -> &[usize] {
        &self.members[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates the items as member slices.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.offsets.windows(2).map(|w| &self.members[w[0]..w[1]])
    }

    /// The raw offset table (`len() + 1` entries, starting at zero).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw shared member buffer.
    pub fn members(&self) -> &[usize] {
        &self.members
    }
}

impl FromIterator<Vec<usize>> for ItemArena {
    fn from_iter<T: IntoIterator<Item = Vec<usize>>>(iter: T) -> Self {
        let mut arena = ItemArena::new();
        for item in iter {
            arena.push_item(&item);
        }
        arena
    }
}

/// One overload chain's option table in the lazy engine: the `absent`
/// choice plus every non-empty subset of one parent-segment group,
/// stored in a flat arena in **enumeration order** (the exact order the
/// materialized engine lists them in).
#[derive(Debug, Clone)]
struct ChainOptions {
    /// Flat arena of option members (global segment ids).
    arena: Vec<u32>,
    /// `arena[offsets[o]..offsets[o + 1]]` are option `o`'s members;
    /// option `0` is the empty `absent` choice.
    offsets: Vec<usize>,
    /// Scaled (soundly multiplied) execution cost per option.
    costs: Vec<u64>,
    /// Minimum scaled member cost per option (`u64::MAX` for absent).
    min_member: Vec<u64>,
    /// Option indices sorted by ascending cost (ties by index) — the
    /// walk order of the branch-and-bound counters.
    by_cost: Vec<u32>,
    /// Largest option cost.
    max_cost: u64,
}

impl ChainOptions {
    fn len(&self) -> usize {
        self.costs.len()
    }
}

/// The **lazy, dominance-pruned combination engine**: per-chain options
/// enumerated once into flat arenas, the Definition 9 product streamed
/// on demand.
///
/// Built once per `(system, observed chain)` by
/// [`PreparedCombinations::prepare`] with the per-segment window
/// multipliers baked into the option costs, it answers the three
/// questions the Theorem 3 pipeline needs without materializing the
/// product:
///
/// * [`PreparedCombinations::count_unschedulable`] — how many
///   combinations fail the Equation 5 slack test (branch-and-bound with
///   closed-form counts for subtrees that are entirely above or
///   entirely below the slack);
/// * [`PreparedCombinations::minimal_unschedulable`] — the
///   inclusion-minimal antichain of unschedulable member sets, which is
///   all the packing solver needs on an upward-closed family;
/// * [`PreparedCombinations::expand_unschedulable`] — the explicit
///   unschedulable members in enumeration order, for the witness path
///   and the bit-compatibility tier.
///
/// # Examples
///
/// ```
/// use twca_chains::{typical_slack, AnalysisContext, AnalysisOptions, PreparedCombinations};
/// use twca_model::case_study;
///
/// # fn main() -> Result<(), twca_chains::AnalysisError> {
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let prepared = PreparedCombinations::prepare(&ctx, c, 2, AnalysisOptions::default())?;
/// let slack = typical_slack(&ctx, c, 2);
/// assert_eq!(prepared.total_combinations(), 3); // {a}, {b}, {a, b}
/// assert_eq!(prepared.count_unschedulable(slack), 1); // only {a, b}
/// let minimal = prepared.minimal_unschedulable(slack);
/// assert_eq!(minimal.len(), 1);
/// assert_eq!(minimal.item(0), &[0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedCombinations {
    segments: Vec<OverloadSegment>,
    multipliers: Vec<u64>,
    chains: Vec<ChainOptions>,
    /// Mixed-radix digit weight of each chain in the enumeration rank
    /// (chain 0 varies fastest, exactly like the materialized cursor).
    weights: Vec<u128>,
    /// Saturating product of option counts (including the all-absent
    /// choice).
    product: u128,
    /// `suffix_max[i]`: saturating sum of the maximum option costs of
    /// chains `i..` (zero at `i = chains.len()`).
    suffix_max: Vec<u64>,
    /// `prefix_max[i]`: saturating sum of the maximum option costs of
    /// chains `..i`.
    prefix_max: Vec<u64>,
    /// `suffix_product[i]`: saturating product of the option counts of
    /// chains `i..` (one at `i = chains.len()`).
    suffix_product: Vec<u128>,
}

impl PreparedCombinations {
    /// Builds the engine for `observed`: collects overload active
    /// segments, enumerates the per-chain options into flat arenas and
    /// bakes the window multipliers for the busy-window length `k_b`
    /// into the option costs.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::TooManyCombinations`] when one chain's explicit
    /// option table alone would exceed `options.max_combinations` (the
    /// implicit cross product is *not* bounded — that is the point of
    /// the lazy engine).
    ///
    /// # Panics
    ///
    /// Panics if `observed` is out of range, has no deadline, or
    /// `k_b == 0`.
    pub fn prepare(
        ctx: &AnalysisContext<'_>,
        observed: ChainId,
        k_b: u64,
        options: AnalysisOptions,
    ) -> Result<Self, AnalysisError> {
        let (segments, per_chain_groups) = collect_overload_structure(ctx, observed);
        let multipliers = window_multipliers_for(ctx, observed, k_b, &segments);
        let scaled = |id: usize| multipliers[id].saturating_mul(segments[id].wcet);

        let mut chains: Vec<ChainOptions> = Vec::with_capacity(per_chain_groups.len());
        for groups in &per_chain_groups {
            let count = chain_option_count(groups, options.max_combinations)?;
            let mut table = ChainOptions {
                arena: Vec::new(),
                offsets: Vec::with_capacity(count + 1),
                costs: Vec::with_capacity(count),
                min_member: Vec::with_capacity(count),
                by_cost: Vec::new(),
                max_cost: 0,
            };
            // Option 0: absent.
            table.offsets.push(0);
            table.offsets.push(0);
            table.costs.push(0);
            table.min_member.push(u64::MAX);
            for group in groups {
                let g = group.len();
                for mask in 1usize..(1 << g) {
                    let mut cost = 0u64;
                    let mut min_member = u64::MAX;
                    for (b, &id) in group.iter().enumerate() {
                        if mask & (1 << b) != 0 {
                            table.arena.push(id as u32);
                            let c = scaled(id);
                            cost = cost.saturating_add(c);
                            min_member = min_member.min(c);
                        }
                    }
                    table.offsets.push(table.arena.len());
                    table.costs.push(cost);
                    table.min_member.push(min_member);
                }
            }
            table.max_cost = table.costs.iter().copied().max().unwrap_or(0);
            let mut by_cost: Vec<u32> = (0..table.len() as u32).collect();
            by_cost.sort_by_key(|&o| (table.costs[o as usize], o));
            table.by_cost = by_cost;
            chains.push(table);
        }

        let m = chains.len();
        let mut weights = Vec::with_capacity(m);
        let mut product: u128 = 1;
        for chain in &chains {
            weights.push(product);
            product = product.saturating_mul(chain.len() as u128);
        }
        let mut suffix_max = vec![0u64; m + 1];
        let mut suffix_product = vec![1u128; m + 1];
        for i in (0..m).rev() {
            suffix_max[i] = suffix_max[i + 1].saturating_add(chains[i].max_cost);
            suffix_product[i] = suffix_product[i + 1].saturating_mul(chains[i].len() as u128);
        }
        let mut prefix_max = vec![0u64; m + 1];
        for i in 0..m {
            prefix_max[i + 1] = prefix_max[i].saturating_add(chains[i].max_cost);
        }

        Ok(PreparedCombinations {
            segments,
            multipliers,
            chains,
            weights,
            product,
            suffix_max,
            prefix_max,
            suffix_product,
        })
    }

    /// The global list of overload active segments (the packing
    /// resources), identical to [`CombinationSet::segments`].
    pub fn segments(&self) -> &[OverloadSegment] {
        &self.segments
    }

    /// The per-segment window multipliers baked into the option costs
    /// (see [`CombinationSet::window_multipliers`]).
    pub fn multipliers(&self) -> &[u64] {
        &self.multipliers
    }

    /// Total number of valid combinations (the implicit Definition 9
    /// product minus the all-absent choice), saturating at `u128::MAX`.
    pub fn total_combinations(&self) -> u128 {
        self.product - 1
    }

    /// Largest possible combination cost (saturating).
    pub fn max_total_cost(&self) -> u64 {
        self.suffix_max[0]
    }

    /// Counts the combinations whose scaled cost exceeds `slack` —
    /// `|U|` of Equation 5 — without materializing any of them.
    ///
    /// Branch-and-bound over the per-chain options sorted by cost: a
    /// partial assignment already above the slack counts its whole
    /// subtree in closed form (costs are non-negative, so every
    /// completion stays above); a partial assignment that cannot reach
    /// the slack even with every remaining maximum contributes zero.
    pub fn count_unschedulable(&self, slack: i128) -> u128 {
        self.count_unschedulable_within(slack, u64::MAX)
            .expect("an unlimited budget cannot be exhausted")
    }

    /// [`PreparedCombinations::count_unschedulable`] under a
    /// deterministic walk budget (visited search nodes); `None` on
    /// exhaustion. The boundary between the schedulable and
    /// unschedulable volumes can itself be combinatorially large on
    /// adversarial instances (e.g. dozens of unit-cost chains with the
    /// slack in the middle of the cost range), and the budget turns
    /// that from an unbounded hang back into a typed refusal — see
    /// [`PreparedCombinations::walk_budget`] for the value the miss
    /// model pipeline uses.
    pub fn count_unschedulable_within(&self, slack: i128, budget: u64) -> Option<u128> {
        let mut budget = budget;
        let all = self.count_above(0, 0, slack, &mut budget)?;
        Some(if slack < 0 {
            // The all-absent choice (cost 0) is not a combination.
            all.saturating_sub(1)
        } else {
            all
        })
    }

    /// The walk budget the dmm pipeline grants the counting and
    /// antichain walks: proportional to `max_combinations` but never
    /// below a generous floor, with enough slack that (a) any instance
    /// the materialized reference could enumerate (whose walks visit at
    /// most ~2× the product) can never exhaust it, and (b) lowering
    /// `max_combinations` — which only bounds *explicit* expansion
    /// under the lazy engine — does not silently re-cap implicit
    /// analysis. Budget exhaustion therefore only occurs on instances
    /// whose schedulable/unschedulable boundary is itself combinatorial
    /// (far beyond anything the reference could touch), where it
    /// degrades to the same
    /// [`AnalysisError::TooManyCombinations`] the reference reports
    /// instead of an unbounded walk.
    pub fn walk_budget(options: &AnalysisOptions) -> u64 {
        u64::try_from(options.max_combinations)
            .unwrap_or(u64::MAX)
            .saturating_mul(8)
            .max(1 << 23)
    }

    fn count_above(&self, i: usize, partial: u64, slack: i128, budget: &mut u64) -> Option<u128> {
        *budget = budget.checked_sub(1)?;
        if (partial as i128) > slack {
            return Some(self.suffix_product[i]);
        }
        if (partial.saturating_add(self.suffix_max[i]) as i128) <= slack {
            return Some(0);
        }
        // Both guards failed, so chains remain (at `i == len` the
        // suffixes are 0 and 1 and one of them must fire).
        let chain = &self.chains[i];
        let mut total: u128 = 0;
        for (pos, &o) in chain.by_cost.iter().enumerate() {
            let c = partial.saturating_add(chain.costs[o as usize]);
            if (c as i128) > slack {
                // Options are sorted by cost: this one and every later
                // one put the whole remaining subtree above the slack.
                let rest = (chain.by_cost.len() - pos) as u128;
                total = total.saturating_add(rest.saturating_mul(self.suffix_product[i + 1]));
                break;
            }
            total = total.saturating_add(self.count_above(i + 1, c, slack, budget)?);
        }
        Some(total)
    }

    /// The inclusion-minimal antichain of unschedulable member sets, in
    /// enumeration order.
    ///
    /// A combination is minimal-unschedulable iff its cost exceeds the
    /// slack while removing its cheapest member drops it to the slack or
    /// below — every proper subset is contained in some single-member
    /// removal, and costs are monotone under inclusion. The walk prunes
    /// on the quantity `cost − min member cost`, which is monotone
    /// non-decreasing along extensions (also under saturation), so
    /// subtrees strictly above the boundary are never entered.
    ///
    /// On an upward-closed unschedulable family this is exactly the item
    /// set the Theorem 3 packing optimum depends on: any packed
    /// non-minimal item can be replaced by a minimal subset without
    /// changing feasibility or the unit objective.
    pub fn minimal_unschedulable(&self, slack: i128) -> ItemArena {
        self.minimal_unschedulable_within(slack, u64::MAX)
            .expect("an unlimited budget cannot be exhausted")
    }

    /// [`PreparedCombinations::minimal_unschedulable`] under a
    /// deterministic walk budget (visited nodes, antichain emissions
    /// included); `None` on exhaustion — the antichain itself can be
    /// combinatorially large on adversarial instances.
    pub fn minimal_unschedulable_within(&self, slack: i128, budget: u64) -> Option<ItemArena> {
        let mut budget = budget;
        let mut found: Vec<(u128, Vec<usize>)> = Vec::new();
        if slack < 0 {
            // Every non-empty combination is unschedulable; the
            // minimal ones are exactly the single-member combinations
            // (a singleton has no proper non-empty subset, and any
            // larger combination contains an unschedulable singleton).
            // The boundary walk below cannot express this case — its
            // minimality predicate `cost − min member ≤ slack` treats
            // the empty removal result as schedulable, which a
            // negative slack contradicts.
            for (i, chain) in self.chains.iter().enumerate() {
                for o in 0..chain.len() {
                    if chain.offsets[o + 1] - chain.offsets[o] == 1 {
                        budget = budget.checked_sub(1)?;
                        let member = chain.arena[chain.offsets[o]] as usize;
                        found.push(((o as u128) * self.weights[i], vec![member]));
                    }
                }
            }
        } else {
            let mut choices = vec![0u32; self.chains.len()];
            self.minimal_walk(
                0,
                0,
                u64::MAX,
                0,
                slack,
                &mut choices,
                &mut found,
                &mut budget,
            )?;
        }
        found.sort_by_key(|(rank, _)| *rank);
        Some(found.into_iter().map(|(_, members)| members).collect())
    }

    #[allow(clippy::too_many_arguments)]
    fn minimal_walk(
        &self,
        i: usize,
        partial: u64,
        min_member: u64,
        rank: u128,
        slack: i128,
        choices: &mut [u32],
        out: &mut Vec<(u128, Vec<usize>)>,
        budget: &mut u64,
    ) -> Option<()> {
        *budget = budget.checked_sub(1)?;
        // `partial − min_member` only grows along extensions; above the
        // slack no descendant can be minimal.
        if (partial.saturating_sub(min_member) as i128) > slack {
            return Some(());
        }
        // No descendant can even be unschedulable.
        if (partial.saturating_add(self.suffix_max[i]) as i128) <= slack {
            return Some(());
        }
        if i == self.chains.len() {
            if (partial as i128) > slack && (partial.saturating_sub(min_member) as i128) <= slack {
                out.push((rank, self.build_members(choices)));
            }
            return Some(());
        }
        let chain = &self.chains[i];
        for o in 0..chain.len() {
            choices[i] = o as u32;
            self.minimal_walk(
                i + 1,
                partial.saturating_add(chain.costs[o]),
                min_member.min(chain.min_member[o]),
                rank + (o as u128) * self.weights[i],
                slack,
                choices,
                out,
                budget,
            )?;
        }
        Some(())
    }

    /// Materializes every unschedulable combination explicitly, in
    /// enumeration order, as [`Combination`]s (members plus *unscaled*
    /// total cost, exactly like the materialized engine).
    ///
    /// Returns `None` when more than `cap` combinations would have to be
    /// materialized — the caller decides whether that is an error (the
    /// compatibility tier never trips it) or a documented truncation
    /// (the witness path).
    pub fn expand_unschedulable(&self, slack: i128, cap: usize) -> Option<Vec<Combination>> {
        let mut out = Vec::new();
        let mut choices = vec![0u32; self.chains.len()];
        self.expand_walk(self.chains.len(), 0, slack, cap, &mut choices, &mut out)
            .map(|()| out)
    }

    /// Walks digits from the most significant chain downward so leaves
    /// appear in ascending mixed-radix rank — the materialized cursor
    /// order (chain 0 varies fastest).
    fn expand_walk(
        &self,
        level: usize,
        partial: u64,
        slack: i128,
        cap: usize,
        choices: &mut [u32],
        out: &mut Vec<Combination>,
    ) -> Option<()> {
        if level == 0 {
            if (partial as i128) > slack {
                if out.len() >= cap {
                    return None;
                }
                let members = self.build_members(choices);
                let wcet = members.iter().map(|&m| self.segments[m].wcet).sum();
                out.push(Combination { members, wcet });
            }
            return Some(());
        }
        // Every completion of this subtree stays at or below the slack.
        if (partial.saturating_add(self.prefix_max[level]) as i128) <= slack {
            return Some(());
        }
        let i = level - 1;
        for o in 0..self.chains[i].len() {
            choices[i] = o as u32;
            self.expand_walk(
                level - 1,
                partial.saturating_add(self.chains[i].costs[o]),
                slack,
                cap,
                choices,
                out,
            )?;
        }
        Some(())
    }

    /// Assembles the global member list of one option assignment, chain
    /// 0 first — the exact member order of the materialized engine.
    fn build_members(&self, choices: &[u32]) -> Vec<usize> {
        let mut members = Vec::new();
        for (i, &o) in choices.iter().enumerate() {
            let chain = &self.chains[i];
            let start = chain.offsets[o as usize];
            let end = chain.offsets[o as usize + 1];
            members.extend(chain.arena[start..end].iter().map(|&m| m as usize));
        }
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::{case_study, SystemBuilder};

    #[test]
    fn experiment1_combinations() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let set = CombinationSet::enumerate(&ctx, c, AnalysisOptions::default()).unwrap();
        // Two active segments (whole σa, whole σb); combinations:
        // {a}, {b}, {a,b}.
        assert_eq!(set.segments().len(), 2);
        let mut costs: Vec<Time> = set.combinations().iter().map(|c| c.wcet).collect();
        costs.sort_unstable();
        assert_eq!(costs, vec![20, 30, 50]);
        // Only {a,b} is unschedulable at slack 34.
        let unsched: Vec<_> = set.unschedulable(34).collect();
        assert_eq!(unsched.len(), 1);
        assert_eq!(unsched[0].wcet, 50);
        assert_eq!(unsched[0].members.len(), 2);
    }

    #[test]
    fn paper_figure1_combination_count() {
        // Section V example: active segments (τ1a,τ2a), (τ3a), (τ5a) with
        // parents seg0, seg0, seg1 → 4 combinations:
        // {1}, {2}, {3}, {1,2}.
        let s = SystemBuilder::new()
            .chain("a")
            .sporadic(1_000)
            .unwrap()
            .overload()
            .task("a1", 7, 1)
            .task("a2", 9, 2)
            .task("a3", 5, 4)
            .task("a4", 2, 8)
            .task("a5", 4, 16)
            .task("a6", 1, 32)
            .done()
            .chain("b")
            .periodic(100)
            .unwrap()
            .deadline(100)
            .task("b1", 8, 1)
            .task("b2", 3, 2)
            .task("b3", 6, 4)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let (b, _) = s.chain_by_name("b").unwrap();
        let set = CombinationSet::enumerate(&ctx, b, AnalysisOptions::default()).unwrap();
        assert_eq!(set.segments().len(), 3);
        assert_eq!(set.combinations().len(), 4);
        // The pair must join segments of the same parent segment only.
        let pairs: Vec<_> = set
            .combinations()
            .iter()
            .filter(|c| c.members.len() == 2)
            .collect();
        assert_eq!(pairs.len(), 1);
        let p0 = set.segments()[pairs[0].members[0]].parent_segment;
        let p1 = set.segments()[pairs[0].members[1]].parent_segment;
        assert_eq!(p0, p1);
    }

    #[test]
    fn no_overload_chains_means_no_combinations() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .deadline(10)
            .task("x1", 1, 1)
            .done()
            .build()
            .unwrap();
        let ctx = AnalysisContext::new(&s);
        let set = CombinationSet::enumerate(
            &ctx,
            twca_model::ChainId::from_index(0),
            AnalysisOptions::default(),
        )
        .unwrap();
        assert!(set.segments().is_empty());
        assert!(set.combinations().is_empty());
    }

    #[test]
    fn combination_limit_is_enforced() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let err = CombinationSet::enumerate(
            &ctx,
            c,
            AnalysisOptions {
                max_combinations: 2,
                ..AnalysisOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, AnalysisError::TooManyCombinations { limit: 2 });
    }

    /// A parent segment with ≥ 64 active segments used to overflow the
    /// `1 << g` subset walk — a `debug_assert!` in debug builds and a
    /// silent wrap in release builds that dropped whole option groups
    /// (an unsound undercount). Both engines must now refuse with a
    /// typed error instead.
    #[test]
    fn sixty_four_active_segments_error_instead_of_overflowing() {
        // Observed tail priority 5 > its min 1, so priority-3 tasks keep
        // the overload chain in one parent segment (all > 1) while
        // breaking the active runs (≤ 5): 65 active segments, one group.
        let mut builder = SystemBuilder::new()
            .chain("victim")
            .periodic(1_000)
            .unwrap()
            .deadline(1_000)
            .task("v_head", 1, 10)
            .task("v_tail", 5, 10)
            .done()
            .chain("over")
            .sporadic(100_000)
            .unwrap()
            .overload();
        for i in 0..64 {
            builder = builder
                .task(format!("hi{i}"), 10, 1)
                .task(format!("sep{i}"), 3, 1);
        }
        let s = builder.done().build().unwrap();
        let ctx = AnalysisContext::new(&s);
        let victim = twca_model::ChainId::from_index(0);
        let view = ctx.view(twca_model::ChainId::from_index(1), victim);
        assert!(
            view.active_segments().len() >= 64,
            "need at least 64 active segments, got {}",
            view.active_segments().len()
        );
        let opts = AnalysisOptions::default();
        assert_eq!(
            CombinationSet::enumerate(&ctx, victim, opts).unwrap_err(),
            AnalysisError::TooManyCombinations {
                limit: opts.max_combinations
            }
        );
        assert_eq!(
            PreparedCombinations::prepare(&ctx, victim, 1, opts).unwrap_err(),
            AnalysisError::TooManyCombinations {
                limit: opts.max_combinations
            }
        );
    }

    /// The lazy engine's counts, explicit expansion and antichain must
    /// agree with the materialized reference across a slack sweep.
    #[test]
    fn lazy_engine_matches_materialized_reference() {
        let systems = [
            case_study(),
            // Figure 1 shape: three active segments, two groups.
            SystemBuilder::new()
                .chain("a")
                .sporadic(1_000)
                .unwrap()
                .overload()
                .task("a1", 7, 1)
                .task("a2", 9, 2)
                .task("a3", 5, 4)
                .task("a4", 2, 8)
                .task("a5", 4, 16)
                .task("a6", 1, 32)
                .done()
                .chain("b")
                .periodic(100)
                .unwrap()
                .deadline(100)
                .task("b1", 8, 1)
                .task("b2", 3, 2)
                .task("b3", 6, 4)
                .done()
                .build()
                .unwrap(),
        ];
        for s in &systems {
            let ctx = AnalysisContext::new(s);
            let observed = s
                .iter()
                .find(|(_, c)| c.deadline().is_some())
                .map(|(id, _)| id)
                .unwrap();
            let opts = AnalysisOptions::default();
            let set = CombinationSet::enumerate(&ctx, observed, opts).unwrap();
            let multipliers = set.window_multipliers(&ctx, observed, 2);
            let prepared = PreparedCombinations::prepare(&ctx, observed, 2, opts).unwrap();
            assert_eq!(prepared.segments(), set.segments());
            assert_eq!(prepared.multipliers(), &multipliers[..]);
            assert_eq!(
                prepared.total_combinations(),
                set.combinations().len() as u128
            );
            let max_cost = prepared.max_total_cost();
            for slack in 0..=(max_cost as i128 + 1) {
                let reference: Vec<&Combination> =
                    set.unschedulable_scaled(slack, &multipliers).collect();
                assert_eq!(
                    prepared.count_unschedulable(slack),
                    reference.len() as u128,
                    "count at slack {slack}"
                );
                let expanded = prepared
                    .expand_unschedulable(slack, usize::MAX)
                    .expect("unbounded cap");
                assert_eq!(
                    expanded,
                    reference.iter().map(|&c| c.clone()).collect::<Vec<_>>(),
                    "explicit expansion at slack {slack}"
                );
                // The antichain is exactly the inclusion-minimal subset
                // of the reference items.
                let minimal = prepared.minimal_unschedulable(slack);
                let is_subset = |a: &[usize], b: &[usize]| a.iter().all(|r| b.contains(r));
                let expected: Vec<&[usize]> = reference
                    .iter()
                    .filter(|c| {
                        !reference
                            .iter()
                            .any(|o| o.members != c.members && is_subset(&o.members, &c.members))
                    })
                    .map(|c| c.members.as_slice())
                    .collect();
                assert_eq!(
                    minimal.iter().collect::<Vec<_>>(),
                    expected,
                    "antichain at slack {slack}"
                );
            }
        }
    }

    /// Negative slack means *every* non-empty combination is
    /// unschedulable; the antichain is then the singleton combinations
    /// (checked against the brute-force minimality of the reference).
    #[test]
    fn negative_slack_antichain_is_the_singletons() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let prepared =
            PreparedCombinations::prepare(&ctx, c, 2, AnalysisOptions::default()).unwrap();
        assert_eq!(prepared.count_unschedulable(-1), 3);
        let minimal = prepared.minimal_unschedulable(-1);
        assert_eq!(minimal.len(), 2);
        assert_eq!(minimal.iter().collect::<Vec<_>>(), vec![&[0][..], &[1]]);
    }

    /// Exhausting the deterministic walk budget is reported, never an
    /// unbounded walk; a sufficient budget returns the exact answer.
    #[test]
    fn walk_budget_exhaustion_is_reported() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let prepared =
            PreparedCombinations::prepare(&ctx, c, 2, AnalysisOptions::default()).unwrap();
        assert!(prepared.count_unschedulable_within(34, 1).is_none());
        assert!(prepared.minimal_unschedulable_within(34, 1).is_none());
        assert_eq!(prepared.count_unschedulable_within(34, 1_000), Some(1));
        assert_eq!(
            prepared
                .minimal_unschedulable_within(34, 1_000)
                .unwrap()
                .len(),
            1
        );
    }

    /// The expansion cap reports truncation instead of silently
    /// clipping.
    #[test]
    fn expansion_cap_signals_truncation() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let prepared =
            PreparedCombinations::prepare(&ctx, c, 2, AnalysisOptions::default()).unwrap();
        // Slack 0: all three combinations are unschedulable.
        assert_eq!(prepared.count_unschedulable(0), 3);
        assert!(prepared.expand_unschedulable(0, 2).is_none());
        assert_eq!(prepared.expand_unschedulable(0, 3).unwrap().len(), 3);
    }

    /// Implicit products beyond `max_combinations` stay analyzable in
    /// the lazy engine while the reference refuses.
    #[test]
    fn lazy_engine_handles_implicit_products_beyond_the_explicit_bound() {
        // Six overload chains, each one parent segment with three
        // active segments (priority-2 separators stay above the victim
        // minimum but below its tail): 2³ − 1 + 1 = 8 options per
        // chain, 8⁶ = 262,144 implicit combinations > 100.
        let mut builder = SystemBuilder::new()
            .chain("victim")
            .periodic(1_000)
            .unwrap()
            .deadline(1_000)
            .task("v_min", 1, 10)
            .task("v_tail", 50, 10)
            .done();
        for o in 0..6 {
            builder = builder
                .chain(format!("over_{o}"))
                .sporadic(50_000)
                .unwrap()
                .overload()
                .task(format!("o{o}_a"), 100, 5)
                .task(format!("o{o}_x"), 2, 1)
                .task(format!("o{o}_b"), 101, 5)
                .task(format!("o{o}_y"), 2, 1)
                .task(format!("o{o}_c"), 102, 5)
                .done();
        }
        let s = builder.build().unwrap();
        let ctx = AnalysisContext::new(&s);
        let victim = twca_model::ChainId::from_index(0);
        let opts = AnalysisOptions {
            max_combinations: 100,
            ..AnalysisOptions::default()
        };
        assert!(CombinationSet::enumerate(&ctx, victim, opts).is_err());
        let prepared = PreparedCombinations::prepare(&ctx, victim, 1, opts).unwrap();
        assert!(prepared.total_combinations() > 100_000);
        // Cross-check the branch-and-bound count against the reference
        // enumeration (allowed to materialize here).
        let set = CombinationSet::enumerate(&ctx, victim, AnalysisOptions::default()).unwrap();
        let multipliers = set.window_multipliers(&ctx, victim, 1);
        for slack in [0i128, 5, 10, 25, 60, 90] {
            assert_eq!(
                prepared.count_unschedulable(slack),
                set.unschedulable_scaled(slack, &multipliers).count() as u128,
                "slack {slack}"
            );
        }
    }
}
