//! Specialized exact solver for the multi-dimensional packing structure
//! produced by TWCA (Theorem 3 of the paper).
//!
//! The problem: items (unschedulable combinations) each consume one unit
//! of every resource (active segment) they contain; resources have
//! integer capacities (`Ω` budgets); maximize the total number of packed
//! item instances. Formally
//!
//! ```text
//! max Σ_i x_i   s.t.   ∀r: Σ_{i ∋ r} x_i ≤ cap_r,   x_i ∈ ℕ
//! ```
//!
//! This is an integer program with a 0/1 constraint matrix and an all-ones
//! objective. The dynamic program and depth-first search below are exact
//! within their work budget; the `packing_solver_is_exact` property test
//! holds them to a brute-force optimum.

use crate::error::IlpError;

/// A multi-dimensional packing problem instance.
///
/// # Examples
///
/// ```
/// use twca_ilp::PackingProblem;
///
/// # fn main() -> Result<(), twca_ilp::IlpError> {
/// // Two resources with capacity 3; one item uses both.
/// let p = PackingProblem::new(vec![3, 3], vec![vec![0, 1]])?;
/// assert_eq!(p.solve().packed_total(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackingProblem {
    capacities: Vec<u64>,
    items: Vec<Vec<usize>>,
}

/// Solution of a [`PackingProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackingSolution {
    counts: Vec<u64>,
    total: u64,
    exact: bool,
}

impl PackingSolution {
    /// How many instances of each item were packed (a feasible packing;
    /// its sum equals [`PackingSolution::packed_total`] when
    /// [`PackingSolution::is_exact`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of packed item instances (the objective). When
    /// [`PackingSolution::is_exact`] is `false`, this is instead an
    /// **admissible upper bound** on the optimum — still sound for the
    /// TWCA miss model, which consumes the packing value as an upper
    /// bound on spoiled busy windows.
    pub fn packed_total(&self) -> u64 {
        self.total
    }

    /// Whether the search proved optimality (`true` for every instance
    /// within the deterministic node budget; pathological adversarial
    /// instances report a sound upper bound with `false`).
    pub fn is_exact(&self) -> bool {
        self.exact
    }
}

impl PackingProblem {
    /// Creates a packing problem from resource capacities and items, each
    /// item given as the sorted-or-unsorted list of resource indices it
    /// consumes. Duplicate indices within an item are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::VariableOutOfRange`] if an item references a
    /// resource index out of range. Items with no resources are rejected
    /// the same way (they would be packable infinitely often).
    pub fn new(capacities: Vec<u64>, items: Vec<Vec<usize>>) -> Result<Self, IlpError> {
        let num = capacities.len();
        let mut normalized = Vec::with_capacity(items.len());
        for mut item in items {
            item.sort_unstable();
            item.dedup();
            if item.is_empty() {
                return Err(IlpError::VariableOutOfRange {
                    index: usize::MAX,
                    num_vars: num,
                });
            }
            if let Some(&bad) = item.iter().find(|&&r| r >= num) {
                return Err(IlpError::VariableOutOfRange {
                    index: bad,
                    num_vars: num,
                });
            }
            normalized.push(item);
        }
        Ok(PackingProblem {
            capacities,
            items: normalized,
        })
    }

    /// [`PackingProblem::new`] over the grouped-item (flat-arena) form:
    /// item `i`'s resource indices are `members[offsets[i]..offsets[i + 1]]`.
    /// Items are normalized (sorted, deduplicated, validated) exactly
    /// like the `Vec<Vec<usize>>` constructor, so the two build
    /// identical problems — this entry just lets callers that already
    /// keep their items in one shared buffer (the lazy combination
    /// engine) hand them over without exploding per-item vectors first.
    ///
    /// # Errors
    ///
    /// [`IlpError::VariableOutOfRange`] for empty items or resource
    /// indices out of range.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is not a monotone offset table into
    /// `members` starting at 0.
    pub fn from_arena(
        capacities: Vec<u64>,
        offsets: &[usize],
        members: &[usize],
    ) -> Result<Self, IlpError> {
        assert!(
            offsets.first() == Some(&0) || offsets.is_empty(),
            "offset tables start at zero"
        );
        let num = capacities.len();
        let mut normalized = Vec::with_capacity(offsets.len().saturating_sub(1));
        for window in offsets.windows(2) {
            let mut item: Vec<usize> = members[window[0]..window[1]].to_vec();
            item.sort_unstable();
            item.dedup();
            if item.is_empty() {
                return Err(IlpError::VariableOutOfRange {
                    index: usize::MAX,
                    num_vars: num,
                });
            }
            if let Some(&bad) = item.iter().find(|&&r| r >= num) {
                return Err(IlpError::VariableOutOfRange {
                    index: bad,
                    num_vars: num,
                });
            }
            normalized.push(item);
        }
        Ok(PackingProblem {
            capacities,
            items: normalized,
        })
    }

    /// The resource capacities.
    pub fn capacities(&self) -> &[u64] {
        &self.capacities
    }

    /// The items (resource index lists, sorted and deduplicated).
    pub fn items(&self) -> &[Vec<usize>] {
        &self.items
    }

    /// The default deterministic work budget of [`PackingProblem::solve`]
    /// (search nodes for the branch and bound; scaled ×4 for the metered
    /// dynamic-program work, preserving the historical `1 << 24` DP
    /// meter exactly). The branch-and-bound node budget rises from the
    /// historical 4,000,000 to 4,194,304 (+4.9%) — on instances that
    /// exhausted the old budget the extra nodes can only improve the
    /// incumbent, and the reported value stays `max(incumbent, root
    /// bound)` either way, so results remain sound and can only
    /// tighten.
    pub const DEFAULT_BUDGET: u64 = 1 << 22;

    /// Largest item count on which [`PackingProblem::solve`] runs its
    /// quadratic dominance prefilter (reducing the items to the
    /// inclusion-minimal antichain); above it the solver works on the
    /// raw item list. Every phase stays bounded either way: the filter
    /// is quadratic only up to this limit, and both search strategies
    /// recurse one level per item, so the entering item count also caps
    /// the stack depth. Public so callers performing the reduction
    /// upstream (the lazy combination engine) can mirror the exact tier
    /// boundary.
    pub const DOMINANCE_LIMIT: usize = 4_096;

    /// Largest item count the exact searches accept; beyond it the
    /// solver reports the greedy incumbent capped by the admissible
    /// root bound (sound, deterministic, stack-safe).
    pub const MAX_SEARCH_ITEMS: usize = 1_024;

    /// Solves the packing problem exactly.
    ///
    /// Small capacity state spaces (the common TWCA shape: a handful of
    /// active segments with moderate `Ω` budgets) are solved by an exact
    /// memoized dynamic program over remaining capacities — polynomial
    /// in the state-space size, immune to the exponential blowup a
    /// plain search suffers when many combinations overlap. Larger
    /// instances fall back to a bounded depth-first search that assigns
    /// item counts highest-first and prunes with admissible bounds on
    /// the remaining items.
    pub fn solve(&self) -> PackingSolution {
        self.solve_with_budget(Self::DEFAULT_BUDGET)
    }

    /// [`PackingProblem::solve`] under an explicit deterministic work
    /// budget: `budget` search nodes for the branch and bound, and
    /// `budget × 4` metered iterations for the dynamic program. On
    /// exhaustion the result degrades to a **sound upper bound**
    /// (`exact = false`), never an undercount — callers that only need
    /// a valid bound fast (batch sweeps, conformance fuzzing) pass a
    /// small budget here.
    pub fn solve_with_budget(&self, budget: u64) -> PackingSolution {
        self.solve_inner(budget, false)
    }

    /// [`PackingProblem::solve_with_budget`] for callers that guarantee
    /// the items already form an inclusion-minimal **antichain** (no
    /// item's resource set contains another's): the quadratic dominance
    /// prefilter — an identity map on antichains — is skipped outright.
    ///
    /// The lazy combination engine feeds exactly such item sets; with
    /// the filter limit at [`PackingProblem::DOMINANCE_LIMIT`] items
    /// this saves up to `DOMINANCE_LIMIT²` subset tests per solve while
    /// provably returning the same solution.
    pub fn solve_assuming_antichain(&self, budget: u64) -> PackingSolution {
        self.solve_inner(budget, true)
    }

    fn solve_inner(&self, budget: u64, assume_antichain: bool) -> PackingSolution {
        let n = self.items.len();
        if n == 0 {
            return PackingSolution {
                counts: Vec::new(),
                total: 0,
                exact: true,
            };
        }

        // Dominance: replacing a packed item by any other item whose
        // resource set is a subset keeps feasibility and the unit
        // objective, so an optimal solution exists over the
        // inclusion-minimal items alone. TWCA instances are upward
        // closed (supersets of an unschedulable combination are
        // unschedulable), so this typically collapses hundreds of
        // combinations to a small antichain.
        let is_subset = |a: &[usize], b: &[usize]| a.iter().all(|r| b.binary_search(r).is_ok());
        let mut order: Vec<usize> = if n <= Self::DOMINANCE_LIMIT && !assume_antichain {
            (0..n)
                .filter(|&i| {
                    !(0..n).any(|j| {
                        j != i
                            && is_subset(&self.items[j], &self.items[i])
                            && (self.items[j].len() < self.items[i].len() || j < i)
                    })
                })
                .collect()
        } else {
            (0..n).collect()
        };

        // Order items by decreasing resource count: constrained items
        // first tightens the bound early.
        order.sort_by_key(|&i| std::cmp::Reverse(self.items[i].len()));

        if order.len() > Self::MAX_SEARCH_ITEMS {
            // Too many items to search (or even recurse over): report
            // the greedy incumbent capped by the root upper bound —
            // sound, deterministic, stack-safe.
            let (counts, greedy_total) = self.greedy_incumbent(&order);
            let root_bound = self.upper_bound(&order, 0, &self.capacities);
            return PackingSolution {
                counts,
                total: greedy_total.max(root_bound),
                exact: greedy_total >= root_bound,
            };
        }

        if let Some(solution) = self.solve_dp(&order, budget.saturating_mul(4)) {
            return solution;
        }

        let (mut best_counts, mut best_total) = self.greedy_incumbent(&order);

        let mut remaining = self.capacities.clone();
        let mut counts = vec![0u64; n];
        // Deterministic search budget: adversarial instances (many
        // symmetric overlapping items with large capacities) would
        // otherwise take exponential time. On exhaustion the root upper
        // bound is reported instead of the optimum — sound for TWCA,
        // which uses the value as an upper bound (see
        // [`PackingSolution::packed_total`]).
        let mut budget: u64 = budget;
        self.dfs(
            &order,
            0,
            &mut remaining,
            &mut counts,
            0,
            &mut best_counts,
            &mut best_total,
            &mut budget,
        );
        if budget == 0 {
            let root_bound = self.upper_bound(&order, 0, &self.capacities);
            return PackingSolution {
                counts: best_counts,
                total: best_total.max(root_bound),
                exact: best_total >= root_bound,
            };
        }
        PackingSolution {
            counts: best_counts,
            total: best_total,
            exact: true,
        }
    }

    /// Greedy feasible packing, smallest items first (fewest resources
    /// consumed per packed unit) — the warm-start incumbent for the
    /// search and the reported packing when searching is off the table.
    fn greedy_incumbent(&self, order: &[usize]) -> (Vec<u64>, u64) {
        let mut remaining = self.capacities.clone();
        let mut counts = vec![0u64; self.items.len()];
        let mut total = 0u64;
        let mut greedy_order = order.to_vec();
        greedy_order.sort_by_key(|&i| self.items[i].len());
        for &i in &greedy_order {
            let count = self.items[i]
                .iter()
                .map(|&r| remaining[r])
                .min()
                .unwrap_or(0);
            for &r in &self.items[i] {
                remaining[r] -= count;
            }
            counts[i] = count;
            total += count;
        }
        (counts, total)
    }

    /// Exact dynamic program over the mixed-radix-encoded remaining
    /// capacities; `None` when the state space or the actual work
    /// (count-loop iterations, metered as it runs) exceeds the budget —
    /// the caller then falls back to the budgeted branch and bound.
    fn solve_dp(&self, order: &[usize], max_work: u64) -> Option<PackingSolution> {
        use std::collections::HashMap;
        const MAX_STATES: u128 = 1 << 21;

        // Only resources a solved item actually uses contribute states.
        let used: Vec<usize> = (0..self.capacities.len())
            .filter(|r| order.iter().any(|&i| self.items[i].contains(r)))
            .collect();
        let mut weights = vec![0u64; self.capacities.len()];
        let mut product: u128 = 1;
        for &r in &used {
            weights[r] = product as u64;
            product = product.checked_mul(self.capacities[r] as u128 + 1)?;
            if product > MAX_STATES {
                return None;
            }
        }

        let encode_full: u64 = used.iter().map(|&r| weights[r] * self.capacities[r]).sum();
        let item_weight = |i: usize| -> u64 { self.items[i].iter().map(|&r| weights[r]).sum() };
        let item_max = |i: usize, state: u64| -> u64 {
            self.items[i]
                .iter()
                .map(|&r| (state / weights[r]) % (self.capacities[r] + 1))
                .min()
                .unwrap_or(0)
        };

        // memo[level][state]: best additional packing using order[level..].
        let mut memo: Vec<HashMap<u64, u64>> = vec![HashMap::new(); order.len() + 1];

        /// Returns `None` when the metered work budget runs out
        /// mid-solve (the partial memo is discarded).
        fn best(
            order: &[usize],
            memo: &mut [HashMap<u64, u64>],
            item_weight: &dyn Fn(usize) -> u64,
            item_max: &dyn Fn(usize, u64) -> u64,
            at: usize,
            state: u64,
            work: &mut u64,
        ) -> Option<u64> {
            if at == order.len() {
                return Some(0);
            }
            if let Some(&hit) = memo[at].get(&state) {
                return Some(hit);
            }
            let item = order[at];
            let weight = item_weight(item);
            let mut optimum = 0;
            for count in 0..=item_max(item, state) {
                *work = work.checked_sub(1)?;
                let value = count
                    + best(
                        order,
                        memo,
                        item_weight,
                        item_max,
                        at + 1,
                        state - count * weight,
                        work,
                    )?;
                optimum = optimum.max(value);
            }
            memo[at].insert(state, optimum);
            Some(optimum)
        }

        let mut work = max_work;
        let total = best(
            order,
            &mut memo,
            &item_weight,
            &item_max,
            0,
            encode_full,
            &mut work,
        )?;

        // Reconstruct one optimal count vector by walking the memo.
        let mut counts = vec![0u64; self.items.len()];
        let mut state = encode_full;
        let mut need = total;
        for (at, &item) in order.iter().enumerate() {
            let weight = item_weight(item);
            for count in (0..=item_max(item, state)).rev() {
                let tail = if at + 1 == order.len() {
                    0
                } else {
                    memo[at + 1]
                        .get(&(state - count * weight))
                        .copied()
                        .unwrap_or(0)
                };
                if count + tail == need {
                    counts[item] = count;
                    state -= count * weight;
                    need -= count;
                    break;
                }
            }
        }
        debug_assert_eq!(need, 0, "reconstruction must realize the optimum");
        Some(PackingSolution {
            counts,
            total,
            exact: true,
        })
    }

    /// Admissible upper bound on how many more instances can be packed
    /// using items `order[at..]` with capacities `remaining`: the
    /// minimum of (a) the sum of each remaining item's individual
    /// maximum, (b) the leftover capacity divided by the smallest item
    /// size, and (c) a partition bound — every item charged against its
    /// scarcest resource, each such representative capacity counted
    /// once.
    fn upper_bound(&self, order: &[usize], at: usize, remaining: &[u64]) -> u64 {
        let mut by_item_sum: u64 = 0;
        let mut min_size = usize::MAX;
        let mut representatives: u128 = 0;
        let mut partition_sum: u64 = 0;
        let small = self.capacities.len() <= 128;
        for &i in &order[at..] {
            let item = &self.items[i];
            min_size = min_size.min(item.len());
            let scarcest = item
                .iter()
                .copied()
                .min_by_key(|&r| remaining[r])
                .expect("items are non-empty");
            by_item_sum = by_item_sum.saturating_add(remaining[scarcest]);
            if small && representatives & (1u128 << scarcest) == 0 {
                representatives |= 1u128 << scarcest;
                partition_sum = partition_sum.saturating_add(remaining[scarcest]);
            }
        }
        if min_size == usize::MAX {
            return 0;
        }
        let capacity_sum: u64 = remaining.iter().sum();
        let mut bound = by_item_sum.min(capacity_sum / min_size as u64);
        if small {
            bound = bound.min(partition_sum);
        }
        bound
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        order: &[usize],
        at: usize,
        remaining: &mut [u64],
        counts: &mut [u64],
        packed: u64,
        best_counts: &mut Vec<u64>,
        best_total: &mut u64,
        budget: &mut u64,
    ) {
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        if packed > *best_total {
            *best_total = packed;
            best_counts.copy_from_slice(counts);
        }
        if at == order.len() {
            return;
        }
        if packed + self.upper_bound(order, at, remaining) <= *best_total {
            return; // cannot improve
        }
        let item_index = order[at];
        let item = &self.items[item_index];
        let max_here = item.iter().map(|&r| remaining[r]).min().unwrap_or(0);
        // Try larger counts first: reaches strong incumbents quickly.
        for count in (0..=max_here).rev() {
            for &r in item {
                remaining[r] -= count;
            }
            counts[item_index] = count;
            self.dfs(
                order,
                at + 1,
                remaining,
                counts,
                packed + count,
                best_counts,
                best_total,
                budget,
            );
            counts[item_index] = 0;
            for &r in item {
                remaining[r] += count;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_problem() {
        let p = PackingProblem::new(vec![5, 5], vec![]).unwrap();
        assert_eq!(p.solve().packed_total(), 0);
    }

    #[test]
    fn single_item_single_resource() {
        let p = PackingProblem::new(vec![4], vec![vec![0]]).unwrap();
        let s = p.solve();
        assert_eq!(s.packed_total(), 4);
        assert_eq!(s.counts(), &[4]);
    }

    #[test]
    fn experiment1_shape() {
        // One unschedulable combination using both overload segments,
        // budgets 3 and 3 → 3 packed windows.
        let p = PackingProblem::new(vec![3, 3], vec![vec![0, 1]]).unwrap();
        assert_eq!(p.solve().packed_total(), 3);
    }

    #[test]
    fn items_share_resources() {
        // r0: cap 3 shared by items {0} and {0,1}; r1: cap 2.
        let p = PackingProblem::new(vec![3, 2], vec![vec![0], vec![0, 1]]).unwrap();
        let s = p.solve();
        // Best: item0 × 3 (exhausts r0) = 3, or item0 × 1 + item1 × 2 = 3.
        assert_eq!(s.packed_total(), 3);
    }

    #[test]
    fn duplicate_resource_indices_are_deduped() {
        let p = PackingProblem::new(vec![2], vec![vec![0, 0, 0]]).unwrap();
        assert_eq!(p.items()[0], vec![0]);
        assert_eq!(p.solve().packed_total(), 2);
    }

    #[test]
    fn invalid_items_rejected() {
        assert!(PackingProblem::new(vec![2], vec![vec![5]]).is_err());
        assert!(PackingProblem::new(vec![2], vec![vec![]]).is_err());
    }

    #[test]
    fn handcrafted_instances_reach_their_known_optima() {
        let instances = vec![
            (
                PackingProblem::new(vec![3, 3], vec![vec![0, 1]]).unwrap(),
                3,
            ),
            (
                PackingProblem::new(vec![3, 2], vec![vec![0], vec![0, 1]]).unwrap(),
                3,
            ),
            (
                PackingProblem::new(
                    vec![5, 4, 3],
                    vec![
                        vec![0],
                        vec![1],
                        vec![2],
                        vec![0, 1],
                        vec![1, 2],
                        vec![0, 1, 2],
                    ],
                )
                .unwrap(),
                12,
            ),
            (
                PackingProblem::new(vec![0, 7], vec![vec![0], vec![1], vec![0, 1]]).unwrap(),
                7,
            ),
        ];
        for (inst, optimum) in instances {
            let s = inst.solve();
            assert!(s.is_exact(), "instance {inst:?}");
            assert_eq!(s.packed_total(), optimum, "instance {inst:?}");
        }
    }

    #[test]
    fn zero_capacity_blocks_items() {
        let p = PackingProblem::new(vec![0, 3], vec![vec![0, 1], vec![1]]).unwrap();
        let s = p.solve();
        assert_eq!(s.packed_total(), 3);
        assert_eq!(s.counts(), &[0, 3]);
    }

    #[test]
    fn arena_constructor_matches_vec_constructor() {
        // Items {0}, {0,1}, {2,1} (unsorted, to exercise normalization).
        let offsets = [0usize, 1, 3, 5];
        let members = [0usize, 0, 1, 2, 1];
        let from_arena = PackingProblem::from_arena(vec![3, 2, 4], &offsets, &members).unwrap();
        let from_vecs =
            PackingProblem::new(vec![3, 2, 4], vec![vec![0], vec![0, 1], vec![2, 1]]).unwrap();
        assert_eq!(from_arena, from_vecs);
        assert_eq!(
            from_arena.solve().packed_total(),
            from_vecs.solve().packed_total()
        );
        // Invalid arenas report the same typed errors.
        assert!(PackingProblem::from_arena(vec![1], &[0, 0], &[]).is_err());
        assert!(PackingProblem::from_arena(vec![1], &[0, 1], &[7]).is_err());
    }

    #[test]
    fn antichain_solve_matches_general_solve_on_antichains() {
        // Pairwise incomparable items: the dominance prefilter is an
        // identity map, so skipping it must not change anything.
        let p = PackingProblem::new(
            vec![5, 4, 3],
            vec![vec![0], vec![1], vec![2], vec![0, 1], vec![1, 2]],
        )
        .unwrap();
        // Not an antichain ({0} ⊂ {0,1}), but solve_assuming_antichain
        // is only *called* on antichains; restrict to one:
        let antichain =
            PackingProblem::new(vec![5, 4, 3], vec![vec![0], vec![1], vec![2]]).unwrap();
        let general = antichain.solve();
        let assumed = antichain.solve_assuming_antichain(PackingProblem::DEFAULT_BUDGET);
        assert_eq!(general, assumed);
        // And the general problem still solves through the filter.
        assert_eq!(p.solve().packed_total(), 12);
    }
}
