//! Analysis configuration.

use twca_curves::Time;

/// Limits of the fixed-point computations and the
/// combination enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Abort a busy-time fixed point once it exceeds this horizon; the
    /// chain is then reported as divergent (worst-case overloaded).
    pub horizon: Time,
    /// Maximum number of activations `q` explored when searching for the
    /// end of the busy window (`K_b`).
    pub max_q: u64,
    /// Maximum number of combinations **materialized explicitly**.
    ///
    /// Under the per-combination cap hook of
    /// [`crate::dmm::deadline_miss_model_with_caps`] (and the
    /// [`crate::reference::Reference::MaterializedEngine`] reference)
    /// this bounds the whole Definition 9 product. The lazy engine
    /// bounds only *explicit* expansions with it — the per-chain option
    /// arena, packing-witness rows and the compatibility tier — not
    /// analysis feasibility: instances whose implicit product exceeds
    /// the limit are still analyzed via the pruned antichain path.
    pub max_combinations: usize,
    /// Deterministic work budget of the Theorem 3 packing solver (see
    /// `twca_ilp::PackingProblem::solve_with_budget`). Exhaustion
    /// degrades the packing value to a sound upper bound, so small
    /// budgets trade tightness for speed — never soundness.
    pub packing_budget: u64,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            horizon: 100_000_000,
            max_q: 100_000,
            max_combinations: 1_000_000,
            packing_budget: twca_ilp::PackingProblem::DEFAULT_BUDGET,
        }
    }
}
