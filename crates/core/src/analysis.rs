//! The high-level analysis façade.

use crate::config::AnalysisOptions;
use crate::context::AnalysisContext;
use crate::dmm::{deadline_miss_model, DmmResult};
use crate::error::AnalysisError;
use crate::latency::{latency_analysis, LatencyResult, OverloadMode};
use crate::report::{ChainReport, SystemReport};
use crate::weakly_hard::MkConstraint;
use twca_model::{ChainId, System};

/// One-stop analysis of a task-chain system: worst-case latencies
/// (Theorem 2), deadline miss models (Theorem 3) and weakly-hard
/// verification, with the segment structure computed once and shared.
///
/// # Examples
///
/// ```
/// use twca_chains::ChainAnalysis;
/// use twca_model::case_study;
///
/// # fn main() -> Result<(), twca_chains::AnalysisError> {
/// let system = case_study();
/// let analysis = ChainAnalysis::new(&system);
/// println!("{}", analysis.report());
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// let dmm10 = analysis.deadline_miss_model(c, 10)?;
/// assert!(dmm10.bound <= 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChainAnalysis<'a> {
    ctx: AnalysisContext<'a>,
    options: AnalysisOptions,
}

impl<'a> ChainAnalysis<'a> {
    /// Prepares the analysis (computes every chain pair's interference
    /// terms; segment views are built on demand).
    pub fn new(system: &'a System) -> Self {
        ChainAnalysis {
            ctx: AnalysisContext::new(system),
            options: AnalysisOptions::default(),
        }
    }

    /// Replaces the analysis options.
    #[must_use]
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a shared [`crate::AnalysisCache`], memoizing every
    /// latency analysis and miss-model value of this analysis (and of
    /// any other analysis of an equal system sharing the cache).
    #[must_use]
    pub fn with_cache(mut self, cache: std::sync::Arc<crate::AnalysisCache>) -> Self {
        self.ctx.attach_cache(cache);
        self
    }

    /// The analyzed system.
    pub fn system(&self) -> &'a System {
        self.ctx.system()
    }

    /// The underlying context (for direct use of the module-level
    /// functions).
    pub fn context(&self) -> &AnalysisContext<'a> {
        &self.ctx
    }

    /// Worst-case latency of `chain` with overload interference included
    /// (Theorem 2).
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::UnknownChain`] for an invalid id;
    /// * [`AnalysisError::Unbounded`] when the busy window diverges (use
    ///   [`ChainAnalysis::try_worst_case_latency`] to get `Ok(None)`
    ///   instead).
    pub fn worst_case_latency(&self, chain: ChainId) -> Result<LatencyResult, AnalysisError> {
        self.try_worst_case_latency(chain)?
            .ok_or(AnalysisError::Unbounded { chain })
    }

    /// Worst-case latency, `Ok(None)` when the busy window diverges.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::UnknownChain`] for an invalid id.
    pub fn try_worst_case_latency(
        &self,
        chain: ChainId,
    ) -> Result<Option<LatencyResult>, AnalysisError> {
        if !self.ctx.contains(chain) {
            return Err(AnalysisError::UnknownChain { chain });
        }
        Ok(latency_analysis(
            &self.ctx,
            chain,
            OverloadMode::Include,
            self.options,
        ))
    }

    /// Worst-case latency with overload chains abstracted away (the
    /// *typical* system), `Ok(None)` when divergent.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::UnknownChain`] for an invalid id.
    pub fn typical_latency(&self, chain: ChainId) -> Result<Option<LatencyResult>, AnalysisError> {
        if !self.ctx.contains(chain) {
            return Err(AnalysisError::UnknownChain { chain });
        }
        Ok(latency_analysis(
            &self.ctx,
            chain,
            OverloadMode::Exclude,
            self.options,
        ))
    }

    /// The deadline miss model `dmm(k)` of `chain` (Theorem 3).
    ///
    /// # Errors
    ///
    /// See [`deadline_miss_model`].
    pub fn deadline_miss_model(&self, chain: ChainId, k: u64) -> Result<DmmResult, AnalysisError> {
        deadline_miss_model(&self.ctx, chain, k, self.options)
    }

    /// Evaluates the miss model at several window lengths, sharing the
    /// `k`-independent work across the whole curve (see
    /// [`crate::DmmSweep`]).
    ///
    /// # Errors
    ///
    /// See [`deadline_miss_model`].
    pub fn dmm_curve(&self, chain: ChainId, ks: &[u64]) -> Result<Vec<DmmResult>, AnalysisError> {
        let sweep = crate::DmmSweep::prepare(&self.ctx, chain, self.options)?;
        Ok(sweep.curve(ks.iter().copied()))
    }

    /// Checks a weakly-hard `(m, k)` constraint on `chain`.
    ///
    /// # Errors
    ///
    /// See [`deadline_miss_model`].
    pub fn satisfies(
        &self,
        chain: ChainId,
        constraint: MkConstraint,
    ) -> Result<bool, AnalysisError> {
        constraint.verify(&self.ctx, chain, self.options)
    }

    /// Full latency report over all chains (the shape of Table I).
    pub fn report(&self) -> SystemReport {
        let rows = self
            .system()
            .iter()
            .map(|(id, _)| ChainReport::analyze(&self.ctx, id, self.options))
            .collect();
        SystemReport { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::case_study;

    #[test]
    fn facade_reproduces_table1() {
        let s = case_study();
        let a = ChainAnalysis::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let (d, _) = s.chain_by_name("sigma_d").unwrap();
        assert_eq!(a.worst_case_latency(c).unwrap().worst_case_latency, 331);
        assert_eq!(a.worst_case_latency(d).unwrap().worst_case_latency, 175);
        assert_eq!(
            a.typical_latency(c).unwrap().unwrap().worst_case_latency,
            166
        );
    }

    #[test]
    fn report_has_all_chains() {
        let s = case_study();
        let a = ChainAnalysis::new(&s);
        let report = a.report();
        assert_eq!(report.rows.len(), 4);
        let text = report.to_string();
        assert!(text.contains("sigma_c"));
        assert!(text.contains("331"));
        assert!(text.contains("175"));
    }

    #[test]
    fn dmm_curve_is_monotone() {
        let s = case_study();
        let a = ChainAnalysis::new(&s);
        let (c, _) = s.chain_by_name("sigma_c").unwrap();
        let curve = a.dmm_curve(c, &[1, 3, 10, 30]).unwrap();
        for pair in curve.windows(2) {
            assert!(pair[0].bound <= pair[1].bound);
        }
    }

    #[test]
    fn unknown_chain_everywhere() {
        let s = case_study();
        let a = ChainAnalysis::new(&s);
        let bogus = ChainId::from_index(99);
        assert!(a.try_worst_case_latency(bogus).is_err());
        assert!(a.typical_latency(bogus).is_err());
        assert!(a.deadline_miss_model(bogus, 1).is_err());
    }
}
