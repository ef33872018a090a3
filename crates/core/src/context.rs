//! Cached structural data for all ordered chain pairs of a system.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::busy_time::InterferencePlan;
use crate::cache::{AnalysisCache, MemoHandle, SystemKey};
use crate::latency::OverloadMode;
use crate::reference::Reference;
use twca_model::{ChainId, InterferenceTerms, SegmentView, System};

/// Lazily-built [`InterferencePlan`]s per `(observed, mode)`, shared by
/// every busy-time fixed point of the scheduling-point solver. Interior
/// mutability so `&AnalysisContext` stays the only handle analyses need;
/// plans are pure functions of the system, so cloning clones the cached
/// plans (and rebuilding them instead would be equally correct).
#[derive(Debug, Default)]
struct PlanStore(Mutex<HashMap<(usize, u8), Arc<InterferencePlan>>>);

impl Clone for PlanStore {
    fn clone(&self) -> Self {
        PlanStore(Mutex::new(
            self.0.lock().expect("plan store poisoned").clone(),
        ))
    }
}

/// Segment structure for every ordered pair of distinct chains, so
/// repeated analyses (latency sweeps, DMM curves, priority-assignment
/// experiments) do not recompute it.
///
/// The [`InterferenceTerms`] Theorem 1 reads are computed for every pair
/// up front, into one flat table that allocates nothing per pair. A full
/// [`SegmentView`] (segments, active segments, header segment) is built
/// the first time [`AnalysisContext::view`] asks for its pair and kept
/// for the context's life; only the combination engine, `explain` and
/// the iterative reference ask.
///
/// # Examples
///
/// ```
/// use twca_chains::AnalysisContext;
/// use twca_model::{case_study, InterferenceClass};
///
/// let system = case_study();
/// let ctx = AnalysisContext::new(&system);
/// let (a, _) = system.chain_by_name("sigma_a").unwrap();
/// let (c, _) = system.chain_by_name("sigma_c").unwrap();
/// assert_eq!(
///     ctx.view(a, c).class(),
///     InterferenceClass::ArbitrarilyInterfering
/// );
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisContext<'a> {
    system: &'a System,
    /// `terms[a * n + b]`: Theorem 1's terms of chain `a` w.r.t. chain
    /// `b`, for `n` chains; the diagonal holds `None`.
    terms: Box<[Option<InterferenceTerms>]>,
    /// `views[a * n + b]`: the full structure of chain `a` w.r.t. chain
    /// `b`, built on first use.
    views: Box<[OnceLock<Box<SegmentView>>]>,
    /// This system's memo in a shared cache, held for the context's
    /// life; `None` disables memoization (the default).
    cache: Option<MemoHandle>,
    /// Interference plans of the scheduling-point busy-window solver.
    plans: PlanStore,
    /// The reference implementation this context runs, if any. Only
    /// [`Reference::context`] sets it, and that context never gets a
    /// cache.
    reference: Option<Reference>,
}

impl<'a> AnalysisContext<'a> {
    /// Computes Theorem 1's terms for all ordered chain pairs.
    pub fn new(system: &'a System) -> Self {
        let chains = system.chains();
        let n = chains.len();
        let min_priorities: Vec<_> = chains.iter().map(|c| c.min_priority()).collect();
        let mut terms = Vec::with_capacity(n * n);
        for (a, interferer) in chains.iter().enumerate() {
            terms.extend(min_priorities.iter().enumerate().map(|(b, &min_observed)| {
                (a != b).then(|| InterferenceTerms::new(interferer, min_observed))
            }));
        }
        AnalysisContext {
            system,
            terms: terms.into_boxed_slice(),
            views: (0..n * n).map(|_| OnceLock::new()).collect(),
            cache: None,
            plans: PlanStore::default(),
            reference: None,
        }
    }

    /// A memo-less context running `reference`; see
    /// [`Reference::context`].
    pub(crate) fn for_reference(system: &'a System, reference: Reference) -> Self {
        AnalysisContext {
            reference: Some(reference),
            ..AnalysisContext::new(system)
        }
    }

    /// Like [`AnalysisContext::new`], additionally attaching the
    /// system's memo in a shared [`AnalysisCache`]: every subsequent
    /// latency analysis and miss-model evaluation through this context
    /// is memoized there, and reused by later contexts of an equal
    /// system while the memo stays resident.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use twca_chains::{AnalysisCache, AnalysisContext, AnalysisOptions, OverloadMode};
    /// use twca_model::case_study;
    ///
    /// let cache = Arc::new(AnalysisCache::new());
    /// let system = case_study();
    /// let ctx = AnalysisContext::with_cache(&system, Arc::clone(&cache));
    /// let (c, _) = system.chain_by_name("sigma_c").unwrap();
    /// let opts = AnalysisOptions::default();
    /// let one = twca_chains::latency_analysis(&ctx, c, OverloadMode::Include, opts);
    /// let two = twca_chains::latency_analysis(&ctx, c, OverloadMode::Include, opts);
    /// assert_eq!(one, two);
    /// assert_eq!(cache.stats().hits, 1);
    /// ```
    pub fn with_cache(system: &'a System, cache: Arc<AnalysisCache>) -> Self {
        let mut ctx = AnalysisContext::new(system);
        ctx.attach_cache(cache);
        ctx
    }

    /// Attaches a shared cache to an already-built context: fetches (or
    /// creates) the system's memo, keeping the terms and any built
    /// segment views.
    pub(crate) fn attach_cache(&mut self, cache: Arc<AnalysisCache>) {
        self.cache = Some(cache.checkout(SystemKey::of(self.system)));
    }

    /// The system's memo, if a cache is attached.
    pub(crate) fn memo(&self) -> Option<&MemoHandle> {
        self.cache.as_ref()
    }

    /// The interference plan of `observed` under `mode`, built on first
    /// use and shared by every subsequent busy-time fixed point of this
    /// context.
    pub(crate) fn plan(&self, observed: ChainId, mode: OverloadMode) -> Arc<InterferencePlan> {
        let key = (
            observed.index(),
            matches!(mode, OverloadMode::Exclude) as u8,
        );
        let mut plans = self.plans.0.lock().expect("plan store poisoned");
        Arc::clone(
            plans
                .entry(key)
                .or_insert_with(|| Arc::new(InterferencePlan::build(self, observed, mode))),
        )
    }

    /// The reference implementation this context runs, `None` for the
    /// product path.
    pub(crate) fn reference(&self) -> Option<Reference> {
        self.reference
    }

    /// The attached shared cache, if any.
    pub fn cache(&self) -> Option<&Arc<AnalysisCache>> {
        self.cache.as_ref().map(MemoHandle::cache)
    }

    /// The analyzed system.
    pub fn system(&self) -> &'a System {
        self.system
    }

    /// The segment structure of `interferer` w.r.t. `observed`, built on
    /// the first call for the pair.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range or equal (a chain has no view of
    /// itself).
    pub fn view(&self, interferer: ChainId, observed: ChainId) -> &SegmentView {
        assert!(
            interferer != observed,
            "no segment view of a chain w.r.t. itself"
        );
        let chains = self.system.chains();
        self.views[self.pair(interferer, observed)].get_or_init(|| {
            Box::new(SegmentView::new(
                &chains[interferer.index()],
                &chains[observed.index()],
            ))
        })
    }

    /// Theorem 1's terms of `interferer` w.r.t. `observed`.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range or equal.
    pub(crate) fn terms(&self, interferer: ChainId, observed: ChainId) -> InterferenceTerms {
        self.terms[self.pair(interferer, observed)]
            .expect("no interference terms of a chain w.r.t. itself")
    }

    /// Index of the ordered pair in the flat per-pair tables.
    fn pair(&self, interferer: ChainId, observed: ChainId) -> usize {
        let n = self.system.chains().len();
        assert!(
            interferer.index() < n && observed.index() < n,
            "chain id out of range"
        );
        interferer.index() * n + observed.index()
    }

    /// Ids of all chains other than `observed`.
    pub fn others(&self, observed: ChainId) -> impl Iterator<Item = ChainId> + '_ {
        self.system
            .iter()
            .map(|(id, _)| id)
            .filter(move |&id| id != observed)
    }

    /// Whether `id` is valid for this system.
    pub fn contains(&self, id: ChainId) -> bool {
        id.index() < self.system.chains().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{deadline_miss_model, latency_analysis, typical_slack, AnalysisOptions};
    use twca_model::case_study;

    #[test]
    fn context_covers_all_pairs() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        for (a, _) in s.iter() {
            for (b, _) in s.iter() {
                if a != b {
                    let _ = ctx.view(a, b); // must not panic
                }
            }
        }
        assert_eq!(ctx.others(ChainId::from_index(0)).count(), 3);
        assert!(ctx.contains(ChainId::from_index(3)));
        assert!(!ctx.contains(ChainId::from_index(4)));
    }

    /// The `(interferer, observed)` pairs whose full view was built.
    fn built_views(ctx: &AnalysisContext<'_>) -> Vec<(usize, usize)> {
        let n = ctx.system.chains().len();
        (0..n * n)
            .filter(|&i| ctx.views[i].get().is_some())
            .map(|i| (i / n, i % n))
            .collect()
    }

    #[test]
    fn latency_and_slack_build_no_segment_view() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let options = AnalysisOptions::default();
        for (id, chain) in s.iter() {
            for mode in [OverloadMode::Include, OverloadMode::Exclude] {
                assert!(latency_analysis(&ctx, id, mode, options).is_some());
            }
            if chain.deadline().is_some() {
                let _ = typical_slack(&ctx, id, 3);
            }
        }
        assert_eq!(built_views(&ctx), []);
    }

    #[test]
    fn dmm_builds_only_overload_interferer_views() {
        let s = case_study();
        for (observed, chain) in s.iter() {
            if chain.deadline().is_none() {
                continue;
            }
            let ctx = AnalysisContext::new(&s);
            deadline_miss_model(&ctx, observed, 10, AnalysisOptions::default()).unwrap();
            let expected: Vec<(usize, usize)> = s
                .overload_chains()
                .filter(|&a| a != observed)
                .map(|a| (a.index(), observed.index()))
                .collect();
            let built = built_views(&ctx);
            assert!(
                built.iter().all(|pair| expected.contains(pair)),
                "{}: {built:?}",
                chain.name()
            );
            // σc's miss model needs both overload chains' combinations;
            // σd's needs none.
            if chain.name() == "sigma_c" {
                assert_eq!(built, expected);
            }
        }
    }

    #[test]
    fn views_are_built_once_per_pair() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let (a, c) = (ChainId::from_index(3), ChainId::from_index(1));
        let first: *const SegmentView = ctx.view(a, c);
        assert!(std::ptr::eq(first, ctx.view(a, c)));
        assert_eq!(built_views(&ctx), [(3, 1)]);
    }

    #[test]
    #[should_panic(expected = "no segment view")]
    fn diagonal_panics() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let id = ChainId::from_index(0);
        let _ = ctx.view(id, id);
    }
}
