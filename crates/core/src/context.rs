//! Cached structural data for all ordered chain pairs of a system.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::busy_time::InterferencePlan;
use crate::cache::{AnalysisCache, MemoHandle, SystemKey};
use crate::latency::OverloadMode;
use crate::reference::Reference;
use twca_model::{ChainId, SegmentView, System};

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

/// Precomputed [`SegmentView`]s for every ordered pair of distinct chains,
/// so repeated analyses (latency sweeps, DMM curves, priority-assignment
/// experiments) do not recompute segment structure.
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
    /// `views[a][b]`: structure of chain `a` w.r.t. chain `b`; the
    /// diagonal holds `None`.
    views: Vec<Vec<Option<SegmentView>>>,
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
    /// Computes segment structure for all ordered chain pairs.
    pub fn new(system: &'a System) -> Self {
        let n = system.chains().len();
        let mut views = Vec::with_capacity(n);
        for a in 0..n {
            let mut row = Vec::with_capacity(n);
            for b in 0..n {
                row.push(
                    (a != b).then(|| SegmentView::new(&system.chains()[a], &system.chains()[b])),
                );
            }
            views.push(row);
        }
        AnalysisContext {
            system,
            views,
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
    /// creates) the system's memo, keeping the segment views.
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

    /// The segment structure of `interferer` w.r.t. `observed`.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range or equal (a chain has no view of
    /// itself).
    pub fn view(&self, interferer: ChainId, observed: ChainId) -> &SegmentView {
        self.views[interferer.index()][observed.index()]
            .as_ref()
            .expect("no segment view of a chain w.r.t. itself")
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

    #[test]
    #[should_panic(expected = "no segment view")]
    fn diagonal_panics() {
        let s = case_study();
        let ctx = AnalysisContext::new(&s);
        let id = ChainId::from_index(0);
        let _ = ctx.view(id, id);
    }
}
