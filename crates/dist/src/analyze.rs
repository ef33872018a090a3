//! The holistic fixed-point iteration: per-resource chain analysis
//! alternating with output event-model propagation along the links.
//!
//! The **dirty-resource worklist** driver re-analyzes only resources
//! whose effective activation models changed in the previous
//! propagation, mutates activation updates in place, keeps one memoized
//! analysis cache alive across sweeps (keyed by the effective systems'
//! activation fingerprints), and fans ready resources out across
//! threads. The retained **full-sweep** driver in [`crate::reference`]
//! re-analyzes every resource on every sweep under the same propagation
//! rules. Both produce byte-identical results — effective systems,
//! latency bounds, sweep counts and error behavior (the `twca-verify`
//! `solver-agreement` oracle pins the contract).

use std::collections::HashMap;
use std::sync::Mutex;

use crate::error::DistError;
use crate::system::{DistributedSystem, ResourceId, SiteId};
use twca_chains::reference::Reference;
use twca_chains::{AnalysisContext, AnalysisError, AnalysisOptions, DmmSweep, SystemKey};
use twca_curves::{ActivationModel, EventModel, Time};
use twca_independent::propagate_output_model;
use twca_model::{ordered_par_map, System};

/// Options of the distributed analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistOptions {
    /// Options forwarded to every per-resource chain analysis.
    pub chain_options: AnalysisOptions,
    /// Maximum number of holistic sweeps before reporting
    /// [`DistError::Diverged`]. Must be at least 1 (the fixed point
    /// needs its confirming sweep); [`analyze`] rejects 0 with
    /// [`DistError::ZeroSweeps`].
    pub max_sweeps: usize,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            chain_options: AnalysisOptions::default(),
            max_sweeps: 64,
        }
    }
}

/// Shifts an activation model by `jitter` time units of response-time
/// variability — the propagation primitive of the holistic iteration.
///
/// Periodic and periodic-with-jitter models accumulate jitter; sporadic
/// models get their minimum distance compressed. Model classes without a
/// closed propagation form (burst, table) are abstracted to a sporadic
/// source with the compressed minimum distance, which is pessimistic but
/// sound; [`ActivationModel::never`] passes through unchanged.
///
/// # Examples
///
/// ```
/// use twca_curves::{ActivationModel, EventModel};
/// use twca_dist::jitter_shifted;
///
/// let input = ActivationModel::periodic(200).unwrap();
/// let shifted = jitter_shifted(&input, 150);
/// // Consecutive events can now come 150 closer together...
/// assert_eq!(shifted.delta_min(2), 50);
/// // ...but the long-run rate is unchanged.
/// assert_eq!(shifted.delta_min(11), 10 * 200 - 150);
/// ```
pub fn jitter_shifted(model: &ActivationModel, jitter: Time) -> ActivationModel {
    propagate_with_floor(model, jitter, 1)
}

/// Propagation with an explicit lower bound `floor` on the output's
/// minimum event distance (the consumer-visible completion spacing).
pub(crate) fn propagate_with_floor(
    model: &ActivationModel,
    jitter: Time,
    floor: Time,
) -> ActivationModel {
    let floor = floor.max(1);
    if let ActivationModel::Never(_) = model {
        return model.clone();
    }
    propagate_output_model(model, floor.saturating_add(jitter), floor).unwrap_or_else(|| {
        // Burst/table inputs: abstract to a sporadic stream with the
        // compressed minimum distance (sound: ≥-dense than reality).
        let distance = model.delta_min(2).saturating_sub(jitter).max(floor).max(1);
        ActivationModel::sporadic(distance).expect("distance >= 1")
    })
}

/// Outcome of [`analyze`]: converged effective systems plus per-site
/// bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct DistResults {
    /// Per-resource systems with propagated activation models applied.
    pub(crate) effective: Vec<System>,
    /// `wcl[resource][chain]`.
    pub(crate) wcl: Vec<Vec<Option<Time>>>,
    pub(crate) sweeps: usize,
    pub(crate) options: DistOptions,
    /// The reference the results were computed (and answer miss-model
    /// queries) under; `None` for [`analyze`].
    pub(crate) reference: Option<Reference>,
}

impl DistResults {
    /// Number of sweeps until the fixed point (including the confirming
    /// sweep).
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// The effective (post-propagation) system of `resource`.
    pub fn effective_system(&self, resource: ResourceId) -> &System {
        &self.effective[resource.index()]
    }

    /// Worst-case latency bound of `site` under its effective
    /// activation; `None` when the local busy window diverges.
    pub fn worst_case_latency(&self, site: SiteId) -> Option<Time> {
        self.wcl[site.resource().index()][site.chain().index()]
    }

    /// Output response jitter of `site`: the worst-case latency itself
    /// (completions lag activations by anything in `[0, WCL]`); zero
    /// when unbounded — nothing can be propagated from such a site
    /// anyway.
    pub fn response_jitter(&self, site: SiteId) -> Time {
        self.worst_case_latency(site).unwrap_or(0)
    }

    /// The effective activation model of `site` (propagated for linked
    /// sites, declared otherwise).
    pub fn effective_activation(&self, site: SiteId) -> ActivationModel {
        self.effective[site.resource().index()]
            .chain(site.chain())
            .activation()
            .clone()
    }

    /// The analysis context of `resource`'s effective system — the
    /// [`Reference`] context the results were computed under, else a
    /// memo-less [`AnalysisContext::new`]. Prepare the resource's site
    /// sweeps on it.
    pub fn context(&self, resource: ResourceId) -> AnalysisContext<'_> {
        let system = &self.effective[resource.index()];
        match self.reference {
            Some(reference) => reference.context(system),
            None => AnalysisContext::new(system),
        }
    }

    /// Prepares the local miss model of `site` against its own deadline
    /// on `ctx`, the [`DistResults::context`] of the site's resource:
    /// one [`DmmSweep`] answers `dmm(k)` for every window length `k`.
    ///
    /// # Errors
    ///
    /// [`DistError::MissingDeadline`] without a deadline; analysis
    /// errors are forwarded.
    pub fn sweep<'c>(
        &self,
        ctx: &'c AnalysisContext<'c>,
        site: SiteId,
    ) -> Result<DmmSweep<'c>, DistError> {
        DmmSweep::prepare(ctx, site.chain(), self.options.chain_options).map_err(|e| match e {
            AnalysisError::MissingDeadline { .. } => DistError::MissingDeadline { site },
            e => DistError::Analysis(e),
        })
    }

    /// The local deadline miss model `dmm(k)` of `site` at one window
    /// length; sweep several with [`DistResults::sweep`] instead.
    ///
    /// # Errors
    ///
    /// See [`DistResults::sweep`].
    pub fn deadline_miss_model(&self, site: SiteId, k: u64) -> Result<u64, DistError> {
        Ok(self.deadline_miss_model_full(site, k)?.bound)
    }

    /// [`DistResults::deadline_miss_model`] with the full
    /// [`twca_chains::DmmResult`]. Only the traced replay under
    /// `perfbench/` calls it; it goes when that harness is re-recorded.
    #[doc(hidden)]
    pub fn deadline_miss_model_full(
        &self,
        site: SiteId,
        k: u64,
    ) -> Result<twca_chains::DmmResult, DistError> {
        let ctx = self.context(site.resource());
        let dmm = self.sweep(&ctx, site)?.at(k);
        Ok(dmm)
    }
}

/// Computes the completion-spacing floor and response jitter of a
/// producer chain with worst-case latency `wcl`.
pub(crate) fn propagation_parameters(
    system: &System,
    chain: twca_model::ChainId,
    wcl: Time,
) -> (Time, Time) {
    let chain = system.chain(chain);
    // Completions lag activations by anything in [0, WCL]: the full
    // latency bound is the propagated jitter (sound, and what the
    // benches report as `jitter_out`).
    let jitter = wcl;
    // Completions of consecutive instances are spaced by at least the
    // full chain re-execution (synchronous chains) or the serialized
    // tail task (asynchronous chains, where instances pipeline).
    let spacing = if chain.kind().is_synchronous() {
        chain.total_wcet()
    } else {
        chain.tail_task().wcet()
    };
    // Never raise the output distance above the input distance: that
    // would be sound but breaks downstream monotonicity expectations.
    let floor = spacing.min(chain.activation().delta_min(2).max(1)).max(1);
    (floor, jitter)
}

/// Runs the holistic iteration to its fixed point.
///
/// Each sweep analyzes the resources whose effective activation models
/// may have changed with [`twca_chains`] under the current models, then
/// propagates each link source's output event model (input model
/// shifted by its response jitter, floored by its completion spacing)
/// into the destination chain. The iteration converges when no
/// effective model changes. Only *dirty* resources are re-analyzed (see
/// the module docs); the results are identical to the full-sweep
/// [`crate::reference::analyze`].
///
/// # Errors
///
/// * [`DistError::ZeroSweeps`] when `options.max_sweeps` is zero;
/// * [`DistError::UnboundedLatency`] when a *linked* producer chain has
///   no finite latency bound (nothing sound can be propagated) — the
///   error carries the typed [`twca_chains::LatencyFailure`] naming
///   which limit was hit;
/// * [`DistError::Diverged`] when `options.max_sweeps` sweeps do not
///   reach a fixed point (e.g. heavily loaded feedback through long
///   chains); `sweeps` reports the sweeps actually run.
pub fn analyze(system: &DistributedSystem, options: DistOptions) -> Result<DistResults, DistError> {
    if options.max_sweeps == 0 {
        return Err(DistError::ZeroSweeps);
    }
    worklist_pass(system, options, &mut HashMap::new()).map(|(results, _)| results)
}

/// Upper bound on retained memo rows before a [`HolisticMemo`] resets
/// itself: rows of superseded versions linger until then, bounding the
/// memory of a long edit sequence without any per-row bookkeeping.
const MEMO_MAX_ROWS: usize = 4_096;

/// A persistent per-resource latency-row memo for **delta re-analysis**:
/// keep one `HolisticMemo` alive across [`analyze_with_memo`] calls on
/// successive versions of a system, and only the resources whose
/// effective activation state actually differs from anything previously
/// analyzed are re-converged — everything untouched by an edit is
/// answered from the memo, bit-identically (each row is keyed by the
/// effective system's [`twca_chains::SystemKey`], fingerprint plus
/// collision guard, and is a pure function of that system).
///
/// The memo self-invalidates when the [`DistOptions`] change and resets
/// after `MEMO_MAX_ROWS` retained rows. Interior mutability: one memo
/// can be shared behind an `Arc`, with calls on the same memo
/// serialized by its lock.
#[derive(Debug, Default)]
pub struct HolisticMemo {
    inner: Mutex<MemoInner>,
}

#[derive(Debug, Default, Clone)]
struct MemoInner {
    /// Options the retained rows were computed under; a call with
    /// different options resets the memo (rows depend on them).
    options: Option<DistOptions>,
    rows: HashMap<SystemKey, WclRow>,
}

impl Clone for HolisticMemo {
    fn clone(&self) -> Self {
        HolisticMemo {
            inner: Mutex::new(self.inner.lock().expect("holistic memo poisoned").clone()),
        }
    }
}

impl HolisticMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retained latency rows.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("holistic memo poisoned")
            .rows
            .len()
    }

    /// Whether no rows are retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every retained row (the next analysis runs cold).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("holistic memo poisoned");
        inner.rows.clear();
        inner.options = None;
    }
}

/// Delta telemetry of one [`analyze_with_memo`] run: how much work the
/// memo saved. Kept out of [`DistResults`] so memoized and from-scratch
/// results stay `==`-comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaReport {
    /// Resource latency rows actually (re-)converged this run.
    pub rows_analyzed: usize,
    /// Dirty lookups answered from the persistent memo.
    pub memo_hits: usize,
}

/// Like [`analyze`], but keeping `memo` warm across calls so a small
/// edit costs a small re-analysis: after a one-task change, only the
/// edited resource and the resources its propagation actually reaches
/// are re-converged. Results are bit-identical to a from-scratch
/// [`analyze`] of the same system (the `delta-agreement` verify oracle
/// pins this).
///
/// # Errors
///
/// Exactly those of [`analyze`].
pub fn analyze_with_memo(
    system: &DistributedSystem,
    options: DistOptions,
    memo: &HolisticMemo,
) -> Result<(DistResults, DeltaReport), DistError> {
    if options.max_sweeps == 0 {
        return Err(DistError::ZeroSweeps);
    }
    let mut inner = memo.inner.lock().expect("holistic memo poisoned");
    if inner.options != Some(options) || inner.rows.len() > MEMO_MAX_ROWS {
        inner.rows.clear();
        inner.options = Some(options);
    }
    let MemoInner { rows, .. } = &mut *inner;
    worklist_pass(system, options, rows)
}

/// One per-chain worst-case latency row, with the typed divergence
/// reason of any diverging chain (consumed only if that chain turns out
/// to be a link source).
type WclRow = Vec<Result<Time, twca_chains::LatencyFailure>>;

/// Analyzes one effective resource system (the system of `ctx`) into
/// its latency row.
pub(crate) fn wcl_row(ctx: &AnalysisContext<'_>, options: AnalysisOptions) -> WclRow {
    ctx.system()
        .iter()
        .map(|(id, _)| {
            twca_chains::latency_analysis_detailed(
                ctx,
                id,
                twca_chains::OverloadMode::Include,
                options,
            )
            .map(|r| r.worst_case_latency)
        })
        .collect()
}

/// How many dirty resources justify spawning worker threads: below
/// this, thread setup costs more than the analyses.
const PARALLEL_THRESHOLD: usize = 4;

/// Analyzes the dirty resources, fanning out across threads when the
/// ready set is wide (star/tree topologies). Rows come back in `dirty`
/// order and bit-identical to the serial path — each row is a pure
/// function of its effective system.
fn analyze_dirty(effective: &[System], dirty: &[usize], options: AnalysisOptions) -> Vec<WclRow> {
    let workers = if dirty.len() < PARALLEL_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    ordered_par_map(
        dirty.len(),
        workers,
        || (),
        |_, j| wcl_row(&AnalysisContext::new(&effective[dirty[j]]), options),
    )
}

/// The incremental driver: a dirty-resource worklist over the link
/// graph. A resource is dirty when its effective activation models
/// changed in the previous propagation (all resources start dirty);
/// only dirty resources are re-analyzed — the expensive half of a
/// sweep. Propagation still walks every link with the stored latency
/// rows (cheap model arithmetic), which keeps the intra-sweep cascade
/// semantics of the reference driver exactly: a link whose inputs did
/// not change since its last evaluation reproduces its output
/// bit-for-bit, so skipping its *source analysis* is safe while
/// skipping its *evaluation* would not be (an earlier link in the same
/// sweep may just have rewritten the source's input model). The row
/// memo keyed by the effective systems' [`twca_chains::SystemKey`]s
/// (fingerprint plus collision guard, covering the activation models)
/// survives the whole iteration — and, through
/// [`analyze_with_memo`], across successive versions of the system —
/// so a resource whose models revisit an earlier state, identical
/// resources anywhere in the topology, and resources untouched by an
/// edit are all answered from the memo instead of re-converging.
fn worklist_pass(
    system: &DistributedSystem,
    options: DistOptions,
    row_memo: &mut HashMap<SystemKey, WclRow>,
) -> Result<(DistResults, DeltaReport), DistError> {
    let mut effective: Vec<System> = system
        .resources()
        .iter()
        .map(|r| r.system().clone())
        .collect();
    let n = effective.len();
    let mut wcl: Vec<WclRow> = vec![Vec::new(); n];
    let mut dirty: Vec<bool> = vec![true; n];
    let mut report = DeltaReport::default();

    for sweep in 1..=options.max_sweeps {
        // Re-analyze exactly the resources whose models changed, and of
        // those only one representative per activation fingerprint not
        // already memoized (the row is a pure function of the system).
        let keys: Vec<(usize, SystemKey)> = (0..n)
            .filter(|&i| dirty[i])
            .map(|i| (i, SystemKey::of(&effective[i])))
            .collect();
        let mut to_analyze: Vec<(usize, SystemKey)> = Vec::with_capacity(keys.len());
        for &(i, key) in &keys {
            if !row_memo.contains_key(&key) && to_analyze.iter().all(|&(_, k)| k != key) {
                to_analyze.push((i, key));
            }
        }
        report.rows_analyzed += to_analyze.len();
        report.memo_hits += keys.len() - to_analyze.len();
        let misses: Vec<usize> = to_analyze.iter().map(|&(i, _)| i).collect();
        let rows = analyze_dirty(&effective, &misses, options.chain_options);
        for (row, &(_, key)) in rows.into_iter().zip(&to_analyze) {
            row_memo.insert(key, row);
        }
        for (i, key) in keys {
            wcl[i] = row_memo
                .get(&key)
                .expect("every dirty fingerprint was analyzed or memoized")
                .clone();
        }

        // Propagate along *every* link, exactly like the reference
        // driver — including its mid-loop cascade, where a link reads a
        // source model an earlier link of the same sweep just rewrote.
        // Only the analyses above are skipped for clean resources;
        // their stored rows equal what a re-analysis would compute.
        dirty = vec![false; n];
        let mut changed = false;
        for link in system.links() {
            let (from, to) = (link.from(), link.to());
            let bound = match wcl[from.resource().index()][from.chain().index()] {
                Ok(bound) => bound,
                Err(reason) => {
                    return Err(DistError::UnboundedLatency {
                        site: from,
                        reason: Some(reason),
                    });
                }
            };
            let source_system = &effective[from.resource().index()];
            let input = source_system.chain(from.chain()).activation().clone();
            let (floor, jitter) = propagation_parameters(source_system, from.chain(), bound);
            let output = propagate_with_floor(&input, jitter, floor);
            let destination = &effective[to.resource().index()];
            if *destination.chain(to.chain()).activation() != output {
                effective[to.resource().index()].set_activation(to.chain(), output);
                dirty[to.resource().index()] = true;
                changed = true;
            }
        }

        if !changed {
            let results = DistResults {
                effective,
                wcl: wcl
                    .into_iter()
                    .map(|row| row.into_iter().map(Result::ok).collect())
                    .collect(),
                sweeps: sweep,
                options,
                reference: None,
            };
            return Ok((results, report));
        }
    }
    Err(DistError::Diverged {
        sweeps: options.max_sweeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DistributedSystemBuilder;
    use twca_model::{case_study, SystemBuilder};

    #[test]
    fn single_resource_converges_in_one_sweep() {
        let dist = DistributedSystemBuilder::new()
            .resource("ecu0", case_study())
            .build()
            .unwrap();
        let results = analyze(&dist, DistOptions::default()).unwrap();
        assert_eq!(results.sweeps(), 1);
        let c = dist.site("ecu0", "sigma_c").unwrap();
        assert_eq!(results.worst_case_latency(c), Some(331));
        assert_eq!(results.response_jitter(c), 331);
    }

    #[test]
    fn linked_destination_gains_jitter() {
        let downstream = SystemBuilder::new()
            .chain("act")
            .periodic(200)
            .unwrap()
            .deadline(200)
            .task("a1", 1, 20)
            .done()
            .build()
            .unwrap();
        let dist = DistributedSystemBuilder::new()
            .resource("ecu0", case_study())
            .resource("ecu1", downstream)
            .link(("ecu0", "sigma_c"), ("ecu1", "act"))
            .build()
            .unwrap();
        let results = analyze(&dist, DistOptions::default()).unwrap();
        let act = dist.site("ecu1", "act").unwrap();
        let effective = results.effective_activation(act);
        // σc adds WCL = 331 of jitter to the 200-periodic stream;
        // completions stay ≥ ΣC = 51 apart (σc is synchronous).
        assert_eq!(effective.delta_min(2), 51);
        assert!(results.worst_case_latency(act).is_some());
    }

    #[test]
    fn jitter_shift_preserves_long_run_rate() {
        let m = ActivationModel::periodic(100).unwrap();
        let shifted = jitter_shifted(&m, 40);
        for delta in [1_000u64, 10_000] {
            assert!(shifted.eta_plus(delta) >= m.eta_plus(delta));
            assert!(shifted.eta_plus(delta) <= m.eta_plus(delta) + 1);
        }
    }

    #[test]
    fn zero_sweeps_is_a_typed_error() {
        let dist = DistributedSystemBuilder::new()
            .resource("ecu0", case_study())
            .build()
            .unwrap();
        let options = DistOptions {
            max_sweeps: 0,
            ..DistOptions::default()
        };
        assert_eq!(analyze(&dist, options).unwrap_err(), DistError::ZeroSweeps);
        // Both drivers reject at the boundary.
        assert_eq!(
            crate::reference::analyze(&dist, options, Reference::IterativeSolver).unwrap_err(),
            DistError::ZeroSweeps
        );
    }

    #[test]
    fn diverged_reports_the_sweeps_actually_run() {
        // A two-resource ping-pong through jitter accumulation that
        // cannot settle in one sweep: capping max_sweeps at 1 must
        // report exactly 1 sweep run.
        let downstream = SystemBuilder::new()
            .chain("act")
            .periodic(200)
            .unwrap()
            .deadline(200)
            .task("a1", 1, 20)
            .done()
            .build()
            .unwrap();
        let dist = DistributedSystemBuilder::new()
            .resource("ecu0", case_study())
            .resource("ecu1", downstream)
            .link(("ecu0", "sigma_c"), ("ecu1", "act"))
            .build()
            .unwrap();
        let options = DistOptions {
            max_sweeps: 1,
            ..DistOptions::default()
        };
        assert_eq!(
            analyze(&dist, options).unwrap_err(),
            DistError::Diverged { sweeps: 1 }
        );
    }

    /// The worklist and the full-sweep reference must agree on
    /// everything observable: sweeps, latencies, effective activations.
    #[test]
    fn worklist_matches_full_sweeps_on_a_pipeline() {
        let mk = |period: u64| {
            SystemBuilder::new()
                .chain("stage")
                .periodic(period)
                .unwrap()
                .deadline(period)
                .task("hi", 5, 10)
                .task("lo", 1, 15)
                .done()
                .chain("noise")
                .periodic(70)
                .unwrap()
                .task("n1", 3, 9)
                .done()
                .build()
                .unwrap()
        };
        let mut builder = DistributedSystemBuilder::new();
        for (i, period) in [200u64, 210, 220, 230, 240].iter().enumerate() {
            builder = builder.resource(format!("r{i}"), mk(*period));
        }
        for i in 0..4 {
            builder = builder.link(
                (format!("r{i}"), "stage".to_owned()),
                (format!("r{}", i + 1), "stage".to_owned()),
            );
        }
        let dist = builder.build().unwrap();

        let worklist = analyze(&dist, DistOptions::default()).unwrap();
        let reference =
            crate::reference::analyze(&dist, DistOptions::default(), Reference::IterativeSolver)
                .unwrap();

        assert_eq!(worklist.sweeps(), reference.sweeps());
        assert!(worklist.sweeps() > 1, "propagation must actually happen");
        for site in dist.sites() {
            assert_eq!(
                worklist.worst_case_latency(site),
                reference.worst_case_latency(site),
                "site {site}"
            );
            assert_eq!(
                worklist.effective_activation(site),
                reference.effective_activation(site),
                "site {site}"
            );
        }
        for r in 0..dist.resources().len() {
            assert_eq!(
                worklist.effective_system(crate::system::ResourceId::from_index(r)),
                reference.effective_system(crate::system::ResourceId::from_index(r)),
            );
        }
    }

    /// Builds an n-stage pipeline whose `edited` stage (if any) carries
    /// a bumped WCET — the delta-re-analysis workload shape.
    fn pipeline(stages: usize, edited: Option<usize>) -> DistributedSystem {
        let mut builder = DistributedSystemBuilder::new();
        for i in 0..stages {
            let wcet = 10 + u64::from(edited == Some(i));
            let stage = SystemBuilder::new()
                .chain("stage")
                .periodic(200 + 10 * i as u64)
                .unwrap()
                .deadline(400)
                .task("hi", 5, wcet)
                .task("lo", 1, 15)
                .done()
                .build()
                .unwrap();
            builder = builder.resource(format!("r{i}"), stage);
        }
        for i in 0..stages.saturating_sub(1) {
            builder = builder.link(
                (format!("r{i}"), "stage".to_owned()),
                (format!("r{}", i + 1), "stage".to_owned()),
            );
        }
        builder.build().unwrap()
    }

    /// A warm memo must make re-analysis after a one-task edit cost
    /// O(affected resources) — and still agree bit-for-bit with a
    /// from-scratch run of the edited system.
    #[test]
    fn memoized_reanalysis_is_incremental_and_bit_identical() {
        let stages = 12;
        let memo = HolisticMemo::new();
        let options = DistOptions::default();

        let v1 = pipeline(stages, None);
        let (cold, cold_report) = analyze_with_memo(&v1, options, &memo).unwrap();
        assert_eq!(cold, analyze(&v1, options).unwrap());
        assert!(cold_report.rows_analyzed >= stages, "cold run analyzes all");

        // Edit the last stage: nothing downstream of it exists, so the
        // warm run should re-converge only that one resource.
        let v2 = pipeline(stages, Some(stages - 1));
        let (warm, warm_report) = analyze_with_memo(&v2, options, &memo).unwrap();
        assert_eq!(warm, analyze(&v2, options).unwrap());
        // Only the edited resource re-converges (once per effective
        // state it passes through); the other 11 stages hit the memo.
        assert!(
            warm_report.rows_analyzed <= warm.sweeps(),
            "a tail-stage edit re-analyzed {} rows over {} sweeps",
            warm_report.rows_analyzed,
            warm.sweeps()
        );
        assert!(warm_report.rows_analyzed < cold_report.rows_analyzed / 4);
        assert!(warm_report.memo_hits >= stages - 1);

        // Re-running the same version is answered entirely from memo.
        let (again, again_report) = analyze_with_memo(&v2, options, &memo).unwrap();
        assert_eq!(again, warm);
        assert_eq!(again_report.rows_analyzed, 0);
    }

    /// Changing the options invalidates the memo (rows depend on them).
    #[test]
    fn memo_resets_when_options_change() {
        let memo = HolisticMemo::new();
        let dist = pipeline(3, None);
        let options = DistOptions::default();
        let _ = analyze_with_memo(&dist, options, &memo).unwrap();
        assert!(!memo.is_empty());
        let mut tighter = options;
        tighter.chain_options.max_q = options.chain_options.max_q / 2;
        let (_, report) = analyze_with_memo(&dist, tighter, &memo).unwrap();
        assert!(report.rows_analyzed > 0, "stale rows must not be reused");
        memo.clear();
        assert!(memo.is_empty());
    }
}
