//! Structural definitions of the paper: interference classes (Def. 2),
//! segments (Def. 3), critical and header segments (Defs. 4–5) and active
//! segments (Def. 8).
//!
//! All quantities here are purely structural: they depend only on the task
//! priorities of an *interfering* chain `σa` and an *observed* chain `σb`,
//! not on activation models. [`SegmentView`] computes and caches all of
//! them for one ordered chain pair; [`InterferenceTerms`] is the
//! allocation-free summary of the four scalars Theorem 1 reads of it.
//!
//! # Examples
//!
//! The running example of the paper (Figure 1): `σa` with priorities
//! `7, 9, 5, 2, 4, 1` has two segments w.r.t. `σb` with priorities
//! `8, 3, 6` — `(τ¹a, τ²a, τ³a)` and `(τ⁵a)` — and three active segments
//! `(τ¹a, τ²a)`, `(τ³a)`, `(τ⁵a)`.
//!
//! ```
//! use twca_model::{SystemBuilder, SegmentView};
//!
//! # fn main() -> Result<(), twca_model::ModelError> {
//! let system = SystemBuilder::new()
//!     .chain("a")
//!     .periodic(100)?
//!     .task("a1", 7, 1).task("a2", 9, 1).task("a3", 5, 1)
//!     .task("a4", 2, 1).task("a5", 4, 1).task("a6", 1, 1)
//!     .done()
//!     .chain("b")
//!     .periodic(100)?
//!     .task("b1", 8, 1).task("b2", 3, 1).task("b3", 6, 1)
//!     .done()
//!     .build()?;
//! let a = &system.chains()[0];
//! let b = &system.chains()[1];
//! let view = SegmentView::new(a, b);
//! assert_eq!(view.segments().len(), 2);
//! assert_eq!(view.active_segments().len(), 3);
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use crate::chain::Chain;
use crate::ids::Priority;
use crate::task::Task;
use twca_curves::Time;

/// How a chain `σa` interferes with an observed chain `σb`
/// (Definition 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterferenceClass {
    /// Some task of `σa` has lower priority than *all* tasks of `σb`:
    /// `σa` is blocked by `σb` whenever it reaches such a task.
    Deferred,
    /// Every task of `σa` can preempt some suffix of `σb`; each activation
    /// of `σa` may execute entirely before `σb` resumes.
    ArbitrarilyInterfering,
}

/// Classifies how `interferer` interferes with `observed` (Definition 2).
///
/// # Examples
///
/// ```
/// use twca_model::{segments::classify, InterferenceClass, SystemBuilder};
///
/// # fn main() -> Result<(), twca_model::ModelError> {
/// let s = SystemBuilder::new()
///     .chain("a").periodic(10)?.task("a1", 4, 1).task("a2", 3, 1).done()
///     .chain("c").periodic(10)?.task("c1", 8, 1).task("c3", 1, 1).done()
///     .build()?;
/// let a = &s.chains()[0];
/// let c = &s.chains()[1];
/// // No task of `a` is below priority 1, so `a` arbitrarily interferes.
/// assert_eq!(classify(a, c), InterferenceClass::ArbitrarilyInterfering);
/// // `a2` (priority 3) is below `c1`'s chain minimum? No — compare with
/// // min of *c* = 1; but c vs a: `c3` has priority 1 < min(a) = 3.
/// assert_eq!(classify(c, a), InterferenceClass::Deferred);
/// # Ok(())
/// # }
/// ```
pub fn classify(interferer: &Chain, observed: &Chain) -> InterferenceClass {
    match first_below(interferer, observed.min_priority()) {
        Some(_) => InterferenceClass::Deferred,
        None => InterferenceClass::ArbitrarilyInterfering,
    }
}

/// Index of the first task of `interferer` with lower priority than
/// `min_observed`: the task that defers the chain (Def. 2) and ends its
/// header segment (Def. 5). `None` when the chain arbitrarily interferes.
fn first_below(interferer: &Chain, min_observed: Priority) -> Option<usize> {
    interferer
        .tasks()
        .iter()
        .position(|t| t.priority() < min_observed)
}

/// The four scalars Theorem 1 reads of one ordered chain pair
/// (`interferer` = `σa`, `observed` = `σb`): the interference class
/// (Def. 2), the WCET of the critical segment (Def. 4), the sum of the
/// segment WCETs (Def. 3) and the WCET of the header segment (Def. 5).
///
/// Computed without allocating, in one circular pass over the
/// interferer's tasks; [`SegmentView`]'s scalar accessors read the same
/// summary.
///
/// # Examples
///
/// Figure 1 of the paper: `σa`'s segments w.r.t. `σb` are
/// `(τ¹a, τ²a, τ³a)` and `(τ⁵a)`; its header segment is `(τ¹a, τ²a, τ³a)`.
///
/// ```
/// use twca_model::{InterferenceClass, InterferenceTerms, SystemBuilder};
///
/// # fn main() -> Result<(), twca_model::ModelError> {
/// let system = SystemBuilder::new()
///     .chain("a")
///     .periodic(100)?
///     .task("a1", 7, 1).task("a2", 9, 2).task("a3", 5, 4)
///     .task("a4", 2, 8).task("a5", 4, 16).task("a6", 1, 32)
///     .done()
///     .chain("b")
///     .periodic(100)?
///     .task("b1", 8, 1).task("b2", 3, 2).task("b3", 6, 4)
///     .done()
///     .build()?;
/// let (a, b) = (&system.chains()[0], &system.chains()[1]);
/// let terms = InterferenceTerms::new(a, b.min_priority());
/// assert_eq!(terms.class(), InterferenceClass::Deferred);
/// assert_eq!(terms.critical_wcet(), 16);
/// assert_eq!(terms.segments_wcet(), 7 + 16);
/// assert_eq!(terms.header_wcet(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InterferenceTerms {
    class: InterferenceClass,
    critical_wcet: Time,
    segments_wcet: Time,
    header_wcet: Time,
}

impl InterferenceTerms {
    /// The terms of `interferer` w.r.t. an observed chain whose lowest
    /// task priority is `min_observed` (`observed.min_priority()`, taken
    /// once per observed chain rather than once per pair).
    ///
    /// An arbitrarily interfering chain is one segment of its total WCET
    /// and has no header segment. A deferred chain's segments are the
    /// maximal runs of tasks above `min_observed` on the circular index
    /// space; the pass starts at the first task below `min_observed`, so
    /// a run wrapping from the end of the chain into its start is summed
    /// as the one segment it is.
    pub fn new(interferer: &Chain, min_observed: Priority) -> Self {
        let tasks = interferer.tasks();
        let Some(first_low) = first_below(interferer, min_observed) else {
            let total = interferer.total_wcet();
            return InterferenceTerms {
                class: InterferenceClass::ArbitrarilyInterfering,
                critical_wcet: total,
                segments_wcet: total,
                header_wcet: 0,
            };
        };
        let (header, tail) = tasks.split_at(first_low);
        let mut critical_wcet = 0;
        let mut segments_wcet = 0;
        let mut run: Time = 0;
        for task in tail.iter().chain(header) {
            if task.priority() > min_observed {
                run += task.wcet();
            } else {
                critical_wcet = critical_wcet.max(run);
                segments_wcet += run;
                run = 0;
            }
        }
        InterferenceTerms {
            class: InterferenceClass::Deferred,
            critical_wcet: critical_wcet.max(run),
            segments_wcet: segments_wcet + run,
            header_wcet: header.iter().map(Task::wcet).sum(),
        }
    }

    /// How the interferer interferes with the observed chain (Def. 2).
    pub fn class(&self) -> InterferenceClass {
        self.class
    }

    /// Total execution time of the critical segment (Def. 4), the
    /// segment with the largest WCET.
    pub fn critical_wcet(&self) -> Time {
        self.critical_wcet
    }

    /// Sum of `C_s` over all segments (the `Σ_{s∈S_b^a} C_s` term of
    /// Theorem 1).
    pub fn segments_wcet(&self) -> Time {
        self.segments_wcet
    }

    /// Total execution time of the header segment `s_header_{a,b}`
    /// (Def. 5); `0` for an arbitrarily interfering chain.
    pub fn header_wcet(&self) -> Time {
        self.header_wcet
    }
}

/// A segment of `σa` w.r.t. `σb` (Definition 3): a maximal subchain of
/// tasks whose priorities all exceed the minimum priority of `σb`.
///
/// Per the paper's modulo convention a segment may *wrap around* the end
/// of the chain (conservatively spanning two instances of `σa`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    indices: Vec<usize>,
    wraps: bool,
}

impl Segment {
    /// Task indices of the segment, in execution order. For wrapping
    /// segments the indices restart at `0` partway through.
    pub fn task_indices(&self) -> &[usize] {
        &self.indices
    }

    /// Whether the segment wraps around the end of the chain (i.e. spans
    /// two consecutive instances).
    pub fn wraps(&self) -> bool {
        self.wraps
    }

    /// Number of tasks in the segment.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the segment is empty (never true for segments produced by
    /// [`SegmentView`]).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Total execution time `C_s` of the segment within `chain`.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not belong to `chain`.
    pub fn wcet(&self, chain: &Chain) -> Time {
        chain.wcet_of(&self.indices)
    }
}

/// An active segment of `σa` w.r.t. `σb` (Definition 8): a subchain of a
/// segment in which every task *after the first* has higher priority than
/// the tail task of `σb`. Its execution cannot span more than one
/// `σb`-busy-window (Lemma 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ActiveSegment {
    indices: Vec<usize>,
    segment_index: usize,
}

impl ActiveSegment {
    /// Task indices of the active segment, in execution order.
    pub fn task_indices(&self) -> &[usize] {
        &self.indices
    }

    /// Index (into [`SegmentView::segments`]) of the segment this active
    /// segment is part of. Combinations may only join active segments of
    /// the same chain when they share this parent (Definition 9).
    pub fn segment_index(&self) -> usize {
        self.segment_index
    }

    /// Number of tasks in the active segment.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the active segment is empty (never true for active segments
    /// produced by [`SegmentView`]).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Total execution time `C_s` of the active segment within `chain`.
    ///
    /// # Panics
    ///
    /// Panics if the active segment does not belong to `chain`.
    pub fn wcet(&self, chain: &Chain) -> Time {
        chain.wcet_of(&self.indices)
    }
}

/// All structural quantities of one ordered chain pair
/// (`interferer` = `σa`, `observed` = `σb`), computed once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentView {
    terms: InterferenceTerms,
    segments: Vec<Segment>,
    active_segments: Vec<ActiveSegment>,
    header_segment: Vec<usize>,
    critical_segment: Option<usize>,
}

impl SegmentView {
    /// Computes segments, active segments, the header segment w.r.t. the
    /// observed chain (Def. 5) and the critical segment (Def. 4) of
    /// `interferer` w.r.t. `observed`.
    ///
    /// For an arbitrarily interfering chain the whole chain forms a single
    /// (non-wrapping) segment; this matches the paper's treatment of
    /// Experiment 1, where the overload chains arbitrarily interfere with
    /// `σc` and have exactly one segment each.
    pub fn new(interferer: &Chain, observed: &Chain) -> Self {
        let min_observed = observed.min_priority();
        let terms = InterferenceTerms::new(interferer, min_observed);
        let segments = compute_segments(interferer, min_observed, terms.class);
        let active_segments =
            compute_active_segments(interferer, observed.tail_priority(), &segments);
        let header_segment = compute_header_segment(interferer, min_observed);
        // The first segment of the largest WCET.
        let critical_segment = segments
            .iter()
            .position(|s| s.wcet(interferer) == terms.critical_wcet);
        SegmentView {
            terms,
            segments,
            active_segments,
            header_segment,
            critical_segment,
        }
    }

    /// How the interferer interferes with the observed chain (Def. 2).
    pub fn class(&self) -> InterferenceClass {
        self.terms.class
    }

    /// The segments `S_b^a` of the interferer w.r.t. the observed chain
    /// (Def. 3).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The active segments of the interferer w.r.t. the observed chain
    /// (Def. 8).
    pub fn active_segments(&self) -> &[ActiveSegment] {
        &self.active_segments
    }

    /// Task indices of the header segment `s_header_{a,b}` (Def. 5): the
    /// prefix of the interferer up to (excluding) its first task with
    /// lower priority than all tasks of the observed chain. Empty when the
    /// very first task is already below, or when the chain arbitrarily
    /// interferes (in which case the notion is unused by the analysis).
    pub fn header_segment(&self) -> &[usize] {
        &self.header_segment
    }

    /// Index (into [`SegmentView::segments`]) of the critical segment
    /// (Def. 4), i.e. the one maximizing total execution time. `None` only
    /// for chains without segments (cannot happen for validated chains).
    pub fn critical_segment(&self) -> Option<&Segment> {
        self.critical_segment.map(|i| &self.segments[i])
    }

    /// Total execution time of the header segment within `interferer`,
    /// the chain this view was built for
    /// ([`InterferenceTerms::header_wcet`]).
    pub fn header_segment_wcet(&self, _interferer: &Chain) -> Time {
        self.terms.header_wcet
    }

    /// Sum of `C_s` over all segments (the `Σ_{s∈S_b^a} C_s` term of
    /// Theorem 1) within `interferer`, the chain this view was built for
    /// ([`InterferenceTerms::segments_wcet`]).
    pub fn segments_total_wcet(&self, _interferer: &Chain) -> Time {
        self.terms.segments_wcet
    }
}

/// The header subchain `s_header_a` of a chain (Def. 5, first bullet):
/// the prefix strictly before the chain's first lowest-priority task.
/// Empty when the header task itself has the lowest priority.
///
/// Used for the self-interference term of asynchronous chains in
/// Theorem 1.
///
/// # Examples
///
/// ```
/// use twca_model::{segments::self_header_segment, SystemBuilder};
///
/// # fn main() -> Result<(), twca_model::ModelError> {
/// let s = SystemBuilder::new()
///     .chain("c").periodic(10)?
///     .task("c1", 8, 4).task("c2", 7, 6).task("c3", 1, 41)
///     .done()
///     .build()?;
/// assert_eq!(self_header_segment(&s.chains()[0]), vec![0, 1]);
/// # Ok(())
/// # }
/// ```
pub fn self_header_segment(chain: &Chain) -> Vec<usize> {
    let min = chain.min_priority();
    let first_low = chain
        .tasks()
        .iter()
        .position(|t| t.priority() == min)
        .expect("non-empty chain has a minimum");
    (0..first_low).collect()
}

fn compute_segments(
    interferer: &Chain,
    min_observed: Priority,
    class: InterferenceClass,
) -> Vec<Segment> {
    let n = interferer.len();
    let high: Vec<bool> = interferer
        .tasks()
        .iter()
        .map(|t| t.priority() > min_observed)
        .collect();
    if class == InterferenceClass::ArbitrarilyInterfering {
        // The whole chain interferes as one piece.
        return vec![Segment {
            indices: (0..n).collect(),
            wraps: false,
        }];
    }
    // Maximal runs of `high` tasks on the circular index space. Because the
    // chain is deferred there is at least one non-high task, so runs are
    // well-defined.
    let mut segments = Vec::new();
    let mut run: Vec<usize> = Vec::new();
    for (i, &is_high) in high.iter().enumerate() {
        if is_high {
            run.push(i);
        } else if !run.is_empty() {
            segments.push(Segment {
                indices: std::mem::take(&mut run),
                wraps: false,
            });
        }
    }
    if !run.is_empty() {
        // Run touching the end: per the modulo convention it merges with a
        // run touching the start, wrapping into the next instance.
        if !segments.is_empty() && segments[0].indices.first() == Some(&0) && high[0] {
            let mut first = segments.remove(0);
            run.append(&mut first.indices);
            segments.insert(
                0,
                Segment {
                    indices: run,
                    wraps: true,
                },
            );
        } else {
            segments.push(Segment {
                indices: run,
                wraps: false,
            });
        }
    }
    segments
}

fn compute_active_segments(
    interferer: &Chain,
    tail_observed: Priority,
    segments: &[Segment],
) -> Vec<ActiveSegment> {
    let mut result = Vec::new();
    for (segment_index, segment) in segments.iter().enumerate() {
        let mut current: Vec<usize> = Vec::new();
        let mut prev_index: Option<usize> = None;
        for &i in &segment.indices {
            let wrap_boundary = prev_index.is_some_and(|p| i < p);
            let extends = !current.is_empty()
                && !wrap_boundary
                && interferer.tasks()[i].priority() > tail_observed;
            if extends {
                current.push(i);
            } else {
                if !current.is_empty() {
                    result.push(ActiveSegment {
                        indices: std::mem::take(&mut current),
                        segment_index,
                    });
                }
                current.push(i);
            }
            prev_index = Some(i);
        }
        if !current.is_empty() {
            result.push(ActiveSegment {
                indices: current,
                segment_index,
            });
        }
    }
    result
}

fn compute_header_segment(interferer: &Chain, min_observed: Priority) -> Vec<usize> {
    // An arbitrarily interfering chain has no task below the observed
    // minimum, and its header segment is unused: empty.
    (0..first_below(interferer, min_observed).unwrap_or(0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use crate::system::System;

    /// Figure 1 of the paper: σa = priorities 7,9,5,2,4,1 (unit wcets
    /// chosen distinct to test wcet sums), σb = 8,3,6.
    fn figure1() -> System {
        SystemBuilder::new()
            .chain("a")
            .periodic(1000)
            .unwrap()
            .task("a1", 7, 1)
            .task("a2", 9, 2)
            .task("a3", 5, 4)
            .task("a4", 2, 8)
            .task("a5", 4, 16)
            .task("a6", 1, 32)
            .done()
            .chain("b")
            .periodic(1000)
            .unwrap()
            .task("b1", 8, 1)
            .task("b2", 3, 2)
            .task("b3", 6, 4)
            .done()
            .build()
            .unwrap()
    }

    #[test]
    fn figure1_classification() {
        let s = figure1();
        let a = &s.chains()[0];
        let b = &s.chains()[1];
        // σa has tasks (prio 2 and 1) below min(σb) = 3 → deferred.
        assert_eq!(classify(a, b), InterferenceClass::Deferred);
        // σb has task (prio 3) below... min(σa) = 1? No: 3 > 1, no task of
        // σb is below 1 → arbitrarily interfering.
        assert_eq!(classify(b, a), InterferenceClass::ArbitrarilyInterfering);
    }

    #[test]
    fn figure1_segments_match_paper() {
        let s = figure1();
        let view = SegmentView::new(&s.chains()[0], &s.chains()[1]);
        let segs: Vec<&[usize]> = view.segments().iter().map(|s| s.task_indices()).collect();
        assert_eq!(segs, vec![&[0usize, 1, 2][..], &[4][..]]);
        assert!(!view.segments()[0].wraps());
    }

    #[test]
    fn figure1_active_segments_match_paper() {
        let s = figure1();
        let view = SegmentView::new(&s.chains()[0], &s.chains()[1]);
        let active: Vec<&[usize]> = view
            .active_segments()
            .iter()
            .map(|s| s.task_indices())
            .collect();
        // (τ1a, τ2a), (τ3a), (τ5a): tail of σb has priority 6; τ3a (prio 5)
        // cannot extend the first active segment.
        assert_eq!(active, vec![&[0usize, 1][..], &[2][..], &[4][..]]);
        assert_eq!(view.active_segments()[0].segment_index(), 0);
        assert_eq!(view.active_segments()[1].segment_index(), 0);
        assert_eq!(view.active_segments()[2].segment_index(), 1);
    }

    #[test]
    fn figure1_critical_segment() {
        let s = figure1();
        let a = &s.chains()[0];
        let view = SegmentView::new(a, &s.chains()[1]);
        // Segment (0,1,2) has wcet 7; segment (4) has wcet 16 → critical.
        let crit = view.critical_segment().unwrap();
        assert_eq!(crit.task_indices(), &[4]);
        assert_eq!(crit.wcet(a), 16);
    }

    #[test]
    fn figure1_header_segment_wrt() {
        let s = figure1();
        let a = &s.chains()[0];
        let view = SegmentView::new(a, &s.chains()[1]);
        // First task of σa below min(σb)=3 is τ4a (index 3) → header = 0..3.
        assert_eq!(view.header_segment(), &[0, 1, 2]);
        assert_eq!(view.header_segment_wcet(a), 7);
    }

    #[test]
    fn self_header_segment_examples() {
        let s = figure1();
        // σa's lowest priority task is τ6a (index 5) → header = 0..5.
        assert_eq!(self_header_segment(&s.chains()[0]), vec![0, 1, 2, 3, 4]);
        // σb's lowest priority task is τ2b (index 1) → header = [0].
        assert_eq!(self_header_segment(&s.chains()[1]), vec![0]);
    }

    #[test]
    fn self_header_segment_empty_when_head_is_lowest() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .task("x1", 1, 1)
            .task("x2", 5, 1)
            .done()
            .build()
            .unwrap();
        assert!(self_header_segment(&s.chains()[0]).is_empty());
    }

    #[test]
    fn wrapping_segment_is_detected() {
        // High, low, high: the trailing high run wraps into the leading
        // one: segment (2, 0) spanning two instances.
        let s = SystemBuilder::new()
            .chain("a")
            .periodic(10)
            .unwrap()
            .task("a1", 9, 1)
            .task("a2", 1, 2)
            .task("a3", 8, 4)
            .done()
            .chain("b")
            .periodic(10)
            .unwrap()
            .task("b1", 5, 1)
            .task("b2", 4, 1)
            .done()
            .build()
            .unwrap();
        let view = SegmentView::new(&s.chains()[0], &s.chains()[1]);
        assert_eq!(view.segments().len(), 1);
        let seg = &view.segments()[0];
        assert!(seg.wraps());
        assert_eq!(seg.task_indices(), &[2, 0]);
        assert_eq!(seg.wcet(&s.chains()[0]), 5);
    }

    #[test]
    fn wrapping_segment_splits_active_segments_at_boundary() {
        let s = SystemBuilder::new()
            .chain("a")
            .periodic(10)
            .unwrap()
            .task("a1", 9, 1)
            .task("a2", 1, 2)
            .task("a3", 8, 4)
            .done()
            .chain("b")
            .periodic(10)
            .unwrap()
            .task("b1", 5, 1)
            .task("b2", 2, 1)
            .done()
            .build()
            .unwrap();
        let view = SegmentView::new(&s.chains()[0], &s.chains()[1]);
        // Segment (2, 0) wraps; active segments must not cross the wrap.
        let active: Vec<&[usize]> = view
            .active_segments()
            .iter()
            .map(|s| s.task_indices())
            .collect();
        assert_eq!(active, vec![&[2usize][..], &[0][..]]);
    }

    #[test]
    fn arbitrarily_interfering_chain_is_one_segment() {
        let s = SystemBuilder::new()
            .chain("a")
            .periodic(10)
            .unwrap()
            .task("a1", 9, 1)
            .task("a2", 7, 2)
            .done()
            .chain("b")
            .periodic(10)
            .unwrap()
            .task("b1", 5, 1)
            .task("b2", 2, 1)
            .done()
            .build()
            .unwrap();
        let view = SegmentView::new(&s.chains()[0], &s.chains()[1]);
        assert_eq!(view.class(), InterferenceClass::ArbitrarilyInterfering);
        assert_eq!(view.segments().len(), 1);
        assert_eq!(view.segments()[0].task_indices(), &[0, 1]);
        assert!(view.header_segment().is_empty());
    }

    #[test]
    fn equal_priority_breaks_segment_but_not_deferral() {
        // Task with priority equal to min(σb): not higher, so it ends a
        // segment, but not strictly lower either, so it does not defer.
        let s = SystemBuilder::new()
            .chain("a")
            .periodic(10)
            .unwrap()
            .task("a1", 9, 1)
            .task("a2", 2, 2)
            .task("a3", 8, 4)
            .done()
            .chain("b")
            .periodic(10)
            .unwrap()
            .task("b1", 5, 1)
            .task("b2", 2, 1)
            .done()
            .build()
            .unwrap();
        let view = SegmentView::new(&s.chains()[0], &s.chains()[1]);
        assert_eq!(view.class(), InterferenceClass::ArbitrarilyInterfering);
        assert_eq!(view.segments().len(), 1);
    }
}
