//! The discrete-event scheduling engine.

use std::cmp::Ordering;

use crate::event_queue::{self, SimArena};
use crate::gantt::ExecutionTrace;
use crate::metrics::ChainStats;
use crate::trace::TraceSet;
use twca_curves::Time;
use twca_model::{ChainId, System};

/// Why an execution-time policy was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyError {
    /// The scale factor is NaN or infinite.
    NonFinite(f64),
    /// The scale factor is negative.
    Negative(f64),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::NonFinite(factor) => {
                write!(f, "execution scale factor must be finite, got {factor}")
            }
            PolicyError::Negative(factor) => {
                write!(
                    f,
                    "execution scale factor must be non-negative, got {factor}"
                )
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// How job execution times are derived from task WCET bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionPolicy {
    /// Every job runs for exactly its task's WCET (the canonical scenario
    /// for validating worst-case analyses).
    WorstCase,
    /// Every job runs for `ceil(wcet · factor)`, clamped to `[0, wcet]`.
    /// Models systems whose typical execution times undershoot the bound.
    ///
    /// Construct via [`ExecutionPolicy::scaled`] to reject NaN, infinite
    /// and negative factors with a typed error instead of silently
    /// clamping them through float casts.
    Scaled(f64),
}

impl ExecutionPolicy {
    /// Validated constructor for [`ExecutionPolicy::Scaled`].
    ///
    /// # Errors
    ///
    /// [`PolicyError::NonFinite`] for NaN or infinite factors,
    /// [`PolicyError::Negative`] for negative ones.
    ///
    /// # Examples
    ///
    /// ```
    /// use twca_sim::ExecutionPolicy;
    ///
    /// assert!(ExecutionPolicy::scaled(0.5).is_ok());
    /// assert!(ExecutionPolicy::scaled(f64::NAN).is_err());
    /// assert!(ExecutionPolicy::scaled(-0.25).is_err());
    /// ```
    pub fn scaled(factor: f64) -> Result<Self, PolicyError> {
        if !factor.is_finite() {
            return Err(PolicyError::NonFinite(factor));
        }
        if factor < 0.0 {
            return Err(PolicyError::Negative(factor));
        }
        Ok(ExecutionPolicy::Scaled(factor))
    }

    /// Checks a policy built from raw enum literals.
    ///
    /// # Errors
    ///
    /// The same errors as [`ExecutionPolicy::scaled`] for invalid
    /// `Scaled` factors; `WorstCase` is always valid.
    pub fn validate(self) -> Result<Self, PolicyError> {
        match self {
            ExecutionPolicy::Scaled(factor) => ExecutionPolicy::scaled(factor),
            ExecutionPolicy::WorstCase => Ok(self),
        }
    }

    pub(crate) fn execution_time(self, wcet: Time) -> Time {
        match self {
            ExecutionPolicy::WorstCase => wcet,
            ExecutionPolicy::Scaled(f) => {
                let scaled = (wcet as f64 * f).ceil();
                if scaled <= 0.0 {
                    0
                } else {
                    (scaled as Time).min(wcet)
                }
            }
        }
    }
}

/// A ready job. Ordering puts the job to schedule next on top of a
/// max-heap: highest task priority first, then earliest activation, then
/// lowest release sequence number (deterministic FIFO tie-break).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Job {
    pub(crate) priority: u32,
    pub(crate) activation: Time,
    pub(crate) seq: u64,
    pub(crate) chain: usize,
    pub(crate) instance: usize,
    pub(crate) task_index: usize,
    pub(crate) remaining: Time,
}

impl Ord for Job {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.activation.cmp(&self.activation))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A configured simulation of one system.
///
/// # Examples
///
/// ```
/// use twca_model::case_study;
/// use twca_sim::{ExecutionPolicy, Simulation, TraceSet};
///
/// let system = case_study();
/// let traces = TraceSet::max_rate_without_overload(&system, 10_000);
/// let result = Simulation::new(&system)
///     .with_policy(ExecutionPolicy::WorstCase)
///     .run(&traces);
/// let (id, _) = system.chain_by_name("sigma_c").unwrap();
/// // Without overload activations σc never misses its 200-tick deadline.
/// assert_eq!(result.chain(id).miss_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    pub(crate) system: &'a System,
    pub(crate) policy: ExecutionPolicy,
    pub(crate) record_execution: bool,
    /// `links[x] = Some(y)`: completing an instance of chain `x`
    /// activates chain `y` (path semantics, footnote 1 of the paper).
    pub(crate) links: Vec<Option<usize>>,
}

/// Per-chain observation records produced by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationResult {
    pub(crate) chains: Vec<ChainStats>,
    pub(crate) execution_trace: Option<ExecutionTrace>,
}

impl SimulationResult {
    /// Statistics of one chain.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the simulated system.
    pub fn chain(&self, id: ChainId) -> &ChainStats {
        &self.chains[id.index()]
    }

    /// Statistics of all chains in chain-id order.
    pub fn chains(&self) -> &[ChainStats] {
        &self.chains
    }

    /// The recorded execution trace, when enabled via
    /// [`Simulation::with_execution_trace`].
    pub fn execution_trace(&self) -> Option<&ExecutionTrace> {
        self.execution_trace.as_ref()
    }
}

impl<'a> Simulation<'a> {
    /// Creates a simulation with the worst-case execution policy.
    pub fn new(system: &'a System) -> Self {
        let links = vec![None; system.chains().len()];
        Simulation {
            system,
            policy: ExecutionPolicy::WorstCase,
            record_execution: false,
            links,
        }
    }

    /// Links two chains into a path: every completed instance of `from`
    /// activates one instance of `to` (at the completion instant). The
    /// downstream chain then needs no external trace of its own.
    ///
    /// This realizes the *path* extension of the paper's footnote 1 and
    /// is used to validate `twca-chains`-style path composition: the
    /// analysis side assumes the downstream chain's declared activation
    /// model covers this completion stream.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range, equal, or `from` already has a
    /// link.
    #[must_use]
    pub fn with_link(mut self, from: ChainId, to: ChainId) -> Self {
        assert_ne!(from, to, "a chain cannot feed itself");
        assert!(
            from.index() < self.links.len() && to.index() < self.links.len(),
            "link endpoints out of range"
        );
        assert!(
            self.links[from.index()].is_none(),
            "chain already has an outgoing link"
        );
        self.links[from.index()] = Some(to.index());
        self
    }

    /// Sets the execution-time policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy carries an invalid (NaN, infinite or
    /// negative) scale factor; use [`ExecutionPolicy::scaled`] to handle
    /// that case as a typed error instead.
    #[must_use]
    pub fn with_policy(mut self, policy: ExecutionPolicy) -> Self {
        match policy.validate() {
            Ok(policy) => self.policy = policy,
            Err(error) => panic!("invalid execution policy: {error}"),
        }
        self
    }

    /// Enables or disables recording of the full execution trace
    /// (who ran when), retrievable via
    /// [`SimulationResult::execution_trace`].
    #[must_use]
    pub fn with_execution_trace(mut self, record: bool) -> Self {
        self.record_execution = record;
        self
    }

    /// Runs the system against `traces` until all released work completes.
    ///
    /// # Panics
    ///
    /// Panics if `traces` does not match the system (one trace per chain).
    pub fn run(&self, traces: &TraceSet) -> SimulationResult {
        self.run_in_arena(traces, &mut SimArena::new())
    }

    /// Like [`Simulation::run`], reusing `arena`'s buffers, so repeated
    /// runs over the same (or same-sized) system allocate nothing in the
    /// steady state.
    ///
    /// # Panics
    ///
    /// Panics if `traces` does not match the system (one trace per chain).
    pub fn run_in_arena(&self, traces: &TraceSet, arena: &mut SimArena) -> SimulationResult {
        assert_eq!(
            traces.traces().len(),
            self.system.chains().len(),
            "trace set does not match system"
        );
        event_queue::execute(self, traces.traces(), arena);
        arena.materialize(self.system, self.record_execution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{periodic_trace, Trace, TraceSet};
    use twca_model::{ChainKind, SystemBuilder};

    /// One periodic chain alone: latency = sum of its WCETs.
    #[test]
    fn single_chain_runs_unimpeded() {
        let s = SystemBuilder::new()
            .chain("c")
            .periodic(100)
            .unwrap()
            .deadline(100)
            .task("c1", 2, 10)
            .task("c2", 1, 5)
            .done()
            .build()
            .unwrap();
        let traces = TraceSet::max_rate(&s, 1_000);
        let r = Simulation::new(&s).run(&traces);
        let stats = r.chain(twca_model::ChainId::from_index(0));
        assert_eq!(stats.completed_instances(), 10);
        assert_eq!(stats.max_latency(), Some(15));
        assert_eq!(stats.miss_count(), 0);
    }

    /// A high-priority interferer preempts a low-priority chain.
    #[test]
    fn preemption_extends_latency() {
        let s = SystemBuilder::new()
            .chain("low")
            .periodic(100)
            .unwrap()
            .task("l1", 1, 10)
            .done()
            .chain("high")
            .periodic(100)
            .unwrap()
            .task("h1", 2, 7)
            .done()
            .build()
            .unwrap();
        // Both activate at 0: high runs first, low sees latency 17.
        let traces = TraceSet::max_rate(&s, 100);
        let r = Simulation::new(&s).run(&traces);
        assert_eq!(
            r.chain(twca_model::ChainId::from_index(0)).max_latency(),
            Some(17)
        );
        assert_eq!(
            r.chain(twca_model::ChainId::from_index(1)).max_latency(),
            Some(7)
        );
    }

    /// Mid-execution arrival of a higher-priority job preempts.
    #[test]
    fn mid_execution_preemption() {
        let s = SystemBuilder::new()
            .chain("low")
            .periodic(1000)
            .unwrap()
            .task("l1", 1, 10)
            .done()
            .chain("high")
            .periodic(1000)
            .unwrap()
            .task("h1", 2, 5)
            .done()
            .build()
            .unwrap();
        let mut traces = TraceSet::max_rate(&s, 1);
        traces.set_trace(twca_model::ChainId::from_index(1), Trace::new(vec![3]));
        let r = Simulation::new(&s).run(&traces);
        // low: starts at 0, preempted at 3 for 5 → finishes at 15.
        assert_eq!(
            r.chain(twca_model::ChainId::from_index(0)).max_latency(),
            Some(15)
        );
        // high: arrives at 3, runs immediately → latency 5.
        assert_eq!(
            r.chain(twca_model::ChainId::from_index(1)).max_latency(),
            Some(5)
        );
    }

    /// Synchronous chains queue backlogged activations; latency counts
    /// from the original activation instant.
    #[test]
    fn synchronous_backlog_counts_from_activation() {
        let s = SystemBuilder::new()
            .chain("c")
            .periodic(10)
            .unwrap()
            .kind(ChainKind::Synchronous)
            .task("c1", 1, 25)
            .done()
            .build()
            .unwrap();
        let mut traces = TraceSet::max_rate(&s, 1);
        traces.set_trace(
            twca_model::ChainId::from_index(0),
            periodic_trace(0, 10, 30),
        );
        let r = Simulation::new(&s).run(&traces);
        let stats = r.chain(twca_model::ChainId::from_index(0));
        // Instances: act 0 → done 25; act 10 → starts 25, done 50 (lat 40);
        // act 20 → starts 50, done 75 (lat 55).
        let latencies: Vec<_> = stats.latencies().collect();
        assert_eq!(latencies, vec![25, 40, 55]);
    }

    /// Asynchronous chains let a later instance's header preempt an
    /// earlier instance's low-priority tail.
    #[test]
    fn asynchronous_self_preemption() {
        let s = SystemBuilder::new()
            .chain("c")
            .periodic(10)
            .unwrap()
            .kind(ChainKind::Asynchronous)
            .task("c1", 5, 4)
            .task("c2", 1, 20)
            .done()
            .build()
            .unwrap();
        let mut traces = TraceSet::max_rate(&s, 1);
        traces.set_trace(
            twca_model::ChainId::from_index(0),
            periodic_trace(0, 10, 20),
        );
        let r = Simulation::new(&s).run(&traces);
        let stats = r.chain(twca_model::ChainId::from_index(0));
        // Instance 0: c1 0-4, c2 4-10 preempted by instance 1's c1 (10-14),
        // c2 resumes 14-... instance0 c2 remaining 14 → done at 28.
        // Instance 1: c2 runs 28-48.
        let latencies: Vec<_> = stats.latencies().collect();
        assert_eq!(latencies, vec![28, 38]);
    }

    /// Scaled execution policy shortens jobs.
    #[test]
    fn scaled_policy() {
        assert_eq!(ExecutionPolicy::Scaled(0.5).execution_time(10), 5);
        assert_eq!(ExecutionPolicy::Scaled(0.0).execution_time(10), 0);
        assert_eq!(ExecutionPolicy::Scaled(2.0).execution_time(10), 10);
        assert_eq!(ExecutionPolicy::WorstCase.execution_time(10), 10);
    }

    /// Non-finite and negative scale factors are typed errors, not
    /// silent clamps.
    #[test]
    fn scaled_policy_rejects_invalid_factors() {
        assert!(matches!(
            ExecutionPolicy::scaled(f64::NAN),
            Err(PolicyError::NonFinite(_))
        ));
        assert!(matches!(
            ExecutionPolicy::scaled(f64::INFINITY),
            Err(PolicyError::NonFinite(f)) if f.is_infinite()
        ));
        assert!(matches!(
            ExecutionPolicy::scaled(-0.25),
            Err(PolicyError::Negative(f)) if f == -0.25
        ));
        // Valid factors round-trip, and validate() accepts raw literals.
        assert_eq!(
            ExecutionPolicy::scaled(1.5),
            Ok(ExecutionPolicy::Scaled(1.5))
        );
        assert_eq!(
            ExecutionPolicy::Scaled(0.75).validate(),
            Ok(ExecutionPolicy::Scaled(0.75))
        );
        assert_eq!(
            ExecutionPolicy::WorstCase.validate(),
            Ok(ExecutionPolicy::WorstCase)
        );
        let message = ExecutionPolicy::scaled(-1.0).unwrap_err().to_string();
        assert!(message.contains("non-negative"), "{message}");
    }

    #[test]
    #[should_panic(expected = "invalid execution policy")]
    fn with_policy_panics_on_nan_factor() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .task("t", 1, 1)
            .done()
            .build()
            .unwrap();
        let _ = Simulation::new(&s).with_policy(ExecutionPolicy::Scaled(f64::NAN));
    }

    /// The event-queue core and the classic engine are bit-identical:
    /// same records, same stats, same execution spans.
    #[test]
    fn engines_agree_across_scenarios() {
        let systems = [twca_model::case_study(), {
            let mut b = SystemBuilder::new();
            for i in 0..6 {
                b = b
                    .chain(format!("c{i}"))
                    .periodic(40 + 13 * i as u64)
                    .unwrap()
                    .deadline(80)
                    .task(format!("a{i}"), (i % 3 + 1) as u32, 3)
                    .task(format!("b{i}"), 1, 2)
                    .done();
            }
            b.build().unwrap()
        }];
        for system in &systems {
            for traces in [
                TraceSet::max_rate(system, 5_000),
                crate::trace::adversarial_aligned_traces(system, 5_000),
            ] {
                let sim = Simulation::new(system).with_execution_trace(true);
                assert_eq!(
                    crate::reference::run_classic(&sim, &traces),
                    sim.run(&traces)
                );
            }
        }
    }

    /// Linked chains form a path: the downstream chain activates exactly
    /// once per upstream completion, at the completion instant.
    #[test]
    fn linked_chain_activates_on_completion() {
        let s = SystemBuilder::new()
            .chain("head")
            .periodic(100)
            .unwrap()
            .task("h1", 2, 10)
            .done()
            .chain("tail")
            .sporadic(50)
            .unwrap()
            .task("t1", 1, 5)
            .done()
            .build()
            .unwrap();
        let head = twca_model::ChainId::from_index(0);
        let tail = twca_model::ChainId::from_index(1);
        let mut traces = TraceSet::max_rate(&s, 300);
        traces.set_trace(tail, Trace::empty()); // driven by the link only
        let r = Simulation::new(&s).with_link(head, tail).run(&traces);
        let head_stats = r.chain(head);
        let tail_stats = r.chain(tail);
        assert_eq!(head_stats.completed_instances(), 3);
        assert_eq!(tail_stats.completed_instances(), 3);
        // Head completes at 10, 110, 210; tail activates there and runs 5.
        let tail_records: Vec<(u64, u64)> = tail_stats
            .records()
            .iter()
            .map(|rec| (rec.activation(), rec.completion().unwrap()))
            .collect();
        assert_eq!(tail_records, vec![(10, 15), (110, 115), (210, 215)]);
    }

    #[test]
    #[should_panic(expected = "cannot feed itself")]
    fn self_link_panics() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .task("t", 1, 1)
            .done()
            .build()
            .unwrap();
        let id = twca_model::ChainId::from_index(0);
        let _ = Simulation::new(&s).with_link(id, id);
    }

    /// The execution trace records the exact preemption structure.
    #[test]
    fn execution_trace_matches_preemption_scenario() {
        let s = SystemBuilder::new()
            .chain("low")
            .periodic(1000)
            .unwrap()
            .task("l1", 1, 10)
            .done()
            .chain("high")
            .periodic(1000)
            .unwrap()
            .task("h1", 2, 5)
            .done()
            .build()
            .unwrap();
        let mut traces = TraceSet::max_rate(&s, 1);
        traces.set_trace(twca_model::ChainId::from_index(1), Trace::new(vec![3]));
        let r = Simulation::new(&s).with_execution_trace(true).run(&traces);
        let trace = r.execution_trace().unwrap();
        assert!(trace.is_consistent());
        // low [0,3), high [3,8), low [8,15).
        let spans: Vec<(usize, u64, u64)> = trace
            .spans()
            .iter()
            .map(|s| (s.chain, s.start, s.end))
            .collect();
        assert_eq!(spans, vec![(0, 0, 3), (1, 3, 8), (0, 8, 15)]);
        assert_eq!(trace.preemption_count(), 1);
        assert_eq!(trace.total_busy_time(), 15);
    }

    /// Trace recording is off by default.
    #[test]
    fn execution_trace_disabled_by_default() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .task("t", 1, 1)
            .done()
            .build()
            .unwrap();
        let r = Simulation::new(&s).run(&TraceSet::max_rate(&s, 20));
        assert!(r.execution_trace().is_none());
    }

    /// Same-priority jobs run in FIFO order of release.
    #[test]
    fn equal_priority_fifo() {
        let s = SystemBuilder::new()
            .chain("x")
            .periodic(100)
            .unwrap()
            .task("x1", 5, 10)
            .done()
            .chain("y")
            .periodic(100)
            .unwrap()
            .task("y1", 5, 10)
            .done()
            .build()
            .unwrap();
        let mut traces = TraceSet::max_rate(&s, 1);
        traces.set_trace(twca_model::ChainId::from_index(0), Trace::new(vec![0]));
        traces.set_trace(twca_model::ChainId::from_index(1), Trace::new(vec![1]));
        let r = Simulation::new(&s).run(&traces);
        // x started first and is not preempted by equal-priority y.
        assert_eq!(
            r.chain(twca_model::ChainId::from_index(0)).max_latency(),
            Some(10)
        );
        assert_eq!(
            r.chain(twca_model::ChainId::from_index(1)).max_latency(),
            Some(19)
        );
    }
}
