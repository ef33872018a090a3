//! The reference implementations that proved the event-queue core.
//!
//! The classic chain-scan engine rescans every chain at every
//! scheduling decision (`O(chains)` per step). It is retained, bit for
//! bit, as the differential baseline of the zero-allocation
//! event-queue core behind [`Simulation::run`] and [`MonteCarlo::run`]:
//! the `sim-agreement` verify oracle, the agreement tests and
//! `twca bench` call it through this module. No configuration field,
//! wire option or CLI flag selects it.

use std::collections::{BinaryHeap, VecDeque};

use crate::engine::{ExecutionPolicy, Job, Simulation, SimulationResult};
use crate::gantt::{ExecutionSpan, ExecutionTrace};
use crate::metrics::{ChainStats, InstanceRecord};
use crate::montecarlo::{MonteCarlo, MonteCarloReport};
use crate::trace::{Trace, TraceSet};
use twca_curves::Time;
use twca_model::{ChainKind, System};

/// Runs `sim` against `traces` on the classic chain-scan core. The
/// result is bit-identical to [`Simulation::run`] (statistics, instance
/// records and recorded execution spans).
///
/// # Panics
///
/// Panics if `traces` does not match the system (one trace per chain).
///
/// # Examples
///
/// ```
/// use twca_model::case_study;
/// use twca_sim::{reference, Simulation, TraceSet};
///
/// let system = case_study();
/// let traces = TraceSet::max_rate(&system, 10_000);
/// let sim = Simulation::new(&system).with_execution_trace(true);
/// assert_eq!(reference::run_classic(&sim, &traces), sim.run(&traces));
/// ```
pub fn run_classic(sim: &Simulation<'_>, traces: &TraceSet) -> SimulationResult {
    assert_eq!(
        traces.traces().len(),
        sim.system.chains().len(),
        "trace set does not match system"
    );
    sim.run_classic(traces.traces())
}

/// Runs the Monte Carlo sweep `mc` with every run on the classic core
/// (a fresh result per run, no arena reuse). The report is
/// bit-identical to [`MonteCarlo::run`].
pub fn monte_carlo_classic(mc: &MonteCarlo<'_>) -> MonteCarloReport {
    mc.run_on(true)
}

/// Per-chain bookkeeping during a run.
struct ChainState {
    kind: ChainKind,
    /// Activations not yet released (time-sorted).
    pending: VecDeque<Time>,
    /// Synchronous backlog: activations waiting for the previous instance.
    backlog: VecDeque<Time>,
    /// Whether a synchronous instance is currently in flight.
    active: bool,
    records: Vec<InstanceRecord>,
}

impl Simulation<'_> {
    pub(crate) fn run_classic(&self, traces: &[Trace]) -> SimulationResult {
        let mut states: Vec<ChainState> = self
            .system
            .chains()
            .iter()
            .zip(traces)
            .map(|(chain, trace)| ChainState {
                kind: chain.kind(),
                pending: trace.times().iter().copied().collect(),
                backlog: VecDeque::new(),
                active: false,
                records: Vec::new(),
            })
            .collect();

        let mut ready: BinaryHeap<Job> = BinaryHeap::new();
        let mut time: Time = 0;
        let mut seq: u64 = 0;
        let mut execution_trace = self.record_execution.then(ExecutionTrace::new);

        loop {
            // Release every activation due at or before `time`.
            for (chain_idx, state) in states.iter_mut().enumerate() {
                while state.pending.front().is_some_and(|&t| t <= time) {
                    let activation = state.pending.pop_front().expect("checked non-empty");
                    release_instance(
                        self.system,
                        self.policy,
                        chain_idx,
                        activation,
                        time,
                        state,
                        &mut ready,
                        &mut seq,
                    );
                }
            }

            let next_activation = states
                .iter()
                .filter_map(|s| s.pending.front().copied())
                .min();

            let Some(job) = ready.peek() else {
                match next_activation {
                    Some(t) => {
                        time = time.max(t);
                        continue;
                    }
                    None => break, // no ready work, no future arrivals
                }
            };

            let finish = time + job.remaining;
            if let Some(t_act) = next_activation {
                if t_act < finish {
                    // Run the current job up to the arrival, then rescan
                    // (the arrival may preempt).
                    let mut job = ready.pop().expect("peeked non-empty");
                    job.remaining -= t_act - time;
                    if let Some(trace) = execution_trace.as_mut() {
                        trace.record(ExecutionSpan {
                            chain: job.chain,
                            instance: job.instance,
                            task_index: job.task_index,
                            start: time,
                            end: t_act,
                        });
                    }
                    time = t_act;
                    ready.push(job);
                    continue;
                }
            }

            // The job completes before anything else happens.
            let job = ready.pop().expect("peeked non-empty");
            if let Some(trace) = execution_trace.as_mut() {
                trace.record(ExecutionSpan {
                    chain: job.chain,
                    instance: job.instance,
                    task_index: job.task_index,
                    start: time,
                    end: finish,
                });
            }
            time = finish;
            self.complete_job(job, time, &mut states, &mut ready, &mut seq);
        }

        let chains = states
            .into_iter()
            .zip(self.system.chains())
            .map(|(state, chain)| ChainStats::new(state.records, chain.deadline()))
            .collect();
        SimulationResult {
            chains,
            execution_trace,
        }
    }

    fn complete_job(
        &self,
        job: Job,
        now: Time,
        states: &mut [ChainState],
        ready: &mut BinaryHeap<Job>,
        seq: &mut u64,
    ) {
        let chain = &self.system.chains()[job.chain];
        if job.task_index + 1 < chain.len() {
            // Release the successor task of the same instance.
            let next = &chain.tasks()[job.task_index + 1];
            *seq += 1;
            ready.push(Job {
                priority: next.priority().level(),
                activation: job.activation,
                seq: *seq,
                chain: job.chain,
                instance: job.instance,
                task_index: job.task_index + 1,
                remaining: self.policy.execution_time(next.wcet()),
            });
            return;
        }
        // Chain instance complete.
        let state = &mut states[job.chain];
        state.records[job.instance].complete(now);
        state.active = false;
        if state.kind.is_synchronous() {
            if let Some(activation) = state.backlog.pop_front() {
                release_instance(
                    self.system,
                    self.policy,
                    job.chain,
                    activation,
                    now,
                    state,
                    ready,
                    seq,
                );
            }
        }
        // Path link: the completion activates the downstream chain.
        if let Some(target) = self.links[job.chain] {
            let target_state = &mut states[target];
            release_instance(
                self.system,
                self.policy,
                target,
                now,
                now,
                target_state,
                ready,
                seq,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn release_instance(
    system: &System,
    policy: ExecutionPolicy,
    chain_idx: usize,
    activation: Time,
    now: Time,
    state: &mut ChainState,
    ready: &mut BinaryHeap<Job>,
    seq: &mut u64,
) {
    if state.kind.is_synchronous() && state.active {
        state.backlog.push_back(activation);
        return;
    }
    let chain = &system.chains()[chain_idx];
    let header = chain.header_task();
    let instance = state.records.len();
    state.records.push(InstanceRecord::activated(activation));
    state.active = true;
    *seq += 1;
    ready.push(Job {
        priority: header.priority().level(),
        activation,
        seq: *seq,
        chain: chain_idx,
        instance,
        task_index: 0,
        remaining: policy.execution_time(header.wcet()),
    });
    // `now` is when the release happens; for synchronous backlogged
    // activations this is later than `activation`, which is exactly what
    // end-to-end latency must measure from.
    let _ = now;
}
