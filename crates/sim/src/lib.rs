//! Discrete-event simulation of SPP uniprocessors running task chains.
//!
//! The analysis crates compute *bounds*; this crate computes *behaviour*.
//! It executes a [`twca_model::System`] against concrete activation traces
//! under the exact semantics of the paper:
//!
//! * static-priority preemptive scheduling of tasks on one processor;
//! * tasks of one chain activate each other in sequence;
//! * a **synchronous** chain does not start a new instance before the
//!   previous one finished (backlogged activations queue at the chain
//!   input, and tasks of a synchronous chain never preempt each other);
//! * an **asynchronous** chain releases every instance immediately, so
//!   instances compete task-by-task according to priorities;
//! * the scheduler is deadline-agnostic: instances always run to
//!   completion.
//!
//! A zero-allocation event-queue core ([`SimArena`]) implements these
//! semantics. The original chain-scan engine is retained in
//! [`reference`](mod@reference) as its differential baseline — the two are
//! bit-identical by construction and pinned so by the `sim-agreement`
//! verify oracle. On top, the
//! [`MonteCarlo`] driver fans seeded runs across threads to produce
//! per-chain empirical miss-rate curves with confidence intervals.
//!
//! The primary use in this workspace is *validation*: simulated deadline
//! misses in any window of `k` consecutive activations must never exceed
//! the analytic deadline miss model `dmm(k)`, and simulated latencies must
//! never exceed the analytic worst-case latency.
//!
//! # Examples
//!
//! ```
//! use twca_model::case_study;
//! use twca_sim::{max_rate_trace, Simulation, TraceSet};
//!
//! let system = case_study();
//! // Drive every chain at its maximum legal rate for 20000 ticks.
//! let traces = TraceSet::max_rate(&system, 20_000);
//! let result = Simulation::new(&system).run(&traces);
//! let (id, c) = system.chain_by_name("sigma_c").unwrap();
//! let stats = result.chain(id);
//! assert!(stats.completed_instances() > 0);
//! // Observed latency is a lower bound on the analytic WCL (331).
//! assert!(stats.max_latency().unwrap() <= 331);
//! # let _ = c;
//! ```

mod engine;
mod event_queue;
mod falsify;
mod gantt;
mod metrics;
mod montecarlo;
pub mod reference;
mod trace;

pub use engine::{ExecutionPolicy, PolicyError, Simulation, SimulationResult};
pub use event_queue::SimArena;
pub use falsify::{falsify, FalsificationConfig, FalsificationOutcome};
pub use gantt::{ExecutionSpan, ExecutionTrace};
pub use metrics::{ChainStats, InstanceRecord};
pub use montecarlo::{ChainMissProfile, MonteCarlo, MonteCarloConfig, MonteCarloReport};
pub use trace::{
    adversarial_aligned_traces, batched_max_rate_trace, max_rate_trace, periodic_trace,
    random_sporadic_trace, Trace, TraceSet,
};
