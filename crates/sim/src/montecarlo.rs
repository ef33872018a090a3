//! Parallel Monte Carlo simulation: empirical miss-rate curves with
//! confidence intervals.
//!
//! The driver fans a batch of seeded runs across worker threads through
//! the suite's one ordered fan-out ([`twca_model::ordered_par_map`]):
//! every run's totals come back in run order, and the final aggregation
//! folds integer totals in that order — so the report is
//! **bit-identical for any thread count**. Each worker owns one
//! reusable [`SimArena`], keeping the hot loop allocation-free.
//!
//! Every run derives its activation traces from the batched max-rate
//! trace by transformations that provably preserve event-model
//! conformance for *any* model: a global offset (time invariance),
//! non-decreasing cumulative jitter (all inter-arrival gaps only grow,
//! and `η+` is monotone), and random thinning (a subset of a conforming
//! trace conforms). Run 0 of every 4 is the unmodified max-rate trace,
//! so the aggregate always contains the canonical stress scenario. This
//! legality is what makes the `miss-rate-soundness` oracle sound: the
//! analytic `dmm(k)` must dominate the miss count of every window of
//! every run.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::engine::{ExecutionPolicy, Simulation};
use crate::event_queue::{self, SimArena};
use crate::metrics::{max_misses_in_flag_window, InstanceRecord};
use crate::trace::{batched_max_rate_trace, Trace};
use twca_curves::{EventModel, Time};
use twca_model::{ordered_par_map, System};

/// The house seed-mixing constant (golden-ratio increment), matching the
/// per-iteration derivation of the fuzz harness.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of a Monte Carlo sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloConfig {
    /// Number of simulation runs.
    pub runs: u64,
    /// Trace horizon of each run, in ticks.
    pub horizon: Time,
    /// Master seed; run `i` uses `seed ^ (i · φ64)`.
    pub seed: u64,
    /// Worker threads (`0` and `1` both mean serial). The report is
    /// identical for every value.
    pub threads: usize,
    /// Window lengths for the empirical weakly-hard profile.
    pub ks: Vec<u64>,
    /// Execution-time policy applied to every run.
    pub policy: ExecutionPolicy,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            runs: 100,
            horizon: 100_000,
            seed: 0xD1CE,
            threads: 1,
            ks: vec![1, 2, 5, 10],
            policy: ExecutionPolicy::WorstCase,
        }
    }
}

/// A configured Monte Carlo sweep over one system.
///
/// # Examples
///
/// ```
/// use twca_model::case_study;
/// use twca_sim::{MonteCarlo, MonteCarloConfig};
///
/// let system = case_study();
/// let config = MonteCarloConfig {
///     runs: 8,
///     horizon: 20_000,
///     ..MonteCarloConfig::default()
/// };
/// let report = MonteCarlo::new(&system, config).run();
/// let sigma_c = report.chain("sigma_c").unwrap();
/// assert!(sigma_c.instances() > 0);
/// assert!(sigma_c.miss_rate_ppm() <= 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarlo<'a> {
    system: &'a System,
    config: MonteCarloConfig,
}

/// Pooled observations of one chain across all runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainMissProfile {
    name: String,
    deadline: Option<Time>,
    instances: u64,
    misses: u64,
    max_latency: Option<Time>,
    /// `(k, worst misses in any k consecutive activations of any run)`.
    window_misses: Vec<(u64, u64)>,
}

impl ChainMissProfile {
    /// Chain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chain's deadline, if any.
    pub fn deadline(&self) -> Option<Time> {
        self.deadline
    }

    /// Completed instances pooled over all runs.
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// Deadline misses pooled over all runs.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Largest latency observed in any run.
    pub fn max_latency(&self) -> Option<Time> {
        self.max_latency
    }

    /// Worst empirical misses per window length: `(k, misses)` pairs in
    /// request order — the empirical counterpart of the `dmm(k)` curve.
    pub fn window_misses(&self) -> &[(u64, u64)] {
        &self.window_misses
    }

    /// Empirical miss rate in parts per million.
    pub fn miss_rate_ppm(&self) -> u64 {
        if self.instances == 0 {
            return 0;
        }
        ppm(self.misses as f64 / self.instances as f64)
    }

    /// 95% Wilson score interval of the miss rate, in parts per million.
    /// `(0, 1_000_000)` when nothing completed.
    pub fn confidence_ppm(&self) -> (u64, u64) {
        if self.instances == 0 {
            return (0, 1_000_000);
        }
        let n = self.instances as f64;
        let p = self.misses as f64 / n;
        let z = 1.959_963_984_540_054_f64;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = p + z2 / (2.0 * n);
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        (
            ppm(((center - half) / denom).max(0.0)),
            ppm(((center + half) / denom).min(1.0)),
        )
    }
}

fn ppm(fraction: f64) -> u64 {
    (fraction * 1_000_000.0).round() as u64
}

/// The aggregated result of a Monte Carlo sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonteCarloReport {
    runs: u64,
    horizon: Time,
    seed: u64,
    chains: Vec<ChainMissProfile>,
}

impl MonteCarloReport {
    /// Number of runs aggregated.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Per-run trace horizon.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-chain profiles in chain-id order.
    pub fn chains(&self) -> &[ChainMissProfile] {
        &self.chains
    }

    /// Looks up one chain's profile by name.
    pub fn chain(&self, name: &str) -> Option<&ChainMissProfile> {
        self.chains.iter().find(|c| c.name == name)
    }
}

/// One run's integer totals for one chain.
#[derive(Debug, Clone)]
struct ChainTotals {
    completed: u64,
    misses: u64,
    max_latency: Option<Time>,
    window: Vec<u64>,
}

type RunTotals = Vec<ChainTotals>;

impl<'a> MonteCarlo<'a> {
    /// Creates a sweep over `system`.
    pub fn new(system: &'a System, config: MonteCarloConfig) -> Self {
        MonteCarlo { system, config }
    }

    /// Executes all runs and aggregates the report. Deterministic in
    /// `(system, config minus threads)`: any thread count yields a
    /// bit-identical report.
    pub fn run(&self) -> MonteCarloReport {
        self.run_on(false)
    }

    /// [`MonteCarlo::run`] on the event-queue core, or with `classic`
    /// on the reference core of [`crate::reference::monte_carlo_classic`].
    pub(crate) fn run_on(&self, classic: bool) -> MonteCarloReport {
        let cfg = &self.config;
        let base: Vec<Trace> = self
            .system
            .chains()
            .iter()
            .map(|c| batched_max_rate_trace(c.activation(), cfg.horizon))
            .collect();
        let totals = ordered_par_map(
            cfg.runs as usize,
            cfg.threads,
            || Worker::new(self.system, cfg, &base, classic),
            |worker, run| worker.simulate(run),
        );

        let mut chains: Vec<ChainMissProfile> = self
            .system
            .chains()
            .iter()
            .map(|chain| ChainMissProfile {
                name: chain.name().to_string(),
                deadline: chain.deadline(),
                instances: 0,
                misses: 0,
                max_latency: None,
                window_misses: cfg.ks.iter().map(|&k| (k, 0)).collect(),
            })
            .collect();
        for run in totals {
            for (profile, t) in chains.iter_mut().zip(run) {
                profile.instances += t.completed;
                profile.misses += t.misses;
                profile.max_latency = match (profile.max_latency, t.max_latency) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
                for ((_, worst), observed) in profile.window_misses.iter_mut().zip(t.window) {
                    *worst = (*worst).max(observed);
                }
            }
        }
        MonteCarloReport {
            runs: cfg.runs,
            horizon: cfg.horizon,
            seed: cfg.seed,
            chains,
        }
    }
}

/// Per-thread state: one arena, one trace scratch set, one flag buffer —
/// all reused across the runs the worker claims.
struct Worker<'a> {
    system: &'a System,
    cfg: &'a MonteCarloConfig,
    base: &'a [Trace],
    sim: Simulation<'a>,
    /// Run on the classic reference core instead of the arena.
    classic: bool,
    arena: SimArena,
    scratch: Vec<Trace>,
    flags: Vec<bool>,
    deadlines: Vec<Option<Time>>,
}

impl<'a> Worker<'a> {
    fn new(
        system: &'a System,
        cfg: &'a MonteCarloConfig,
        base: &'a [Trace],
        classic: bool,
    ) -> Self {
        Worker {
            system,
            cfg,
            base,
            sim: Simulation::new(system).with_policy(cfg.policy),
            classic,
            arena: SimArena::new(),
            scratch: vec![Trace::empty(); system.chains().len()],
            flags: Vec::new(),
            deadlines: system.chains().iter().map(|c| c.deadline()).collect(),
        }
    }

    fn simulate(&mut self, run: usize) -> RunTotals {
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.cfg.seed ^ (run as u64).wrapping_mul(SEED_MIX));
        self.derive_traces(run, &mut rng);
        if self.classic {
            let result = self.sim.run_classic(&self.scratch);
            return result
                .chains()
                .iter()
                .zip(&self.deadlines)
                .map(|(stats, &deadline)| {
                    chain_totals(stats.records(), deadline, &self.cfg.ks, &mut self.flags)
                })
                .collect();
        }
        event_queue::execute(&self.sim, &self.scratch, &mut self.arena);
        let arena = &self.arena;
        (0..self.system.chains().len())
            .map(|c| {
                chain_totals(
                    arena.records(c),
                    self.deadlines[c],
                    &self.cfg.ks,
                    &mut self.flags,
                )
            })
            .collect()
    }

    /// Derives this run's traces from the max-rate base. Styles rotate
    /// by run index: 0 = unmodified max rate, 1 = random global offset,
    /// 2 = offset + thinning, 3 = offset + growing jitter + thinning —
    /// each transformation preserves conformance to the activation
    /// model (see the module docs).
    fn derive_traces(&mut self, run: usize, rng: &mut ChaCha8Rng) {
        let style = run % 4;
        for (chain_idx, chain) in self.system.chains().iter().enumerate() {
            let src = self.base[chain_idx].times();
            let out = self.scratch[chain_idx].times_mut();
            out.clear();
            if style == 0 {
                out.extend_from_slice(src);
                continue;
            }
            let gap = chain.activation().delta_min(2).max(1);
            let mut shift = rng.gen_range(0..gap);
            let jitter_cap = if style == 3 { gap / 4 } else { 0 };
            let thin = style >= 2;
            for &t in src {
                if jitter_cap > 0 {
                    shift += rng.gen_range(0..=jitter_cap);
                }
                let shifted = t.saturating_add(shift);
                if shifted >= self.cfg.horizon {
                    break;
                }
                if thin && rng.gen_range(0..8u32) == 0 {
                    continue;
                }
                out.push(shifted);
            }
        }
    }
}

fn chain_totals(
    records: &[InstanceRecord],
    deadline: Option<Time>,
    ks: &[u64],
    flags: &mut Vec<bool>,
) -> ChainTotals {
    flags.clear();
    let mut completed = 0u64;
    let mut max_latency: Option<Time> = None;
    for record in records {
        if let Some(latency) = record.latency() {
            completed += 1;
            max_latency = Some(max_latency.map_or(latency, |m| m.max(latency)));
            if let Some(d) = deadline {
                flags.push(latency > d);
            }
        }
    }
    ChainTotals {
        completed,
        misses: flags.iter().filter(|&&m| m).count() as u64,
        max_latency,
        window: ks
            .iter()
            .map(|&k| max_misses_in_flag_window(flags, k as usize) as u64)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::case_study;

    fn config(runs: u64, threads: usize) -> MonteCarloConfig {
        MonteCarloConfig {
            runs,
            horizon: 10_000,
            seed: 7,
            threads,
            ..MonteCarloConfig::default()
        }
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let system = case_study();
        let serial = MonteCarlo::new(&system, config(9, 1)).run();
        let parallel = MonteCarlo::new(&system, config(9, 4)).run();
        let oversubscribed = MonteCarlo::new(&system, config(9, 64)).run();
        assert_eq!(serial, parallel);
        assert_eq!(serial, oversubscribed);
    }

    /// The arena-reusing event-queue runs match the classic reference
    /// core run for run.
    #[test]
    fn engines_agree_on_the_report() {
        let system = case_study();
        let sweep = MonteCarlo::new(&system, config(8, 2));
        assert_eq!(sweep.run(), crate::reference::monte_carlo_classic(&sweep));
    }

    #[test]
    fn derived_traces_stay_model_conforming() {
        let system = case_study();
        let cfg = config(6, 1);
        let base: Vec<Trace> = system
            .chains()
            .iter()
            .map(|c| batched_max_rate_trace(c.activation(), cfg.horizon))
            .collect();
        let mut worker = Worker::new(&system, &cfg, &base, false);
        for run in 0..6 {
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (run as u64).wrapping_mul(SEED_MIX));
            worker.derive_traces(run, &mut rng);
            for (trace, chain) in worker.scratch.iter().zip(system.chains()) {
                assert!(
                    trace.conforms_to(chain.activation()),
                    "run {run} produced an illegal trace for {}",
                    chain.name()
                );
            }
        }
    }

    #[test]
    fn zero_runs_yield_an_empty_report() {
        let system = case_study();
        let report = MonteCarlo::new(&system, config(0, 4)).run();
        assert_eq!(report.runs(), 0);
        for chain in report.chains() {
            assert_eq!(chain.instances(), 0);
            assert_eq!(chain.miss_rate_ppm(), 0);
            assert_eq!(chain.confidence_ppm(), (0, 1_000_000));
            assert_eq!(chain.max_latency(), None);
        }
    }

    #[test]
    fn wilson_interval_brackets_the_rate() {
        let profile = ChainMissProfile {
            name: "c".into(),
            deadline: Some(100),
            instances: 1_000,
            misses: 25,
            max_latency: Some(120),
            window_misses: vec![(1, 1)],
        };
        let rate = profile.miss_rate_ppm();
        let (low, high) = profile.confidence_ppm();
        assert_eq!(rate, 25_000);
        assert!(low < rate && rate < high, "{low} < {rate} < {high}");
        assert!(high <= 1_000_000);
    }
}
