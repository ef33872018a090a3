//! Generation of chain systems derived from *communicating threads*
//! (the structure motivating Schlatow & Ernst, RTAS'16, which the paper
//! builds on): each thread owns a priority band, and a chain is a
//! sequence of operations hopping between threads.
//!
//! Chains generated this way zig-zag through the priority space, which is
//! exactly where segment-aware analysis beats flattening: a chain
//! visiting a low-priority thread is *deferred* there, so only its
//! high-priority segments interfere with others.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::unifast::uunifast;
use twca_model::{ModelError, System, SystemBuilder, Time};

/// Configuration for [`communicating_threads_system`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSystemConfig {
    /// Number of threads (= disjoint priority bands).
    pub threads: usize,
    /// Number of regular chains.
    pub chains: usize,
    /// Inclusive range of operations (tasks) per chain.
    pub chain_length: (usize, usize),
    /// Inclusive range of chain periods (deadline = period).
    pub period_range: (Time, Time),
    /// Total utilization of the regular chains.
    pub utilization: f64,
    /// Number of sporadic overload chains.
    pub overload_chains: usize,
    /// Overload inter-arrival distance = `overload_rarity` × period.
    pub overload_rarity: Time,
}

impl Default for ThreadSystemConfig {
    fn default() -> Self {
        ThreadSystemConfig {
            threads: 3,
            chains: 3,
            chain_length: (2, 6),
            period_range: (200, 2_000),
            utilization: 0.5,
            overload_chains: 1,
            overload_rarity: 5,
        }
    }
}

/// Generates a communicating-threads system: every task lives in the
/// priority band of its thread, consecutive tasks of a chain live on
/// *different* threads, and priorities are unique globally.
///
/// # Errors
///
/// Propagates [`ModelError`] from validation (not expected for sane
/// configurations).
///
/// # Panics
///
/// Panics on degenerate configurations (zero threads/chains, empty
/// ranges, fewer than two threads with chains longer than one).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use twca_gen::{communicating_threads_system, ThreadSystemConfig};
///
/// # fn main() -> Result<(), twca_model::ModelError> {
/// let mut rng = ChaCha8Rng::seed_from_u64(3);
/// let s = communicating_threads_system(&mut rng, &ThreadSystemConfig::default())?;
/// assert_eq!(s.chains().len(), 4); // 3 regular + 1 overload
/// # Ok(())
/// # }
/// ```
pub fn communicating_threads_system(
    rng: &mut impl Rng,
    config: &ThreadSystemConfig,
) -> Result<System, ModelError> {
    assert!(config.threads >= 1, "need at least one thread");
    assert!(
        config.chains + config.overload_chains >= 1,
        "need at least one chain"
    );
    assert!(
        config.chain_length.0 >= 1 && config.chain_length.0 <= config.chain_length.1,
        "invalid chain length range"
    );
    assert!(
        config.threads >= 2 || config.chain_length.1 <= 1,
        "thread-hopping chains need at least two threads"
    );
    assert!(
        config.period_range.0 >= 1 && config.period_range.0 <= config.period_range.1,
        "invalid period range"
    );

    let total_chains = config.chains + config.overload_chains;
    // Shape: per chain, the thread of each task.
    let mut shapes: Vec<(usize, Vec<usize>, Time, bool)> = Vec::new(); // (idx, threads, period, overload)
    for i in 0..total_chains {
        let overload = i >= config.chains;
        let len = rng.gen_range(config.chain_length.0..=config.chain_length.1);
        let mut hops = Vec::with_capacity(len);
        let mut current = rng.gen_range(0..config.threads);
        hops.push(current);
        for _ in 1..len {
            // Hop to a different thread.
            let mut next = rng.gen_range(0..config.threads);
            while next == current && config.threads > 1 {
                next = rng.gen_range(0..config.threads);
            }
            hops.push(next);
            current = next;
        }
        let mut period = rng.gen_range(config.period_range.0..=config.period_range.1);
        if overload {
            period = period.saturating_mul(config.overload_rarity.max(1));
        }
        shapes.push((i, hops, period, overload));
    }

    // Priorities: one unique level per task, drawn from its thread's band.
    // Band t covers levels [t·width + 1, (t+1)·width]; within a band,
    // levels are shuffled and handed out in order.
    let tasks_per_thread: Vec<usize> = (0..config.threads)
        .map(|t| {
            shapes
                .iter()
                .map(|(_, hops, _, _)| hops.iter().filter(|&&h| h == t).count())
                .sum()
        })
        .collect();
    let width = tasks_per_thread.iter().copied().max().unwrap_or(1).max(1) as u32;
    let mut band_levels: Vec<Vec<u32>> = (0..config.threads)
        .map(|t| {
            let base = t as u32 * width;
            let mut levels: Vec<u32> = (base + 1..=base + width).collect();
            levels.shuffle(rng);
            levels
        })
        .collect();

    // Utilizations.
    let utils = uunifast(rng, total_chains, config.utilization.max(1e-9));

    let mut builder = SystemBuilder::new();
    for (i, hops, period, overload) in &shapes {
        let name = if *overload {
            format!("overload_{i}")
        } else {
            format!("flow_{i}")
        };
        let budget = ((*period as f64 * utils[*i]).floor() as Time).max(1);
        let per_task = (budget / hops.len() as Time).max(1);
        let mut cb = if *overload {
            builder.chain(&name).sporadic(*period)?.overload()
        } else {
            builder.chain(&name).periodic(*period)?.deadline(*period)
        };
        for (t, &thread) in hops.iter().enumerate() {
            let level = band_levels[thread]
                .pop()
                .expect("band width covers all tasks of the thread");
            cb = cb.task(format!("{name}_op{t}_thr{thread}"), level, per_task);
        }
        builder = cb.done();
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use twca_model::{segments::classify, InterferenceClass};

    #[test]
    fn generates_valid_systems() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = ThreadSystemConfig::default();
        for _ in 0..20 {
            let s = communicating_threads_system(&mut rng, &config).unwrap();
            assert_eq!(s.chains().len(), 4);
            // Priorities unique.
            let mut levels: Vec<u32> = s
                .task_refs()
                .map(|r| s.task(r).priority().level())
                .collect();
            let n = levels.len();
            levels.sort_unstable();
            levels.dedup();
            assert_eq!(levels.len(), n, "priorities must be unique");
        }
    }

    #[test]
    fn consecutive_tasks_hop_threads() {
        // Thread is encoded in the task name suffix; consecutive tasks of
        // a chain must differ.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let s = communicating_threads_system(&mut rng, &ThreadSystemConfig::default()).unwrap();
        for (_, chain) in s.iter() {
            for pair in chain.tasks().windows(2) {
                let thread = |name: &str| {
                    name.rsplit("_thr")
                        .next()
                        .and_then(|t| t.parse::<usize>().ok())
                        .expect("generated names encode the thread")
                };
                assert_ne!(
                    thread(pair[0].name()),
                    thread(pair[1].name()),
                    "consecutive tasks on the same thread"
                );
            }
        }
    }

    #[test]
    fn thread_structure_produces_deferred_chains() {
        // With several bands, zig-zagging chains frequently defer each
        // other — the situation the paper's segment calculus targets.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = ThreadSystemConfig {
            threads: 4,
            chains: 4,
            chain_length: (3, 6),
            ..ThreadSystemConfig::default()
        };
        let mut deferred = 0usize;
        let mut pairs = 0usize;
        for _ in 0..10 {
            let s = communicating_threads_system(&mut rng, &config).unwrap();
            for (a, ca) in s.iter() {
                for (b, cb) in s.iter() {
                    if a == b {
                        continue;
                    }
                    pairs += 1;
                    if classify(ca, cb) == InterferenceClass::Deferred {
                        deferred += 1;
                    }
                }
            }
        }
        assert!(
            deferred * 4 > pairs,
            "expected >25% deferred pairs, got {deferred}/{pairs}"
        );
    }

    #[test]
    fn reproducible() {
        let config = ThreadSystemConfig::default();
        let a = communicating_threads_system(&mut ChaCha8Rng::seed_from_u64(9), &config).unwrap();
        let b = communicating_threads_system(&mut ChaCha8Rng::seed_from_u64(9), &config).unwrap();
        assert_eq!(a, b);
    }
}
