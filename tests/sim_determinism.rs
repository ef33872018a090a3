//! Determinism property tests for the simulation subsystem: the same
//! seed must produce byte-identical Monte Carlo reports for any worker
//! thread count (1, 4 and 8) and across consecutive runs, and a single
//! simulation must replay to a byte-identical result (execution spans
//! included) run after run.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_suite::gen::{random_stress_system, wide_throughput_system, StressProfile};
use twca_suite::model::{case_study, System};
use twca_suite::sim::{reference, MonteCarlo, MonteCarloConfig, Simulation, TraceSet};

const SEED: u64 = 0xDE7E_2A11;

fn sweep(system: &System, threads: usize) -> MonteCarlo<'_> {
    MonteCarlo::new(
        system,
        MonteCarloConfig {
            runs: 24,
            horizon: 10_000,
            seed: SEED,
            threads,
            ..MonteCarloConfig::default()
        },
    )
}

fn test_systems() -> Vec<(String, System)> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    vec![
        ("case study".into(), case_study()),
        ("wide throughput".into(), wide_throughput_system(24)),
        (
            "overload-heavy stress".into(),
            random_stress_system(&mut rng, StressProfile::OverloadHeavy).expect("built-in profile"),
        ),
    ]
}

#[test]
fn reports_are_identical_across_thread_counts() {
    for (label, system) in test_systems() {
        let serial = sweep(&system, 1).run();
        for threads in [4usize, 8] {
            let parallel = sweep(&system, threads).run();
            assert_eq!(
                serial, parallel,
                "[{label}] report diverges at {threads} threads"
            );
            // Byte-identical, not just structurally equal: the rendered
            // form (the CLI's raw material) matches to the last digit.
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "[{label}] rendered report diverges at {threads} threads"
            );
        }
    }
}

#[test]
fn consecutive_runs_are_identical() {
    for (label, system) in test_systems() {
        let first = sweep(&system, 8).run();
        let second = sweep(&system, 8).run();
        assert_eq!(first, second, "[{label}] consecutive sweeps diverge");
    }
}

#[test]
fn both_engines_produce_the_same_report() {
    for (label, system) in test_systems() {
        let event_queue = sweep(&system, 4).run();
        let classic = reference::monte_carlo_classic(&sweep(&system, 4));
        assert_eq!(
            event_queue, classic,
            "[{label}] Monte Carlo reports diverge between engines"
        );
    }
}

#[test]
fn single_simulations_replay_byte_identically() {
    for (label, system) in test_systems() {
        let traces = TraceSet::max_rate(&system, 20_000);
        let first = Simulation::new(&system)
            .with_execution_trace(true)
            .run(&traces);
        let second = Simulation::new(&system)
            .with_execution_trace(true)
            .run(&traces);
        assert_eq!(first, second, "[{label}] replays diverge");
        assert_eq!(
            format!("{first:?}"),
            format!("{second:?}"),
            "[{label}] rendered replays diverge"
        );
    }
}
