//! Differential replay for the simulation cores plus the empirical
//! miss-rate soundness claim: the zero-allocation event-queue engine
//! and the retained classic chain-scan engine must produce bit-identical
//! [`twca_sim::SimulationResult`]s (statistics, instance records, miss
//! flags and execution spans) on every committed `corpus/` fixture and
//! on 200 fuzzed scenarios per uniprocessor stress profile — and the
//! Monte Carlo driver's empirical miss rates must stay under the
//! analytic `dmm(k)` and WCL bounds on another 200 per profile. The
//! same comparisons run continuously inside the fuzzer as the
//! `sim-agreement` and `miss-rate-soundness` oracles.

use std::path::PathBuf;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use twca_chains::{latency_analysis, AnalysisContext, AnalysisOptions, DmmSweep, OverloadMode};
use twca_curves::EventModel;
use twca_gen::{random_stress_system, StressProfile};
use twca_model::System;
use twca_sim::{
    adversarial_aligned_traces, periodic_trace, MonteCarlo, MonteCarloConfig, Simulation, TraceSet,
};
use twca_verify::{load_corpus, ScenarioBody};

const HORIZON: u64 = 4_000;
const KS: [u64; 4] = [1, 2, 5, 10];

/// Tight divergence limits, like the fuzzer's: agreement and soundness
/// are the claims, not tightness.
fn options() -> AnalysisOptions {
    AnalysisOptions {
        horizon: 100_000,
        max_q: 500,
        packing_budget: 20_000,
        ..AnalysisOptions::default()
    }
}

/// The trace batteries both engines replay: the deterministic stress
/// alignments plus one seeded random-offset round.
fn batteries(system: &System, seed: u64) -> Vec<(String, TraceSet)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batteries = vec![
        (
            "max-rate aligned".into(),
            TraceSet::max_rate(system, HORIZON),
        ),
        (
            "overload aligned".into(),
            adversarial_aligned_traces(system, HORIZON),
        ),
        (
            "typical (no overload)".into(),
            TraceSet::max_rate_without_overload(system, HORIZON),
        ),
    ];
    let mut offsets = TraceSet::max_rate(system, HORIZON);
    for (id, chain) in system.iter() {
        if !chain.is_overload() {
            continue;
        }
        let gap = chain.activation().delta_min(2).max(1);
        let offset = rng.gen_range(0..gap);
        offsets.set_trace(id, periodic_trace(offset, gap, HORIZON));
    }
    batteries.push(("random offsets".into(), offsets));
    batteries
}

/// Runs every battery through both engines (execution traces on) and
/// asserts full-result equality. Returns how many simulations ran.
fn assert_engines_agree(system: &System, seed: u64) -> usize {
    let mut compared = 0;
    for (label, traces) in &batteries(system, seed) {
        let sim = Simulation::new(system).with_execution_trace(true);
        let event_queue = sim.run(traces);
        let classic = twca_sim::reference::run_classic(&sim, traces);
        assert_eq!(
            event_queue, classic,
            "[{label}] event-queue and classic engines diverge"
        );
        compared += 1;
    }
    compared
}

/// Runs a Monte Carlo sweep (all four run styles) and asserts every
/// empirical observation stays under the analytic bounds. Returns how
/// many (chain, bound) comparisons were made.
fn assert_miss_rates_sound(system: &System, seed: u64) -> usize {
    let report = MonteCarlo::new(
        system,
        MonteCarloConfig {
            runs: 8,
            horizon: HORIZON,
            seed,
            threads: 1,
            ks: KS.to_vec(),
            ..MonteCarloConfig::default()
        },
    )
    .run();
    let ctx = AnalysisContext::new(system);
    let opts = options();
    let mut checked = 0;
    for (id, chain) in system.iter() {
        if chain.deadline().is_none() {
            continue;
        }
        let Some(profile) = report.chain(chain.name()) else {
            continue;
        };
        if let (Some(observed), Some(full)) = (
            profile.max_latency(),
            latency_analysis(&ctx, id, OverloadMode::Include, opts),
        ) {
            assert!(
                observed <= full.worst_case_latency,
                "{}: empirical max latency {observed} > WCL {}",
                chain.name(),
                full.worst_case_latency
            );
            checked += 1;
        }
        let Ok(sweep) = DmmSweep::prepare(&ctx, id, opts) else {
            continue;
        };
        for dmm in sweep.curve(KS.iter().copied()) {
            let Some(&(_, observed)) = profile.window_misses().iter().find(|(k, _)| *k == dmm.k)
            else {
                continue;
            };
            assert!(
                observed <= dmm.bound,
                "{}: {observed} empirical misses in a {}-window > dmm({}) = {}",
                chain.name(),
                dmm.k,
                dmm.k,
                dmm.bound
            );
            checked += 1;
        }
    }
    checked
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("corpus")
}

#[test]
fn every_corpus_fixture_agrees_across_engines_and_keeps_rates_sound() {
    let entries = load_corpus(&corpus_dir()).expect("the corpus directory is committed");
    assert!(entries.len() >= 8, "the corpus must not silently shrink");
    let mut simulations = 0;
    let mut soundness_checks = 0;
    for (i, entry) in entries.iter().enumerate() {
        let seed = 0x51A9 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match &entry.body {
            ScenarioBody::Uni(system) => {
                simulations += assert_engines_agree(system, seed);
                soundness_checks += assert_miss_rates_sound(system, seed);
            }
            ScenarioBody::Dist(dist) => {
                for resource in dist.resources() {
                    simulations += assert_engines_agree(resource.system(), seed);
                    soundness_checks += assert_miss_rates_sound(resource.system(), seed);
                }
            }
        }
    }
    assert!(simulations > 0, "fixtures must actually simulate");
    assert!(
        soundness_checks > 0,
        "fixtures must reach at least one analytic bound"
    );
}

#[test]
fn a_thousand_fuzzed_scenarios_agree_across_engines() {
    let mut simulations = 0;
    for profile in StressProfile::ALL {
        for i in 0..200u64 {
            let seed = 0xA9EE ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let system = random_stress_system(&mut rng, profile).expect("built-in profile");
            simulations += assert_engines_agree(&system, seed);
        }
    }
    assert_eq!(
        simulations,
        4 * 200 * StressProfile::ALL.len(),
        "every battery of every scenario must replay through both engines"
    );
}

#[test]
fn a_thousand_fuzzed_scenarios_keep_empirical_rates_under_bounds() {
    let mut checked = 0;
    for profile in StressProfile::ALL {
        for i in 0..200u64 {
            let seed = 0x50DA ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let system = random_stress_system(&mut rng, profile).expect("built-in profile");
            checked += assert_miss_rates_sound(&system, seed);
        }
    }
    assert!(
        checked >= 1000,
        "the stress profiles must reach analytic bounds often enough to be meaningful \
         (got {checked})"
    );
}
