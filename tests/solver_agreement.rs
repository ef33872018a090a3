//! Warm-start soundness of the scheduling-point busy-window solver:
//! jump-solved busy times (with their monotone `B(q) → B(q+1)` and
//! Equation 3 bisection seeds) must equal cold successive substitution
//! bit-for-bit on randomized systems — including the saturating
//! arithmetic edges near `options.horizon`, where demands clamp at
//! `u64::MAX` and a "diverging" fixed point can stall into existence.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_suite::chains::reference::Reference;
use twca_suite::chains::{
    busy_time_breakdown, deadline_miss_model, deadline_miss_model_exact, latency_analysis_detailed,
    AnalysisContext, AnalysisOptions, OverloadMode,
};
use twca_suite::gen::{random_distributed, random_stress_system, RandomDistConfig, StressProfile};
use twca_suite::model::SystemBuilder;

/// Batch-tuned limits: stress systems routinely exceed utilization 1,
/// and agreement (not tightness) is what these tests pin.
fn base_options() -> AnalysisOptions {
    AnalysisOptions {
        horizon: 200_000,
        max_q: 1_000,
        ..AnalysisOptions::default()
    }
}

/// The two sides of every comparison: the product context and the
/// iterative-solver reference context of `system`.
fn solver_pair(system: &twca_suite::model::System) -> (AnalysisContext<'_>, AnalysisContext<'_>) {
    (
        AnalysisContext::new(system),
        Reference::IterativeSolver.context(system),
    )
}

/// Every observable of the per-chain pipeline must agree between the
/// solvers on one system: busy-time breakdowns, detailed latency
/// results (the `busy_times` vector pins every warm-started `B(q)`),
/// and the miss models (whose exact variant exercises the
/// threshold-bisection seeds).
fn assert_solvers_agree(system: &twca_suite::model::System, options: AnalysisOptions) {
    let (jump, iterative) = solver_pair(system);
    for (id, chain) in system.iter() {
        for mode in [OverloadMode::Include, OverloadMode::Exclude] {
            for q in [1u64, 2, 5] {
                assert_eq!(
                    busy_time_breakdown(&jump, id, q, mode, options),
                    busy_time_breakdown(&iterative, id, q, mode, options),
                    "B({q}) diverges for {} under {mode:?}",
                    chain.name()
                );
            }
            assert_eq!(
                latency_analysis_detailed(&jump, id, mode, options),
                latency_analysis_detailed(&iterative, id, mode, options),
                "latency diverges for {} under {mode:?}",
                chain.name()
            );
        }
        if chain.deadline().is_some() {
            for k in [1u64, 10] {
                assert_eq!(
                    deadline_miss_model(&jump, id, k, options),
                    deadline_miss_model(&iterative, id, k, options),
                    "dmm({k}) diverges for {}",
                    chain.name()
                );
            }
            assert_eq!(
                deadline_miss_model_exact(&jump, id, 10, options),
                deadline_miss_model_exact(&iterative, id, 10, options),
                "exact dmm(10) diverges for {}",
                chain.name()
            );
        }
    }
}

#[test]
fn random_stress_systems_agree_across_solvers() {
    for profile in StressProfile::ALL {
        for seed in 0..6u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37).wrapping_add(7));
            let system = random_stress_system(&mut rng, profile).expect("built-in profile");
            assert_solvers_agree(&system, base_options());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tight horizons land right on the divergence boundary: the two
    /// solvers must flip from `Some` to `None` at the same horizon and
    /// report the same typed failure reason.
    #[test]
    fn tight_horizons_agree(seed in 0u64..10_000, horizon in 50u64..5_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let system = random_stress_system(&mut rng, StressProfile::HighUtilization)
            .expect("built-in profile");
        let options = AnalysisOptions {
            horizon,
            max_q: 64,
            ..AnalysisOptions::default()
        };
        let (jump, iterative) = solver_pair(&system);
        for (id, _) in system.iter() {
            prop_assert_eq!(
                latency_analysis_detailed(&jump, id, OverloadMode::Include, options),
                latency_analysis_detailed(&iterative, id, OverloadMode::Include, options)
            );
        }
    }
}

/// WCETs near `u64::MAX`: the demand sum saturates, and with an
/// unbounded horizon the saturated stall *is* the least fixed point of
/// the saturating recurrence — both solvers must converge to it (or
/// report divergence) identically.
#[test]
fn saturating_wcet_edges_agree() {
    for (wcet_a, wcet_b) in [
        (u64::MAX / 2, u64::MAX / 2),
        (u64::MAX - 1, 1_000),
        (u64::MAX / 3, u64::MAX / 2),
    ] {
        let system = SystemBuilder::new()
            .chain("x")
            .periodic(10)
            .unwrap()
            .deadline(1_000)
            .task("x1", 2, wcet_a)
            .done()
            .chain("y")
            .periodic(10)
            .unwrap()
            .task("y1", 1, wcet_b)
            .done()
            .build()
            .unwrap();
        let (jump, iterative) = solver_pair(&system);
        for horizon in [10_000u64, u64::MAX - 1, u64::MAX] {
            let options = AnalysisOptions {
                horizon,
                max_q: 16,
                ..AnalysisOptions::default()
            };
            for (id, _) in system.iter() {
                for q in [1u64, 2, 3] {
                    assert_eq!(
                        busy_time_breakdown(&jump, id, q, OverloadMode::Include, options),
                        busy_time_breakdown(&iterative, id, q, OverloadMode::Include, options),
                        "wcets ({wcet_a}, {wcet_b}) horizon {horizon} q {q}"
                    );
                }
                assert_eq!(
                    latency_analysis_detailed(&jump, id, OverloadMode::Include, options),
                    latency_analysis_detailed(&iterative, id, OverloadMode::Include, options),
                    "wcets ({wcet_a}, {wcet_b}) horizon {horizon}"
                );
            }
        }
    }
}

/// The holistic worklist and the full-sweep reference reach identical
/// fixed points on random deep pipelines and wide stars (the shapes the
/// worklist exists for).
#[test]
fn random_worklist_topologies_agree() {
    use twca_suite::dist::{analyze, reference, DistOptions};
    let configs = [
        RandomDistConfig::deep_pipeline(8, StressProfile::Baseline),
        RandomDistConfig::wide_star(8, StressProfile::Baseline),
    ];
    let chain_options = AnalysisOptions {
        horizon: 200_000,
        max_q: 500,
        ..AnalysisOptions::default()
    };
    let mut converged = 0usize;
    for config in &configs {
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(0xD15C0 ^ seed);
            let dist = random_distributed(&mut rng, config).expect("acyclic topology");
            let options = DistOptions {
                chain_options,
                ..DistOptions::default()
            };
            let worklist = analyze(&dist, options);
            let reference = reference::analyze(&dist, options, Reference::IterativeSolver);
            match (worklist, reference) {
                (Ok(a), Ok(b)) => {
                    converged += 1;
                    assert_eq!(a.sweeps(), b.sweeps(), "seed {seed}");
                    for site in dist.sites() {
                        assert_eq!(
                            a.worst_case_latency(site),
                            b.worst_case_latency(site),
                            "seed {seed} site {site}"
                        );
                        assert_eq!(
                            a.effective_activation(site),
                            b.effective_activation(site),
                            "seed {seed} site {site}"
                        );
                    }
                }
                (a, b) => assert_eq!(a.err(), b.err(), "seed {seed}: drivers fail differently"),
            }
        }
    }
    assert!(
        converged >= 4,
        "the sweep must exercise converging instances, got {converged}"
    );
}
