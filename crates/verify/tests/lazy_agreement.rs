//! Property test for the lazy combination engine: the dominance-pruned
//! enumerator ([`twca_chains::PreparedCombinations`]) and the retained
//! materialized reference ([`twca_chains::CombinationSet`]) must agree
//! on the unschedulable **count**, the unschedulable **total cost**,
//! the explicit **member lists** and the packing **witness rows** — on
//! every committed `corpus/` fixture and on 200 fuzzed scenarios per
//! uniprocessor stress profile (plus a proptest sweep over arbitrary
//! seeds). The same comparison runs continuously inside the fuzzer as
//! the `lazy-agreement` oracle.

use std::path::PathBuf;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_chains::reference::Reference;
use twca_chains::{
    latency_analysis, typical_slack, AnalysisContext, AnalysisOptions, CombinationSet, DmmSweep,
    OverloadMode, PreparedCombinations,
};
use twca_gen::{random_stress_system, StressProfile};
use twca_model::System;
use twca_verify::{load_corpus, ScenarioBody};

/// Tight divergence limits, like the fuzzer's: agreement is the claim,
/// not tightness, and stress systems near utilization 1 would crawl
/// otherwise.
fn options() -> AnalysisOptions {
    AnalysisOptions {
        horizon: 100_000,
        max_q: 500,
        packing_budget: 20_000,
        ..AnalysisOptions::default()
    }
}

/// Asserts enumerator-level and witness-level agreement on every
/// deadline chain of `system`. Returns how many chains were actually
/// compared (chains whose busy window diverges or whose slack is
/// negative never reach the enumerators).
fn assert_agreement(system: &System) -> usize {
    let ctx = AnalysisContext::new(system);
    let mat = Reference::MaterializedEngine.context(system);
    let opts = options();
    let mut compared = 0;
    for (id, chain) in system.iter() {
        if chain.deadline().is_none() {
            continue;
        }
        let Some(full) = latency_analysis(&ctx, id, OverloadMode::Include, opts) else {
            continue;
        };
        let k_b = full.busy_window_activations;
        let slack = typical_slack(&ctx, id, k_b);
        if slack < 0 {
            continue;
        }
        // The reference refusing the combination space is the one
        // sanctioned capability gap.
        let Ok(set) = CombinationSet::enumerate(&ctx, id, opts) else {
            continue;
        };
        compared += 1;
        let name = chain.name();
        let multipliers = set.window_multipliers(&ctx, id, k_b);
        let prepared =
            PreparedCombinations::prepare(&ctx, id, k_b, opts).expect("reference enumerated");

        let reference: Vec<_> = set.unschedulable_scaled(slack, &multipliers).collect();
        assert_eq!(
            prepared.count_unschedulable(slack),
            reference.len() as u128,
            "{name}: unschedulable count"
        );
        let expanded = prepared
            .expand_unschedulable(slack, usize::MAX)
            .expect("unbounded cap");
        assert_eq!(
            expanded.iter().map(|c| u128::from(c.wcet)).sum::<u128>(),
            reference.iter().map(|c| u128::from(c.wcet)).sum::<u128>(),
            "{name}: unschedulable total cost"
        );
        assert_eq!(
            expanded,
            reference.into_iter().cloned().collect::<Vec<_>>(),
            "{name}: explicit member lists"
        );

        // Witness rows and full miss-model results across both engines.
        let lazy_sweep = DmmSweep::prepare(&ctx, id, opts).expect("lazy sweep");
        let mat_sweep = DmmSweep::prepare(&mat, id, opts).expect("materialized sweep");
        for k in [1u64, 5, 10] {
            assert_eq!(lazy_sweep.at(k), mat_sweep.at(k), "{name}: dmm({k})");
            assert_eq!(
                lazy_sweep.witness(k),
                mat_sweep.witness(k),
                "{name}: witness rows at k = {k}"
            );
        }
    }
    compared
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("corpus")
}

#[test]
fn every_corpus_fixture_agrees_across_engines() {
    let entries = load_corpus(&corpus_dir()).expect("the corpus directory is committed");
    assert!(entries.len() >= 8, "the corpus must not silently shrink");
    let mut compared = 0;
    for entry in &entries {
        match &entry.body {
            ScenarioBody::Uni(system) => compared += assert_agreement(system),
            ScenarioBody::Dist(dist) => {
                for resource in dist.resources() {
                    compared += assert_agreement(resource.system());
                }
            }
        }
    }
    assert!(compared > 0, "at least one fixture must reach Definition 9");
}

#[test]
fn two_hundred_fuzzed_scenarios_per_stress_profile_agree() {
    let mut compared = 0;
    for profile in StressProfile::ALL {
        for i in 0..200u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(0xC04B ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let system = random_stress_system(&mut rng, profile).expect("built-in profile");
            compared += assert_agreement(&system);
        }
    }
    assert!(
        compared >= 100,
        "the stress profiles must reach Definition 9 often enough to be meaningful \
         (got {compared})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// Arbitrary seeds on arbitrary profiles — the shrinking-friendly
    /// complement to the deterministic sweep above.
    #[test]
    fn arbitrary_stress_seeds_agree(profile_index in 0usize..StressProfile::ALL.len(), seed in 0u64..u64::MAX) {
        let profile = StressProfile::ALL[profile_index];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let system = random_stress_system(&mut rng, profile).expect("built-in profile");
        assert_agreement(&system);
    }
}
