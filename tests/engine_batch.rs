//! Integration tests of the batch-analysis engine: the parallel path
//! must be bit-identical to the serial reference, and the shared memo
//! cache must never change any analysis result.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_suite::api::batch::{batch_to_json, BatchEngine};
use twca_suite::chains::{
    deadline_miss_model, AnalysisCache, AnalysisContext, AnalysisOptions, ChainAnalysis,
};
use twca_suite::gen::{random_system, RandomSystemConfig};
use twca_suite::model::{case_study, System};

fn options() -> AnalysisOptions {
    AnalysisOptions {
        horizon: 2_000_000,
        max_q: 20_000,
        ..AnalysisOptions::default()
    }
}

fn design_space(count: usize, seed: u64) -> Vec<System> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = RandomSystemConfig::default();
    (0..count)
        .map(|_| random_system(&mut rng, &config).expect("valid configuration"))
        .collect()
}

/// The acceptance bar of the engine: a batch of ≥ 100 systems analyzed
/// in parallel is identical — not approximately, structurally equal on
/// every field — to the serial path, and renders to byte-identical
/// JSON.
#[test]
fn parallel_batch_is_bit_identical_to_serial() {
    let systems = design_space(120, 7);
    let ks = [1u64, 10, 100];

    let parallel = BatchEngine::new()
        .with_options(options())
        .with_ks(ks)
        .with_threads(8)
        .run(systems.clone());
    let serial = BatchEngine::new()
        .with_options(options())
        .with_ks(ks)
        .with_threads(1)
        .run_serial(systems);

    assert_eq!(parallel.len(), 120);
    assert_eq!(parallel, serial);
    assert_eq!(batch_to_json(&parallel, None), batch_to_json(&serial, None));
}

/// Sharing one cache across two different batches (overlapping
/// contents, different order) must not change any verdict.
#[test]
fn shared_cache_across_batches_is_transparent() {
    let mut systems = design_space(30, 21);
    let fresh = BatchEngine::new()
        .with_options(options())
        .with_ks([1, 10])
        .run(systems.clone());

    let cache = Arc::new(AnalysisCache::new());
    let first = BatchEngine::new()
        .with_options(options())
        .with_ks([1, 10])
        .with_cache(Arc::clone(&cache))
        .run(systems.clone());
    assert_eq!(first, fresh);

    // Re-analyze in reverse order with the warm cache.
    systems.reverse();
    let engine = BatchEngine::new()
        .with_options(options())
        .with_ks([1, 10])
        .with_cache(Arc::clone(&cache));
    let second = engine.run(systems);
    let mut reversed = fresh.clone();
    reversed.reverse();
    for (warm, cold) in second.iter().zip(&reversed) {
        assert_eq!(warm.chains, cold.chains);
    }
    assert!(
        engine.cache_stats().hits > 0,
        "second pass must hit the warm cache"
    );
}

#[test]
fn case_study_batch_reproduces_the_paper() {
    let engine = BatchEngine::new().with_ks([3, 10, 76]);
    let batch = engine.run([case_study()]);
    let sigma_c = batch[0].chain("sigma_c").unwrap();
    assert_eq!(sigma_c.worst_case_latency, Some(331)); // Table I
    assert_eq!(sigma_c.typical_latency, Some(166));
    let bounds: Vec<u64> = sigma_c.miss_models.iter().map(|m| m.bound).collect();
    assert_eq!(bounds, vec![3, 5, 23]); // Table II shape
    let sigma_d = batch[0].chain("sigma_d").unwrap();
    assert_eq!(sigma_d.worst_case_latency, Some(175)); // Table I
    assert!(sigma_d.miss_models.iter().all(|m| m.bound == 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cache correctness, property-tested: for random systems and
    /// window lengths, analyses through a shared cache — including a
    /// second, fully-warm pass — equal the uncached reference.
    #[test]
    fn cached_analyses_equal_uncached(seed in 0u64..500, k in 1u64..60) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let system = random_system(&mut rng, &RandomSystemConfig::default()).unwrap();
        let opts = options();

        let plain_ctx = AnalysisContext::new(&system);
        let cache = Arc::new(AnalysisCache::new());
        let cached_ctx = AnalysisContext::with_cache(&system, Arc::clone(&cache));

        for (id, chain) in system.iter() {
            let plain = ChainAnalysis::new(&system).with_options(opts);
            let cached = ChainAnalysis::new(&system)
                .with_options(opts)
                .with_cache(Arc::clone(&cache));
            prop_assert_eq!(
                plain.try_worst_case_latency(id).unwrap(),
                cached.try_worst_case_latency(id).unwrap()
            );
            prop_assert_eq!(
                plain.typical_latency(id).unwrap(),
                cached.typical_latency(id).unwrap()
            );
            if chain.deadline().is_some() {
                let reference = deadline_miss_model(&plain_ctx, id, k, opts);
                // Cold and warm cached passes must both agree.
                let cold = deadline_miss_model(&cached_ctx, id, k, opts);
                let warm = deadline_miss_model(&cached_ctx, id, k, opts);
                prop_assert_eq!(&reference, &cold);
                prop_assert_eq!(&reference, &warm);
            }
        }
        prop_assert!(cache.stats().hits > 0, "warm pass must hit");
    }
}
