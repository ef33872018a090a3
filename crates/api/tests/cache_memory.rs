//! Memory follows the input, not the server's history: a session with
//! `twca serve`'s default cache capacity stays under its byte budget
//! however many distinct systems it analyzes, still answers a system it
//! saw before from the cache, and memoizes only latency and miss-model
//! answers.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use twca_api::{AnalysisRequest, Query, Session};
use twca_chains::{
    latency_analysis, AnalysisCache, AnalysisContext, AnalysisOptions, CacheCapacity, OverloadMode,
};
use twca_gen::{random_system, RandomSystemConfig};
use twca_model::{case_study, render_system};

/// A session configured like `twca serve` without `--cache-*` flags.
fn serve_session() -> Session {
    Session::new().with_cache(Arc::new(AnalysisCache::with_capacity(
        CacheCapacity::SERVE_DEFAULT,
    )))
}

/// A distinct system of the perfbench analysis-cold shape: 32 regular
/// chains and one overload chain, about 4 KB of DSL.
fn cold_system(rng: &mut ChaCha8Rng) -> String {
    let config = RandomSystemConfig {
        regular_chains: 32,
        overload_chains: 1,
        tasks_per_chain: (1, 3),
        period_range: (100, 1_000),
        overload_rarity: 5,
        regular_utilization: 0.6,
        overload_utilization: 0.1,
    };
    render_system(&random_system(rng, &config).expect("valid generator config"))
}

/// The analysis-cold request: latency, dmm at k = 1, 10, 100 and the
/// weakly-hard constraint (2, 10).
fn cold_request(system: String) -> AnalysisRequest {
    AnalysisRequest::for_system(system)
        .with_query(Query::Latency { chain: None })
        .with_query(Query::Dmm {
            chain: None,
            ks: vec![1, 10, 100],
        })
        .with_query(Query::WeaklyHard {
            chain: None,
            m: 2,
            k: 10,
        })
}

fn analyze(session: &Session, request: &AnalysisRequest) {
    let response = session.analyze(request);
    assert!(response.outcome.is_ok(), "{:?}", response.outcome);
}

#[test]
fn resident_bytes_stay_under_the_default_budget() {
    let budget = CacheCapacity::SERVE_DEFAULT
        .max_bytes
        .expect("serve's default has a byte budget");
    let session = serve_session();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut analyzed = 0;
    let mut evictions = Vec::new();
    // Each system leaves about 31 KB estimated, so N = 600 alone fills
    // the budget and 2N churns it.
    for n in [600, 1200] {
        while analyzed < n {
            analyze(&session, &cold_request(cold_system(&mut rng)));
            analyzed += 1;
        }
        let stats = session.cache_stats();
        assert!(
            stats.resident_bytes_est <= budget,
            "{n} systems: {} B resident > {budget} B",
            stats.resident_bytes_est
        );
        evictions.push(stats.evictions);
    }
    assert!(evictions[0] > 0, "N systems must fill the budget");
    assert!(evictions[1] > evictions[0]);
}

/// The wire-large shape: a client sends system A, then B, then A again.
/// The second A is answered from the cache alone.
#[test]
fn a_system_seen_before_is_answered_from_the_cache() {
    let session = serve_session();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let latency = |system: String| {
        AnalysisRequest::for_system(system).with_query(Query::Latency { chain: None })
    };
    let a = latency(cold_system(&mut rng));
    let b = latency(cold_system(&mut rng));
    analyze(&session, &a);
    analyze(&session, &b);
    let before = session.cache_stats();
    analyze(&session, &a);
    let after = session.cache_stats();
    assert_eq!(after.misses, before.misses, "every lookup of A hits");
    assert_eq!(after.hits - before.hits, 2 * 33, "both modes of 33 chains");
    assert_eq!(after.entries, before.entries);
}

/// Busy times, Ω budgets and δ⁻ distances are not memoized: one
/// latency analysis makes one lookup and leaves one entry.
#[test]
fn a_latency_analysis_memoizes_only_its_answer() {
    let cache = Arc::new(AnalysisCache::with_capacity(CacheCapacity::SERVE_DEFAULT));
    let system = case_study();
    let (c, _) = system.chain_by_name("sigma_c").expect("case study chain");
    {
        let ctx = AnalysisContext::with_cache(&system, Arc::clone(&cache));
        let result = latency_analysis(&ctx, c, OverloadMode::Include, AnalysisOptions::default());
        assert_eq!(result.map(|r| r.worst_case_latency), Some(331));
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
}
