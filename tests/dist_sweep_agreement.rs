//! A site's prepared miss-model sweep must answer every window length
//! exactly as a pointwise Theorem 3 call on the site's effective system
//! does: the full `DmmResult`, and for a failing preparation the same
//! `DistError` text. Checked on the worklist results and on both
//! full-sweep reference results, over the corpus `.dist` documents and
//! random distributed trees from fixed seeds.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_suite::chains::reference::Reference;
use twca_suite::chains::{deadline_miss_model, AnalysisContext, AnalysisError, AnalysisOptions};
use twca_suite::dist::{
    analyze, parse_distributed, reference, DistError, DistOptions, DistResults, DistributedSystem,
    ResourceId,
};
use twca_suite::gen::{random_distributed, DistTopology, RandomDistConfig, StressProfile};

const MAX_K: u64 = 12;

fn options() -> DistOptions {
    DistOptions {
        chain_options: AnalysisOptions {
            horizon: 2_000_000,
            max_q: 20_000,
            ..AnalysisOptions::default()
        },
        ..DistOptions::default()
    }
}

fn systems() -> Vec<(String, DistributedSystem)> {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut systems: Vec<(String, DistributedSystem)> =
        ["pipeline", "single-resource", "star-fanout"]
            .iter()
            .map(|name| {
                let text = std::fs::read_to_string(corpus.join(format!("{name}.dist")))
                    .expect("corpus document");
                let dist = parse_distributed(&text).expect("corpus parses");
                (name.to_string(), dist)
            })
            .collect();
    let config = RandomDistConfig {
        resources: 5,
        topology: DistTopology::Tree,
        profile: StressProfile::Baseline,
    };
    for seed in [3u64, 7, 11, 19] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dist = random_distributed(&mut rng, &config).expect("valid tree");
        systems.push((format!("tree seed {seed}"), dist));
    }
    systems
}

/// Checks every site of `results` against the pointwise call; returns
/// how many (site, k) pairs were errors on both sides.
fn check(dist: &DistributedSystem, results: &DistResults, label: &str) -> usize {
    let opts = options().chain_options;
    let mut errors = 0;
    for r in 0..dist.resources().len() {
        let resource = ResourceId::from_index(r);
        let ctx = results.context(resource);
        let pointwise_ctx = AnalysisContext::new(results.effective_system(resource));
        for site in dist.sites().filter(|s| s.resource() == resource) {
            let sweep = results.sweep(&ctx, site);
            for k in 1..=MAX_K {
                let want = deadline_miss_model(&pointwise_ctx, site.chain(), k, opts).map_err(
                    |e| match e {
                        AnalysisError::MissingDeadline { .. } => {
                            DistError::MissingDeadline { site }
                        }
                        e => DistError::Analysis(e),
                    },
                );
                match (&sweep, want) {
                    (Ok(sweep), Ok(want)) => {
                        assert_eq!(sweep.at(k), want, "{label}: {site} at k = {k}");
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got.to_string(), want.to_string(), "{label}: {site}");
                        errors += 1;
                    }
                    (got, want) => panic!(
                        "{label}: {site} at k = {k}: sweep {:?} vs pointwise {want:?}",
                        got.as_ref().map(|s| s.at(k))
                    ),
                }
            }
        }
    }
    errors
}

#[test]
fn site_sweeps_match_pointwise_theorem_3_on_every_driver() {
    let mut analyzed = 0;
    let mut errors = 0;
    for (label, dist) in systems() {
        let Ok(worklist) = analyze(&dist, options()) else {
            continue;
        };
        analyzed += 1;
        errors += check(&dist, &worklist, &format!("{label} (worklist)"));
        for driver in [Reference::IterativeSolver, Reference::MaterializedEngine] {
            let full = reference::analyze(&dist, options(), driver).expect("reference converges");
            errors += check(&dist, &full, &format!("{label} ({driver:?})"));
        }
    }
    assert!(analyzed >= 6, "too few analyzable systems ({analyzed})");
    // The corpus overload chains have no deadline: the error rows are
    // exercised too.
    assert!(errors > 0, "no deadline-less site was checked");
}
