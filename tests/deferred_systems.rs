//! Soundness of the deferred-chain machinery: communicating-thread
//! systems exercise the header-segment, critical-segment and
//! segment-sum terms of Theorem 1 (which the case study barely touches,
//! since there almost everything arbitrarily interferes).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_suite::chains::{AnalysisOptions, ChainAnalysis};
use twca_suite::gen::{communicating_threads_system, ThreadSystemConfig};
use twca_suite::model::ChainKind;
use twca_suite::sim::{adversarial_aligned_traces, Simulation, TraceSet};

const HORIZON: u64 = 150_000;
const K: usize = 10;

fn options() -> AnalysisOptions {
    AnalysisOptions {
        horizon: 20_000_000,
        max_q: 20_000,
        ..AnalysisOptions::default()
    }
}

fn check(system: &twca_suite::model::System, label: &str) {
    let analysis = ChainAnalysis::new(system).with_options(options());
    for traces in [
        TraceSet::max_rate(system, HORIZON),
        adversarial_aligned_traces(system, HORIZON),
    ] {
        let result = Simulation::new(system).run(&traces);
        for (id, chain) in system.iter() {
            let stats = result.chain(id);
            if let Some(wcl) = analysis.try_worst_case_latency(id).unwrap() {
                if let Some(observed) = stats.max_latency() {
                    assert!(
                        observed <= wcl.worst_case_latency,
                        "{label}/{}: observed latency {observed} > WCL {}",
                        chain.name(),
                        wcl.worst_case_latency
                    );
                }
            }
            if chain.deadline().is_some() {
                let dmm = analysis.deadline_miss_model(id, K as u64).unwrap();
                let observed = stats.max_misses_in_window(K);
                assert!(
                    observed as u64 <= dmm.bound,
                    "{label}/{}: observed {observed} misses > dmm({K}) = {}",
                    chain.name(),
                    dmm.bound
                );
            }
        }
    }
}

#[test]
fn synchronous_thread_systems_hold_bounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    let config = ThreadSystemConfig {
        threads: 4,
        chains: 3,
        chain_length: (2, 5),
        utilization: 0.55,
        overload_chains: 1,
        ..ThreadSystemConfig::default()
    };
    for round in 0..12 {
        let system = communicating_threads_system(&mut rng, &config).unwrap();
        check(&system, &format!("sync round {round}"));
    }
}

#[test]
fn asynchronous_thread_systems_hold_bounds() {
    // Flip every regular chain to asynchronous semantics: exercises the
    // self-interference and deferred-async header terms.
    let mut rng = ChaCha8Rng::seed_from_u64(202);
    let config = ThreadSystemConfig {
        threads: 3,
        chains: 3,
        chain_length: (2, 4),
        utilization: 0.45,
        overload_chains: 1,
        ..ThreadSystemConfig::default()
    };
    for round in 0..10 {
        let base = communicating_threads_system(&mut rng, &config).unwrap();
        let mut builder = twca_suite::model::SystemBuilder::new();
        for (_, chain) in base.iter() {
            let mut cloned = chain.clone();
            // Rebuild with asynchronous semantics for regular chains.
            if !chain.is_overload() {
                let mut cb = builder
                    .chain(chain.name())
                    .activation(chain.activation().clone())
                    .kind(ChainKind::Asynchronous);
                if let Some(d) = chain.deadline() {
                    cb = cb.deadline(d);
                }
                for t in chain.tasks() {
                    cb = cb.task(t.name(), t.priority().level(), t.wcet());
                }
                builder = cb.done();
                continue;
            }
            let _ = &mut cloned;
            builder = builder.push_chain(chain.clone());
        }
        let system = builder.build().unwrap();
        check(&system, &format!("async round {round}"));
    }
}

#[test]
fn deferred_structure_actually_occurs() {
    // Guard: the generator must keep producing the deferred structure
    // this test file is about.
    use twca_suite::model::{segments::classify, InterferenceClass};
    let mut rng = ChaCha8Rng::seed_from_u64(303);
    let config = ThreadSystemConfig::default();
    let mut deferred = 0;
    for _ in 0..5 {
        let s = communicating_threads_system(&mut rng, &config).unwrap();
        for (a, ca) in s.iter() {
            for (b, cb) in s.iter() {
                if a != b && classify(ca, cb) == InterferenceClass::Deferred {
                    deferred += 1;
                }
            }
        }
    }
    assert!(deferred > 0, "no deferred pairs generated");
}

/// Asserts, for every ordered chain pair of `system`, that the
/// allocation-free [`InterferenceTerms`] equal the scalars the full
/// [`SegmentView`] derives from its segments.
///
/// [`InterferenceTerms`]: twca_suite::model::InterferenceTerms
/// [`SegmentView`]: twca_suite::model::SegmentView
fn assert_terms_agree_with_views(system: &twca_suite::model::System, label: &str) {
    use twca_suite::model::{InterferenceTerms, SegmentView};
    for (a, ca) in system.iter() {
        for (b, cb) in system.iter() {
            if a == b {
                continue;
            }
            let terms = InterferenceTerms::new(ca, cb.min_priority());
            let view = SegmentView::new(ca, cb);
            let pair = format!("{label}: {} w.r.t. {}", ca.name(), cb.name());
            assert_eq!(terms.class(), view.class(), "{pair}: class");
            assert_eq!(
                terms.critical_wcet(),
                view.critical_segment().map_or(0, |s| s.wcet(ca)),
                "{pair}: critical segment"
            );
            let segments_wcet: u64 = view.segments().iter().map(|s| s.wcet(ca)).sum();
            assert_eq!(terms.segments_wcet(), segments_wcet, "{pair}: segments");
            assert_eq!(
                terms.segments_wcet(),
                view.segments_total_wcet(ca),
                "{pair}: segments"
            );
            assert_eq!(
                terms.header_wcet(),
                ca.wcet_of(view.header_segment()),
                "{pair}: header segment"
            );
            assert_eq!(
                terms.header_wcet(),
                view.header_segment_wcet(ca),
                "{pair}: header segment"
            );
        }
    }
}

/// `(class, critical, segments, header)` of the first chain w.r.t. the
/// second in a two-chain system of the given `(priority, wcet)` tasks.
fn two_chain_terms(
    a: &[(u32, u64)],
    b: &[(u32, u64)],
) -> (twca_suite::model::InterferenceClass, u64, u64, u64) {
    use twca_suite::model::{InterferenceTerms, SystemBuilder};
    let mut builder = SystemBuilder::new();
    for (name, tasks) in [("a", a), ("b", b)] {
        let mut chain = builder.chain(name).periodic(1_000).unwrap();
        for (i, &(priority, wcet)) in tasks.iter().enumerate() {
            chain = chain.task(format!("{name}{i}"), priority, wcet);
        }
        builder = chain.done();
    }
    let system = builder.build().unwrap();
    assert_terms_agree_with_views(&system, "hand-built");
    let (ca, cb) = (&system.chains()[0], &system.chains()[1]);
    let terms = InterferenceTerms::new(ca, cb.min_priority());
    (
        terms.class(),
        terms.critical_wcet(),
        terms.segments_wcet(),
        terms.header_wcet(),
    )
}

#[test]
fn interference_terms_agree_with_segment_views_on_generated_systems() {
    use twca_suite::gen::{random_stress_system, StressProfile};
    let mut rng = ChaCha8Rng::seed_from_u64(404);
    let config = ThreadSystemConfig {
        threads: 4,
        chains: 5,
        chain_length: (2, 7),
        ..ThreadSystemConfig::default()
    };
    for round in 0..20 {
        let system = communicating_threads_system(&mut rng, &config).unwrap();
        assert_terms_agree_with_views(&system, &format!("threads round {round}"));
    }
    for profile in StressProfile::ALL {
        let mut rng = ChaCha8Rng::seed_from_u64(405);
        for round in 0..10 {
            let system = random_stress_system(&mut rng, profile).expect("built-in profile");
            assert_terms_agree_with_views(&system, &format!("{} round {round}", profile.name()));
        }
    }
}

#[test]
fn interference_terms_of_hand_built_pairs() {
    use twca_suite::model::{figure1_example, InterferenceClass::*, InterferenceTerms};

    // Figure 1 (unit WCETs): σa's segments w.r.t. σb are (τ1a, τ2a, τ3a)
    // and (τ5a), its header segment (τ1a, τ2a, τ3a); σb arbitrarily
    // interferes with σa, as one segment of its whole WCET.
    let figure1 = figure1_example();
    assert_terms_agree_with_views(&figure1, "figure 1");
    let (sigma_a, sigma_b) = (&figure1.chains()[0], &figure1.chains()[1]);
    let terms = InterferenceTerms::new(sigma_a, sigma_b.min_priority());
    assert_eq!(
        (
            terms.class(),
            terms.critical_wcet(),
            terms.segments_wcet(),
            terms.header_wcet()
        ),
        (Deferred, 3, 4, 3)
    );
    let terms = InterferenceTerms::new(sigma_b, sigma_a.min_priority());
    assert_eq!(
        (
            terms.class(),
            terms.critical_wcet(),
            terms.segments_wcet(),
            terms.header_wcet()
        ),
        (ArbitrarilyInterfering, 3, 3, 0)
    );

    // The trailing run (a3) wraps into the leading one (a1): one segment
    // of WCET 4 + 1 spanning two instances.
    assert_eq!(
        two_chain_terms(&[(9, 1), (1, 2), (8, 4)], &[(5, 1), (4, 1)]),
        (Deferred, 5, 5, 1)
    );
    // A wrapping segment beside a plain one; the priority equal to the
    // observed minimum ends a segment and stays in the header segment.
    assert_eq!(
        two_chain_terms(
            &[(9, 1), (2, 2), (8, 4), (1, 8), (7, 16)],
            &[(5, 1), (2, 1)]
        ),
        (Deferred, 17, 21, 7)
    );
    // Equal priorities across chains end segments but defer nothing.
    assert_eq!(
        two_chain_terms(&[(9, 1), (2, 2), (8, 4)], &[(5, 1), (2, 1)]),
        (ArbitrarilyInterfering, 7, 7, 0)
    );
    // A deferred chain with no task above the observed chain: no
    // segments and an empty header segment.
    assert_eq!(
        two_chain_terms(&[(1, 3), (2, 5)], &[(5, 1), (4, 1)]),
        (Deferred, 0, 0, 0)
    );
    // Deferred from its first task on: the header segment is empty, the
    // rest is one segment.
    assert_eq!(
        two_chain_terms(&[(1, 3), (6, 5), (7, 2)], &[(5, 1), (4, 1)]),
        (Deferred, 7, 7, 0)
    );
}
