//! Shared experiment harness: one function per table/figure of the
//! paper's evaluation, printed by the `experiments` binary, plus the
//! [`runner`] behind `twca bench`.

pub mod runner;

use std::collections::BTreeMap;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use twca_chains::{ChainAnalysis, DmmResult};
use twca_gen::priority_permutations;
use twca_independent::{response_time_analysis, IndependentTask};
use twca_model::{case_study, Time, CASE_STUDY_TASK_COUNT};
use twca_sim::{adversarial_aligned_traces, Simulation, TraceSet};

/// One row of Table I: worst-case latency vs deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Chain name.
    pub chain: String,
    /// Analytic worst-case latency (`None` = unbounded).
    pub wcl: Option<Time>,
    /// Worst-case latency with overload chains silent.
    pub typical_wcl: Option<Time>,
    /// The deadline.
    pub deadline: Time,
}

/// Experiment 1, Table I: worst-case latencies of σc and σd.
pub fn table1() -> Vec<Table1Row> {
    let system = case_study();
    let analysis = ChainAnalysis::new(&system);
    ["sigma_c", "sigma_d"]
        .iter()
        .map(|name| {
            let (id, chain) = system.chain_by_name(name).expect("case-study chain");
            Table1Row {
                chain: name.to_string(),
                wcl: analysis
                    .try_worst_case_latency(id)
                    .expect("valid id")
                    .map(|r| r.worst_case_latency),
                typical_wcl: analysis
                    .typical_latency(id)
                    .expect("valid id")
                    .map(|r| r.worst_case_latency),
                deadline: chain.deadline().expect("σc/σd have deadlines"),
            }
        })
        .collect()
}

/// Experiment 1, Table II: the deadline miss model of σc at the paper's
/// sample points (plus any extra `ks`).
pub fn table2(ks: &[u64]) -> Vec<DmmResult> {
    let system = case_study();
    let analysis = ChainAnalysis::new(&system);
    let (c, _) = system.chain_by_name("sigma_c").expect("case-study chain");
    ks.iter()
        .map(|&k| {
            analysis
                .deadline_miss_model(c, k)
                .expect("σc has a deadline")
        })
        .collect()
}

/// Outcome of Experiment 2 (Figure 5): dmm(10) histograms over random
/// priority assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure5Outcome {
    /// Histogram of `dmm_c(10)` values → number of assignments.
    pub histogram_c: BTreeMap<u64, usize>,
    /// Histogram of `dmm_d(10)` values → number of assignments.
    pub histogram_d: BTreeMap<u64, usize>,
    /// Number of assignments where σc is schedulable (dmm = 0).
    pub schedulable_c: usize,
    /// Number of assignments where σd is schedulable (dmm = 0).
    pub schedulable_d: usize,
    /// Number of assignments analyzed.
    pub rounds: usize,
}

/// Experiment 2 (Figure 5): `rounds` uniformly random priority
/// assignments of the 13 case-study tasks; `dmm(10)` for σc and σd.
pub fn figure5(seed: u64, rounds: usize) -> Figure5Outcome {
    let base = case_study();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let assignments = priority_permutations(&mut rng, CASE_STUDY_TASK_COUNT, rounds);
    let mut histogram_c = BTreeMap::new();
    let mut histogram_d = BTreeMap::new();
    let (mut schedulable_c, mut schedulable_d) = (0usize, 0usize);
    for priorities in &assignments {
        let system = base.with_priorities(priorities);
        let analysis = ChainAnalysis::new(&system);
        for (name, histogram, schedulable) in [
            ("sigma_c", &mut histogram_c, &mut schedulable_c),
            ("sigma_d", &mut histogram_d, &mut schedulable_d),
        ] {
            let (id, _) = system.chain_by_name(name).expect("case-study chain");
            let bound = analysis
                .deadline_miss_model(id, 10)
                .expect("deadline present")
                .bound;
            *histogram.entry(bound).or_insert(0) += 1;
            if bound == 0 {
                *schedulable += 1;
            }
        }
    }
    Figure5Outcome {
        histogram_c,
        histogram_d,
        schedulable_c,
        schedulable_d,
        rounds,
    }
}

/// Outcome of the simulation-based soundness validation (not in the
/// paper, see EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationRow {
    /// Chain name.
    pub chain: String,
    /// Scenario label.
    pub scenario: String,
    /// Largest simulated latency.
    pub observed_latency: Option<Time>,
    /// Analytic worst-case latency.
    pub analytic_latency: Option<Time>,
    /// Largest simulated miss count in any window of `k` activations.
    pub observed_misses: usize,
    /// Analytic `dmm(k)`.
    pub dmm_bound: u64,
    /// The window length `k`.
    pub k: u64,
}

/// Simulates the case study under maximum-rate and adversarially aligned
/// traces and compares observations against the analytic bounds.
pub fn validate_case_study(horizon: Time, k: u64) -> Vec<ValidationRow> {
    let system = case_study();
    let analysis = ChainAnalysis::new(&system);
    let scenarios: Vec<(&str, TraceSet)> = vec![
        ("max-rate", TraceSet::max_rate(&system, horizon)),
        (
            "typical",
            TraceSet::max_rate_without_overload(&system, horizon),
        ),
        ("adversarial", adversarial_aligned_traces(&system, horizon)),
    ];
    let mut rows = Vec::new();
    for (label, traces) in &scenarios {
        let result = Simulation::new(&system).run(traces);
        for name in ["sigma_c", "sigma_d"] {
            let (id, _) = system.chain_by_name(name).expect("case-study chain");
            let stats = result.chain(id);
            rows.push(ValidationRow {
                chain: name.to_string(),
                scenario: label.to_string(),
                observed_latency: stats.max_latency(),
                analytic_latency: analysis
                    .try_worst_case_latency(id)
                    .expect("valid id")
                    .map(|r| r.worst_case_latency),
                observed_misses: stats.max_misses_in_window(k as usize),
                dmm_bound: analysis
                    .deadline_miss_model(id, k)
                    .expect("deadline present")
                    .bound,
                k,
            });
        }
    }
    rows
}

/// Checks every validation row for soundness: observation ≤ bound.
pub fn validation_is_sound(rows: &[ValidationRow]) -> bool {
    rows.iter().all(|r| {
        let latency_ok = match (r.observed_latency, r.analytic_latency) {
            (Some(obs), Some(bound)) => obs <= bound,
            (_, None) => true, // unbounded analysis dominates anything
            (None, _) => true, // nothing observed
        };
        latency_ok && (r.observed_misses as u64) <= r.dmm_bound
    })
}

/// One row of the tightness report: analytic upper bound vs falsified
/// empirical lower bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TightnessRow {
    /// Chain name.
    pub chain: String,
    /// Analytic worst-case latency.
    pub wcl_upper: Option<Time>,
    /// Best falsified latency (lower bound on the true worst case).
    pub wcl_lower: Option<Time>,
    /// Analytic `dmm(k)`.
    pub dmm_upper: u64,
    /// Best falsified window miss count.
    pub dmm_lower: usize,
    /// Window length `k`.
    pub k: u64,
    /// Scenario achieving the miss lower bound.
    pub scenario: String,
}

/// Brackets the true worst case of σc and σd between the analytic upper
/// bounds and falsification-derived lower bounds.
pub fn tightness(k: u64, horizon: Time, rounds: usize) -> Vec<TightnessRow> {
    use twca_sim::{falsify, FalsificationConfig};
    let system = case_study();
    let analysis = ChainAnalysis::new(&system);
    ["sigma_c", "sigma_d"]
        .iter()
        .map(|name| {
            let (id, _) = system.chain_by_name(name).expect("case-study chain");
            let outcome = falsify(
                &system,
                id,
                FalsificationConfig {
                    horizon,
                    random_rounds: rounds,
                    k: k as usize,
                    seed: 2017,
                },
            );
            TightnessRow {
                chain: name.to_string(),
                wcl_upper: analysis
                    .try_worst_case_latency(id)
                    .expect("valid id")
                    .map(|r| r.worst_case_latency),
                wcl_lower: outcome.worst_latency,
                dmm_upper: analysis
                    .deadline_miss_model(id, k)
                    .expect("deadline present")
                    .bound,
                dmm_lower: outcome.worst_misses,
                k,
                scenario: outcome.miss_scenario,
            }
        })
        .collect()
}

/// One row of the chain-aware vs collapsed-baseline comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapseRow {
    /// Chain name.
    pub chain: String,
    /// Chain-aware worst-case latency (Theorem 2).
    pub chain_wcl: Option<Time>,
    /// Worst-case response time of the *collapsed* baseline: the chain as
    /// one task at its minimum priority, every other chain as one task at
    /// its maximum priority (sound, maximally pessimistic flattening).
    pub collapsed_wcrt: Option<Time>,
}

/// Compares the chain-aware latency analysis against a sound collapse to
/// independent tasks on the case study — the quantitative version of the
/// paper's motivation ("timing analysis with task chains is notoriously
/// difficult; flattening loses precision").
pub fn collapsed_baseline() -> Vec<CollapseRow> {
    let system = case_study();
    let analysis = ChainAnalysis::new(&system);
    let mut rows = Vec::new();
    for name in ["sigma_c", "sigma_d"] {
        let (id, _) = system.chain_by_name(name).expect("case-study chain");
        // Collapse: observed chain at its min priority, interferers at
        // their max priority, execution times summed.
        let tasks: Vec<IndependentTask> = system
            .iter()
            .map(|(other_id, chain)| {
                let priority = if other_id == id {
                    chain.min_priority().level()
                } else {
                    chain
                        .tasks()
                        .iter()
                        .map(|t| t.priority().level())
                        .max()
                        .expect("non-empty chain")
                };
                IndependentTask::new(
                    chain.name(),
                    priority,
                    chain.total_wcet(),
                    chain.activation().clone(),
                )
            })
            .collect();
        let index = system.iter().position(|(i, _)| i == id).expect("present");
        rows.push(CollapseRow {
            chain: name.to_string(),
            chain_wcl: analysis
                .try_worst_case_latency(id)
                .expect("valid id")
                .map(|r| r.worst_case_latency),
            collapsed_wcrt: response_time_analysis(&tasks, index)
                .ok()
                .map(|r| r.worst_case_response_time),
        });
    }
    rows
}

/// One row of the distributed-pipeline experiment: a chain site with its
/// converged worst-case latency and outgoing response jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistRow {
    /// `resource/chain` label.
    pub site: String,
    /// Converged worst-case latency, `None` if the busy window diverged.
    pub wcl: Option<Time>,
    /// Response jitter propagated downstream (zero for non-sources).
    pub jitter_out: Time,
}

/// Outcome of the distributed-pipeline experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistOutcome {
    /// Per-site converged results.
    pub rows: Vec<DistRow>,
    /// Analytic end-to-end latency bound along the pipeline path.
    pub path_bound: Time,
    /// Maximum end-to-end latency observed by the trace-propagating
    /// simulation.
    pub observed: Option<Time>,
    /// Sweeps until the holistic iteration converged.
    pub sweeps: usize,
    /// End-to-end `dmm(10)` along the path.
    pub path_dmm10: u64,
}

/// A pipeline of `stages` resources: the paper's case study feeds σc
/// into `stages − 1` downstream single-chain ECUs of alternating
/// weights. Used by the `dist` experiment.
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn distributed_pipeline(stages: usize) -> twca_dist::DistributedSystem {
    use twca_dist::DistributedSystemBuilder;
    use twca_model::SystemBuilder;
    assert!(stages >= 1, "need at least one stage");
    let mut builder = DistributedSystemBuilder::new().resource("ecu0", case_study());
    let mut previous = ("ecu0".to_owned(), "sigma_c".to_owned());
    for i in 1..stages {
        let name = format!("ecu{i}");
        let chain = format!("stage{i}");
        let wcet = 10 + 10 * ((i as Time) % 3);
        let system = SystemBuilder::new()
            .chain(&chain)
            .periodic(200)
            .expect("static period")
            .deadline(200)
            .task(format!("{chain}_t"), 1, wcet)
            .done()
            .build()
            .expect("well-formed stage");
        builder = builder.resource(&name, system).link(
            (previous.0.clone(), previous.1.clone()),
            (name.clone(), chain.clone()),
        );
        previous = (name, chain);
    }
    builder.build().expect("well-formed pipeline")
}

/// Runs the distributed experiment on a pipeline of `stages` resources:
/// holistic analysis, end-to-end path bound, and a simulation
/// cross-check.
///
/// # Panics
///
/// Panics if the holistic iteration fails on the (well-formed) pipeline.
pub fn distributed_experiment(stages: usize, horizon: Time) -> DistOutcome {
    use twca_dist::{analyze, propagate_simulation, DistOptions, DistPath, StimulusKind};
    let dist = distributed_pipeline(stages);
    let results = analyze(&dist, DistOptions::default()).expect("pipeline converges");

    let mut rows = Vec::new();
    for site in dist.sites() {
        let resource = dist.resource(site.resource());
        let chain = resource.system().chain(site.chain());
        rows.push(DistRow {
            site: format!("{}/{}", resource.name(), chain.name()),
            wcl: results.worst_case_latency(site),
            jitter_out: results.response_jitter(site),
        });
    }

    let mut hops = vec![dist.site("ecu0", "sigma_c").expect("site exists")];
    for i in 1..stages {
        hops.push(
            dist.site(&format!("ecu{i}"), &format!("stage{i}"))
                .expect("site exists"),
        );
    }
    let path = DistPath::new(&dist, hops).expect("pipeline path");
    let path_bound = path.latency(&results).expect("bounded path");
    let path_dmm10 = path
        .deadline_miss_model(&results, 10)
        .expect("dmm computable");
    let observed = propagate_simulation(&dist, horizon, StimulusKind::MaxRate)
        .expect("pipeline order exists")
        .max_path_latency(&path);

    DistOutcome {
        rows,
        path_bound,
        observed,
        sweeps: results.sweeps(),
        path_dmm10,
    }
}

/// Assembles every experiment into one Markdown document — the
/// regenerable core of `EXPERIMENTS.md`.
///
/// `fig5_rounds` controls the Experiment-2 sample size (the paper uses
/// 1000); smaller values keep smoke tests fast.
pub fn markdown_report(fig5_rounds: usize) -> String {
    use twca_report::{Align, Document, Histogram, Table};

    let mut doc = Document::new("TWCA task-chain experiments (regenerated)");

    // Table I.
    doc.section("Experiment 1 / Table I — worst-case latencies")
        .paragraph("Paper reference: WCL(σc) = 331, WCL(σd) = 175, D = 200.");
    let mut t1 = Table::new();
    t1.column("chain", Align::Left);
    t1.column("WCL", Align::Right);
    t1.column("typical WCL", Align::Right);
    t1.column("D", Align::Right);
    for row in table1() {
        t1.row([
            row.chain.clone(),
            row.wcl.map_or("unbounded".into(), |v| v.to_string()),
            row.typical_wcl
                .map_or("unbounded".into(), |v| v.to_string()),
            row.deadline.to_string(),
        ]);
    }
    doc.table(&t1);

    // Table II.
    doc.section("Experiment 1 / Table II — dmm_c(k)").paragraph(
        "Paper reference: dmm_c(3) = 3, dmm_c(76) = 4, dmm_c(250) = 5 \
         (the k = 76/250 values are not derivable from the paper's \
         formulas; see DESIGN.md §4).",
    );
    let mut t2 = Table::new();
    t2.column("k", Align::Right);
    t2.column("dmm", Align::Right);
    t2.column("N_b", Align::Right);
    t2.column("packed windows", Align::Right);
    t2.column("unschedulable combos", Align::Right);
    for dmm in table2(&[3, 10, 76, 250]) {
        t2.row([
            dmm.k.to_string(),
            dmm.bound.to_string(),
            dmm.misses_per_window.to_string(),
            dmm.packed_windows.to_string(),
            dmm.unschedulable_combinations.to_string(),
        ]);
    }
    doc.table(&t2);

    // Figure 5.
    let outcome = figure5(2017, fig5_rounds);
    doc.section("Experiment 2 / Figure 5 — dmm(10) over random priorities")
        .paragraph(format!(
            "{} random priority assignments (paper: 1000). σc schedulable \
             {} times (paper: 633/1000), σd schedulable {} times \
             (paper: 307/1000).",
            outcome.rounds, outcome.schedulable_c, outcome.schedulable_d
        ));
    let hist_c: Histogram = outcome
        .histogram_c
        .iter()
        .flat_map(|(&bound, &count)| std::iter::repeat_n(bound, count))
        .collect();
    let hist_d: Histogram = outcome
        .histogram_d
        .iter()
        .flat_map(|(&bound, &count)| std::iter::repeat_n(bound, count))
        .collect();
    doc.paragraph("σc:").histogram(&hist_c, 50);
    doc.paragraph("σd:").histogram(&hist_d, 50);

    // Distributed extension.
    let dist = distributed_experiment(3, 60_000);
    doc.section("Distributed extension — case study feeding a pipeline")
        .paragraph(format!(
            "Holistic analysis converged in {} sweeps; end-to-end bound {} \
             vs observed {}; path dmm(10) = {}.",
            dist.sweeps,
            dist.path_bound,
            dist.observed.map_or("-".into(), |v| v.to_string()),
            dist.path_dmm10
        ));
    let mut td = Table::new();
    td.column("site", Align::Left);
    td.column("WCL", Align::Right);
    td.column("jitter out", Align::Right);
    for row in &dist.rows {
        td.row([
            row.site.clone(),
            row.wcl.map_or("unbounded".into(), |v| v.to_string()),
            row.jitter_out.to_string(),
        ]);
    }
    doc.table(&td);

    doc.to_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_report_contains_every_experiment() {
        let md = markdown_report(25);
        assert!(md.contains("Table I"));
        assert!(md.contains("| sigma_c | 331 |"));
        assert!(md.contains("Table II"));
        assert!(md.contains("Figure 5"));
        assert!(md.contains("Distributed extension"));
        assert!(md.contains("ecu0/sigma_c"));
    }

    #[test]
    fn distributed_experiment_is_sound_and_stable() {
        let outcome = distributed_experiment(3, 30_000);
        assert_eq!(outcome.rows.len(), 6);
        // ecu0 is the untouched case study.
        let c = outcome
            .rows
            .iter()
            .find(|r| r.site == "ecu0/sigma_c")
            .expect("case-study row present");
        assert_eq!(c.wcl, Some(331));
        assert_eq!(c.jitter_out, 331);
        let observed = outcome.observed.expect("pipeline produced instances");
        assert!(observed <= outcome.path_bound);
        assert!(outcome.sweeps >= 2);
    }

    #[test]
    fn distributed_pipeline_shape() {
        let d = distributed_pipeline(4);
        assert_eq!(d.resources().len(), 4);
        assert_eq!(d.links().len(), 3);
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1();
        assert_eq!(rows[0].wcl, Some(331));
        assert_eq!(rows[1].wcl, Some(175));
        assert_eq!(rows[0].typical_wcl, Some(166));
    }

    #[test]
    fn table2_shape() {
        let rows = table2(&[3, 76, 250]);
        assert_eq!(rows[0].bound, 3);
        assert!(rows[1].bound >= rows[0].bound);
        assert!(rows[2].bound >= rows[1].bound);
    }

    #[test]
    fn figure5_small_run_is_consistent() {
        let outcome = figure5(42, 25);
        assert_eq!(outcome.rounds, 25);
        let total_c: usize = outcome.histogram_c.values().sum();
        assert_eq!(total_c, 25);
        assert_eq!(
            outcome.schedulable_c,
            outcome.histogram_c.get(&0).copied().unwrap_or(0)
        );
    }

    #[test]
    fn validation_rows_are_sound() {
        let rows = validate_case_study(50_000, 10);
        assert!(validation_is_sound(&rows), "{rows:#?}");
    }

    #[test]
    fn tightness_rows_bracket_the_truth() {
        for row in tightness(10, 50_000, 4) {
            if let (Some(lower), Some(upper)) = (row.wcl_lower, row.wcl_upper) {
                assert!(
                    lower <= upper,
                    "{}: falsified latency above bound",
                    row.chain
                );
            }
            assert!(
                (row.dmm_lower as u64) <= row.dmm_upper,
                "{}: falsified misses above bound",
                row.chain
            );
        }
    }

    #[test]
    fn collapsed_baseline_is_never_tighter() {
        for row in collapsed_baseline() {
            let (chain, collapsed) = (
                row.chain_wcl.expect("bounded"),
                row.collapsed_wcrt.expect("bounded"),
            );
            assert!(
                collapsed >= chain,
                "{}: collapse {collapsed} tighter than chain-aware {chain}?",
                row.chain
            );
        }
    }

    #[test]
    fn collapse_loses_precision_on_sigma_d() {
        // σd benefits from segment reasoning: the chain analysis charges
        // σc only its critical segment (10), the collapse charges full
        // instances of σc.
        let rows = collapsed_baseline();
        let d = rows.iter().find(|r| r.chain == "sigma_d").unwrap();
        assert_eq!(d.chain_wcl, Some(175));
        assert!(d.collapsed_wcrt.unwrap() > 175);
    }
}
