//! The workloads and their request lists, generated from a seed.
//!
//! Every list is a pure function of `(workload, seed, seconds)`: the
//! same arguments give byte-identical lines. The server receives only
//! these lines; the seed never reaches it.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use twca_api::{
    AnalysisRequest, AnalysisResponse, Json, Query, QueryOutcome, RequestOptions, Target,
};
use twca_dist::{render_distributed, DistributedSystem, DistributedSystemBuilder};
use twca_gen::{random_system, RandomSystemConfig};
use twca_model::{case_study, render_system};

/// One traffic mix driven at a fresh server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large DSL frames whose analysis is fully cached: wire decode,
    /// DSL parse, context build and encode dominate.
    WireLarge,
    /// Distinct small systems, each analyzed cold: busy windows,
    /// combinations and packing dominate.
    AnalysisCold,
    /// One durable store edit plus its delta re-analysis per request.
    StoreEdit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WireLarge,
        Workload::AnalysisCold,
        Workload::StoreEdit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireLarge => "wire-large",
            Workload::AnalysisCold => "analysis-cold",
            Workload::StoreEdit => "store-edit",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections, each with one request outstanding. The
    /// server runs one worker per connection.
    pub fn connections(self) -> usize {
        match self {
            Workload::AnalysisCold => 2,
            Workload::WireLarge | Workload::StoreEdit => 1,
        }
    }

    /// Measured requests per requested second. The list length is
    /// fixed by `--seconds` through this rate, so a run always does
    /// the same work and ends when the list is answered. The rates are
    /// about the throughput of a 2-vCPU VM; analysis-cold's is lower, to
    /// bound the memory its cache grows to.
    fn requests_per_second(self) -> f64 {
        match self {
            Workload::WireLarge => 45.0,
            Workload::AnalysisCold => 400.0,
            Workload::StoreEdit => 180.0,
        }
    }
}

/// The lines of one run, in the order the server sees them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The workload the lines belong to.
    pub workload: Workload,
    /// Lines answered by an earlier life of the server, before the
    /// measured life starts (the store-edit preload).
    pub preload: Vec<String>,
    /// Untimed lines answered after set-up, before the measured phase.
    pub warmup: Vec<String>,
    /// The measured list.
    pub measured: Vec<String>,
}

impl Plan {
    /// Generates the lines of `workload` for `seed`, sized for a
    /// measured phase of about `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Plan {
        let count = ((seconds * workload.requests_per_second()).ceil() as usize).max(1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match workload {
            Workload::WireLarge => wire_large(&mut rng, count),
            Workload::AnalysisCold => analysis_cold(&mut rng, count),
            Workload::StoreEdit => store_edit(&mut rng, count),
        }
    }
}

fn line(request: AnalysisRequest) -> String {
    request.to_json().to_string()
}

/// A request with no analysis target: store and stats queries only.
fn service_request(id: String) -> AnalysisRequest {
    AnalysisRequest {
        id: Some(id),
        target: Target::Service,
        queries: Vec::new(),
        options: RequestOptions::default(),
    }
}

/// Systems in the wire-large pool.
const WIRE_POOL: usize = 16;

/// A pool of [`WIRE_POOL`] systems of 100–140 chains of two tasks
/// (about 12–17 KB of DSL). The chain counts are spread evenly over the
/// range and every period has five digits, so every seed sees the same
/// size profile and the work of a list hardly depends on the seed.
/// Each request asks `latency` for all chains of one pool system; every
/// system is used equally often, in a seeded order, and once in the
/// warm-up pass.
fn wire_large(rng: &mut ChaCha8Rng, count: usize) -> Plan {
    let pool: Vec<String> = (0..WIRE_POOL)
        .map(|slot| {
            let chains = 100 + slot * 40 / (WIRE_POOL - 1);
            let config = RandomSystemConfig {
                regular_chains: chains - 4,
                overload_chains: 4,
                tasks_per_chain: (2, 2),
                period_range: (10_000, 99_999),
                overload_rarity: 10,
                regular_utilization: 0.5,
                overload_utilization: 0.05,
            };
            render_system(&random_system(rng, &config).expect("valid generator config"))
        })
        .collect();
    let request = |id: String, slot: usize| {
        line(
            AnalysisRequest::for_system(pool[slot].clone())
                .with_id(id)
                .with_query(Query::Latency { chain: None }),
        )
    };
    let warmup = (0..WIRE_POOL)
        .map(|slot| request(format!("w{slot}"), slot))
        .collect();
    let mut order: Vec<usize> = (0..count.div_ceil(WIRE_POOL) * WIRE_POOL)
        .map(|i| i % WIRE_POOL)
        .collect();
    order.shuffle(rng);
    let measured = order
        .into_iter()
        .enumerate()
        .map(|(i, slot)| request(format!("m{i}"), slot))
        .collect();
    Plan {
        workload: Workload::WireLarge,
        preload: Vec::new(),
        warmup,
        measured,
    }
}

/// Distinct systems of about 4 KB, each asked `latency`, `dmm` at
/// k = 1, 10, 100 and the weakly-hard constraint (2, 10). One overload
/// chain keeps the cost light-tailed: with two or more, a few systems
/// in a hundred need a packing search of 0.1–2 s, so the work of a
/// fixed-length list swings with the seed.
fn analysis_cold(rng: &mut ChaCha8Rng, count: usize) -> Plan {
    let config = RandomSystemConfig {
        regular_chains: 32,
        overload_chains: 1,
        tasks_per_chain: (1, 3),
        period_range: (100, 1_000),
        overload_rarity: 5,
        regular_utilization: 0.6,
        overload_utilization: 0.1,
    };
    let measured = (0..count)
        .map(|i| {
            let system = random_system(rng, &config).expect("valid generator config");
            line(
                AnalysisRequest::for_system(render_system(&system))
                    .with_id(format!("m{i}"))
                    .with_query(Query::Latency { chain: None })
                    .with_query(Query::Dmm {
                        chain: None,
                        ks: vec![1, 10, 100],
                    })
                    .with_query(Query::WeaklyHard {
                        chain: None,
                        m: 2,
                        k: 10,
                    }),
            )
        })
        .collect();
    Plan {
        workload: Workload::AnalysisCold,
        preload: Vec::new(),
        warmup: Vec::new(),
        measured,
    }
}

/// Store entries the store-edit requests rotate over.
const STORE_ENTRIES: usize = 12;
/// Resources of the smallest and of the largest stored tree.
const STORE_RESOURCES: (usize, usize) = (16, 32);

/// A linked-resource document whose task WCETs can be edited one at a
/// time: the text is kept as the pieces between the WCET values.
struct EditableDoc {
    pieces: Vec<String>,
    base: Vec<u64>,
    wcets: Vec<u64>,
}

impl EditableDoc {
    fn new(text: &str) -> EditableDoc {
        let mut pieces = Vec::new();
        let mut wcets = Vec::new();
        let mut rest = text;
        while let Some(at) = rest.find("wcet=") {
            let digits_start = at + "wcet=".len();
            let digits_len = rest[digits_start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len() - digits_start);
            pieces.push(rest[..digits_start].to_owned());
            wcets.push(
                rest[digits_start..digits_start + digits_len]
                    .parse()
                    .expect("rendered WCETs are integers"),
            );
            rest = &rest[digits_start + digits_len..];
        }
        pieces.push(rest.to_owned());
        EditableDoc {
            pieces,
            base: wcets.clone(),
            wcets,
        }
    }

    /// Toggles one task's WCET between its generated value and one
    /// more, so an entry never drifts far from its generated load.
    fn edit(&mut self, rng: &mut ChaCha8Rng) {
        let task = rng.gen_range(0..self.wcets.len());
        self.wcets[task] = if self.wcets[task] == self.base[task] {
            self.base[task] + 1
        } else {
            self.base[task]
        };
    }

    fn text(&self) -> String {
        let mut out = String::new();
        for (piece, wcet) in self.pieces.iter().zip(&self.wcets) {
            out.push_str(piece);
            out.push_str(&wcet.to_string());
        }
        out.push_str(self.pieces.last().expect("at least one piece"));
        out
    }
}

fn store_put(name: &str, text: String) -> Query {
    Query::StorePut {
        name: name.to_owned(),
        system: None,
        dist: Some(text),
        dedup: None,
    }
}

fn store_analyze(name: &str) -> Query {
    Query::StoreAnalyze {
        name: name.to_owned(),
        ks: vec![10],
    }
}

/// A binary tree of `resources` resources: the first regular
/// chain of resource `i` feeds the first regular chain of its children
/// `2i + 1` and `2i + 2`, so jitter propagates over at most five hops.
fn store_system(rng: &mut ChaCha8Rng, resources: usize) -> DistributedSystem {
    let config = RandomSystemConfig {
        regular_chains: 2,
        overload_chains: 1,
        tasks_per_chain: (1, 1),
        period_range: (200, 250),
        regular_utilization: 0.4,
        overload_utilization: 0.05,
        ..RandomSystemConfig::default()
    };
    let mut builder = DistributedSystemBuilder::new();
    for r in 0..resources {
        let system = random_system(rng, &config).expect("valid generator config");
        builder = builder.resource(format!("r{r}"), system);
    }
    for r in 1..resources {
        builder = builder.link(
            (format!("r{}", (r - 1) / 2), "chain_0".to_owned()),
            (format!("r{r}"), "chain_0".to_owned()),
        );
    }
    builder
        .build()
        .expect("a tree of resources is a valid system")
}

/// [`STORE_ENTRIES`] resource trees of 16 to 32 resources, sizes
/// spread evenly, put by the preload. The spread of sizes spreads the
/// cost of an edit continuously, so no percentile sits on the edge of
/// one narrow mode. The warm-up analyzes each entry once; each measured
/// request puts its entry with one task's WCET changed and analyzes it
/// again, rotating over the entries.
fn store_edit(rng: &mut ChaCha8Rng, count: usize) -> Plan {
    let (smallest, largest) = STORE_RESOURCES;
    let mut docs: Vec<EditableDoc> = (0..STORE_ENTRIES)
        .map(|e| {
            let resources = smallest + e * (largest - smallest) / (STORE_ENTRIES - 1);
            EditableDoc::new(&render_distributed(&store_system(rng, resources)))
        })
        .collect();
    let names: Vec<String> = (0..STORE_ENTRIES).map(|e| format!("e{e}")).collect();
    let preload = names
        .iter()
        .zip(&docs)
        .map(|(name, doc)| {
            line(service_request(format!("pre-{name}")).with_query(store_put(name, doc.text())))
        })
        .collect();
    let warmup = names
        .iter()
        .map(|name| line(service_request(format!("w-{name}")).with_query(store_analyze(name))))
        .collect();
    let measured = (0..count)
        .map(|i| {
            let entry = i % STORE_ENTRIES;
            docs[entry].edit(rng);
            line(
                service_request(format!("m{i}"))
                    .with_query(store_put(&names[entry], docs[entry].text()))
                    .with_query(store_analyze(&names[entry])),
            )
        })
        .collect();
    Plan {
        workload: Workload::StoreEdit,
        preload,
        warmup,
        measured,
    }
}

/// The set-up probe: the paper's Table I/II case study, asked for its
/// latency bounds and `dmm(10)` of `sigma_c`.
pub fn probe_line() -> String {
    line(
        AnalysisRequest::for_system(render_system(&case_study()))
            .with_id("probe")
            .with_query(Query::Latency { chain: None })
            .with_query(Query::Dmm {
                chain: Some("sigma_c".into()),
                ks: vec![10],
            }),
    )
}

/// Checks a probe answer against the paper: WCL 331 for `sigma_c`,
/// 175 for `sigma_d`, and `dmm(10) = 5` for `sigma_c`.
pub fn check_probe(response: &str) -> Result<(), String> {
    let json = Json::parse(response).map_err(|e| format!("probe answer is not JSON: {e}"))?;
    let response = AnalysisResponse::from_json(&json).map_err(|e| format!("probe answer: {e}"))?;
    let outcomes = response
        .outcome
        .map_err(|e| format!("probe answered an error: {e}"))?;
    let (Some(QueryOutcome::Latency(rows)), Some(QueryOutcome::Dmm(dmm))) =
        (outcomes.first(), outcomes.get(1))
    else {
        return Err("probe answer has the wrong shape".into());
    };
    let wcl = |name: &str| {
        rows.iter()
            .find(|row| row.name == name)
            .and_then(|row| row.worst_case_latency)
    };
    let dmm10 = dmm
        .iter()
        .find(|row| row.name == "sigma_c")
        .and_then(|row| row.points.first())
        .map(|point| point.bound);
    match (wcl("sigma_c"), wcl("sigma_d"), dmm10) {
        (Some(331), Some(175), Some(5)) => Ok(()),
        found => Err(format!(
            "probe answered (WCL sigma_c, WCL sigma_d, dmm(10) sigma_c) = {found:?}, \
             expected (331, 175, 5)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_lists() {
        for workload in Workload::ALL {
            assert_eq!(
                Plan::new(workload, 7, 0.2),
                Plan::new(workload, 7, 0.2),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn another_seed_gives_other_lists() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7, 0.2);
            let b = Plan::new(workload, 8, 0.2);
            assert_eq!(a.measured.len(), b.measured.len());
            assert_ne!(a.measured, b.measured, "{}", workload.name());
        }
    }

    #[test]
    fn list_length_follows_the_seconds() {
        let short = Plan::new(Workload::StoreEdit, 1, 0.4);
        let long = Plan::new(Workload::StoreEdit, 1, 0.8);
        assert_eq!(long.measured.len(), 2 * short.measured.len());
        let wire = Plan::new(Workload::WireLarge, 1, 0.1);
        assert_eq!(wire.measured.len() % WIRE_POOL, 0);
        assert_eq!(wire.warmup.len(), WIRE_POOL);
    }

    #[test]
    fn edits_change_exactly_one_wcet() {
        let text = "task a prio=1 wcet=10\ntask b prio=2 wcet=7\n";
        let mut doc = EditableDoc::new(text);
        assert_eq!(doc.text(), text);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        doc.edit(&mut rng);
        let edited = doc.text();
        assert!(
            edited == "task a prio=1 wcet=11\ntask b prio=2 wcet=7\n"
                || edited == "task a prio=1 wcet=10\ntask b prio=2 wcet=8\n",
            "{edited}"
        );
    }
}
