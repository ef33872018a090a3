//! Usage errors are part of the CLI's interface: scripts and users key
//! on them. Every malformed argument list below must draw exactly this
//! message (and so exit 2 from the binary), never a panic or a result.

use twca_cli::{run, CliError};

const SYSTEM: &str = "chain control periodic=100 deadline=100 sync {
    task sense prio=5 wcet=10
    task act prio=1 wcet=25
}
";

const RUN: &str = "twca <analyze|explain|dmm|simulate|sim|dot|gantt|report|synthesize|batch|\
                   dist|serve|loadgen|chaos|fuzz|bench> <file> [...]";
const SIM: &str = "twca sim <file> [--runs N] [--horizon H] [--seed S] [--threads T] \
                   [--chain NAME] [--json]";
const BATCH: &str = "twca batch [files...] [--gen N] [--seed S] [--profile P] [--threads T] \
                     [--serial] [--k K1,K2,...] [--horizon H] [--max-q Q] [--json] [--progress]";
const SERVE: &str = "twca serve [--file F] [--budget UNITS] [--horizon H] [--max-q Q] \
                     [--cache-entries N] [--cache-bytes B] [--store-dir DIR] [--listen ADDR \
                     [--workers N] [--queue N] [--deadline-ms MS] [--read-timeout MS] \
                     [--idle-timeout MS] [--write-buffer BYTES]]";
const LOADGEN: &str = "twca loadgen --connect ADDR [--streams K] [--requests N] \
                       [--connections C] [--mix chain|dist|mixed|store] [--seed S] [--retry N] \
                       [--reset-ppm P] [--server-stats] [--json] [--expect-clean]";
const CHAOS: &str = "twca chaos --connect ADDR [--schedules N] [--seed S]";
const DIST: &str = "twca dist <file> [--k K1,K2,...] [--path r/c,r/c,...] [--json]";
const FUZZ: &str = "twca fuzz [--seed S] [--iters N] [--budget SECS] [--profile P1,P2,...] \
                    [--k K1,K2,...] [--horizon H] [--corpus DIR] [--no-shrink]";
const BENCH: &str = "twca bench [--json] [--out FILE] [--seed S] [--quick] [--check BASELINE.json]";

/// `(arguments, expected message)`; `F` stands for a valid system file.
fn cases() -> Vec<(Vec<&'static str>, String)> {
    let needs = |flag: &str, usage: &str| format!("usage: {flag} needs a value; {usage}");
    let unknown = |command: &str, flag: &str, usage: &str| {
        format!("usage: unknown {command} flag `{flag}`; {usage}")
    };
    let expects = |flag: &str, what: &str| format!("usage: `{flag}` expects {what}");
    let window = |s: &str| format!("usage: `{s}` is not a window length");
    vec![
        // sim
        (vec!["sim", "F", "--runs"], needs("--runs", SIM)),
        (
            vec!["sim", "F", "--threads", "x"],
            expects("--threads", "a worker count"),
        ),
        (vec!["sim", "F", "--turbo"], unknown("sim", "--turbo", SIM)),
        (
            vec!["sim", "F", "F"],
            format!("usage: too many files; {SIM}"),
        ),
        (vec!["sim"], format!("usage: {SIM}")),
        // batch
        (vec!["batch", "--gen"], needs("--gen", BATCH)),
        (
            vec!["batch", "--max-q", "lots"],
            expects("--max-q", "an activation count"),
        ),
        (vec!["batch", "--bogus"], unknown("batch", "--bogus", BATCH)),
        (vec!["batch", "--gen", "1", "--k", "1,x"], window("x")),
        (vec!["batch", "--k", "1, x"], window(" x")),
        (
            vec!["batch"],
            format!("usage: batch needs input files or --gen; {BATCH}"),
        ),
        // serve
        (vec!["serve", "--listen"], needs("--listen", SERVE)),
        (
            vec!["serve", "--budget", "x"],
            expects("--budget", "a unit count"),
        ),
        (vec!["serve", "x"], unknown("serve", "x", SERVE)),
        (
            vec!["serve", "--write-buffer", "1", "--workers", "2"],
            format!(
                "usage: `--workers` configures the TCP server and needs `--listen ADDR`; {SERVE}"
            ),
        ),
        // loadgen
        (vec!["loadgen", "--connect"], needs("--connect", LOADGEN)),
        (
            vec!["loadgen", "--retry", "several"],
            expects("--retry", "an attempt count"),
        ),
        (
            vec!["loadgen", "--turbo"],
            unknown("loadgen", "--turbo", LOADGEN),
        ),
        (
            vec!["loadgen", "--mix", "sabotage"],
            "usage: `--mix` must be chain, dist, mixed or store, not `sabotage`".into(),
        ),
        (vec!["loadgen"], format!("usage: {LOADGEN}")),
        // chaos
        (vec!["chaos", "--seed"], needs("--seed", CHAOS)),
        (
            vec!["chaos", "--schedules", "nope"],
            expects("--schedules", "a count"),
        ),
        (vec!["chaos", "--turbo"], unknown("chaos", "--turbo", CHAOS)),
        (vec!["chaos"], format!("usage: {CHAOS}")),
        // dist
        (vec!["dist", "F", "--path"], needs("--path", DIST)),
        (vec!["dist", "F", "--k", "1,x"], window("x")),
        (
            vec!["dist", "F", "--bogus"],
            unknown("dist", "--bogus", DIST),
        ),
        (
            vec!["dist", "F", "F"],
            format!("usage: too many files; {DIST}"),
        ),
        // fuzz
        (vec!["fuzz", "--corpus"], needs("--corpus", FUZZ)),
        (
            vec!["fuzz", "--iters", "x"],
            expects("--iters", "an iteration count"),
        ),
        (
            vec!["fuzz", "--budget", "x"],
            expects("--budget", "seconds (fractions allowed)"),
        ),
        (
            vec!["fuzz", "--budget", "-1"],
            "usage: `--budget` expects a finite, non-negative number of seconds".into(),
        ),
        (
            vec!["fuzz", "--budget", "18446744073709551616"],
            "usage: `--budget` expects a finite, non-negative number of seconds".into(),
        ),
        (vec!["fuzz", "--k", "x"], window("x")),
        (vec!["fuzz", "--bogus"], unknown("fuzz", "--bogus", FUZZ)),
        // bench
        (vec!["bench", "--check"], needs("--check", BENCH)),
        (
            vec!["bench", "--seed", "x"],
            expects("--seed", "an integer"),
        ),
        (vec!["bench", "--suite"], unknown("bench", "--suite", BENCH)),
        // the positional commands
        (vec!["dmm", "F", "control", "x"], window("x")),
        (vec!["dmm", "F", "control", "3,7"], window("3,7")),
        (
            vec!["dmm", "F", "control"],
            "usage: twca dmm <file> <chain> <k>...".into(),
        ),
        (
            vec!["simulate", "F", "x"],
            "usage: `x` is not a horizon".into(),
        ),
        (
            vec!["gantt", "F", "x"],
            "usage: `x` is not a horizon".into(),
        ),
        (
            vec!["explain", "F"],
            "usage: twca explain <file> <chain>".into(),
        ),
        (
            vec!["synthesize", "F", "1"],
            "usage: twca synthesize <file> <m> <k>".into(),
        ),
        (
            vec!["synthesize", "F", "x", "3"],
            "usage: twca synthesize <file> <m> <k>".into(),
        ),
        (vec![], format!("usage: {RUN}")),
        (vec!["analyze"], format!("usage: {RUN}")),
        (
            vec!["bogus", "F"],
            format!("usage: unknown command `bogus`; {RUN}"),
        ),
    ]
}

#[test]
fn every_malformed_argument_list_draws_its_usage_message() {
    let path = std::env::temp_dir().join(format!("twca_usage_errors_{}.twca", std::process::id()));
    std::fs::write(&path, SYSTEM).unwrap();
    let file = path.to_string_lossy().to_string();
    for (args, expected) in cases() {
        let args: Vec<String> = args
            .iter()
            .map(|a| {
                if *a == "F" {
                    file.clone()
                } else {
                    (*a).to_owned()
                }
            })
            .collect();
        match run(&args) {
            Err(error @ CliError::Usage(_)) => {
                assert_eq!(error.to_string(), expected, "{args:?}");
            }
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        }
    }
    std::fs::remove_file(path).ok();
}
