//! The paper's tables and figure, byte for byte: `experiments table1`,
//! `table2` and `fig5` must print exactly the committed goldens in
//! `tests/golden/`. A deliberate change to an experiment re-records its
//! golden with
//! `cargo run --release -p twca-bench --bin experiments -- <name> > crates/bench/tests/golden/experiments_<name>.txt`.

use std::process::Command;

fn assert_matches_golden(experiment: &str, golden: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg(experiment)
        .output()
        .expect("spawn experiments");
    assert!(
        output.status.success(),
        "experiments {experiment} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert_eq!(
        stdout, golden,
        "experiments {experiment} drifted from its golden"
    );
}

#[test]
fn table1_matches_its_golden() {
    assert_matches_golden("table1", include_str!("golden/experiments_table1.txt"));
}

#[test]
fn table2_matches_its_golden() {
    assert_matches_golden("table2", include_str!("golden/experiments_table2.txt"));
}

#[test]
fn fig5_matches_its_golden() {
    assert_matches_golden("fig5", include_str!("golden/experiments_fig5.txt"));
}
