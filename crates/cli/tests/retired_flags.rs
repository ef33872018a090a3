//! Retired flags stay retired: the real `twca` binary must refuse with
//! a usage error (exit code 2) every flag that used to select a
//! reference implementation (now verifier entry points) or a
//! `twca bench` suite (one run now measures every workload).

use std::process::Command;

const SYSTEM: &str = "chain control periodic=100 deadline=100 sync {
    task sense prio=5 wcet=10
    task act prio=1 wcet=25
}
";

fn assert_usage_error(args: &[&str], flag: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_twca"))
        .args(args)
        .output()
        .expect("spawn twca");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("twca: usage: ") && stderr.contains(&format!("`{flag}`")),
        "{args:?}: {stderr}"
    );
    assert!(output.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn serve_rejects_the_solver_flag() {
    assert_usage_error(&["serve", "--solver", "iterative"], "--solver");
}

#[test]
fn batch_rejects_the_solver_flag() {
    assert_usage_error(
        &["batch", "--gen", "1", "--solver", "iterative"],
        "--solver",
    );
}

#[test]
fn sim_rejects_the_engine_flag() {
    let path = std::env::temp_dir().join(format!("twca_retired_flags_{}.twca", std::process::id()));
    std::fs::write(&path, SYSTEM).unwrap();
    let file = path.to_string_lossy().to_string();
    assert_usage_error(&["sim", &file, "--engine", "classic"], "--engine");
    std::fs::remove_file(path).ok();
}

#[test]
fn bench_rejects_the_suite_flag() {
    assert_usage_error(&["bench", "--suite", "core"], "--suite");
}
