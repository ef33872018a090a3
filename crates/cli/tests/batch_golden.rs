//! Golden-file lock on the batch JSON: the DTO-backed serializer must
//! reproduce the pre-façade hand-rolled output byte for byte.

use twca_cli::cmd_batch;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// The fixture was recorded from the original hand-rolled batch JSON
/// renderer with exactly these flags; the façade-backed path must not
/// change a single byte.
#[test]
fn batch_json_is_byte_identical_to_the_pre_facade_output() {
    let expected = include_str!("fixtures/batch_gen6_seed3.json");
    let actual = cmd_batch(&args(&[
        "--gen", "6", "--seed", "3", "--k", "1,10", "--json",
    ]))
    .expect("batch run succeeds");
    assert_eq!(actual, expected, "batch JSON drifted from the PR 1 bytes");
}

/// The serial path renders the same bytes (input-ordered results and a
/// schedule-independent cache section).
#[test]
fn serial_batch_json_matches_the_fixture_too() {
    let expected = include_str!("fixtures/batch_gen6_seed3.json");
    let actual = cmd_batch(&args(&[
        "--gen", "6", "--seed", "3", "--k", "1,10", "--serial", "--json",
    ]))
    .expect("batch run succeeds");
    assert_eq!(actual, expected);
}
