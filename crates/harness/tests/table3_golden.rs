//! Golden digest of the Table III grid as `run_experiment1` produces it:
//! the paper's six detectors over all 24 Table I benchmarks, through the
//! parallel grid, per-benchmark seed derivation (`derive_stream_seed`) and the
//! paper's per-instance detector protocol (`detector_batch: 1`).
//!
//! `golden_digest.rs` pins the sequential pipeline and bypasses all three;
//! this file pins what the experiment binary actually reports. Each cell
//! contributes one line in the same format,
//! `benchmark detector drift_offsets pm_auc_bits pm_gmean_bits`, compared
//! against the checked-in `golden/table3_digest.txt`. On a mismatch the full
//! actual digest is printed; a deliberate update is a copy of that output
//! into the golden file.

use rbm_im_harness::experiment1::{run_experiment1, BuildConfigSerde, Experiment1Config};
use rbm_im_harness::pipeline::{RunConfig, RunResult};

const GOLDEN: &str = include_str!("golden/table3_digest.txt");

fn digest_line(result: &RunResult) -> String {
    let offsets = if result.detections.is_empty() {
        "-".to_string()
    } else {
        result.detections.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
    };
    format!(
        "{} {} {offsets} {:016x} {:016x}",
        result.stream,
        result.detector,
        result.pm_auc.to_bits(),
        result.pm_gmean.to_bits()
    )
}

#[test]
fn table3_grid_matches_the_golden_digest() {
    let defaults = Experiment1Config::default();
    let config = Experiment1Config {
        build: BuildConfigSerde { seed: 42, scale_divisor: 10_000, ..defaults.build },
        run: RunConfig { max_instances: Some(2_000), ..Default::default() },
        ..defaults
    };
    let result = run_experiment1(&config, 2, |_| {});
    assert_eq!(result.benchmarks.len(), 24, "digest covers the full Table I set");
    assert_eq!(result.runs.len(), 24 * 6, "six paper detectors per benchmark");

    let actual: String = result.runs.iter().map(|run| digest_line(run) + "\n").collect();
    if actual != GOLDEN {
        let expected: Vec<&str> = GOLDEN.lines().collect();
        let first_diff = actual
            .lines()
            .enumerate()
            .find(|(i, line)| expected.get(*i) != Some(line))
            .map_or(expected.len(), |(i, _)| i);
        panic!(
            "Table III grid diverges from golden/table3_digest.txt (first differing line {}); \
             actual digest:\n{actual}",
            first_diff + 1
        );
    }
}
