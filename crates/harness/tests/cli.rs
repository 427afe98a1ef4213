//! The experiment binaries, run as a user runs them: at tiny sizes each
//! prints its table with the paper's six detectors in Table II order, and
//! each rejects an out-of-range flag value with one line on stderr and exit
//! status 2, before it runs anything.

use std::process::{Command, Output};

const PAPER_LINE_UP: [&str; 6] = ["WSTD", "RDDM", "FHDDM", "PerfSim", "DDM-OCI", "RBM-IM"];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("the binary starts")
}

/// The detector columns of the table header that starts with `title`.
fn header_columns(stdout: &str, title: &str) -> Vec<String> {
    let line = stdout
        .lines()
        .find(|line| line.starts_with(title))
        .unwrap_or_else(|| panic!("no `{title}` header in:\n{stdout}"));
    line[title.len()..].split_whitespace().map(str::to_string).collect()
}

#[test]
fn bins_print_the_paper_line_up_at_tiny_sizes() {
    let tiny_sweep = ["--classes", "2", "--features", "4", "--length", "600", "--seed", "3"];
    let cases: [(&str, Vec<&str>, &str); 3] = [
        (
            env!("CARGO_BIN_EXE_experiment1"),
            vec!["--benchmarks", "RBF5", "--scale", "10000", "--max-instances", "500"],
            "Dataset (pmAUC)",
        ),
        (
            env!("CARGO_BIN_EXE_experiment2"),
            [&tiny_sweep[..], &["--ir", "5"]].concat(),
            "pmAUC vs drifting classes",
        ),
        (
            env!("CARGO_BIN_EXE_experiment3"),
            [&tiny_sweep[..], &["--ratios", "5"]].concat(),
            "pmAUC vs imbalance ratio",
        ),
    ];
    for (bin, args, title) in cases {
        let out = run(bin, &args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{bin} {args:?}: {:?}\n{stdout}", out.status);
        assert_eq!(header_columns(&stdout, title), PAPER_LINE_UP, "{bin}");
    }
}

#[test]
fn out_of_range_flags_exit_with_status_2() {
    let exp1 = env!("CARGO_BIN_EXE_experiment1");
    let exp2 = env!("CARGO_BIN_EXE_experiment2");
    let exp3 = env!("CARGO_BIN_EXE_experiment3");
    let cases: [(&str, &[&str]); 10] = [
        (exp2, &["--classes", "1"]),
        (exp2, &["--ir", "0.5"]),
        (exp2, &["--ir", "nan"]),
        (exp2, &["--length", "0"]),
        (exp2, &["--features", "0"]),
        (exp3, &["--ratios", "0.5"]),
        (exp3, &["--classes", "1"]),
        (exp3, &["--ratios", "10,inf"]),
        (exp3, &["--length", "0"]),
        (exp1, &["--max-instances", "0"]),
    ];
    for (bin, bad) in cases {
        // Tiny sizes after the bad flag, so a regression fails fast too.
        let tiny: &[&str] = if bin == exp1 {
            &["--benchmarks", "RBF5", "--scale", "10000"]
        } else {
            &["--classes", "2", "--features", "4", "--length", "600"]
        };
        let out = run(bin, &[bad, tiny].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {bad:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin} {bad:?}: one line, got {stderr}");
        assert!(stderr.starts_with(bad[0]), "{bin} {bad:?}: names the flag, got {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {bad:?}: printed a table");
    }
}
