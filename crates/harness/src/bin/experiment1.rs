//! Regenerates Table III (pmAUC / pmGM / timing for the six detectors over
//! the 24 benchmarks) together with the Friedman / Bonferroni–Dunn ranking
//! (Figs. 4–5) and the Bayesian signed pairwise comparisons (Figs. 6–7).
//!
//! Usage:
//! ```text
//! cargo run -p rbm-im-harness --release --bin experiment1 -- \
//!     [--scale N] [--seed S] [--benchmarks name1,name2] [--max-instances N] \
//!     [--threads T] [--json out.json]
//! ```
//! `--scale 1` reproduces paper-length streams (slow); the default of 20
//! finishes in minutes. The grid runs one benchmark row per worker, on all
//! cores by default; `--threads` sets the worker count (results are
//! identical either way).

use rbm_im_harness::experiment1::{run_experiment1, selected_benchmarks, Experiment1Config};
use rbm_im_harness::pipeline::available_threads;
use rbm_im_harness::report::{format_ranking, format_table3, to_json};
use std::num::NonZeroUsize;

mod cli;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = Experiment1Config::default();
    let mut json_path: Option<String> = None;
    let mut threads = available_threads();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                config.build.scale_divisor = cli::value(&args, i, "an integer");
                i += 2;
            }
            "--threads" => {
                threads = cli::value::<NonZeroUsize>(&args, i, "a positive integer").get();
                i += 2;
            }
            "--seed" => {
                config.build.seed = cli::value(&args, i, "an integer");
                i += 2;
            }
            "--benchmarks" => {
                config.benchmarks =
                    cli::text(&args, i).split(',').map(|s| s.trim().to_string()).collect();
                i += 2;
            }
            "--max-instances" => {
                config.run.max_instances =
                    Some(cli::value_if(&args, i, "a positive integer", |&n: &u64| n > 0));
                i += 2;
            }
            "--json" => {
                json_path = Some(cli::text(&args, i).to_string());
                i += 2;
            }
            other => cli::fail(&format!("unknown argument: {other}")),
        }
    }

    let benchmarks = selected_benchmarks(&config).unwrap_or_else(|e| cli::fail(&e));
    eprintln!(
        "Experiment 1: {} detectors x {} benchmarks (scale 1/{})",
        config.detectors.len(),
        benchmarks.len(),
        config.build.scale_divisor
    );
    let result = run_experiment1(&config, threads, |r| {
        eprintln!(
            "  {:<14} {:<10} pmAUC {:6.2}  pmGM {:6.2}  drifts {:4}  ({} instances)",
            r.stream,
            r.detector,
            r.pm_auc,
            r.pm_gmean,
            r.drift_count(),
            r.instances
        );
    });

    println!("{}", format_table3(&result, "pmAUC"));
    println!("{}", format_table3(&result, "pmGM"));
    println!("{}", format_ranking(&result, "pmAUC", 0.05));
    println!("{}", format_ranking(&result, "pmGM", 0.05));
    // Figs. 6–7: RBM-IM against the other skew-insensitive detectors, at
    // their positions in the paper's line-up (WSTD, RDDM, FHDDM, PerfSim,
    // DDM-OCI, RBM-IM).
    let (perfsim, ddm_oci, rbm_im) = (3, 4, 5);
    for opponent in [perfsim, ddm_oci] {
        let name = result.detectors[opponent].label();
        match result.bayesian_vs(rbm_im, opponent, 1.0, 20_000, 42) {
            Ok(outcome) => println!(
                "Bayesian signed test RBM-IM vs {name}: p(RBM-IM better) = {:.3}, p(rope) = {:.3}, p({name} better) = {:.3}",
                outcome.p_left,
                outcome.p_rope,
                outcome.p_right
            ),
            Err(e) => println!("Bayesian signed test vs {name} unavailable: {e}"),
        }
    }
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&result.runs)).expect("failed to write JSON results");
        eprintln!("wrote raw results to {path}");
    }
}
