//! Regenerates Fig. 9: pmAUC as a function of the multi-class imbalance
//! ratio (50 … 500), for every detector.
//!
//! Usage:
//! ```text
//! cargo run -p rbm-im-harness --release --bin experiment3 -- \
//!     [--classes M] [--features D] [--length N] [--seed S] [--ratios 50,100,200] [--json out.json]
//! ```

use rbm_im_harness::experiment3::{run_experiment3, Experiment3Config};
use rbm_im_harness::report::{format_fig9, to_json};

mod cli;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = Experiment3Config::default();
    let mut json_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--classes" => {
                config.num_classes = cli::value_if(&args, i, "an integer >= 2", |&m| m >= 2);
                i += 2;
            }
            "--features" => {
                config.num_features =
                    cli::value_if(&args, i, "a positive integer", |&d: &usize| d > 0);
                i += 2;
            }
            "--length" => {
                config.length = cli::value_if(&args, i, "a positive integer", |&n: &u64| n > 0);
                i += 2;
            }
            "--seed" => {
                config.seed = cli::value(&args, i, "an integer");
                i += 2;
            }
            "--ratios" => {
                config.imbalance_ratios = cli::text(&args, i)
                    .split(',')
                    .map(|s| {
                        cli::parse("--ratios", s.trim(), "finite numbers >= 1", |r: &f64| {
                            r.is_finite() && *r >= 1.0
                        })
                    })
                    .collect();
                i += 2;
            }
            "--json" => {
                json_path = Some(cli::text(&args, i).to_string());
                i += 2;
            }
            other => cli::fail(&format!("unknown argument: {other}")),
        }
    }
    eprintln!(
        "Experiment 3 (imbalance robustness): {} classes, ratios {:?}, {} instances",
        config.num_classes, config.imbalance_ratios, config.length
    );
    let result = run_experiment3(&config, |ir, r| {
        eprintln!(
            "  IR={ir:<6} {:<10} pmAUC {:6.2}  drifts {:4}",
            r.detector,
            r.pm_auc,
            r.drift_count()
        );
    });
    println!("{}", format_fig9(&result));
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&result.points)).expect("failed to write JSON results");
        eprintln!("wrote raw results to {path}");
    }
}
