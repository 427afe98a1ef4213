//! Regenerates Fig. 8: pmAUC as a function of the number of classes affected
//! by a local concept drift (1 … M), for every detector.
//!
//! Usage:
//! ```text
//! cargo run -p rbm-im-harness --release --bin experiment2 -- \
//!     [--classes M] [--features D] [--length N] [--ir R] [--seed S] [--json out.json]
//! ```

use rbm_im_harness::experiment2::{run_experiment2, Experiment2Config};
use rbm_im_harness::report::{format_fig8, to_json};

mod cli;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = Experiment2Config::default();
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
            "--ir" => {
                config.imbalance_ratio =
                    cli::value_if(&args, i, "a finite number >= 1", |r: &f64| {
                        r.is_finite() && *r >= 1.0
                    });
                i += 2;
            }
            "--seed" => {
                config.seed = cli::value(&args, i, "an integer");
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
        "Experiment 2 (local drift): {} classes, {} features, {} instances, IR {}",
        config.num_classes, config.num_features, config.length, config.imbalance_ratio
    );
    let result = run_experiment2(&config, |k, r| {
        eprintln!(
            "  k={k:<3} {:<10} pmAUC {:6.2}  drifts {:4}",
            r.detector,
            r.pm_auc,
            r.drift_count()
        );
    });
    println!("{}", format_fig8(&result));
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&result.points)).expect("failed to write JSON results");
        eprintln!("wrote raw results to {path}");
    }
}
