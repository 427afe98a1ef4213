//! Quickstart: monitor a drifting, imbalanced stream with the Pipeline API.
//!
//! Builds a 4-class RBF stream with a 10:1 imbalance, injects a sudden drift
//! into the *smallest class only* halfway through, and runs two pipelines on
//! identical copies of the stream: one driven by RBM-IM (which sees the
//! mini-batched feature distribution of every class) and one driven by RDDM
//! (which only sees the classifier's global error rate). Drift events stream
//! out of the pipeline through an `on_event` sink, including the per-class
//! attribution RBM-IM provides.
//!
//! Run with: `cargo run -p rbm-im-harness --release --example quickstart`

use rbm_im_harness::pipeline::{PipelineBuilder, PipelineEvent, RunConfig};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_streams::drift::local::{LocalDriftEvent, LocalDriftStream};
use rbm_im_streams::drift::DriftKind;
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::imbalance::{ImbalanceProfile, ImbalancedStream};
use rbm_im_streams::stream::BoundedStream;
use rbm_im_streams::DataStream;
use std::cell::RefCell;

/// The quickstart stream: 4 classes, geometric 10:1 imbalance, and a severe
/// local drift hitting only the smallest class (class 3) at t = 15 000.
/// Deterministic, so both pipelines see the identical sequence.
fn build_stream() -> impl DataStream + Send {
    let base = RandomRbfGenerator::new(10, 4, 3, 0.0, 7);
    let drift = LocalDriftEvent {
        affected_classes: vec![3],
        position: 15_000,
        width: 0,
        kind: DriftKind::Sudden,
        magnitude: 0.9,
    };
    // Imbalance first, local drift outermost, so the drift position refers
    // to the indices of the stream we actually iterate over.
    let imbalanced = ImbalancedStream::new(base, ImbalanceProfile::geometric(4, 10.0), 3);
    BoundedStream::new(LocalDriftStream::new(imbalanced, vec![drift], 11), 30_000)
}

fn main() {
    println!("streaming 30000 instances (local drift in class 3 at t = 15000)\n");
    let config = RunConfig { metric_window: 1000, ..Default::default() };

    // Pipeline 1: RBM-IM with a larger mini-batch (the minority class
    // contributes only a couple of instances to a default 50-instance
    // batch, so a larger batch gives its per-class error a stable
    // estimate). The tuned variant is a registry one-liner.
    let drift_log = RefCell::new(Vec::new());
    let rbm_result = PipelineBuilder::new()
        .stream(build_stream())
        .detector_spec(DetectorSpec::parse("rbm-im(mini_batch=100)").expect("valid spec"))
        .config(config)
        .on_event(|event| {
            if let PipelineEvent::Drift { position, classes } = event {
                drift_log.borrow_mut().push((*position, classes.to_vec()));
            }
        })
        .run()
        .expect("quickstart pipeline is fully specified");

    println!("RBM-IM raised {} drift signal(s):", rbm_result.drift_count());
    for (position, classes) in drift_log.borrow().iter() {
        println!("  at instance {position:>6}, affected classes {classes:?}");
    }

    // Pipeline 2: the same stream, same classifier, but a global
    // error-rate detector.
    let rddm_result = PipelineBuilder::new()
        .stream(build_stream())
        .detector_spec(DetectorSpec::new("rddm"))
        .config(config)
        .run()
        .expect("quickstart pipeline is fully specified");
    println!(
        "\nRDDM (global error monitoring) raised {} drift signal(s): {:?}",
        rddm_result.drift_count(),
        rddm_result.detections
    );

    println!(
        "\npmAUC: RBM-IM-driven {:.2}%  vs  RDDM-driven {:.2}%",
        rbm_result.pm_auc, rddm_result.pm_auc
    );
    let attributed = drift_log
        .borrow()
        .iter()
        .any(|(position, classes)| *position >= 15_000 && classes.contains(&3));
    if attributed {
        println!("=> the local minority-class drift was detected and attributed correctly.");
    } else {
        println!("=> the drift was not attributed to class 3 in this run; try a different seed.");
    }
}
