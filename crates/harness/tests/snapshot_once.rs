//! The evaluator takes one pmAUC sample per window and serves it again
//! when a caller asks for the metrics at that same position. These tests
//! pin that the served sample is bitwise what a fresh computation over the
//! same window gives — for the stepper's `Snapshot` events when
//! `snapshot_every == metric_window` (the serving default), and for a
//! stepper resumed from a checkpoint taken exactly at a window boundary.

use rbm_im_harness::checkpoint::codec;
use rbm_im_harness::{DetectorRegistry, DetectorSpec, PipelineEvent, PipelineStepper, RunConfig};
use rbm_im_metrics::{PrequentialEvaluator, PrequentialSnapshot};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, StreamExt, StreamSchema};
use serde::Value;

const CLASSES: usize = 5;
const WINDOW: usize = 200;

fn run_config() -> RunConfig {
    RunConfig {
        metric_window: WINDOW,
        snapshot_every: Some(WINDOW as u64),
        detector_batch: 25,
        ..RunConfig::default()
    }
}

fn stream() -> (StreamSchema, Vec<Instance>) {
    let mut gen = RandomRbfGenerator::new(10, CLASSES, 2, 0.001, 5);
    let schema = gen.schema().clone();
    (schema, gen.take_instances(5 * WINDOW + 37))
}

fn stepper(schema: &StreamSchema) -> PipelineStepper {
    let spec = DetectorSpec::parse("rbm(mini_batch=25, warmup=4, seed=3)").unwrap();
    PipelineStepper::from_spec(&DetectorRegistry::with_defaults(), &spec, schema, run_config())
        .unwrap()
}

/// The stepper's current window metrics, recomputed from scratch: its
/// evaluator state restored into a fresh evaluator with the stored
/// periodic snapshot dropped, so nothing cached can be served.
fn fresh_snapshot(stepper: &PipelineStepper) -> PrequentialSnapshot {
    let state = stepper.state_snapshot().unwrap();
    let evaluator = match state.req("evaluator").unwrap().clone() {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .map(|(key, value)| {
                    if key == "snapshots" {
                        (key, Value::Array(Vec::new()))
                    } else {
                        (key, value)
                    }
                })
                .collect(),
        ),
        other => panic!("evaluator state is an object, got {other:?}"),
    };
    let mut fresh = PrequentialEvaluator::new(CLASSES, WINDOW);
    fresh.restore_state(&evaluator).unwrap();
    assert!(fresh.last_snapshot().is_none());
    fresh.snapshot()
}

fn assert_bitwise(label: &str, got: PrequentialSnapshot, want: PrequentialSnapshot) {
    assert_eq!(got.position, want.position, "{label}: position");
    for (name, g, w) in [
        ("pm_auc", got.pm_auc, want.pm_auc),
        ("pm_gmean", got.pm_gmean, want.pm_gmean),
        ("accuracy", got.accuracy, want.accuracy),
        ("kappa", got.kappa, want.kappa),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: {name}");
    }
}

#[test]
fn snapshot_events_at_window_boundaries_match_a_fresh_computation() {
    let (schema, instances) = stream();
    let mut stepper = stepper(&schema);
    let mut emitted = 0;
    for instance in instances {
        let mut event = None;
        stepper.step(instance, &mut |e| {
            if let PipelineEvent::Snapshot { snapshot, .. } = e {
                event = Some(*snapshot);
            }
        });
        if let Some(snapshot) = event {
            emitted += 1;
            assert_eq!(snapshot.position % WINDOW as u64, 0);
            assert_bitwise(
                &format!("event at {}", snapshot.position),
                snapshot,
                fresh_snapshot(&stepper),
            );
        }
    }
    assert_eq!(emitted, 5);
}

#[test]
fn stepper_resumed_at_a_window_boundary_serves_a_bitwise_fresh_snapshot() {
    let (schema, instances) = stream();
    let mut head = stepper(&schema);
    let mut instances = instances.into_iter();
    for instance in instances.by_ref().take(3 * WINDOW) {
        head.step(instance, &mut |_| {});
    }
    let bytes = codec::encode_value(&head.state_snapshot().unwrap());
    let mut resumed = stepper(&schema);
    resumed.restore_state(&codec::decode_value(&bytes).unwrap()).unwrap();
    assert_bitwise("resumed", resumed.snapshot(), fresh_snapshot(&head));
    assert_bitwise("uninterrupted", head.snapshot(), fresh_snapshot(&head));

    for instance in instances {
        let (mut a, mut b) = (None, None);
        head.step(instance.clone(), &mut |e| {
            if let PipelineEvent::Snapshot { snapshot, .. } = e {
                a = Some(*snapshot);
            }
        });
        resumed.step(instance, &mut |e| {
            if let PipelineEvent::Snapshot { snapshot, .. } = e {
                b = Some(*snapshot);
            }
        });
        assert_eq!(a.is_some(), b.is_some());
        if let (Some(a), Some(b)) = (a, b) {
            assert_bitwise(&format!("event at {}", a.position), b, a);
        }
    }
}
