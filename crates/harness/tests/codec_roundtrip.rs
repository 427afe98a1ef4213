//! Property tests of the binary checkpoint codec: for arbitrary serde
//! [`Value`] trees — including the shapes real checkpoints produce (packed
//! number arrays, nested arrays, interned repeated keys, non-finite
//! float *strings*, ±0.0, 2^53 boundary integers) — `decode(encode(v))`
//! must reproduce the tree **exactly**, a binary-serialized pipeline
//! checkpoint must resume bitwise-identically to an uninterrupted run, and
//! a JSON rendering of it must not load.

use proptest::prelude::*;
use proptest::TestRng;
use rbm_im_harness::checkpoint::codec::{self, CheckpointCodec, BINARY_MAGIC};
use rbm_im_harness::checkpoint::PipelineCheckpoint;
use rbm_im_harness::pipeline::{PipelineEvent, RunConfig};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_harness::stepper::PipelineStepper;
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, StreamExt};
use serde::{Serialize as _, Value};

/// A random value tree with checkpoint-like shape diversity. `fuel` bounds
/// the total node count so trees stay small but deep.
fn arb_value(rng: &mut TestRng, fuel: &mut u32, depth: u32) -> Value {
    if *fuel == 0 {
        return Value::Null;
    }
    *fuel -= 1;
    let max_kind = if depth >= 4 { 6 } else { 9 };
    match rng.below(max_kind) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        // Integer-valued numbers, hugging the exactness boundaries.
        2 => Value::Number(match rng.below(6) {
            0 => 0.0,
            1 => -0.0,
            2 => 9_007_199_254_740_992.0,
            3 => -9_007_199_254_740_992.0,
            4 => rng.below(1_000_000) as f64,
            _ => -((rng.below(1_000_000)) as f64),
        }),
        // Arbitrary finite floats across many binades.
        3 => {
            let magnitude = (rng.unit_f64() * 600.0) - 300.0;
            let v = (rng.unit_f64() * 2.0 - 1.0) * magnitude.exp2();
            Value::Number(if v.is_finite() { v } else { 0.0 })
        }
        4 => Value::String(format!("s{}", rng.below(10))),
        5 => Value::Number(rng.unit_f64()),
        // Homogeneous number arrays (the packed paths).
        6 => {
            let len = rng.below(40) as usize;
            let ints = rng.below(2) == 0;
            Value::Array(
                (0..len)
                    .map(|_| {
                        if ints {
                            Value::Number(rng.below(5_000) as f64 - 2_500.0)
                        } else {
                            Value::Number(rng.unit_f64() * 3.0)
                        }
                    })
                    .collect(),
            )
        }
        // Arrays of equal-length arrays (state rows), sometimes ragged.
        7 => {
            let rows = rng.below(12) as usize;
            let width = 1 + rng.below(4) as usize;
            let ragged = rng.below(4) == 0;
            Value::Array(
                (0..rows)
                    .map(|r| {
                        let w = if ragged && r == rows / 2 { width + 1 } else { width };
                        Value::Array((0..w).map(|_| arb_value(rng, fuel, depth + 2)).collect())
                    })
                    .collect(),
            )
        }
        // Objects with repeating keys (the interning path).
        _ => {
            let len = rng.below(6) as usize;
            Value::Object(
                (0..len)
                    .map(|i| {
                        (format!("k{}", (i as u64 + rng.below(3)) % 7), {
                            arb_value(rng, fuel, depth + 1)
                        })
                    })
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Binary encode → decode is the identity on arbitrary value trees.
    #[test]
    fn binary_roundtrip_is_identity(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed(seed);
        let mut fuel = 300u32;
        let value = arb_value(&mut rng, &mut fuel, 0);
        let bytes = codec::encode_value(&value);
        let back = codec::decode_value(&bytes).expect("well-formed encoding must decode");
        prop_assert_eq!(&back, &value);
        // The typed entry point agrees.
        let typed: Value = codec::decode(&bytes).expect("typed decode");
        prop_assert_eq!(&typed, &value);
    }

    /// Truncating a valid encoding at any prefix fails cleanly — never
    /// panics, never silently yields a value.
    #[test]
    fn truncated_encodings_error_cleanly(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed(seed);
        let mut fuel = 80u32;
        let value = arb_value(&mut rng, &mut fuel, 0);
        let bytes = codec::encode_value(&value);
        // A handful of random cuts plus the boundary cuts.
        let mut cuts = vec![0usize, 1, 4, 5, bytes.len().saturating_sub(1)];
        for _ in 0..6 {
            cuts.push(rng.below(bytes.len() as u64) as usize);
        }
        for cut in cuts {
            if cut >= bytes.len() {
                continue;
            }
            prop_assert!(
                codec::decode_value(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }
}

/// A real warmed pipeline serialized with the binary codec resumes
/// bitwise-identically — same test shape as `checkpoint.rs`'s roundtrip —
/// and its JSON debugging dump is rejected by `from_bytes`.
#[test]
fn binary_checkpoint_resumes_bitwise_identically() {
    let mut gen = RandomRbfGenerator::new(8, 4, 2, 0.0, 33);
    let schema = gen.schema().clone();
    let mut instances = gen.take_instances(1_800);
    gen.regenerate();
    instances.extend(gen.take_instances(1_400));
    let spec = DetectorSpec::parse("rbm(mini_batch=25, warmup=4, persistence=1)").unwrap();
    let run = RunConfig { metric_window: 400, detector_batch: 37, ..Default::default() };
    let registry = DetectorRegistry::global();
    let mut sink = |_: &PipelineEvent<'_>| {};

    let mut uninterrupted = PipelineStepper::from_spec(registry, &spec, &schema, run).unwrap();
    for inst in &instances {
        uninterrupted.step(inst.clone(), &mut sink);
    }
    let expected = uninterrupted.finish("codec", &mut sink);

    // Cut misaligned with both batch sizes.
    let cut = 1_951;
    let mut head = PipelineStepper::from_spec(registry, &spec, &schema, run).unwrap();
    for inst in &instances[..cut] {
        head.step(inst.clone(), &mut sink);
    }
    let checkpoint = PipelineCheckpoint::capture(&head, schema.clone(), spec.clone()).unwrap();
    let binary = checkpoint.to_bytes(CheckpointCodec::Binary);
    let json = serde_json::to_string(&checkpoint.serialize_value()).unwrap().into_bytes();
    assert!(binary.starts_with(&BINARY_MAGIC));
    assert!(
        binary.len() * 2 < json.len(),
        "binary ({}) must be well under half of minified JSON ({})",
        binary.len(),
        json.len()
    );
    assert!(PipelineCheckpoint::from_bytes(&json).is_err(), "a JSON rendering must not load");

    let restored = PipelineCheckpoint::from_bytes(&binary).unwrap();
    assert_eq!(restored.processed().unwrap(), cut as u64);
    let mut resumed = restored.resume(registry).unwrap();
    for inst in &instances[cut..] {
        resumed.step(inst.clone(), &mut sink);
    }
    let result = resumed.finish("codec", &mut sink);
    assert_eq!(result.detections, expected.detections);
    assert_eq!(result.instances, expected.instances);
    assert_eq!(result.pm_auc, expected.pm_auc);
    assert_eq!(result.pm_gmean, expected.pm_gmean);
    assert_eq!(result.accuracy, expected.accuracy);
    assert_eq!(result.kappa, expected.kappa);
}
