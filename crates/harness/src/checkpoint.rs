//! Self-contained pipeline checkpoints: capture a running
//! [`PipelineStepper`] at any instance boundary, serialize it with the
//! RBMC codec ([`codec`]), and resume it — later, elsewhere, or on a
//! different shard — **bitwise-identically** to a run that was never
//! interrupted.
//!
//! A [`PipelineCheckpoint`] bundles everything needed to rebuild the
//! pipeline from nothing: the stream schema, the registry
//! [`DetectorSpec`] the detector was built from, the [`RunConfig`], and
//! the opaque state value produced by
//! [`PipelineStepper::state_snapshot`](crate::stepper::PipelineStepper::state_snapshot)
//! (classifier + detector + prequential evaluator + the partially filled
//! detector micro-batch + run counters). [`PipelineCheckpoint::resume`]
//! rebuilds the stepper through the registry and restores the state onto
//! it.
//!
//! This is the enabler for both halves of elastic serving: shard-to-shard
//! live migration (`rbm-im-serve`'s `resize_shards`) and
//! restart-from-disk (`rbm-im-serve`'s `SnapshotSink`).

pub mod codec;

use crate::pipeline::RunConfig;
use crate::registry::{DetectorRegistry, DetectorSpec, RegistryError};
use crate::stepper::PipelineStepper;
use codec::{CheckpointCodec, CodecError};
use rbm_im_streams::StreamSchema;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors of checkpoint capture, serialization, and restoration.
#[derive(Debug)]
pub enum CheckpointError {
    /// The pipeline's classifier or detector does not implement the
    /// snapshot/restore contract.
    Unsupported(String),
    /// A state value did not match the expected shape (corrupt or
    /// incompatible snapshot).
    State(serde::Error),
    /// Rebuilding the detector from its spec failed.
    Registry(RegistryError),
    /// RBMC decoding failed — truncation, version mismatch, corruption, a
    /// missing magic (see [`codec::CodecError`]).
    Codec(CodecError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Unsupported(what) => {
                write!(f, "checkpointing unsupported: {what}")
            }
            CheckpointError::State(e) => write!(f, "checkpoint state error: {e}"),
            CheckpointError::Registry(e) => write!(f, "checkpoint detector rebuild failed: {e}"),
            CheckpointError::Codec(e) => write!(f, "checkpoint codec error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<serde::Error> for CheckpointError {
    fn from(e: serde::Error) -> Self {
        CheckpointError::State(e)
    }
}

impl From<RegistryError> for CheckpointError {
    fn from(e: RegistryError) -> Self {
        CheckpointError::Registry(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// A self-contained, serializable checkpoint of one prequential pipeline.
///
/// Serializes with [`PipelineCheckpoint::to_bytes`];
/// [`PipelineCheckpoint::resume`] rebuilds the
/// stepper (classifier from the schema, detector from the spec via the
/// registry) and restores the captured state, after which stepping
/// continues bitwise-identically to the uninterrupted pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineCheckpoint {
    /// Schema of the stream the pipeline serves.
    pub schema: StreamSchema,
    /// Registry spec the detector is (re)built from — the *effective* spec,
    /// i.e. after any deterministic per-stream seed injection.
    pub spec: DetectorSpec,
    /// The pipeline's run configuration.
    pub run: RunConfig,
    /// Opaque stepper state ([`PipelineStepper::state_snapshot`]).
    pub state: serde::Value,
}

impl PipelineCheckpoint {
    /// Captures a checkpoint of `stepper`, recording the schema / spec /
    /// config needed to resume it from nothing. The spec must be the one
    /// the stepper's detector was built from.
    pub fn capture(
        stepper: &PipelineStepper,
        schema: StreamSchema,
        spec: DetectorSpec,
    ) -> Result<Self, CheckpointError> {
        Ok(PipelineCheckpoint {
            schema,
            spec,
            run: stepper.config(),
            state: stepper.state_snapshot()?,
        })
    }

    /// Rebuilds the pipeline: classifier from the schema, detector from the
    /// spec via `registry`, then restores the captured state. The returned
    /// stepper continues exactly where [`PipelineCheckpoint::capture`] left
    /// off.
    pub fn resume(&self, registry: &DetectorRegistry) -> Result<PipelineStepper, CheckpointError> {
        let mut stepper = PipelineStepper::from_spec(registry, &self.spec, &self.schema, self.run)
            .map_err(|e| match e {
                crate::pipeline::PipelineError::Registry(e) => CheckpointError::Registry(e),
                crate::pipeline::PipelineError::MissingStream => {
                    CheckpointError::Unsupported("stepper construction".into())
                }
            })?;
        stepper.restore_state(&self.state)?;
        Ok(stepper)
    }

    /// Serializes the checkpoint as RBMC, the format
    /// [`PipelineCheckpoint::from_bytes`] reads (the repository benchmark's
    /// `checkpoint.bytes` tracks its size on warmed pipelines).
    /// [`CheckpointCodec`] has the one `Binary` variant.
    pub fn to_bytes(&self, _codec: CheckpointCodec) -> Vec<u8> {
        codec::encode(self)
    }

    /// Parses a checkpoint written by [`PipelineCheckpoint::to_bytes`];
    /// anything that is not RBMC is rejected.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Ok(codec::decode(bytes)?)
    }

    /// Instances the checkpointed pipeline had processed at capture time —
    /// the resume offset a replayer should continue the stream from.
    pub fn processed(&self) -> Result<u64, CheckpointError> {
        Ok(self.state.field("processed")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineBuilder, PipelineEvent};
    use rbm_im_streams::generators::RandomRbfGenerator;
    use rbm_im_streams::{DataStream, ReplayStream, StreamExt};

    /// Checkpoint a pipeline mid-stream (at an awkward cut), serialize to
    /// RBMC, resume, run the tail: detections and metrics must equal the
    /// uninterrupted run bitwise.
    #[test]
    fn checkpointed_pipeline_resumes_bitwise_identically() {
        let mut gen = RandomRbfGenerator::new(8, 4, 2, 0.0, 17);
        let schema = gen.schema().clone();
        let mut instances = gen.take_instances(3_000);
        gen.regenerate();
        instances.extend(gen.take_instances(2_500));
        let spec = DetectorSpec::parse("rbm(mini_batch=25, warmup=4, persistence=1)").unwrap();
        let run = RunConfig { metric_window: 500, detector_batch: 37, ..Default::default() };
        let registry = DetectorRegistry::global();

        let uninterrupted = PipelineBuilder::new()
            .stream(ReplayStream::new(schema.clone(), instances.clone()))
            .stream_label("checkpointed")
            .detector_spec(spec.clone())
            .config(run)
            .run()
            .unwrap();
        assert!(!uninterrupted.detections.is_empty(), "drift must be detected");

        // Cut misaligned with both the detector micro-batch (37) and the
        // RBM mini-batch (25).
        let cut = 2_951;
        let mut head = PipelineStepper::from_spec(registry, &spec, &schema, run).unwrap();
        let mut sink = |_: &PipelineEvent<'_>| {};
        for inst in &instances[..cut] {
            head.step(inst.clone(), &mut sink);
        }
        let bytes = PipelineCheckpoint::capture(&head, schema.clone(), spec.clone())
            .unwrap()
            .to_bytes(CheckpointCodec::Binary);
        drop(head);

        let checkpoint = PipelineCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(checkpoint.schema, schema);
        assert_eq!(checkpoint.spec, spec);
        let mut resumed = checkpoint.resume(registry).unwrap();
        for inst in &instances[cut..] {
            resumed.step(inst.clone(), &mut sink);
        }
        let result = resumed.finish("checkpointed", &mut sink);
        assert_eq!(result.detections, uninterrupted.detections);
        assert_eq!(result.instances, uninterrupted.instances);
        assert_eq!(result.pm_auc, uninterrupted.pm_auc);
        assert_eq!(result.pm_gmean, uninterrupted.pm_gmean);
        assert_eq!(result.accuracy, uninterrupted.accuracy);
        assert_eq!(result.kappa, uninterrupted.kappa);
    }
}
