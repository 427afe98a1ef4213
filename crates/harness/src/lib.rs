//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Sec. VI) from the building blocks in the other crates.
//!
//! Everything runs through the unified **Pipeline API**:
//!
//! * [`pipeline::PipelineBuilder`] — one prequential run: a stream, an
//!   [`rbm_im_classifiers::OnlineClassifier`] (the paper's CSPT by default),
//!   a drift detector (pre-built or resolved by spec), allocation-free
//!   buffers in the hot loop, optional detector mini-batching and event
//!   sinks;
//! * [`registry::DetectorRegistry`] / [`registry::DetectorSpec`] — the open,
//!   string-keyed detector catalogue (`"adwin(delta=0.01)"` is a valid
//!   spec); new detectors register without touching this crate, and
//!   experiments name their detectors by spec
//!   ([`registry::paper_detectors`] is the paper's line-up);
//! * [`pipeline::run_grid`] — the parallel detectors × streams grid, one
//!   stream pass per row, that experiments 1–3 are built on.
//!
//! | Paper artifact | Module | Entry point |
//! |---|---|---|
//! | Table I (benchmark inventory) | [`rbm_im_streams::registry`] | `cargo run -p rbm-im-harness --release --bin table1` |
//! | Table II/III detector line-up | [`registry::paper_detectors`] | every `experiment*` bin |
//! | Table III (pmAUC / pmGM / timing, 6 detectors × 24 streams) | [`experiment1`] | `--bin experiment1` |
//! | Fig. 4 & 5 (Bonferroni–Dunn ranks) | [`experiment1`] | `--bin experiment1` |
//! | Fig. 6 & 7 (Bayesian signed tests) | [`experiment1`] | `--bin experiment1` |
//! | Fig. 8 (pmAUC vs number of locally drifting classes) | [`experiment2`] | `--bin experiment2` |
//! | Fig. 9 (pmAUC vs imbalance ratio) | [`experiment3`] | `--bin experiment3` |
//! | Detector overhead (Table III bottom rows) | [`pipeline::RunResult`] timing fields | `--bin experiment1` |
//! | Design-choice ablations | [`ablation`] | [`ablation::run_all_ablations`] |
//!
//! The harness scales stream lengths down by default (`BuildConfig::default`)
//! so the complete Table III regenerates in minutes on a laptop; pass
//! `--scale 1` to the binaries for paper-scale streams.

#![warn(missing_docs)]

pub mod ablation;
pub mod checkpoint;
pub mod experiment1;
pub mod experiment2;
pub mod experiment3;
pub mod pipeline;
pub mod registry;
pub mod report;
pub mod stepper;

pub use checkpoint::{CheckpointError, PipelineCheckpoint};
pub use pipeline::{run_grid, GridStream, PipelineBuilder, PipelineEvent, RunConfig, RunResult};
pub use registry::{paper_detectors, DetectorRegistry, DetectorSpec};
pub use stepper::PipelineStepper;
