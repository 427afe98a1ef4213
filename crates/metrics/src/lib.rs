//! Prequential evaluation metrics for multi-class imbalanced data streams.
//!
//! The paper evaluates every detector through the lens of the classifier it
//! drives, using two skew-aware prequential metrics computed over a sliding
//! window of recent predictions:
//!
//! * **pmAUC** — prequential multi-class AUC (Wang & Minku, 2020): the
//!   average of pairwise class AUCs (Hand & Till M-measure) computed over
//!   the window of recent per-class scores;
//! * **pmGM** — prequential multi-class G-mean: the geometric mean of the
//!   per-class recalls over the window.
//!
//! This crate provides:
//!
//! * [`confusion::StreamingConfusionMatrix`] — windowless running confusion
//!   matrix with accuracy, per-class recall/precision, G-mean and Cohen's
//!   kappa;
//! * [`auc`] — windowed multi-class AUC;
//! * [`prequential::PrequentialEvaluator`] — the sliding-window evaluator
//!   combining both metrics, used by the harness for every Table III cell;
//! * [`detection`] — drift-detection quality metrics (delay, misses, false
//!   alarms) used by the ablation studies.

#![warn(missing_docs)]

pub mod auc;
pub mod confusion;
pub mod detection;
pub mod prequential;

#[cfg(test)]
mod reference;

pub use auc::WindowedMultiClassAuc;
pub use confusion::StreamingConfusionMatrix;
pub use detection::{evaluate_detections, DetectionQuality};
pub use prequential::{PrequentialEvaluator, PrequentialSnapshot};
