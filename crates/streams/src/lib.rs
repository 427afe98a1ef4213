//! Data-stream substrate for the RBM-IM reproduction.
//!
//! The paper evaluates drift detectors inside the MOA environment; this
//! crate re-implements the needed pieces natively in Rust:
//!
//! * an [`Instance`] / [`StreamSchema`]
//!   model and the [`DataStream`] trait,
//! * the synthetic generators used by the paper's artificial benchmarks
//!   (Agrawal, rotating Hyperplane, RandomRBF, RandomTree) plus a
//!   Gaussian mixture generator used by the real-world substitutes and the
//!   examples,
//! * concept-drift operators: sudden / gradual / incremental transitions
//!   between concepts ([`drift`]), and **local** drift that affects only a
//!   chosen subset of classes ([`drift::local`]),
//! * class-imbalance operators: static and dynamic imbalance ratios and
//!   class-role switching ([`imbalance`]),
//! * synthetic substitutes for the 12 real-world benchmarks of Table I
//!   ([`realworld`]), and
//! * a benchmark [`registry`] that builds all 24 streams with the metadata
//!   reported in Table I, plus [`scenarios`] builders for the three
//!   taxonomy scenarios of Section IV.

#![warn(missing_docs)]

pub mod drift;
pub mod generators;
pub mod imbalance;
pub mod instance;
pub mod realworld;
pub mod registry;
pub mod scenarios;
pub mod source;
pub mod stream;

pub use instance::{Instance, StreamSchema};
pub use source::{derive_stream_seed, ReplayStream, StreamSource};
pub use stream::{DataStream, MiniBatch, StreamExt};
