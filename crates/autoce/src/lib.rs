//! # autoce — the model advisor (the paper's primary contribution)
//!
//! AutoCE selects the most suitable learned CE model for an arbitrary
//! dataset and metric weighting, without training any CE model online:
//!
//! * [`advisor`]: the four-stage pipeline — feature graphs, DML-trained GIN
//!   encoder and the recommendation candidate set (RCS), held as one or more
//!   [`AdvisorShard`] partitions of the one in-process advisor, [`AutoCe`];
//! * [`knn`]: the KNN predictor of Eq. 13 — the one clamp → partial top-k →
//!   merge → vote every serving tier calls;
//! * [`incremental`]: Algorithm 2 — cross-validated feedback collection and
//!   Mixup-based data augmentation, then incremental encoder training;
//! * [`online`]: the online adaptive method of §V-E — drift detection by
//!   embedding distance (90th-percentile threshold) and RCS/encoder updates
//!   from online-labeled datasets, over the full RCS or a reservoir sample;
//! * [`baselines`]: the four selection baselines of §VII (MLP-based,
//!   Rule-based, Knn-based, Sampling-based) plus Learning-All;
//! * [`beta`]: Beta-distribution sampling for Mixup's λ.

//! * [`backend`]: the unified [`AdvisorBackend`] query surface both
//!   backends (in-process, clustered) implement, plus the shared
//!   [`AdvisorError`] taxonomy;
//! * [`index`]: the two-stage deterministic KNN index (coarse IVF probe +
//!   exact re-rank under [`knn_order`]) that keeps serving sub-linear in
//!   RCS size while staying bit-identical to the flat scan.
//!
//! # Test fixtures
//!
//! The synthetic advisors the workspace's tests share, `src/fixtures.rs`,
//! compile into test targets only: this crate's unit tests declare the
//! module under `#[cfg(test)]`, and other test targets mount the file by
//! `#[path]`. It is not public:
//!
//! ```compile_fail,E0433
//! let _ = autoce::fixtures::synthetic_flat;
//! ```

// Lets `fixtures.rs` name this crate by the path its other mounts use.
extern crate self as autoce;

pub mod advisor;
pub mod backend;
pub mod baselines;
pub mod beta;
pub mod incremental;
pub mod index;
pub mod knn;
pub mod online;
mod reservoir;
mod shard;

pub use advisor::{AutoCe, AutoCeConfig, RcsEntry};
pub use backend::{validate_nonzero, AdvisorBackend, AdvisorError, BatchPredictRequest};
pub use index::{IndexConfig, IndexConfigBuilder, KnnIndex, QuantMode};
pub use knn::{knn_order, knn_vote};
// Observability types surface through the backend trait; re-export them so
// backend consumers need not name `ce-obs` directly.
pub use baselines::{
    KnnFeatureSelector, LearningAllSelector, MlpSelector, RegressionSelector, RuleSelector,
    SamplingSelector, Selector,
};
pub use ce_obs::{MetricsRegistry, MetricsSnapshot};
pub use incremental::IncrementalConfig;
pub use shard::AdvisorShard;

#[cfg(test)]
mod fixtures;
