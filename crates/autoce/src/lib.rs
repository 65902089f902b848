//! # autoce — the model advisor (the paper's primary contribution)
//!
//! AutoCE selects the most suitable learned CE model for an arbitrary
//! dataset and metric weighting, without training any CE model online:
//!
//! * [`advisor`]: the four-stage pipeline — feature graphs, DML-trained GIN
//!   encoder and the recommendation candidate set (RCS), held as
//!   [`AdvisorShard`] partitions;
//! * [`knn`]: the KNN predictor of Eq. 13 — the one clamp → partial top-k →
//!   merge → vote every serving tier calls;
//! * [`incremental`]: Algorithm 2 — cross-validated feedback collection and
//!   Mixup-based data augmentation, then incremental encoder training;
//! * [`online`]: the online adaptive method of §V-E — drift detection by
//!   embedding distance (90th-percentile threshold) and RCS/encoder updates
//!   from online-labeled datasets;
//! * [`baselines`]: the four selection baselines of §VII (MLP-based,
//!   Rule-based, Knn-based, Sampling-based) plus Learning-All;
//! * [`beta`]: Beta-distribution sampling for Mixup's λ.

//! * [`backend`]: the unified [`AdvisorBackend`] query surface every
//!   serving tier (flat, sharded, clustered) implements, plus the shared
//!   [`AdvisorError`] taxonomy;
//! * [`index`]: the two-stage deterministic KNN index (coarse IVF probe +
//!   exact re-rank under [`knn_order`]) that keeps serving sub-linear in
//!   RCS size while staying bit-identical to the flat scan.

pub mod advisor;
pub mod backend;
pub mod baselines;
pub mod beta;
#[doc(hidden)]
pub mod fixtures;
pub mod incremental;
pub mod index;
pub mod knn;
pub mod online;

pub use advisor::{AdvisorShard, AutoCe, AutoCeConfig, RcsEntry};
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
