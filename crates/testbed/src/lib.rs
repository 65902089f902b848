//! # ce-testbed — the unified cardinality-estimation testbed (§IV-B)
//!
//! Labels datasets with the measured performance of every CE model:
//!
//! 1. generate a query workload against the dataset;
//! 2. acquire true cardinalities through the storage engine;
//! 3. train every candidate model ([`ce_models::build_model`]);
//! 4. measure mean Q-error and mean inference latency on testing queries.
//!
//! [`score`] then normalizes `(Q-error_mean, T_mean)` into the per-weight
//! score vectors of Eq. 2-4 and computes the D-error metric (Def. 1).
//! [`parallel`] labels dataset batches across threads — labeling is the
//! dominant cost of Stage 1 and is embarrassingly parallel.

pub mod label;
pub mod parallel;
pub mod score;

pub use label::{label_dataset, train_and_measure, DatasetLabel, ModelPerformance, TestbedConfig};
pub use parallel::label_datasets;
pub use score::{d_error, score_vector, MetricWeights};
