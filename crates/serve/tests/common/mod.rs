//! Shared fixtures for the ce-serve integration tests: a small trained
//! advisor over generated datasets (fast enough to build per test), and
//! the workspace's synthetic advisors (`autoce`'s `src/fixtures.rs`),
//! mounted by `#[path]` because they compile into test targets only.
//! (Not every test binary uses every fixture.)
#![allow(dead_code)]

#[path = "../../../autoce/src/fixtures.rs"]
pub mod fixtures;

use autoce::{AutoCe, AutoCeConfig};
use ce_datagen::{generate_batch, DatasetSpec};
use ce_gnn::DmlConfig;
use ce_models::ModelKind;
use ce_storage::Dataset;
use ce_testbed::{label_datasets, TestbedConfig};
use ce_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Testbed used for labeling (and for online adaptation in tests).
pub fn testbed() -> TestbedConfig {
    TestbedConfig {
        models: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
        train_queries: 50,
        test_queries: 25,
        workload: WorkloadSpec::default(),
    }
}

/// Trains a small advisor over `n` generated datasets; returns the test
/// datasets alongside it.
pub fn trained_advisor(n: usize, seed: u64) -> (Vec<Dataset>, AutoCe) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = DatasetSpec::small().single_table();
    let datasets = generate_batch("sv", n, &spec, &mut rng);
    let mut labels = label_datasets(&datasets, &testbed(), 3, 0);
    // `label_datasets` times inference with `Instant`, and the embedding
    // space and the drift threshold inherit the number: pin the two
    // wall-clock fields (as `benchmarks/e2e` does) so the fixture is a
    // function of the seed. Stopgap until the testbed takes an injected
    // latency source (ROADMAP open item 1).
    for label in &mut labels {
        let models = label.performances.len();
        for (m, p) in label.performances.iter_mut().enumerate() {
            p.latency_mean_us = 100.0 * (models - m) as f64;
            p.train_time_ms = 0.0;
        }
    }
    let config = AutoCeConfig {
        dml: DmlConfig {
            epochs: 6,
            batch_size: n.max(2),
            hidden: vec![16],
            embed_dim: 8,
            ..DmlConfig::default()
        },
        k: 2,
        incremental: None,
        ..AutoCeConfig::default()
    };
    let advisor = AutoCe::train(&datasets, &labels, config, seed ^ 0x5e);
    (datasets, advisor)
}
