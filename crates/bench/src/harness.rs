//! Shared experiment infrastructure: scaling, corpus construction (with a
//! label cache), advisor training and selector evaluation.

use autoce::{AutoCe, AutoCeConfig, IncrementalConfig, RcsEntry, Selector};
use ce_datagen::{generate_batch, DatasetSpec};
use ce_features::FeatureGraph;
use ce_gnn::{DmlConfig, LossKind};
use ce_models::{ModelKind, SELECTABLE_MODELS};
use ce_storage::Dataset;
use ce_testbed::{label_datasets, DatasetLabel, MetricWeights, TestbedConfig};
use ce_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

/// Experiment scale knob, read from `AUTOCE_SCALE` (default 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        let s = std::env::var("AUTOCE_SCALE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.0);
        Scale(s.clamp(0.05, 100.0))
    }

    /// Scales an integer quantity (at least `min`).
    pub fn count(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.0) as usize).max(min)
    }
}

/// A labeled corpus: training and testing datasets with testbed labels.
pub struct Corpus {
    /// Stage-1 training datasets.
    pub train_datasets: Vec<Dataset>,
    /// Their labels.
    pub train_labels: Vec<DatasetLabel>,
    /// Held-out testing datasets.
    pub test_datasets: Vec<Dataset>,
    /// Their labels.
    pub test_labels: Vec<DatasetLabel>,
    /// The testbed configuration used for labeling.
    pub testbed: TestbedConfig,
}

/// Default testbed budget at a given scale.
pub fn default_testbed(scale: Scale, models: Vec<ModelKind>) -> TestbedConfig {
    TestbedConfig {
        models,
        train_queries: scale.count(500, 250),
        test_queries: scale.count(120, 60),
        workload: WorkloadSpec::default(),
    }
}

/// Default DML configuration at a given scale.
pub fn default_dml(scale: Scale) -> DmlConfig {
    DmlConfig {
        epochs: scale.count(25, 10),
        batch_size: 32,
        lr: 1e-3,
        tau: 0.97,
        gamma: 1.0,
        hidden: vec![64],
        embed_dim: 32,
        loss: LossKind::Weighted,
    }
}

fn cache_path(key: &str) -> PathBuf {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    PathBuf::from("results").join(format!("cache_labels_{:016x}.json", h.finish()))
}

/// Labels datasets, consulting a JSON cache keyed by the generation
/// parameters (datasets are deterministic from their seed, so caching
/// labels alone is sound).
pub fn cached_labels(
    key: &str,
    datasets: &[Dataset],
    cfg: &TestbedConfig,
    seed: u64,
) -> Vec<DatasetLabel> {
    let path = cache_path(&format!(
        "{key}|{}|{}|{}|{:?}|{seed}",
        datasets.len(),
        cfg.train_queries,
        cfg.test_queries,
        cfg.models
    ));
    if let Ok(bytes) = std::fs::read(&path) {
        if let Some(labels) = serde_json::from_slice(&bytes)
            .ok()
            .and_then(|v| crate::labels::labels_from_json(&v))
        {
            if labels.len() == datasets.len() {
                eprintln!("[harness] reusing cached labels: {}", path.display());
                return labels;
            }
        }
    }
    let labels = label_datasets(datasets, cfg, seed, 0);
    let _ = std::fs::create_dir_all("results");
    if let Ok(bytes) = serde_json::to_vec(&crate::labels::labels_to_json(&labels)) {
        let _ = std::fs::write(&path, bytes);
    }
    labels
}

/// Builds the standard synthetic corpus (the paper's 1,000 training + 200
/// testing datasets, scaled).
pub fn build_corpus(scale: Scale, models: Vec<ModelKind>, seed: u64) -> Corpus {
    let spec = DatasetSpec::small();
    let mut rng = StdRng::seed_from_u64(seed);
    let n_train = scale.count(48, 16);
    let n_test = scale.count(24, 8);
    let train_datasets = generate_batch("train", n_train, &spec, &mut rng);
    let test_datasets = generate_batch("test", n_test, &spec, &mut rng);
    let testbed = default_testbed(scale, models);
    let train_labels = cached_labels("train", &train_datasets, &testbed, seed ^ 0x11);
    let test_labels = cached_labels("test", &test_datasets, &testbed, seed ^ 0x22);
    Corpus {
        train_datasets,
        train_labels,
        test_datasets,
        test_labels,
        testbed,
    }
}

/// Trains the AutoCE advisor on a corpus. `selectable` restricts the models
/// the advisor may recommend (labels are projected accordingly).
pub fn train_advisor(
    corpus: &Corpus,
    scale: Scale,
    loss: LossKind,
    incremental: Option<IncrementalConfig>,
    selectable: &[ModelKind],
    seed: u64,
) -> AutoCe {
    let kinds: Vec<ModelKind> = corpus
        .testbed
        .models
        .iter()
        .copied()
        .filter(|k| selectable.contains(k))
        .collect();
    let labels: Vec<DatasetLabel> = corpus
        .train_labels
        .iter()
        .map(|l| l.project(&kinds))
        .collect();
    let mut dml = default_dml(scale);
    dml.loss = loss;
    AutoCe::train(
        &corpus.train_datasets,
        &labels,
        AutoCeConfig {
            dml,
            incremental,
            ..AutoCeConfig::default()
        },
        seed,
    )
}

/// Trains the advisor with paper defaults (weighted loss + IL, selectable
/// models = the seven of §IV-B1).
pub fn train_default_advisor(corpus: &Corpus, scale: Scale, seed: u64) -> AutoCe {
    train_advisor(
        corpus,
        scale,
        LossKind::Weighted,
        Some(IncrementalConfig::default()),
        &SELECTABLE_MODELS,
        seed,
    )
}

/// D-errors of a selector over a labeled test set.
pub fn eval_selector(
    selector: &dyn Selector,
    datasets: &[Dataset],
    labels: &[DatasetLabel],
    w: MetricWeights,
) -> Vec<f64> {
    datasets
        .iter()
        .zip(labels)
        .map(|(ds, label)| {
            let kind = selector.select(ds, w);
            label.d_error_of(kind, w)
        })
        .collect()
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Fraction of values at or below `eps` — the paper's "recommendation
/// accuracy" (Table II).
pub fn accuracy(derrs: &[f64], eps: f64) -> f64 {
    if derrs.is_empty() {
        return 0.0;
    }
    derrs.iter().filter(|&&d| d <= eps).count() as f64 / derrs.len() as f64
}

/// Mean Q-error / latency of the models a selector picks across a test set
/// (the Fig. 8 breakdown).
pub fn eval_selector_breakdown(
    selector: &dyn Selector,
    datasets: &[Dataset],
    labels: &[DatasetLabel],
    w: MetricWeights,
) -> (f64, f64, f64) {
    let mut derr = Vec::new();
    let mut qerr = Vec::new();
    let mut lat = Vec::new();
    for (ds, label) in datasets.iter().zip(labels) {
        let kind = selector.select(ds, w);
        derr.push(label.d_error_of(kind, w));
        qerr.push(label.qerror_of(kind));
        lat.push(label.latency_of(kind));
    }
    (mean(&derr), mean(&qerr), mean(&lat))
}

/// A synthetic RCS for the KNN benches and `profile_index`: `n` entries
/// scattered around `blobs` centres in `dim` dimensions (entry `i` near
/// centre `i % blobs`), and `queries` query embeddings near those centres.
pub fn blob_rcs(
    n: usize,
    blobs: usize,
    dim: usize,
    queries: usize,
    rng: &mut StdRng,
) -> (Vec<RcsEntry>, Vec<Vec<f32>>) {
    let kinds = [ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
    let centers: Vec<Vec<f32>> = (0..blobs)
        .map(|_| (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect())
        .collect();
    let mut near = |c: usize| -> Vec<f32> {
        centers[c]
            .iter()
            .map(|&v| v + rng.gen_range(-0.3f32..0.3))
            .collect()
    };
    let entries = (0..n)
        .map(|i| RcsEntry {
            name: format!("b{i}"),
            graph: FeatureGraph {
                vertices: vec![vec![i as f32, 0.0, 0.0, 1.0]],
                edges: vec![vec![0.0]],
            },
            embedding: near(i % blobs),
            kinds: kinds.to_vec(),
            sa: (0..3).map(|m| ((i + m) % 4) as f64 / 3.0).collect(),
            se: (0..3).map(|m| ((i + 2 * m) % 3) as f64 / 2.0).collect(),
        })
        .collect();
    let queries = (0..queries).map(|i| near((i * 7) % blobs)).collect();
    (entries, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_counts() {
        let s = Scale(0.5);
        assert_eq!(s.count(48, 16), 24);
        assert_eq!(s.count(10, 16), 16);
    }

    #[test]
    fn helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(accuracy(&[0.05, 0.2, 0.0], 0.1), 2.0 / 3.0);
        assert_eq!(accuracy(&[], 0.1), 0.0);
    }

    #[test]
    fn default_configs_scale() {
        let tb = default_testbed(Scale(1.0), vec![ModelKind::Postgres]);
        assert_eq!(tb.train_queries, 500);
        let dml = default_dml(Scale(2.0));
        assert_eq!(dml.epochs, 50);
    }
}
