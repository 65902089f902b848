//! Dataset labeling: train every model, measure Q-error and latency.

use crate::score::{best_index, d_error, score_vector, MetricWeights};
use ce_models::{build_model, ModelKind, TrainContext, SELECTABLE_MODELS};
use ce_storage::Dataset;
use ce_workload::metrics::{mean_qerror, percentile_qerror};
use ce_workload::{generate_workload, label_workload, LabeledQuery, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Testbed configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Models to label (defaults to the seven selectable models).
    pub models: Vec<ModelKind>,
    /// Training workload size (the paper uses 9,000; scaled down by default
    /// so a full Stage-1 run stays laptop-sized).
    pub train_queries: usize,
    /// Testing workload size (the paper uses 1,000).
    pub test_queries: usize,
    /// Workload shape.
    pub workload: WorkloadSpec,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            models: SELECTABLE_MODELS.to_vec(),
            train_queries: 240,
            test_queries: 80,
            workload: WorkloadSpec::default(),
        }
    }
}

/// Measured performance of one model on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelPerformance {
    /// Which model.
    pub kind: ModelKind,
    /// Mean Q-error over the testing queries (§IV-B2 uses the mean).
    pub qerror_mean: f64,
    /// Median Q-error (the paper notes other percentiles are usable).
    #[serde(default)]
    pub qerror_p50: f64,
    /// 95th-percentile Q-error.
    #[serde(default)]
    pub qerror_p95: f64,
    /// 99th-percentile Q-error.
    #[serde(default)]
    pub qerror_p99: f64,
    /// Mean inference latency per query, in microseconds.
    pub latency_mean_us: f64,
    /// Wall-clock training time, in milliseconds (used by the online
    /// learning comparison of Fig. 12).
    pub train_time_ms: f64,
}

/// Which accuracy statistic drives the score vector (§IV-B2: "it is
/// possible to use other percentiles of the metrics... In this work, we
/// choose the mean").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccuracyMetric {
    /// Mean Q-error (the paper's default).
    Mean,
    /// Median Q-error.
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
}

impl ModelPerformance {
    /// The selected accuracy statistic.
    pub fn qerror(&self, metric: AccuracyMetric) -> f64 {
        match metric {
            AccuracyMetric::Mean => self.qerror_mean,
            // Percentiles default to the mean for labels produced before
            // percentile tracking existed (serde default = 0).
            AccuracyMetric::P50 => non_zero_or(self.qerror_p50, self.qerror_mean),
            AccuracyMetric::P95 => non_zero_or(self.qerror_p95, self.qerror_mean),
            AccuracyMetric::P99 => non_zero_or(self.qerror_p99, self.qerror_mean),
        }
    }
}

#[cfg(test)]
impl ModelPerformance {
    /// The bits of the four accuracy statistics, for exact comparisons.
    pub(crate) fn qerror_bits(&self) -> [u64; 4] {
        [
            self.qerror_mean,
            self.qerror_p50,
            self.qerror_p95,
            self.qerror_p99,
        ]
        .map(f64::to_bits)
    }
}

fn non_zero_or(v: f64, fallback: f64) -> f64 {
    if v > 0.0 {
        v
    } else {
        fallback
    }
}

/// The label of a dataset: per-model performance, from which score vectors
/// for any metric weighting can be derived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetLabel {
    /// Dataset name (bookkeeping only).
    pub dataset: String,
    /// One entry per labeled model, in configuration order.
    pub performances: Vec<ModelPerformance>,
}

impl DatasetLabel {
    /// Score vector `y⃗` for a metric weighting (Eq. 2).
    pub fn score_vector(&self, w: MetricWeights) -> Vec<f64> {
        self.score_vector_with(w, AccuracyMetric::Mean)
    }

    /// Score vector under an alternative accuracy statistic (§IV-B2's
    /// percentile variants).
    pub fn score_vector_with(&self, w: MetricWeights, metric: AccuracyMetric) -> Vec<f64> {
        let q: Vec<f64> = self.performances.iter().map(|p| p.qerror(metric)).collect();
        let t: Vec<f64> = self
            .performances
            .iter()
            .map(|p| p.latency_mean_us)
            .collect();
        score_vector(&q, &t, w)
    }

    /// The optimal model under a weighting.
    pub fn best_model(&self, w: MetricWeights) -> ModelKind {
        self.performances[best_index(&self.score_vector(w))].kind
    }

    /// D-error of choosing `kind` under a weighting (Def. 1).
    pub fn d_error_of(&self, kind: ModelKind, w: MetricWeights) -> f64 {
        let scores = self.score_vector(w);
        let idx = self
            .performances
            .iter()
            .position(|p| p.kind == kind)
            .expect("model not labeled on this dataset");
        d_error(&scores, idx)
    }

    /// Index of a model kind within the label.
    pub fn index_of(&self, kind: ModelKind) -> Option<usize> {
        self.performances.iter().position(|p| p.kind == kind)
    }

    /// Mean Q-error of a model.
    pub fn qerror_of(&self, kind: ModelKind) -> f64 {
        self.performances[self.index_of(kind).expect("model labeled")].qerror_mean
    }

    /// Mean latency (µs) of a model.
    pub fn latency_of(&self, kind: ModelKind) -> f64 {
        self.performances[self.index_of(kind).expect("model labeled")].latency_mean_us
    }

    /// Restricts the label to a subset of model kinds (e.g. the seven
    /// selectable models when the corpus was labeled with all nine).
    /// Normalization is re-derived over the subset.
    pub fn project(&self, kinds: &[ModelKind]) -> DatasetLabel {
        let performances = kinds
            .iter()
            .map(|k| {
                self.performances
                    .iter()
                    .find(|p| p.kind == *k)
                    .expect("projected model was labeled")
                    .clone()
            })
            .collect();
        DatasetLabel {
            dataset: self.dataset.clone(),
            performances,
        }
    }

    /// The normalized accuracy/efficiency score components `(S_a, S_e)` of
    /// Eq. 3/4. The score vector at any weighting is their affine
    /// combination, so storing the pair supports arbitrary `w⃗` exactly.
    pub fn normalized_components(&self) -> (Vec<f64>, Vec<f64>) {
        let sa = self.score_vector(MetricWeights::new(1.0));
        let se = self.score_vector(MetricWeights::new(0.0));
        (sa, se)
    }
}

/// Labels one dataset: the four-step procedure of §IV-B1.
pub fn label_dataset(ds: &Dataset, cfg: &TestbedConfig, seed: u64) -> DatasetLabel {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57);
    // Step 1-2: workload + true cardinalities.
    let spec = WorkloadSpec {
        num_queries: cfg.train_queries + cfg.test_queries,
        ..cfg.workload
    };
    let queries = generate_workload(ds, &spec, &mut rng);
    let labeled = label_workload(ds, &queries).expect("generated queries validate");
    let (train, test) = ce_workload::label::train_test_split(
        labeled,
        cfg.train_queries as f64 / (cfg.train_queries + cfg.test_queries) as f64,
    );
    // Step 3-4: train each model and measure.
    train_and_measure(ds, &cfg.models, &train, &test, seed)
}

/// Steps 3–4 of §IV-B1: trains each of `models` on `train` and measures
/// it on `test` — Q-error against the true cardinalities, mean estimate
/// latency and training time.
pub fn train_and_measure(
    ds: &Dataset,
    models: &[ModelKind],
    train: &[LabeledQuery],
    test: &[LabeledQuery],
    seed: u64,
) -> DatasetLabel {
    let truths: Vec<f64> = test.iter().map(|lq| lq.true_card as f64).collect();
    let performances = models
        .iter()
        .map(|&kind| {
            let t0 = Instant::now();
            let model = build_model(
                kind,
                &TrainContext {
                    dataset: ds,
                    train_queries: train,
                    seed,
                },
            );
            let train_time_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let estimates: Vec<f64> = test.iter().map(|lq| model.estimate(&lq.query)).collect();
            let elapsed_us = t1.elapsed().as_secs_f64() * 1e6;
            ModelPerformance {
                kind,
                qerror_mean: mean_qerror(&estimates, &truths),
                qerror_p50: percentile_qerror(&estimates, &truths, 50.0),
                qerror_p95: percentile_qerror(&estimates, &truths, 95.0),
                qerror_p99: percentile_qerror(&estimates, &truths, 99.0),
                latency_mean_us: elapsed_us / test.len().max(1) as f64,
                train_time_ms,
            }
        })
        .collect();
    DatasetLabel {
        dataset: ds.name.clone(),
        performances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_dataset, DatasetSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_cfg() -> TestbedConfig {
        TestbedConfig {
            models: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
            train_queries: 80,
            test_queries: 40,
            workload: WorkloadSpec::default(),
        }
    }

    #[test]
    fn labels_carry_all_models_and_finite_metrics() {
        let mut rng = StdRng::seed_from_u64(201);
        let ds = generate_dataset("tb", &DatasetSpec::small(), &mut rng);
        let label = label_dataset(&ds, &quick_cfg(), 11);
        assert_eq!(label.performances.len(), 3);
        for p in &label.performances {
            assert!(p.qerror_mean.is_finite() && p.qerror_mean >= 1.0);
            assert!(p.latency_mean_us > 0.0);
            assert!(p.train_time_ms >= 0.0);
        }
        assert!(
            label
                .performances
                .iter()
                .map(|p| p.train_time_ms)
                .sum::<f64>()
                > 0.0
        );
    }

    #[test]
    fn score_vector_and_best_model_consistent() {
        let mut rng = StdRng::seed_from_u64(202);
        let ds = generate_dataset("tb2", &DatasetSpec::small().single_table(), &mut rng);
        let label = label_dataset(&ds, &quick_cfg(), 12);
        for w in [MetricWeights::new(1.0), MetricWeights::new(0.5)] {
            let scores = label.score_vector(w);
            assert_eq!(scores.len(), 3);
            let best = label.best_model(w);
            assert_eq!(label.d_error_of(best, w), 0.0, "optimal has zero D-error");
            // Any model's D-error is within [0, 1].
            for p in &label.performances {
                let d = label.d_error_of(p.kind, w);
                assert!((0.0..=1.0).contains(&d));
            }
        }
    }

    #[test]
    fn percentile_metrics_are_ordered() {
        let mut rng = StdRng::seed_from_u64(204);
        let ds = generate_dataset("tbp", &DatasetSpec::small(), &mut rng);
        let label = label_dataset(&ds, &quick_cfg(), 14);
        for p in &label.performances {
            assert!(p.qerror_p50 >= 1.0);
            assert!(p.qerror_p95 >= p.qerror_p50);
            assert!(p.qerror_p99 >= p.qerror_p95);
            assert_eq!(p.qerror(AccuracyMetric::Mean), p.qerror_mean);
            assert_eq!(p.qerror(AccuracyMetric::P95), p.qerror_p95);
        }
        // Percentile-driven score vectors are well-formed too.
        let s = label.score_vector_with(MetricWeights::new(0.8), AccuracyMetric::P95);
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn old_labels_without_percentiles_fall_back_to_mean() {
        let p = ModelPerformance {
            kind: ModelKind::Postgres,
            qerror_mean: 3.0,
            qerror_p50: 0.0,
            qerror_p95: 0.0,
            qerror_p99: 0.0,
            latency_mean_us: 1.0,
            train_time_ms: 1.0,
        };
        assert_eq!(p.qerror(AccuracyMetric::P99), 3.0);
    }

    #[test]
    fn labeling_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(203);
        let ds = generate_dataset("tb3", &DatasetSpec::small().single_table(), &mut rng);
        let a = label_dataset(&ds, &quick_cfg(), 13);
        let b = label_dataset(&ds, &quick_cfg(), 13);
        for (x, y) in a.performances.iter().zip(&b.performances) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.qerror_bits(), y.qerror_bits(), "q-error deterministic");
        }
    }

    /// A data column spanning more than `i64::MAX`: the workload
    /// generator's range arithmetic and the flat encoding's normalization
    /// must neither overflow nor yield a non-finite q-error.
    #[test]
    fn labels_a_column_spanning_the_whole_i64_range() {
        let mut rng = StdRng::seed_from_u64(205);
        let mut ds = generate_dataset("wide", &DatasetSpec::small(), &mut rng);
        for table in &mut ds.tables {
            let c = table.data_column_indices()[0];
            for (row, v) in table.columns[c].data.iter_mut().enumerate() {
                *v = [i64::MIN, 0, i64::MAX, *v][row % 4];
            }
        }
        let label = label_dataset(&ds, &quick_cfg(), 15);
        for p in &label.performances {
            for q in p.qerror_bits().map(f64::from_bits) {
                assert!(q.is_finite() && q >= 1.0, "{:?}: {q}", p.kind);
            }
        }
    }
}
