//! The model-selection baselines of §VII-A.
//!
//! * **MLP-based** — a three-layer perceptron head on the GIN encoder,
//!   trained end-to-end as a classifier of the best model (cross-entropy);
//! * **Rule-based** — random data-driven model for single-table datasets,
//!   random query-driven model for multi-table ones (the general rules the
//!   empirical studies in the related work suggest);
//! * **Knn-based** — KNN directly on raw dataset features rather than
//!   learned embeddings;
//! * **Sampling-based** — online learning on a sample: trains and tests all
//!   candidates on a subsample of the dataset, then picks the winner;
//! * **Learning-All** — online learning on the full dataset (the
//!   near-oracle upper baseline of Fig. 12).

use crate::advisor::AutoCe;
use crate::knn::knn_order;
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_gnn::{DmlConfig, GinEncoder, GradPool, StackedCtx, StackedTape};
use ce_models::ModelKind;
use ce_nn::loss::softmax_cross_entropy;
use ce_nn::matrix::euclidean;
use ce_nn::{Activation, Matrix, Mlp};
use ce_storage::{Column, Dataset, Table};
use ce_testbed::score::best_index;
use ce_testbed::{label_dataset, DatasetLabel, MetricWeights, TestbedConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Mutex;

/// A model-selection strategy.
pub trait Selector: Send + Sync {
    /// Strategy name (matches the paper's figures).
    fn name(&self) -> &'static str;
    /// Selects a CE model for the dataset under the given weighting.
    fn select(&self, ds: &Dataset, w: MetricWeights) -> ModelKind;
}

impl Selector for AutoCe {
    fn name(&self) -> &'static str {
        "AutoCE"
    }

    fn select(&self, ds: &Dataset, w: MetricWeights) -> ModelKind {
        self.recommend(ds, w)
    }
}

/// End-to-end training of a GIN-headed baseline: per epoch the graphs are
/// shuffled, and each graph takes one step — a taped forward of its
/// one-graph stack, the head's forward and loss gradient (`loss_grad`,
/// given the graph's index), then the backward through head and encoder
/// and one Adam step on each. A graph whose embedding gradient is exactly
/// zero still steps (with a zero accumulator), so Adam's `t` advances.
fn train_end_to_end(
    encoder: &mut GinEncoder,
    head: &mut Mlp,
    graphs: &[FeatureGraph],
    dml: &DmlConfig,
    rng: &mut StdRng,
    loss_grad: impl Fn(&mut Mlp, &[f32], usize) -> Matrix,
) {
    let stacks: Vec<StackedCtx> = graphs
        .iter()
        .map(|g| StackedCtx::from_graphs(&[g]))
        .collect();
    let mut tape = StackedTape::new();
    let pool = GradPool::default();
    let mut order: Vec<usize> = (0..graphs.len()).collect();
    for _ in 0..dml.epochs {
        order.shuffle(rng);
        for &i in &order {
            encoder.forward_stacked_tape_into(&stacks[i], &mut tape);
            let grad = loss_grad(head, tape.embedding(0), i);
            let g_emb = vec![head.backward(&grad).row(0).to_vec()];
            let plan = encoder.backward_plan();
            let acc = encoder
                .backward_stacked_tape(&stacks[i], &tape, &g_emb, &plan, &pool)
                .pop()
                .flatten()
                .unwrap_or_else(|| pool.checkout(encoder));
            head.step(dml.lr);
            encoder.step_with(&acc, dml.lr);
            pool.restore(acc);
        }
    }
}

// ---------------------------------------------------------------------------
// MLP-based selection.
// ---------------------------------------------------------------------------

/// GIN + three-layer MLP classifier, trained with cross-entropy for one
/// metric weighting (the paper's first baseline and the DML ablation of
/// Fig. 11a).
pub struct MlpSelector {
    feature: FeatureConfig,
    encoder: GinEncoder,
    head: Mlp,
    kinds: Vec<ModelKind>,
}

impl MlpSelector {
    /// Trains end-to-end on labeled datasets for weighting `w`.
    pub fn train(
        datasets: &[Dataset],
        labels: &[DatasetLabel],
        w: MetricWeights,
        feature: FeatureConfig,
        dml: &DmlConfig,
        seed: u64,
    ) -> Self {
        let graphs: Vec<FeatureGraph> = datasets
            .iter()
            .map(|ds| extract_features(ds, &feature))
            .collect();
        Self::train_from_graphs(&graphs, labels, w, feature, dml, seed)
    }

    /// Trains from pre-extracted feature graphs.
    pub fn train_from_graphs(
        graphs: &[FeatureGraph],
        labels: &[DatasetLabel],
        w: MetricWeights,
        feature: FeatureConfig,
        dml: &DmlConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(graphs.len(), labels.len(), "graph/label mismatch");
        let kinds: Vec<ModelKind> = labels
            .first()
            .map(|l| l.performances.iter().map(|p| p.kind).collect())
            .unwrap_or_default();
        let classes: Vec<usize> = labels
            .iter()
            .map(|l| best_index(&l.score_vector(w)))
            .collect();
        let input_dim = graphs.first().map_or(1, FeatureGraph::vertex_dim);
        let mut encoder = GinEncoder::new(input_dim, &dml.hidden, dml.embed_dim, seed ^ 0x3107);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x31f);
        let mut head = Mlp::new(
            &[dml.embed_dim, 32, 32, kinds.len().max(2)],
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        train_end_to_end(
            &mut encoder,
            &mut head,
            graphs,
            dml,
            &mut rng,
            |head, emb, i| {
                let logits = head.forward(&Matrix::row_vector(emb));
                softmax_cross_entropy(&logits, &[classes[i]]).1
            },
        );
        MlpSelector {
            feature,
            encoder,
            head,
            kinds,
        }
    }
}

impl Selector for MlpSelector {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn select(&self, ds: &Dataset, _w: MetricWeights) -> ModelKind {
        let g = extract_features(ds, &self.feature);
        let emb = self.encoder.encode(&g);
        let logits = self.head.infer(&Matrix::row_vector(&emb));
        let cls = logits
            .row(0)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.kinds.get(cls).copied().unwrap_or(ModelKind::Postgres)
    }
}

// ---------------------------------------------------------------------------
// MSE-regression selection (the "Without DML" ablation of Fig. 11a).
// ---------------------------------------------------------------------------

/// AutoCE (Without DML): "appending three fully connected layers to the GIN
/// network and using the MSE loss `L = Σ‖y⃗_i − ŷ⃗‖²` to train the entire
/// network", recommending `max(ŷ⃗).index` (§VII-E).
pub struct RegressionSelector {
    feature: FeatureConfig,
    encoder: GinEncoder,
    head: Mlp,
    kinds: Vec<ModelKind>,
}

impl RegressionSelector {
    /// Trains end-to-end with MSE against score vectors at weighting `w`.
    pub fn train(
        datasets: &[Dataset],
        labels: &[DatasetLabel],
        w: MetricWeights,
        feature: FeatureConfig,
        dml: &DmlConfig,
        seed: u64,
    ) -> Self {
        let graphs: Vec<FeatureGraph> = datasets
            .iter()
            .map(|ds| extract_features(ds, &feature))
            .collect();
        let kinds: Vec<ModelKind> = labels
            .first()
            .map(|l| l.performances.iter().map(|p| p.kind).collect())
            .unwrap_or_default();
        let targets: Vec<Vec<f32>> = labels
            .iter()
            .map(|l| l.score_vector(w).iter().map(|&v| v as f32).collect())
            .collect();
        let input_dim = graphs.first().map_or(1, FeatureGraph::vertex_dim);
        let mut encoder = GinEncoder::new(input_dim, &dml.hidden, dml.embed_dim, seed ^ 0x7e6);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e65);
        let mut head = Mlp::new(
            &[dml.embed_dim, 32, 32, kinds.len().max(1)],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        train_end_to_end(
            &mut encoder,
            &mut head,
            &graphs,
            dml,
            &mut rng,
            |head, emb, i| {
                let pred = head.forward(&Matrix::row_vector(emb));
                ce_nn::loss::mse_loss(&pred, &Matrix::row_vector(&targets[i])).1
            },
        );
        RegressionSelector {
            feature,
            encoder,
            head,
            kinds,
        }
    }
}

impl Selector for RegressionSelector {
    fn name(&self) -> &'static str {
        "Without DML"
    }

    fn select(&self, ds: &Dataset, _w: MetricWeights) -> ModelKind {
        let g = extract_features(ds, &self.feature);
        let emb = self.encoder.encode(&g);
        let pred = self.head.infer(&Matrix::row_vector(&emb));
        let best = pred
            .row(0)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite predictions"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.kinds.get(best).copied().unwrap_or(ModelKind::Postgres)
    }
}

// ---------------------------------------------------------------------------
// Rule-based selection.
// ---------------------------------------------------------------------------

/// Rule-based baseline: random data-driven model on single-table datasets,
/// random query-driven model on multi-table ones.
pub struct RuleSelector {
    candidates: Vec<ModelKind>,
    rng: Mutex<StdRng>,
}

impl RuleSelector {
    /// Creates the selector over a candidate pool.
    pub fn new(candidates: Vec<ModelKind>, seed: u64) -> Self {
        RuleSelector {
            candidates,
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x2a1e)),
        }
    }
}

impl Selector for RuleSelector {
    fn name(&self) -> &'static str {
        "Rule"
    }

    fn select(&self, ds: &Dataset, _w: MetricWeights) -> ModelKind {
        let mut rng = self.rng.lock().expect("rule rng poisoned");
        let pool: Vec<ModelKind> = if ds.num_tables() == 1 {
            self.candidates
                .iter()
                .copied()
                .filter(ModelKind::is_data_driven)
                .collect()
        } else {
            self.candidates
                .iter()
                .copied()
                .filter(ModelKind::is_query_driven)
                .collect()
        };
        let pool = if pool.is_empty() {
            &self.candidates
        } else {
            &pool
        };
        *pool
            .as_slice()
            .choose(&mut *rng)
            .expect("nonempty candidates")
    }
}

// ---------------------------------------------------------------------------
// Knn-based selection (raw features, no learned embedding).
// ---------------------------------------------------------------------------

/// KNN over raw dataset feature vectors: the ablation showing why the
/// similarity-aware embedding matters.
pub struct KnnFeatureSelector {
    feature: FeatureConfig,
    k: usize,
    entries: Vec<(Vec<f32>, Vec<f64>, Vec<f64>)>, // (features, sa, se)
    kinds: Vec<ModelKind>,
}

impl KnnFeatureSelector {
    /// Builds the selector from labeled datasets.
    pub fn build(
        datasets: &[Dataset],
        labels: &[DatasetLabel],
        feature: FeatureConfig,
        k: usize,
    ) -> Self {
        let kinds = labels
            .first()
            .map(|l| l.performances.iter().map(|p| p.kind).collect())
            .unwrap_or_default();
        let entries = datasets
            .iter()
            .zip(labels)
            .map(|(ds, l)| {
                let (sa, se) = l.normalized_components();
                (Self::flatten(ds, &feature), sa, se)
            })
            .collect();
        KnnFeatureSelector {
            feature,
            k,
            entries,
            kinds,
        }
    }

    /// Flattens a dataset's feature graph into one raw feature vector: mean
    /// vertex features plus graph-level summary.
    fn flatten(ds: &Dataset, cfg: &FeatureConfig) -> Vec<f32> {
        let g = extract_features(ds, cfg);
        let dim = g.vertex_dim();
        let n = g.num_vertices().max(1);
        let mut out = vec![0.0f32; dim + 2];
        for v in &g.vertices {
            for (o, &x) in out.iter_mut().zip(v) {
                *o += x / n as f32;
            }
        }
        out[dim] = n as f32 / 5.0;
        let esum: f32 = g.edges.iter().flatten().sum();
        out[dim + 1] = esum / n as f32;
        out
    }
}

impl Selector for KnnFeatureSelector {
    fn name(&self) -> &'static str {
        "Knn"
    }

    fn select(&self, ds: &Dataset, w: MetricWeights) -> ModelKind {
        let f = Self::flatten(ds, &self.feature);
        let mut dists: Vec<(usize, f32)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, (feat, _, _))| (i, euclidean(&f, feat)))
            .collect();
        dists.sort_by(knn_order);
        let k = self.k.clamp(1, dists.len());
        let arity = self.kinds.len();
        let mut avg = vec![0.0f64; arity];
        for &(i, _) in &dists[..k] {
            let (_, sa, se) = &self.entries[i];
            for (s, (a, e)) in avg.iter_mut().zip(sa.iter().zip(se)) {
                *s += (w.accuracy * a + w.efficiency() * e) / k as f64;
            }
        }
        self.kinds[best_index(&avg)]
    }
}

// ---------------------------------------------------------------------------
// Sampling-based and Learning-All online selection.
// ---------------------------------------------------------------------------

/// Uniform row subsample of a dataset (FKs may dangle — exactly what
/// happens when online learning trains on samples, and the source of the
/// high variance the paper observes for this baseline).
pub fn subsample_dataset(ds: &Dataset, fraction: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a3);
    let tables = ds
        .tables
        .iter()
        .map(|t| {
            let n = t.num_rows();
            let keep = ((n as f64 * fraction.clamp(0.01, 1.0)) as usize).clamp(1, n);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut rng);
            idx.truncate(keep);
            idx.sort_unstable();
            let columns = t
                .columns
                .iter()
                .map(|c| Column {
                    name: c.name.clone(),
                    data: idx.iter().map(|&r| c.data[r]).collect(),
                    role: c.role,
                })
                .collect();
            Table {
                name: t.name.clone(),
                columns,
            }
        })
        .collect();
    Dataset {
        name: format!("{}-sample", ds.name),
        tables,
        joins: ds.joins.clone(),
    }
}

/// Online learning on a subsample: trains and tests every candidate model
/// against the sample, then selects the best performer.
pub struct SamplingSelector {
    /// Sample fraction.
    pub fraction: f64,
    /// Testbed budget used on the sample.
    pub testbed: TestbedConfig,
    seed: u64,
}

impl SamplingSelector {
    /// Creates the selector.
    pub fn new(fraction: f64, testbed: TestbedConfig, seed: u64) -> Self {
        SamplingSelector {
            fraction,
            testbed,
            seed,
        }
    }
}

impl Selector for SamplingSelector {
    fn name(&self) -> &'static str {
        "Sampling"
    }

    fn select(&self, ds: &Dataset, w: MetricWeights) -> ModelKind {
        let sample = subsample_dataset(ds, self.fraction, self.seed);
        let label = label_dataset(&sample, &self.testbed, self.seed);
        label.best_model(w)
    }
}

/// Online learning on the full dataset (Fig. 12's "Learning-All").
pub struct LearningAllSelector {
    /// Testbed budget for full-dataset labeling.
    pub testbed: TestbedConfig,
    seed: u64,
}

impl LearningAllSelector {
    /// Creates the selector.
    pub fn new(testbed: TestbedConfig, seed: u64) -> Self {
        LearningAllSelector { testbed, seed }
    }
}

impl Selector for LearningAllSelector {
    fn name(&self) -> &'static str {
        "Learning-All"
    }

    fn select(&self, ds: &Dataset, w: MetricWeights) -> ModelKind {
        let label = label_dataset(ds, &self.testbed, self.seed);
        label.best_model(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_batch, generate_dataset, DatasetSpec};
    use ce_testbed::label_datasets;
    use ce_workload::WorkloadSpec;

    fn cheap_testbed() -> TestbedConfig {
        TestbedConfig {
            models: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
            train_queries: 50,
            test_queries: 25,
            workload: WorkloadSpec::default(),
        }
    }

    #[test]
    fn rule_selector_respects_table_count() {
        let mut rng = StdRng::seed_from_u64(241);
        let single = generate_dataset("s", &DatasetSpec::small().single_table(), &mut rng);
        let multi = generate_dataset("m", &DatasetSpec::small().multi_table(), &mut rng);
        let rule = RuleSelector::new(ce_models::SELECTABLE_MODELS.to_vec(), 1);
        for _ in 0..10 {
            assert!(rule
                .select(&single, MetricWeights::new(1.0))
                .is_data_driven());
            assert!(rule
                .select(&multi, MetricWeights::new(1.0))
                .is_query_driven());
        }
    }

    #[test]
    fn knn_and_mlp_selectors_produce_labeled_kinds() {
        let mut rng = StdRng::seed_from_u64(242);
        let datasets = generate_batch("b", 8, &DatasetSpec::small(), &mut rng);
        let labels = label_datasets(&datasets, &cheap_testbed(), 31, 0);
        let feature = FeatureConfig::default();
        let knn = KnnFeatureSelector::build(&datasets, &labels, feature, 2);
        let dml = DmlConfig {
            epochs: 4,
            hidden: vec![8],
            embed_dim: 4,
            ..DmlConfig::default()
        };
        let mlp = MlpSelector::train(
            &datasets,
            &labels,
            MetricWeights::new(0.9),
            feature,
            &dml,
            32,
        );
        let valid = [ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
        for ds in datasets.iter().take(3) {
            assert!(valid.contains(&knn.select(ds, MetricWeights::new(0.9))));
            assert!(valid.contains(&mlp.select(ds, MetricWeights::new(0.9))));
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fold(h: &mut u64, xs: &[f32]) {
        for b in xs.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a trained encoder's parameters, then the head's output on
    /// every graph's embedding.
    fn fold_trained(h: &mut u64, encoder: &GinEncoder, head: &Mlp, graphs: &[FeatureGraph]) {
        fold(h, &encoder.flat_params());
        for g in graphs {
            fold(h, &head.infer(&Matrix::row_vector(&encoder.encode(g))).data);
        }
    }

    /// Synthetic labels over three models: no wall clock enters.
    fn pinned_labels(n: usize) -> Vec<DatasetLabel> {
        let kinds = [ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
        (0..n)
            .map(|i| DatasetLabel {
                dataset: format!("pin{i}"),
                performances: kinds
                    .iter()
                    .enumerate()
                    .map(|(m, &kind)| ce_testbed::ModelPerformance {
                        kind,
                        qerror_mean: 1.0 + ((i * 7 + m * 3) % 5) as f64,
                        qerror_p50: 1.0,
                        qerror_p95: 2.0,
                        qerror_p99: 3.0,
                        latency_mean_us: 10.0 * (1 + (i + m) % 3) as f64,
                        train_time_ms: 0.0,
                    })
                    .collect(),
            })
            .collect()
    }

    /// FNV-1a over the trained encoder's parameters and the trained head's
    /// output on every training graph's embedding, for both GIN-headed
    /// baselines on one fixed input. The labels are synthetic, so no wall
    /// clock enters. Captured before the two training loops moved onto the
    /// tape API; any later loop must reproduce it.
    #[test]
    fn trained_baseline_parameters_are_pinned() {
        const GOLDEN: u64 = 0xd2dd_a27e_9d41_9e24;
        let mut rng = StdRng::seed_from_u64(245);
        let datasets = generate_batch("pin", 6, &DatasetSpec::small(), &mut rng);
        let labels = pinned_labels(datasets.len());
        let feature = FeatureConfig::default();
        let graphs: Vec<FeatureGraph> = datasets
            .iter()
            .map(|ds| extract_features(ds, &feature))
            .collect();
        let dml = DmlConfig {
            epochs: 3,
            hidden: vec![8],
            embed_dim: 4,
            ..DmlConfig::default()
        };
        let w = MetricWeights::new(0.7);
        let mlp = MlpSelector::train_from_graphs(&graphs, &labels, w, feature, &dml, 46);
        let reg = RegressionSelector::train(&datasets, &labels, w, feature, &dml, 47);
        let mut h = FNV_OFFSET;
        fold_trained(&mut h, &mlp.encoder, &mlp.head, &graphs);
        fold_trained(&mut h, &reg.encoder, &reg.head, &graphs);
        assert_eq!(h, GOLDEN, "trained baseline bits moved: {h:#018x}");
    }

    /// Golden bits of each GIN-headed baseline over a single- and
    /// multi-table corpus, five seeds, two weightings and one- and
    /// two-layer encoders: FNV-1a over every trained encoder's
    /// `flat_params` and its head's output on every graph. Captured on the
    /// per-graph taped engine, before the baselines trained through a
    /// one-graph stack.
    #[test]
    fn baseline_training_bits_are_golden() {
        const MLP_GOLDEN: u64 = 0x716b_1484_3498_912e;
        const REGRESSION_GOLDEN: u64 = 0x7ccc_1f39_4099_dca3;
        let mut rng = StdRng::seed_from_u64(246);
        let mut datasets = generate_batch("gs", 5, &DatasetSpec::small().single_table(), &mut rng);
        datasets.extend(generate_batch(
            "gm",
            5,
            &DatasetSpec::small().multi_table(),
            &mut rng,
        ));
        let labels = pinned_labels(datasets.len());
        let feature = FeatureConfig::default();
        let graphs: Vec<FeatureGraph> = datasets
            .iter()
            .map(|ds| extract_features(ds, &feature))
            .collect();
        let (mut mlp_h, mut reg_h) = (FNV_OFFSET, FNV_OFFSET);
        for seed in 1..=5u64 {
            let dml = DmlConfig {
                epochs: 3,
                hidden: if seed % 2 == 0 { vec![8, 6] } else { vec![8] },
                embed_dim: 4,
                ..DmlConfig::default()
            };
            for w in [MetricWeights::new(0.9), MetricWeights::new(0.3)] {
                let mlp = MlpSelector::train_from_graphs(&graphs, &labels, w, feature, &dml, seed);
                fold_trained(&mut mlp_h, &mlp.encoder, &mlp.head, &graphs);
                let reg = RegressionSelector::train(&datasets, &labels, w, feature, &dml, seed);
                fold_trained(&mut reg_h, &reg.encoder, &reg.head, &graphs);
            }
        }
        assert_eq!(mlp_h, MLP_GOLDEN, "MLP baseline bits moved: {mlp_h:#018x}");
        assert_eq!(
            reg_h, REGRESSION_GOLDEN,
            "regression baseline bits moved: {reg_h:#018x}"
        );
    }

    #[test]
    fn subsample_keeps_schema() {
        let mut rng = StdRng::seed_from_u64(243);
        let ds = generate_dataset("sub", &DatasetSpec::small().multi_table(), &mut rng);
        let sample = subsample_dataset(&ds, 0.2, 7);
        assert_eq!(sample.num_tables(), ds.num_tables());
        assert_eq!(sample.joins, ds.joins);
        for (s, o) in sample.tables.iter().zip(&ds.tables) {
            assert_eq!(s.num_columns(), o.num_columns());
            assert!(s.num_rows() <= o.num_rows());
            assert!(s.num_rows() >= o.num_rows() / 10);
        }
    }

    #[test]
    fn sampling_and_learning_all_select_models() {
        let mut rng = StdRng::seed_from_u64(244);
        let ds = generate_dataset("on", &DatasetSpec::small().single_table(), &mut rng);
        let sampling = SamplingSelector::new(0.3, cheap_testbed(), 41);
        let la = LearningAllSelector::new(cheap_testbed(), 42);
        let valid = [ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
        assert!(valid.contains(&sampling.select(&ds, MetricWeights::new(1.0))));
        assert!(valid.contains(&la.select(&ds, MetricWeights::new(1.0))));
    }
}
