//! Algorithm 2 — incremental learning with Mixup.
//!
//! 1. **Feedback collection**: ξ-fold cross-validation over the training
//!    entries; a sample whose KNN recommendation has D-error above the
//!    threshold `b` joins the feedback set `<G_B, Y_B>`, the rest the
//!    reference set `<G_A, Y_A>`.
//! 2. **Data augmentation**: every feedback sample is mixed (Eq. 14, with
//!    `λ ~ Beta(α, β)`) with its nearest reference neighbor in embedding
//!    space, producing synthetic labeled feature graphs.
//! 3. **Incremental training**: the encoder continues DML training on the
//!    original + synthetic data.

use crate::advisor::{AutoCeConfig, RcsEntry};
use crate::beta::sample_beta;
use crate::knn::knn_order;
use ce_features::{mixup_graphs, mixup_labels, FeatureGraph};
use ce_gnn::{train_encoder_incremental, GinEncoder};
use ce_nn::matrix::euclidean;
use ce_obs::MetricsRegistry;
use ce_testbed::score::best_index;
use ce_testbed::{d_error, MetricWeights};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Incremental-learning parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalConfig {
    /// Number of cross-validation folds ξ.
    pub folds: usize,
    /// D-error threshold `b` above which a sample is "poorly predicted".
    pub d_error_threshold: f64,
    /// Mixup Beta parameters `(α, β)`.
    pub mixup_alpha: f64,
    /// Second Beta parameter.
    pub mixup_beta: f64,
    /// Metric weighting used for validation (the paper validates at the
    /// accuracy-heavy end of the grid).
    pub validation_weight: f64,
    /// Epochs of the incremental training pass (fewer than Stage 2).
    pub epochs: usize,
    /// Whether Mixup augmentation is performed; `false` reproduces the
    /// "No Augmentation" ablation of Fig. 11(b) (incremental retraining on
    /// the original data only).
    pub augment: bool,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            folds: 5,
            d_error_threshold: 0.1,
            mixup_alpha: 0.5,
            mixup_beta: 0.5,
            validation_weight: 0.9,
            epochs: 10,
            augment: true,
        }
    }
}

/// Outcome of the feedback-collection stage (exposed for tests/benches).
#[derive(Debug, Clone, Default)]
pub struct FeedbackSplit {
    /// Indices of poorly predicted entries (feedback set B).
    pub feedback: Vec<usize>,
    /// Indices of well-predicted entries (reference set A).
    pub reference: Vec<usize>,
}

/// Step 1 of Algorithm 2: cross-validated feedback collection over the
/// entries' embeddings under the current encoder (`embeddings[i]` is entry
/// `i`'s). Each validation sample's neighbours rank by [`knn_order`], so a
/// NaN embedding ranks last instead of panicking.
pub fn collect_feedback(
    embeddings: &[Vec<f32>],
    entries: &[RcsEntry],
    il: &IncrementalConfig,
    k: usize,
) -> FeedbackSplit {
    let n = entries.len();
    if n < 2 {
        return FeedbackSplit::default();
    }
    let w = MetricWeights::new(il.validation_weight);
    let folds = il.folds.clamp(2, n);
    let mut split = FeedbackSplit::default();
    for i in 0..n {
        let my_fold = i % folds;
        // RCS = entries outside the validation fold.
        let mut dists: Vec<(usize, f32)> = (0..n)
            .filter(|&j| j % folds != my_fold)
            .map(|j| (j, euclidean(&embeddings[i], &embeddings[j])))
            .collect();
        if dists.is_empty() {
            split.reference.push(i);
            continue;
        }
        dists.sort_by(knn_order);
        let kk = k.clamp(1, dists.len());
        let arity = entries[i].sa.len();
        let mut avg = vec![0.0f64; arity];
        for &(j, _) in &dists[..kk] {
            for (s, v) in avg.iter_mut().zip(entries[j].scores(w)) {
                *s += v / kk as f64;
            }
        }
        let recommended = best_index(&avg);
        let own_scores = entries[i].scores(w);
        if d_error(&own_scores, recommended) > il.d_error_threshold {
            split.feedback.push(i);
        } else {
            split.reference.push(i);
        }
    }
    split
}

/// Steps 2-3 of Algorithm 2: augmentation and incremental training.
/// Returns the number of synthesized samples.
pub fn run_incremental_learning(
    encoder: &mut GinEncoder,
    entries: &[RcsEntry],
    il: &IncrementalConfig,
    config: &AutoCeConfig,
    seed: u64,
) -> usize {
    // One stacked encode serves both the feedback split and Mixup's
    // nearest-reference search: the encoder does not change in between.
    let graphs: Vec<&FeatureGraph> = entries.iter().map(|e| &e.graph).collect();
    let embeddings = encoder.encode_batch(&graphs);
    let split = collect_feedback(&embeddings, entries, il, config.k);
    if split.feedback.is_empty() || split.reference.is_empty() {
        return 0;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3141);

    // Step 2: Mixup each feedback sample with its nearest reference.
    let mut aug_graphs: Vec<FeatureGraph> = Vec::with_capacity(split.feedback.len());
    let mut aug_labels: Vec<Vec<f64>> = Vec::with_capacity(split.feedback.len());
    let feedback = if il.augment {
        split.feedback.clone()
    } else {
        Vec::new()
    };
    for &i in &feedback {
        let (j, _) = (split.reference.iter())
            .map(|&a| (a, euclidean(&embeddings[i], &embeddings[a])))
            .min_by(knn_order)
            .expect("reference set nonempty");
        let lambda = sample_beta(il.mixup_alpha, il.mixup_beta, &mut rng);
        aug_graphs.push(mixup_graphs(
            &entries[i].graph,
            &entries[j].graph,
            lambda as f32,
        ));
        aug_labels.push(mixup_labels(
            &entries[i].dml_label(),
            &entries[j].dml_label(),
            lambda,
        ));
    }
    let synthesized = aug_graphs.len();

    // Step 3: incremental training on original + synthetic data (original
    // graphs borrowed from the RCS, only the synthetics are owned).
    let graphs: Vec<&FeatureGraph> = graphs.into_iter().chain(aug_graphs.iter()).collect();
    let mut labels: Vec<Vec<f64>> = entries.iter().map(RcsEntry::dml_label).collect();
    labels.extend(aug_labels);
    let mut cfg = config.dml.clone();
    cfg.epochs = il.epochs;
    let metrics = MetricsRegistry::disabled();
    train_encoder_incremental(encoder, &graphs, &labels, &cfg, seed ^ 0x1715, &metrics);
    synthesized
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_gnn::DmlConfig;
    use ce_models::ModelKind;

    /// Hand-built RCS entries: two tight clusters with matching labels plus
    /// one outlier mislabeled relative to its cluster → the outlier should
    /// land in the feedback set.
    fn synthetic_entries() -> Vec<RcsEntry> {
        let mk = |v: f32, sa: Vec<f64>| RcsEntry {
            name: format!("e{v}"),
            graph: FeatureGraph {
                vertices: vec![vec![v, 1.0 - v, v * 0.5, 0.3]],
                edges: vec![vec![0.0]],
            },
            embedding: Vec::new(),
            kinds: vec![ModelKind::Postgres, ModelKind::LwNn],
            se: vec![0.5, 0.5],
            sa,
        };
        let mut out = Vec::new();
        for i in 0..5 {
            out.push(mk(0.1 + i as f32 * 0.01, vec![1.0, 0.0]));
        }
        for i in 0..5 {
            out.push(mk(0.8 + i as f32 * 0.01, vec![0.0, 1.0]));
        }
        // Outlier: feature-wise in cluster 1 but labeled like cluster 2.
        out.push(mk(0.12, vec![0.0, 1.0]));
        out
    }

    fn embed(encoder: &GinEncoder, entries: &[RcsEntry]) -> Vec<Vec<f32>> {
        encoder.encode_batch(&entries.iter().map(|e| &e.graph).collect::<Vec<_>>())
    }

    #[test]
    fn feedback_collection_flags_the_outlier() {
        let entries = synthetic_entries();
        let encoder = GinEncoder::new(4, &[8], 4, 50);
        let il = IncrementalConfig {
            folds: 3,
            d_error_threshold: 0.3,
            ..IncrementalConfig::default()
        };
        let split = collect_feedback(&embed(&encoder, &entries), &entries, &il, 2);
        assert_eq!(split.feedback.len() + split.reference.len(), entries.len());
        assert!(
            split.feedback.contains(&10),
            "outlier should be poorly predicted; feedback = {:?}",
            split.feedback
        );
    }

    #[test]
    fn augmentation_produces_samples_and_trains() {
        let entries = synthetic_entries();
        let mut encoder = GinEncoder::new(4, &[8], 4, 51);
        let il = IncrementalConfig {
            folds: 3,
            d_error_threshold: 0.3,
            epochs: 2,
            ..IncrementalConfig::default()
        };
        let config = AutoCeConfig {
            dml: DmlConfig {
                hidden: vec![8],
                embed_dim: 4,
                ..DmlConfig::default()
            },
            ..AutoCeConfig::default()
        };
        let n = run_incremental_learning(&mut encoder, &entries, &il, &config, 52);
        assert!(n >= 1, "at least the outlier is augmented");
    }

    #[test]
    fn empty_or_tiny_inputs_are_safe() {
        let encoder = GinEncoder::new(4, &[8], 4, 53);
        let il = IncrementalConfig::default();
        let split = collect_feedback(&[], &[], &il, 2);
        assert!(split.feedback.is_empty() && split.reference.is_empty());
        let one = &synthetic_entries()[..1];
        let split = collect_feedback(&embed(&encoder, one), one, &il, 2);
        assert!(split.feedback.is_empty() && split.reference.is_empty());
    }

    /// Training does not refuse a NaN feature graph (a `FeatureGraph` is
    /// all public fields), so its NaN embedding reaches the fold KNN: it
    /// ranks last under `knn_order` and the split still covers every entry.
    #[test]
    fn a_nan_embedding_does_not_panic_the_feedback_split() {
        let mut entries = synthetic_entries();
        entries[3].graph.vertices[0][0] = f32::NAN;
        let encoder = GinEncoder::new(4, &[8], 4, 50);
        let embeddings = embed(&encoder, &entries);
        assert!(embeddings[3].iter().any(|v| v.is_nan()));
        let il = IncrementalConfig {
            folds: 3,
            ..IncrementalConfig::default()
        };
        let split = collect_feedback(&embeddings, &entries, &il, 2);
        assert_eq!(split.feedback.len() + split.reference.len(), entries.len());
    }
}
