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
//!
//! Steps 1 and 2 take every KNN vote and nearest-neighbour pick from the
//! Stage-4 predictor ([`crate::knn`]) over unindexed partition views. The
//! module holds no `unwrap`, `expect` or `panic`; the lints below keep it so.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::advisor::{AutoCeConfig, RcsEntry};
use crate::beta::sample_beta;
use crate::knn::{merge_vote, partial_topk, select_k, Partition, Scratch};
use ce_features::{mixup_graphs, mixup_labels, FeatureGraph};
use ce_gnn::{train_encoder_incremental, GinEncoder};
use ce_nn::packed::PackedRows;
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

/// The rows `ids` (ascending) of `embeddings`, packed: the parts of a
/// partition view.
type Packed = (Vec<usize>, PackedRows);

fn pack(embeddings: &[Vec<f32>], ids: Vec<usize>) -> Packed {
    let rows: Vec<&Vec<f32>> = ids.iter().map(|&j| &embeddings[j]).collect();
    (ids, PackedRows::from_rows(&rows))
}

/// A [`Packed`] as a partition view without an index.
fn view((ids, packed): &Packed) -> Partition<'_, usize> {
    Partition {
        ids,
        packed,
        index: None,
        generation: 0,
    }
}

/// Step 1 of Algorithm 2: cross-validated feedback collection over the
/// entries' embeddings under the current encoder (`embeddings[i]` is entry
/// `i`'s). Fold `f` holds rows `f, f + folds, …`; each row is voted on by
/// the Stage-4 predictor over the other folds (their [`partial_topk`]s,
/// then [`merge_vote`]), so a NaN embedding ranks last instead of
/// panicking.
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
    // `folds ≤ n`: every fold holds a row, so every row has voters.
    let folds = il.folds.clamp(2, n);
    let packed: Vec<Packed> = (0..folds)
        .map(|f| pack(embeddings, (f..n).step_by(folds).collect()))
        .collect();
    let (mut scratch, mut cands) = (Scratch::default(), Vec::new());
    let (feedback, reference) = (0..n).partition(|&i| {
        let (own, x) = (i % folds, &embeddings[i]);
        let vote = select_k(k, n - packed[own].0.len(), usize::MAX).and_then(|k| {
            cands.clear();
            for (_, fold) in packed.iter().enumerate().filter(|&(f, _)| f != own) {
                partial_topk(&view(fold), x, k, usize::MAX, &mut scratch, &mut cands);
            }
            merge_vote(&mut cands, k, w, |j| &entries[j])
        });
        let own_scores = entries[i].scores(w);
        vote.is_ok_and(|(_, avg)| d_error(&own_scores, best_index(&avg)) > il.d_error_threshold)
    });
    FeedbackSplit {
        feedback,
        reference,
    }
}

/// Step 2's pairing: the nearest member of `reference` (ascending) to each
/// of `feedback`, in `feedback`'s order — [`partial_topk`] at `k = 1`.
fn nearest_references(
    embeddings: &[Vec<f32>],
    feedback: &[usize],
    reference: Vec<usize>,
) -> Vec<(usize, f32)> {
    let refs = pack(embeddings, reference);
    let (mut scratch, mut out) = (Scratch::default(), Vec::with_capacity(feedback.len()));
    for x in feedback.iter().map(|&i| &embeddings[i]) {
        partial_topk(&view(&refs), x, 1, usize::MAX, &mut scratch, &mut out);
    }
    out
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
    let feedback: &[usize] = if il.augment { &split.feedback } else { &[] };
    let nearest = nearest_references(&embeddings, feedback, split.reference);
    let mut aug_graphs: Vec<FeatureGraph> = Vec::with_capacity(nearest.len());
    let mut aug_labels: Vec<Vec<f64>> = Vec::with_capacity(nearest.len());
    for (&i, &(j, _)) in feedback.iter().zip(&nearest) {
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
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::knn::knn_order;
    use ce_gnn::DmlConfig;
    use ce_models::ModelKind;
    use ce_nn::matrix::euclidean;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The oracle: the feedback split before it went through
    /// [`crate::knn`] — per row, one `euclidean` to every row outside its
    /// fold, a full sort by [`knn_order`], the first `k` averaged by hand.
    fn oracle_feedback(
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
            let mut dists: Vec<(usize, f32)> = (0..n)
                .filter(|&j| j % folds != i % folds)
                .map(|j| (j, euclidean(&embeddings[i], &embeddings[j])))
                .collect();
            dists.sort_by(knn_order);
            let kk = k.clamp(1, dists.len());
            let mut avg = vec![0.0f64; entries[i].sa.len()];
            for &(j, _) in &dists[..kk] {
                for (s, v) in avg.iter_mut().zip(entries[j].scores(w)) {
                    *s += v / kk as f64;
                }
            }
            if d_error(&entries[i].scores(w), best_index(&avg)) > il.d_error_threshold {
                split.feedback.push(i);
            } else {
                split.reference.push(i);
            }
        }
        split
    }

    /// The oracle of Mixup's pick: a flat `min_by(knn_order)` over the
    /// reference set.
    fn oracle_nearest(embeddings: &[Vec<f32>], i: usize, reference: &[usize]) -> (usize, f32) {
        (reference.iter())
            .map(|&a| (a, euclidean(&embeddings[i], &embeddings[a])))
            .min_by(knn_order)
            .expect("a reference row")
    }

    /// `n` five-model entries with quantized score vectors (ties common).
    fn random_entries(rng: &mut StdRng, n: usize) -> Vec<RcsEntry> {
        let kinds = ce_models::SELECTABLE_MODELS[..5].to_vec();
        (0..n)
            .map(|i| RcsEntry {
                name: format!("r{i}"),
                graph: FeatureGraph {
                    vertices: Vec::new(),
                    edges: Vec::new(),
                },
                embedding: Vec::new(),
                kinds: kinds.clone(),
                sa: (0..5).map(|_| rng.gen_range(0..4) as f64 / 3.0).collect(),
                se: (0..5).map(|_| rng.gen_range(0..3) as f64 / 2.0).collect(),
            })
            .collect()
    }

    proptest! {
        /// The split is the hand-rolled loop's, and Mixup's pick the flat
        /// scan's, over random and 0.5-grid embeddings (distance ties
        /// common), folds from 1 to more than `n` and `k` from 0 to more
        /// than `n`. Finite embeddings only: which NaN a distance kernel
        /// returns is unspecified, and `knn_order` ranks a NaN by its sign.
        #[test]
        fn the_split_and_the_mixup_pick_are_the_hand_rolled_loops(
            seed in 0u64..1_000_000,
            n in 2usize..300,
            dim in 0usize..4,
            grid in 0usize..2,
            folds in 0usize..1_000,
            k in 0usize..1_000,
            weight in 0usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = [1, 3, 8, 32][dim];
            let embeddings: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    (0..dim)
                        .map(|_| match grid {
                            0 => rng.gen::<f32>() * 2.0 - 1.0,
                            _ => rng.gen_range(0..5) as f32 * 0.5 - 1.0,
                        })
                        .collect()
                })
                .collect();
            let entries = random_entries(&mut rng, n);
            let il = IncrementalConfig {
                folds: 1 + folds % (n + 3),
                validation_weight: weight as f64 / 4.0,
                ..IncrementalConfig::default()
            };
            let k = k % (n + 3);
            let got = collect_feedback(&embeddings, &entries, &il, k);
            let want = oracle_feedback(&embeddings, &entries, &il, k);
            prop_assert_eq!(&got.feedback, &want.feedback, "folds {}, k {}", il.folds, k);
            prop_assert_eq!(&got.reference, &want.reference, "folds {}, k {}", il.folds, k);
            // Mixup's pick over a random split of the rows, ascending.
            let (feedback, reference): (Vec<usize>, Vec<usize>) =
                (0..n).partition(|_| rng.gen_range(0..3) == 0);
            if !reference.is_empty() {
                let got = nearest_references(&embeddings, &feedback, reference.clone());
                let want: Vec<(usize, f32)> =
                    feedback.iter().map(|&i| oracle_nearest(&embeddings, i, &reference)).collect();
                let bits = |l: &[(usize, f32)]| l.iter().map(|&(j, d)| (j, d.to_bits())).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }

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
