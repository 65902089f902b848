//! The AutoCE advisor: Stage-2 training and Stage-4 recommendation — the
//! one in-process advisor, sharded or not.
//!
//! # Partitions
//!
//! [`AutoCe`] holds its RCS as one or more [`AdvisorShard`]s. Training and
//! [`AutoCe::from_parts`] make one (global ids `0..n`);
//! [`AutoCe::from_advisor`] deals an advisor's RCS across N in contiguous,
//! balanced ranges. Every method runs the same code at any shard count,
//! and with one shard it is the flat advisor's.
//!
//! # Flat equivalence
//!
//! Answers are **bit-identical** at every shard count because every shard
//! count makes the same call, [`knn::predict_batch`] — `select_batch`,
//! `partial_topk` per partition, `merge_vote`. Shard membership never
//! changes a distance; [`knn_order`](crate::knn_order) is a strict total
//! order, so every global top-k neighbour is inside its shard's partial
//! list and the sorted, truncated merge is exactly the one-partition
//! sequence; [`knn_vote`](crate::knn_vote) accumulates scores in that
//! order. Thread counts and collection order cannot change any of it.
//!
//! # Serving path
//!
//! Every bulk embedding computation — the post-training RCS embeddings,
//! [`AutoCe::refresh_embeddings`] after incremental/online encoder updates,
//! and the batch embedding entry point — runs on the batch-stacked
//! embedding service ([`GinEncoder::encode_batch`]): graph blocks are
//! concatenated into one tall vertex matrix with a block-diagonal CSR
//! adjacency and encoded in a handful of large SIMD kernel calls instead of
//! one dispatch per graph per layer. The stacked path is bit-identical to
//! per-graph encoding, so switching it in changes no recommendation.
//!
//! The lints below keep `unwrap`, `expect` and `panic!` out of this module;
//! the one audited exception is the tuple-form
//! [`AutoCe::predict_from_embedding`] convenience.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::backend::{AdvisorBackend, AdvisorError, BatchPredictRequest};
use crate::incremental::{run_incremental_learning, IncrementalConfig};
use crate::index::IndexConfig;
use crate::knn;
use crate::online::{online_update_config, DriftDetector, Reservoir};
use crate::shard::AdvisorShard;
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_gnn::{train_encoder, train_encoder_incremental, DmlConfig, GinEncoder, StackedCtx};
use ce_models::ModelKind;
use ce_nn::Matrix;
use ce_obs::{MetricsRegistry, LATENCY_NS_BUCKETS};
use ce_storage::Dataset;
use ce_testbed::{DatasetLabel, MetricWeights};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Advisor configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoCeConfig {
    /// Featurization parameters (must match between training and serving).
    pub feature: FeatureConfig,
    /// Deep-metric-learning parameters (Algorithm 1).
    pub dml: DmlConfig,
    /// Number of KNN neighbors (the paper finds `k = 2` best — Table IV).
    pub k: usize,
    /// Incremental-learning stage (Algorithm 2); `None` disables it (the
    /// "Without IL" ablation of Fig. 11).
    pub incremental: Option<IncrementalConfig>,
}

impl Default for AutoCeConfig {
    fn default() -> Self {
        AutoCeConfig {
            feature: FeatureConfig::default(),
            dml: DmlConfig::default(),
            k: 2,
            incremental: Some(IncrementalConfig::default()),
        }
    }
}

/// One entry of the recommendation candidate set (Def. 5).
#[derive(Debug, Clone)]
pub struct RcsEntry {
    /// Dataset name (bookkeeping).
    pub name: String,
    /// Feature graph.
    pub graph: FeatureGraph,
    /// Embedding under the current encoder.
    pub embedding: Vec<f32>,
    /// Labeled model kinds, aligned with `sa`/`se`.
    pub kinds: Vec<ModelKind>,
    /// Normalized accuracy scores `S_a` (Eq. 3).
    pub sa: Vec<f64>,
    /// Normalized efficiency scores `S_e` (Eq. 4).
    pub se: Vec<f64>,
}

impl RcsEntry {
    /// Builds an entry from a testbed label and a precomputed embedding
    /// (what [`AutoCe::push_entry`] admits).
    pub fn from_label(graph: FeatureGraph, label: &DatasetLabel, embedding: Vec<f32>) -> Self {
        let (sa, se) = label.normalized_components();
        RcsEntry {
            name: label.dataset.clone(),
            graph,
            embedding,
            kinds: label.performances.iter().map(|p| p.kind).collect(),
            sa,
            se,
        }
    }

    /// Score vector at a metric weighting (Eq. 2).
    pub fn scores(&self, w: MetricWeights) -> Vec<f64> {
        self.sa
            .iter()
            .zip(&self.se)
            .map(|(&a, &e)| w.accuracy * a + w.efficiency() * e)
            .collect()
    }

    /// The DML similarity label: `S_a ⊕ S_e`, which determines the score
    /// vector for *every* weighting at once.
    pub fn dml_label(&self) -> Vec<f64> {
        let mut v = self.sa.clone();
        v.extend_from_slice(&self.se);
        v
    }
}

/// The trained advisor: the encoder, the RCS as [`AdvisorShard`]s and the
/// Stage-4 serving path over them. Recommendations are bit-identical at any
/// shard count (see the module docs); online adaptation routes new entries
/// to the least-loaded shard and refreshes every shard's embeddings from
/// its cached stacked chunks.
#[derive(Clone)]
pub struct AutoCe {
    /// Configuration it was trained with.
    pub config: AutoCeConfig,
    encoder: GinEncoder,
    /// The RCS partitions, at least one.
    shards: Vec<AdvisorShard>,
    /// Global index → `(shard, slot)`; one entry per RCS member, appended
    /// in global-index order (global ids are never reused).
    directory: Vec<(usize, usize)>,
    /// Encoder generation: bumped by every adaptation before its refresh,
    /// so caches and index builds of the previous encoder read as stale.
    generation: u64,
    /// Two-stage KNN index configuration ([`crate::index`]); `None` serves
    /// every partial top-k by flat scan. The builds live in the shards,
    /// rebuilt on refresh (inside the same value a snapshot swap
    /// publishes) and dropped on pushes.
    index_cfg: Option<IndexConfig>,
    /// Where refreshes, adaptations, index builds and index queries record
    /// (default: disabled, every site a no-op).
    metrics: MetricsRegistry,
}

impl AutoCe {
    /// Trains the advisor from labeled datasets (Stages 2-3).
    pub fn train(
        datasets: &[Dataset],
        labels: &[DatasetLabel],
        config: AutoCeConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(datasets.len(), labels.len(), "dataset/label count mismatch");
        let mut entries: Vec<RcsEntry> = (datasets.iter().zip(labels))
            .map(|(ds, label)| {
                let graph = extract_features(ds, &config.feature);
                RcsEntry::from_label(graph, label, Vec::new())
            })
            .collect();

        // Stage 2: deep metric learning. Graphs are borrowed into the
        // trainer, never cloned.
        let dml_labels: Vec<Vec<f64>> = entries.iter().map(RcsEntry::dml_label).collect();
        let graph_refs: Vec<&FeatureGraph> = entries.iter().map(|e| &e.graph).collect();
        let off = MetricsRegistry::disabled();
        let mut encoder = train_encoder(&graph_refs, &dml_labels, &config.dml, seed, &off);

        // Stage 3: incremental learning with Mixup (Algorithm 2).
        if let Some(il) = &config.incremental {
            run_incremental_learning(&mut encoder, &entries, il, &config, seed);
        }

        // Final embeddings for the RCS via the batch-stacked service.
        let graphs: Vec<&FeatureGraph> = entries.iter().map(|e| &e.graph).collect();
        let embeddings = encoder.encode_batch(&graphs);
        for (e, embedding) in entries.iter_mut().zip(embeddings) {
            e.embedding = embedding;
        }
        AutoCe::from_parts(config, encoder, entries)
    }

    /// Assembles a one-shard advisor from its parts (global ids `0..n` in
    /// `rcs` order). Entries are trusted as-is: their embeddings must have
    /// been produced by `encoder` (or be about to be refreshed). This is
    /// the constructor synthetic advisors and the benchmark's RCS are built
    /// with.
    pub fn from_parts(config: AutoCeConfig, encoder: GinEncoder, rcs: Vec<RcsEntry>) -> Self {
        AutoCe {
            config,
            encoder,
            directory: (0..rcs.len()).map(|slot| (0, slot)).collect(),
            shards: vec![AdvisorShard::new((0..rcs.len()).collect(), rcs)],
            generation: 0,
            index_cfg: None,
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Deals `advisor`'s RCS across `num_shards` shards (at least one) in
    /// contiguous, balanced ranges — the one way to shard. Global index
    /// order is preserved, so one shard is layout-identical to a one-shard
    /// advisor. `advisor` is left untouched: entries and encoder are
    /// cloned, the generation carried over; no index is installed and
    /// metrics are disabled.
    pub fn from_advisor(advisor: &AutoCe, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let n = advisor.len();
        let (base, rem) = (n / num_shards, n % num_shards);
        let mut shards = Vec::with_capacity(num_shards);
        let mut directory = Vec::with_capacity(n);
        let mut next = 0usize;
        for s in 0..num_shards {
            let ids: Vec<usize> = (next..next + base + usize::from(s < rem)).collect();
            let entries = ids.iter().map(|&id| advisor.entry(id).clone()).collect();
            directory.extend((0..ids.len()).map(|slot| (s, slot)));
            next += ids.len();
            shards.push(AdvisorShard::new(ids, entries));
        }
        AutoCe {
            config: advisor.config.clone(),
            encoder: advisor.encoder.clone(),
            shards,
            directory,
            generation: advisor.generation,
            index_cfg: None,
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// The advisor configuration (read-only).
    pub fn config(&self) -> &AutoCeConfig {
        &self.config
    }

    /// Changes the KNN `k` used at prediction time (Table IV sweeps this
    /// without retraining the encoder).
    pub fn set_k(&mut self, k: usize) {
        self.config.k = k.max(1);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards (read-only).
    pub fn shards(&self) -> &[AdvisorShard] {
        &self.shards
    }

    /// Total RCS entries across all shards.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// True when the RCS holds no entry.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// The RCS entry at a global index (panics outside `0..len()`).
    pub fn entry(&self, global: usize) -> &RcsEntry {
        let (s, slot) = self.directory[global];
        &self.shards[s].entries()[slot]
    }

    /// The shard owning a global index (`None` outside the RCS) — one
    /// directory read.
    pub fn shard_of(&self, global: usize) -> Option<usize> {
        self.directory.get(global).map(|&(s, _)| s)
    }

    /// Points the refresh/adaptation instrumentation at `registry`:
    /// embedding refreshes record `ce_serve_refresh_ns`, incremental DML
    /// updates the `ce_gnn_*` training metrics, index builds and queries
    /// the `ce_index_*` families. A disabled registry (the default) makes
    /// every site a no-op; no answer depends on it.
    pub fn set_metrics(&mut self, registry: MetricsRegistry) {
        self.metrics = registry;
    }

    /// Encodes a dataset into its embedding (Stage 4, steps 1-3).
    pub fn embed(&self, ds: &Dataset) -> Vec<f32> {
        self.embed_graph(&extract_features(ds, &self.config.feature))
    }

    /// KNN prediction from an embedding (Eq. 13): averaged neighbor score
    /// vector at the requested weighting; returns `(model, score_vector)`.
    /// A convenience over [`AdvisorBackend::predict_from_embedding`] (the
    /// [`knn`] steps, typed errors) that **panics** when the RCS holds
    /// nothing to select.
    // Audited: the documented panic of a tuple-form convenience that
    // nothing behind `AdvisorService` calls.
    #[allow(clippy::expect_used)]
    pub fn predict_from_embedding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
    ) -> (ModelKind, Vec<f64>) {
        AdvisorBackend::predict_from_embedding(self, embedding, w)
            .expect("the RCS holds a selectable entry")
    }

    /// Full Stage-4 recommendation for a dataset.
    pub fn recommend(&self, ds: &Dataset, w: MetricWeights) -> ModelKind {
        let x = self.embed(ds);
        self.predict_from_embedding(&x, w).0
    }

    /// Recommendation from a pre-extracted feature graph.
    pub fn recommend_graph(&self, g: &FeatureGraph, w: MetricWeights) -> ModelKind {
        let x = self.embed_graph(g);
        self.predict_from_embedding(&x, w).0
    }

    /// Distance from an embedding to the nearest RCS entry (drift check):
    /// [`knn::nearest_distance`] over the shards, indexes included.
    pub fn distance_to_embedding(&self, x: &[f32]) -> f32 {
        let views: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.view(self.generation))
            .collect();
        let (mut scratch, mut cands) = (knn::Scratch::default(), Vec::new());
        knn::nearest_distance(&views, x, usize::MAX, &mut scratch, &mut cands)
    }

    /// Adds a freshly labeled dataset (online adapting, §V-E), routed to
    /// the least-loaded shard (ties to the lowest shard index). Returns
    /// the new global index. The entry is embedded by the current encoder;
    /// the receiving shard's chunks are marked stale and its index dropped.
    pub fn push_entry(&mut self, graph: FeatureGraph, label: &DatasetLabel) -> usize {
        let embedding = self.encoder.encode(&graph);
        let global = self.directory.len();
        // Every constructor makes at least one shard, so the minimum exists.
        let target = (0..self.shards.len())
            .min_by_key(|&s| (self.shards[s].len(), s))
            .unwrap_or(0);
        let shard = &mut self.shards[target];
        shard.push(global, RcsEntry::from_label(graph, label, embedding));
        self.directory.push((target, shard.len() - 1));
        global
    }

    /// Recomputes every RCS embedding (after an encoder update) on the
    /// batch-stacked embedding service: one `par_iter` over the packed
    /// chunks of every shard, in shard order, each chunk one stacked
    /// forward. The chunks
    /// are packed by the first refresh (construction packs none — a
    /// read-only advisor never reads them) and repacked only for shards
    /// whose membership changed, so in steady state this path does no
    /// per-graph work. Each shard's index is rebuilt in its write-back.
    /// Bit-identical to encoding each graph separately.
    pub fn refresh_embeddings(&mut self) {
        // Refresh is a cold path (it follows a retrain), so registering
        // the histogram here — under the registry's own mutex, never a
        // serving lock — is fine.
        let _span = self
            .metrics
            .histogram("ce_serve_refresh_ns", &[], LATENCY_NS_BUCKETS)
            .start_span();
        let packed: Vec<&[StackedCtx]> = self.shards.iter_mut().map(|s| s.pack()).collect();
        let counts: Vec<usize> = packed.iter().map(|chunks| chunks.len()).collect();
        let chunks: Vec<&StackedCtx> = packed.into_iter().flatten().collect();
        let encoder = &self.encoder;
        let pooled: Vec<Matrix> = (chunks.par_iter())
            .map(|chunk| AdvisorShard::encode_chunk(encoder, chunk))
            .collect();
        // Write-back rebuilds each shard's index inside the same advisor
        // value a snapshot swap publishes, so no query can pair entries
        // with another generation's index (docs/knn-index.md).
        let (index, metrics) = (self.index_cfg.as_ref(), &self.metrics);
        let mut pooled = pooled.into_iter();
        for (shard, n) in self.shards.iter_mut().zip(counts) {
            let mats: Vec<Matrix> = pooled.by_ref().take(n).collect();
            shard.write_back(&mats, index, metrics, self.generation);
        }
    }

    /// Installs (or replaces) the two-stage KNN index configuration and
    /// builds every shard's index over the current embeddings; builds and
    /// queries count into the registry [`Self::set_metrics`] (or
    /// [`AdvisorBackend::install_index`]) supplied.
    ///
    /// Rejects a structurally invalid config and a cutover below the
    /// advisor's `k` ([`IndexConfig::validate_for_k`]) before touching any
    /// state. Correctness never depends on the cutover check (an index
    /// short of `k` candidates widens to every partition).
    pub fn set_index_config(&mut self, cfg: IndexConfig) -> Result<(), AdvisorError> {
        cfg.validate_for_k(self.config.k)?;
        self.index_cfg = Some(cfg);
        for shard in &mut self.shards {
            shard.rebuild_index(self.index_cfg.as_ref(), &self.metrics, self.generation);
        }
        Ok(())
    }

    /// Online model update bounded by a reservoir (§V-E): the one
    /// adaptation body ([`crate::online::adapt_online`] runs it over the
    /// full RCS) with the training set `reservoir ∪ {newcomer}` — at most
    /// `capacity + 1` graphs, however large the RCS has grown. Returns the
    /// number of graphs trained on.
    pub fn adapt_with_reservoir(
        &mut self,
        graph: FeatureGraph,
        label: &DatasetLabel,
        reservoir: &mut Reservoir,
        seed: u64,
    ) -> usize {
        self.adapt(graph, label, Some(reservoir), seed)
    }

    /// The adaptation body: pushes the labeled newcomer, runs the
    /// incremental DML update on an ascending global-id list — every id
    /// without a reservoir, the reservoir's sample plus the newcomer with
    /// one — bumps the generation, then refreshes every embedding. Returns
    /// the number of graphs trained on.
    pub(crate) fn adapt(
        &mut self,
        graph: FeatureGraph,
        label: &DatasetLabel,
        reservoir: Option<&mut Reservoir>,
        seed: u64,
    ) -> usize {
        let new_id = self.push_entry(graph, label);
        let ids = match reservoir {
            None => (0..self.len()).collect(),
            Some(reservoir) => reservoir.sample_with(new_id),
        };
        let cfg = online_update_config(&self.config.dml);
        let labels: Vec<Vec<f64>> = ids.iter().map(|&id| self.entry(id).dml_label()).collect();
        // Split borrow: the encoder trains against graphs borrowed in place
        // from the shards.
        let AutoCe {
            encoder,
            shards,
            directory,
            metrics,
            ..
        } = self;
        let graphs: Vec<&FeatureGraph> = (ids.iter())
            .map(|&id| {
                let (s, slot) = directory[id];
                &shards[s].entries()[slot].graph
            })
            .collect();
        // The train phase timings land in the same registry as the serving
        // metrics; a disabled registry records nothing.
        train_encoder_incremental(encoder, &graphs, &labels, &cfg, seed ^ 0x0ada, metrics);
        // Bump BEFORE refreshing: the refresh rebuilds every index stamped
        // with the current generation, and a pre-bump stamp would mismatch
        // every post-adaptation query (permanent index bypass).
        self.generation += 1;
        self.refresh_embeddings();
        ids.len()
    }
}

/// The advisor's query surface — the only copy of the methods whose
/// signatures the trait already has, so an [`AutoCe`] at any shard count is
/// interchangeable with any other backend behind an `AdvisorService`.
impl AdvisorBackend for AutoCe {
    fn rcs_len(&self) -> usize {
        self.len()
    }

    /// Bumped by every adaptation, before its refresh.
    fn generation(&self) -> u64 {
        self.generation
    }

    fn feature_config(&self) -> FeatureConfig {
        self.config.feature
    }

    fn vertex_dim(&self) -> usize {
        self.encoder.input_dim()
    }

    /// The stacked service: one tall forward per chunk.
    fn embed_graph_batch(&self, graphs: &[&FeatureGraph]) -> Vec<Vec<f32>> {
        self.encoder.encode_batch(graphs)
    }

    /// Shards are scanned **serially** (inside [`knn::predict_batch`]):
    /// this is the per-request hot path, a shard's scan is microseconds of
    /// work, and the rayon shim backs `par_iter` with scoped OS threads (no
    /// persistent pool) — per-call thread spawns would dwarf the scan on
    /// multi-core hosts.
    fn predict_batch(
        &self,
        queries: &[BatchPredictRequest<'_>],
    ) -> Result<Vec<(ModelKind, Vec<f64>)>, AdvisorError> {
        let entry = |id| self.entry(id);
        knn::predict_batch(queries, self.config.k, &self.shards, self.generation, entry)
    }

    /// Fitted over the shards as they serve, indexes included; the join's
    /// partition pairs count in the advisor's registry.
    fn drift_detector(&self) -> DriftDetector {
        DriftDetector::fit(&self.shards, self.generation, &self.metrics)
    }

    fn install_index(
        &mut self,
        cfg: &IndexConfig,
        metrics: &MetricsRegistry,
    ) -> Result<(), AdvisorError> {
        self.set_metrics(metrics.clone());
        self.set_index_config(cfg.clone())
    }
}

#[cfg(test)]
impl AutoCe {
    /// Decomposes the advisor into configuration, encoder and RCS entries
    /// in global-index order.
    pub(crate) fn into_parts(self) -> (AutoCeConfig, GinEncoder, Vec<RcsEntry>) {
        let entries = (0..self.len()).map(|id| self.entry(id).clone()).collect();
        (self.config, self.encoder, entries)
    }

    /// Shared encoder access.
    pub(crate) fn encoder(&self) -> &GinEncoder {
        &self.encoder
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use ce_datagen::{generate_batch, DatasetSpec};
    use ce_models::ModelKind;
    use ce_testbed::{label_datasets, TestbedConfig};
    use ce_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_training_run(k: usize, il: bool) -> (Vec<ce_storage::Dataset>, AutoCe) {
        let mut rng = StdRng::seed_from_u64(231);
        let datasets = generate_batch("adv", 12, &DatasetSpec::small(), &mut rng);
        let cfg = TestbedConfig {
            models: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
            train_queries: 60,
            test_queries: 30,
            workload: WorkloadSpec::default(),
        };
        let labels = label_datasets(&datasets, &cfg, 7, 0);
        let config = AutoCeConfig {
            dml: DmlConfig {
                epochs: 8,
                batch_size: 12,
                hidden: vec![16],
                embed_dim: 8,
                ..DmlConfig::default()
            },
            k,
            incremental: if il {
                Some(IncrementalConfig {
                    folds: 3,
                    ..IncrementalConfig::default()
                })
            } else {
                None
            },
            ..AutoCeConfig::default()
        };
        let advisor = AutoCe::train(&datasets, &labels, config, 99);
        (datasets, advisor)
    }

    #[test]
    fn recommends_a_labeled_model_kind() {
        let (datasets, advisor) = tiny_training_run(2, false);
        for ds in datasets.iter().take(4) {
            let m = advisor.recommend(ds, MetricWeights::new(0.9));
            assert!(
                [ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn].contains(&m),
                "recommended unlabeled model {m}"
            );
        }
        assert_eq!(advisor.len(), 12);
        assert!((0..12).all(|i| !advisor.entry(i).embedding.is_empty()));
    }

    #[test]
    fn knn_k_is_respected_and_clamped() {
        let (datasets, advisor) = tiny_training_run(100, false);
        // k clamps to the RCS size; recommendation still works.
        let m = advisor.recommend(&datasets[0], MetricWeights::new(1.0));
        let _ = m;
    }

    #[test]
    fn incremental_training_path_runs() {
        let (datasets, advisor) = tiny_training_run(2, true);
        let m = advisor.recommend(&datasets[0], MetricWeights::new(0.5));
        let _ = m;
        assert_eq!(advisor.len(), 12, "RCS keeps original entries");
    }

    /// The batch-stacked serving path must agree with the per-graph path
    /// bit for bit: refreshed RCS embeddings, stacked batch embeds and the
    /// recommendations voted from them all match their one-at-a-time
    /// equivalents.
    #[test]
    fn stacked_serving_path_matches_per_graph_path_bitwise() {
        let (datasets, mut advisor) = tiny_training_run(2, false);
        // Per-graph references, computed before any refresh.
        let per_graph_rcs: Vec<Vec<f32>> = (0..advisor.len())
            .map(|i| advisor.encoder().encode(&advisor.entry(i).graph))
            .collect();
        advisor.refresh_embeddings();
        for (i, expect) in per_graph_rcs.iter().enumerate() {
            let got = &advisor.entry(i).embedding;
            assert_eq!(got, expect, "stacked refresh must be bitwise");
        }
        let graphs: Vec<FeatureGraph> = datasets
            .iter()
            .map(|ds| extract_features(ds, &advisor.config().feature))
            .collect();
        let batch = advisor.encoder().encode_batch(&graphs);
        let w = MetricWeights::new(0.7);
        for ((ds, g), emb) in datasets.iter().zip(&graphs).zip(&batch) {
            let per_graph = advisor.encoder().encode(g);
            assert_eq!(emb, &per_graph, "stacked embed must be bitwise");
            assert_eq!(emb, &advisor.embed(ds), "and so must a batch of one");
            let rec = advisor.predict_from_embedding(emb, w).0;
            assert_eq!(rec, advisor.recommend(ds, w));
        }
    }

    /// The documented KNN tie rules: equal distances resolve to the lower
    /// RCS index, equal averaged scores to the lower model index.
    #[test]
    fn knn_tie_breaking_is_by_index() {
        let mk = |emb: Vec<f32>, sa: Vec<f64>| RcsEntry {
            name: String::new(),
            graph: FeatureGraph {
                vertices: vec![vec![0.0, 0.0]],
                edges: vec![vec![0.0]],
            },
            embedding: emb,
            kinds: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
            se: vec![0.0, 0.0, 0.0],
            sa,
        };
        let entries = vec![
            mk(vec![0.0, 0.0], vec![1.0, 0.0, 0.0]),
            // Entries 1 and 2 are equidistant from the query; the lower
            // index must win the second neighbor slot.
            mk(vec![1.0, 0.0], vec![0.0, 1.0, 0.0]),
            mk(vec![1.0, 0.0], vec![0.0, 0.0, 1.0]),
            mk(vec![5.0, 0.0], vec![0.0, 0.0, 0.0]),
        ];
        let config = AutoCeConfig {
            k: 2,
            incremental: None,
            ..AutoCeConfig::default()
        };
        let advisor = AutoCe::from_parts(config, GinEncoder::new(2, &[4], 2, 0), entries);
        let (model, avg) = advisor.predict_from_embedding(&[0.0, 0.0], MetricWeights::new(1.0));
        // Neighbors are entries 0 and 1 (not 2): avg = (sa0 + sa1) / 2.
        assert_eq!(avg, vec![0.5, 0.5, 0.0]);
        // Models 0 and 1 tie at 0.5; the lower model index (Postgres) wins.
        assert_eq!(model, ModelKind::Postgres);
    }

    /// The packed mirror is written wherever an embedding is: after each of
    /// the three mutations, every query equals per-row `euclidean` and a
    /// full sort over the live `entries()`.
    #[test]
    fn the_packed_mirror_is_never_stale() {
        use crate::fixtures::{synthetic_grid, tie_heavy_queries};
        use ce_nn::matrix::euclidean;

        fn check(shard: &AdvisorShard, what: &str) {
            let (mut scratch, mut got) = (knn::Scratch::default(), Vec::new());
            for x in tie_heavy_queries() {
                let mut all: Vec<(usize, f32)> = (shard.ids().iter().zip(shard.entries()))
                    .map(|(&id, e)| (id, euclidean(&x, &e.embedding)))
                    .collect();
                all.sort_by(knn::knn_order);
                // Every member with its distance, so one stale row shows.
                for (k, exclude) in [(1, usize::MAX), (2, 104), (shard.len() + 3, usize::MAX)] {
                    let bits = |l: &[(usize, f32)]| -> Vec<(usize, u32)> {
                        l.iter().map(|&(id, d)| (id, d.to_bits())).collect()
                    };
                    let mut want = all.clone();
                    want.retain(|&(id, _)| id != exclude);
                    want.truncate(k);
                    got.clear();
                    shard.partial_topk(&x, k, exclude, 0, &mut scratch, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{what}: k={k} exclude={exclude}");
                }
            }
        }

        let (_, _, mut entries) = synthetic_grid(18, 2).into_parts();
        let pushed = entries.split_off(16);
        let mut shard = AdvisorShard::new((0..16).map(|i| 100 + 2 * i).collect(), entries);
        check(&shard, "new");
        // Row 16 opens a second lane block; row 17 joins it.
        for (i, mut entry) in pushed.into_iter().enumerate() {
            entry.embedding = vec![0.5 - i as f32, 0.0, 0.5];
            shard.push(200 + i, entry);
            check(&shard, "push");
        }
        // A refresh moves every row, handed back in two chunks.
        let moved: Vec<Vec<f32>> = (shard.entries().iter().rev())
            .map(|e| e.embedding.iter().map(|v| v + 0.5).collect())
            .collect();
        let pooled = [
            Matrix::from_row_slices(&moved[..7]),
            Matrix::from_row_slices(&moved[7..]),
        ];
        shard.write_back(&pooled, None, &MetricsRegistry::disabled(), 0);
        assert_eq!(shard.entries()[0].embedding, moved[0]);
        check(&shard, "write_back");
        // Entries handed over ahead of their first encode: the refresh
        // brings the dimension with it.
        let mut blank = shard.entries().to_vec();
        blank.iter_mut().for_each(|e| e.embedding.clear());
        let mut shard = AdvisorShard::new(shard.ids().to_vec(), blank);
        shard.write_back(&pooled, None, &MetricsRegistry::disabled(), 0);
        check(&shard, "first write_back");
    }

    #[test]
    fn dml_label_concatenates_components() {
        let (_, advisor) = tiny_training_run(2, false);
        let e = advisor.entry(0);
        assert_eq!(e.dml_label().len(), e.sa.len() + e.se.len());
        // Scores at wa = 1 equal sa.
        let s = e.scores(MetricWeights::new(1.0));
        for (a, b) in s.iter().zip(&e.sa) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
