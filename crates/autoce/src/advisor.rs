//! The AutoCE advisor: Stage-2 training and Stage-4 recommendation.
//!
//! # Serving path
//!
//! Every bulk embedding computation — the post-training RCS embeddings,
//! [`AutoCe::refresh_embeddings`] after incremental/online encoder updates,
//! and the batch recommendation entry points — runs on the batch-stacked
//! embedding service ([`GinEncoder::encode_batch`]): graph blocks are
//! concatenated into one tall vertex matrix with a block-diagonal CSR
//! adjacency and encoded in a handful of large SIMD kernel calls instead of
//! one dispatch per graph per layer. The stacked path is bit-identical to
//! per-graph encoding, so switching it in changes no recommendation.

use crate::backend::{AdvisorBackend, AdvisorError};
use crate::incremental::{run_incremental_learning, IncrementalConfig};
use crate::index::{IndexConfig, KnnIndex};
use crate::knn::{self, Partition};
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_gnn::{train_encoder, DmlConfig, GinEncoder, StackedCtx};
use ce_models::ModelKind;
use ce_nn::packed::PackedRows;
use ce_nn::Matrix;
use ce_obs::MetricsRegistry;
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
    /// (shared by [`AutoCe::push_rcs_entry`] and the sharded serving
    /// layer's online adaptation).
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

/// One partition of the RCS — all of it for the flat [`AutoCe`], one shard
/// of it in `ce-serve`'s `ShardedAdvisor`: entries tagged with their global
/// indices, the packed mirror of their embeddings the flat scan reads, the
/// stacked serving chunks over their graphs, the partition's KNN index
/// slot, and the refresh steps every owner shares (pack → encode → write
/// back → rebuild the index). Queries go through [`Self::partial_topk`],
/// i.e. [`knn::partial_topk`].
#[derive(Clone)]
pub struct AdvisorShard {
    /// Global RCS index of each entry, ascending, aligned with `entries`.
    ids: Vec<usize>,
    entries: Vec<RcsEntry>,
    /// `entries[m].embedding` as row `m`, lane-per-row. Written by the three
    /// mutations that write an embedding — [`Self::new`], [`Self::push`],
    /// [`Self::write_back`] — and by nothing else (`entries` is lent out
    /// read-only), so it needs no freshness tag. `len · dim · 4` bytes.
    packed: PackedRows,
    /// Stacked chunks over `entries`' graphs, packed lazily. Graphs are
    /// immutable once in the RCS, so the packing survives every encoder
    /// update; only a membership change drops it.
    chunks: Option<Vec<StackedCtx>>,
    /// The index slot: a build over this partition's embeddings stamped
    /// `(generation, len)`. Rebuilt with every write-back, dropped by a
    /// push, and consulted only while its stamp matches the live
    /// partition (checked in [`knn::partial_topk`]) — so answers never
    /// depend on index freshness.
    index: Option<KnnIndex>,
}

impl AdvisorShard {
    /// A partition over `entries` with global indices `ids` (ascending).
    /// The entries' embeddings must share one dimension (`"dimension
    /// mismatch"` otherwise — what the first query used to panic with).
    pub fn new(ids: Vec<usize>, entries: Vec<RcsEntry>) -> Self {
        assert_eq!(ids.len(), entries.len(), "one global index per entry");
        AdvisorShard {
            ids,
            packed: PackedRows::from_rows(&embeddings(&entries)),
            entries,
            chunks: None,
            index: None,
        }
    }

    /// Number of entries this partition owns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the partition owns no entries (possible when there are
    /// more shards than RCS entries).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Global indices of the entries this partition owns.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// The entries this partition owns, slot-aligned with [`Self::ids`].
    /// Read-only: consumers (the cluster layer projects `(ids,
    /// embeddings)` tables onto shard servers) must not be able to bypass
    /// the chunk and index bookkeeping.
    pub fn entries(&self) -> &[RcsEntry] {
        &self.entries
    }

    /// The partial top-k of this partition ([`knn::partial_topk`]);
    /// `generation` is the owner's live generation, `dists` the scan's
    /// reusable scratch.
    pub fn partial_topk(
        &self,
        x: &[f32],
        k: usize,
        exclude: usize,
        generation: u64,
        dists: &mut Vec<f32>,
    ) -> Vec<(usize, f32)> {
        let view = Partition {
            ids: &self.ids,
            embedding: |m: usize| self.entries[m].embedding.as_slice(),
            packed: &self.packed,
            index: self.index.as_ref(),
            generation,
        };
        knn::partial_topk(&view, x, k, exclude, dists)
    }

    /// Appends an entry under global index `id`. Membership changed: the
    /// packed chunks are stale, and the index is dropped at once (its
    /// length stamp would bypass it anyway). The embedding mirror takes the
    /// new row in place.
    pub fn push(&mut self, id: usize, entry: RcsEntry) {
        self.packed.push(&entry.embedding);
        self.ids.push(id);
        self.entries.push(entry);
        self.chunks = None;
        self.index = None;
    }

    /// Packs the stacked serving chunks if membership changed since the
    /// last packing, and returns them. Pure data movement.
    pub fn pack(&mut self) -> &[StackedCtx] {
        let entries = &self.entries;
        self.chunks.get_or_insert_with(|| {
            let graphs: Vec<&FeatureGraph> = entries.iter().map(|e| &e.graph).collect();
            StackedCtx::pack_graphs(&graphs)
        })
    }

    /// The chunks [`Self::pack`] left (owners that fan a refresh out over
    /// partitions pack first, then encode under a shared borrow).
    pub fn chunks(&self) -> &[StackedCtx] {
        self.chunks.as_deref().expect("packed before encoding")
    }

    /// One stacked forward over one packed chunk: a row per graph.
    pub fn encode_chunk(encoder: &GinEncoder, chunk: &StackedCtx) -> Matrix {
        let mut m = Matrix::zeros(0, 0);
        encoder.encode_stacked_into(chunk, &mut m);
        m
    }

    /// Writes refreshed embeddings back — `pooled` holds one row per entry,
    /// chunk by chunk — into the entries and their packed mirror, and
    /// rebuilds the index over them in the same mutation, so nobody can
    /// pair refreshed embeddings with a pre-refresh mirror or build, or the
    /// reverse.
    pub fn write_back(
        &mut self,
        pooled: &[Matrix],
        index: Option<&IndexConfig>,
        metrics: &MetricsRegistry,
        generation: u64,
    ) {
        // Entries handed over ahead of their first encode change dimension
        // here; only then is the mirror packed anew.
        let in_place = pooled.first().map(|m| m.cols) == self.packed.dim();
        let mut rows = pooled
            .iter()
            .flat_map(|m| (0..m.rows).map(move |r| m.row(r)));
        for (m, e) in self.entries.iter_mut().enumerate() {
            let row = rows.next().expect("one pooled row per entry");
            e.embedding.clear();
            e.embedding.extend_from_slice(row);
            if in_place {
                self.packed.set_row(m, row);
            }
        }
        assert!(rows.next().is_none(), "pooled rows must match the entries");
        if !in_place {
            self.packed = PackedRows::from_rows(&embeddings(&self.entries));
        }
        self.rebuild_index(index, metrics, generation);
    }

    /// Rebuilds the index over the live embeddings, stamped
    /// `(generation, len)`. No configuration, or a partition below the
    /// cutover, empties the slot — the flat scan serves.
    pub fn rebuild_index(
        &mut self,
        index: Option<&IndexConfig>,
        metrics: &MetricsRegistry,
        generation: u64,
    ) {
        debug_assert!(
            self.ids.windows(2).all(|w| w[0] < w[1]),
            "ids must ascend for position/id tie-break equivalence"
        );
        self.index = index
            .and_then(|cfg| KnnIndex::build(&embeddings(&self.entries), cfg, generation, metrics));
    }
}

/// Every entry's embedding, by position.
fn embeddings(entries: &[RcsEntry]) -> Vec<&[f32]> {
    entries.iter().map(|e| e.embedding.as_slice()).collect()
}

/// The trained advisor.
pub struct AutoCe {
    /// Configuration it was trained with.
    pub config: AutoCeConfig,
    encoder: GinEncoder,
    /// The whole RCS as one partition (global indices `0..n`).
    rcs: AdvisorShard,
    /// Two-stage KNN index configuration ([`crate::index`]); `None` serves
    /// every query by flat scan. The build itself lives in `rcs`.
    index_cfg: Option<IndexConfig>,
    /// Where index builds and queries count.
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
        let graphs: Vec<FeatureGraph> = datasets
            .iter()
            .map(|ds| extract_features(ds, &config.feature))
            .collect();
        Self::train_from_graphs(graphs, labels, config, seed)
    }

    /// Trains from already-extracted feature graphs (used by ablations and
    /// the incremental stage itself).
    pub fn train_from_graphs(
        graphs: Vec<FeatureGraph>,
        labels: &[DatasetLabel],
        config: AutoCeConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(graphs.len(), labels.len(), "graph/label count mismatch");
        let mut entries: Vec<RcsEntry> = graphs
            .into_iter()
            .zip(labels)
            .map(|(graph, label)| RcsEntry::from_label(graph, label, Vec::new()))
            .collect();

        // Stage 2: deep metric learning. Graphs are borrowed into the
        // trainer, never cloned.
        let dml_labels: Vec<Vec<f64>> = entries.iter().map(RcsEntry::dml_label).collect();
        let graph_refs: Vec<&FeatureGraph> = entries.iter().map(|e| &e.graph).collect();
        let mut encoder = train_encoder(&graph_refs, &dml_labels, &config.dml, seed);

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

    /// The recommendation candidate set.
    pub fn rcs(&self) -> &[RcsEntry] {
        self.rcs.entries()
    }

    /// The RCS as the one partition the KNN predictor scans.
    pub(crate) fn partition(&self) -> &AdvisorShard {
        &self.rcs
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

    /// Encodes a dataset into its embedding (Stage 4, steps 1-3).
    pub fn embed(&self, ds: &Dataset) -> Vec<f32> {
        let g = extract_features(ds, &self.config.feature);
        self.encoder.encode(&g)
    }

    /// Encodes a feature graph.
    pub fn embed_graph(&self, g: &FeatureGraph) -> Vec<f32> {
        self.encoder.encode(g)
    }

    /// KNN prediction from an embedding (Eq. 13): averaged neighbor score
    /// vector at the requested weighting; returns `(model, score_vector)`.
    pub fn predict_from_embedding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
    ) -> (ModelKind, Vec<f64>) {
        self.predict_excluding(embedding, w, usize::MAX)
    }

    /// KNN prediction that can exclude one RCS index — used by the
    /// leave-one-out cross-validation of Algorithm 2. A convenience over
    /// [`AdvisorBackend::predict_excluding`] (the [`knn`] steps, typed
    /// errors) that **panics** when the RCS holds nothing to select.
    pub fn predict_excluding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
        exclude: usize,
    ) -> (ModelKind, Vec<f64>) {
        AdvisorBackend::predict_excluding(self, embedding, w, exclude)
            .expect("the RCS holds a selectable entry")
    }

    /// Distance from an embedding to the nearest RCS entry (drift check).
    pub fn distance_to_embedding(&self, x: &[f32]) -> f32 {
        knn::min_distance(x, self.rcs().iter().map(|e| e.embedding.as_slice()))
    }

    /// Full Stage-4 recommendation for a dataset.
    pub fn recommend(&self, ds: &Dataset, w: MetricWeights) -> ModelKind {
        let x = self.embed(ds);
        self.predict_from_embedding(&x, w).0
    }

    /// Recommendation from a pre-extracted feature graph.
    pub fn recommend_graph(&self, g: &FeatureGraph, w: MetricWeights) -> ModelKind {
        let x = self.encoder.encode(g);
        self.predict_from_embedding(&x, w).0
    }

    /// Shared encoder access.
    pub fn encoder(&self) -> &GinEncoder {
        &self.encoder
    }

    /// Adds a freshly labeled dataset to the RCS (online adapting, §V-E).
    pub fn push_rcs_entry(&mut self, graph: FeatureGraph, label: &DatasetLabel) {
        let embedding = self.encoder.encode(&graph);
        let entry = RcsEntry::from_label(graph, label, embedding);
        self.rcs.push(self.rcs.len(), entry);
    }

    /// Installs (or replaces) a two-stage KNN index configuration and
    /// builds the index over the current embeddings. Counters land in
    /// `metrics`; pass a disabled registry for free no-ops.
    ///
    /// Rejects a cutover below the advisor's `k` — correctness never
    /// depends on this (an index short of `k` candidates falls back),
    /// it is builder-style validation like the serve/cluster configs.
    pub fn set_index_config(
        &mut self,
        cfg: IndexConfig,
        metrics: MetricsRegistry,
    ) -> Result<(), AdvisorError> {
        cfg.validate_for_k(self.config.k)?;
        self.index_cfg = Some(cfg);
        self.metrics = metrics;
        let generation = AdvisorBackend::generation(self);
        self.rcs
            .rebuild_index(self.index_cfg.as_ref(), &self.metrics, generation);
        Ok(())
    }

    /// The installed index configuration, if any.
    pub fn index_config(&self) -> Option<&IndexConfig> {
        self.index_cfg.as_ref()
    }

    /// Reassembles an advisor from its parts — the inverse of
    /// [`Self::into_parts`]. Entries are trusted as-is: their embeddings
    /// must have been produced by `encoder` (or be about to be refreshed).
    /// This is the constructor the sharded serving layer and synthetic
    /// KNN tests build flat reference advisors with.
    pub fn from_parts(config: AutoCeConfig, encoder: GinEncoder, rcs: Vec<RcsEntry>) -> Self {
        AutoCe {
            config,
            encoder,
            rcs: AdvisorShard::new((0..rcs.len()).collect(), rcs),
            index_cfg: None,
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Decomposes the advisor into configuration, encoder and RCS entries
    /// (the sharded serving layer redistributes the entries across shards).
    pub fn into_parts(self) -> (AutoCeConfig, GinEncoder, Vec<RcsEntry>) {
        (self.config, self.encoder, self.rcs.entries)
    }

    /// Splits a mutable encoder borrow from a shared RCS borrow (online
    /// adapting retrains the encoder on borrowed RCS graphs).
    pub(crate) fn encoder_and_rcs(&mut self) -> (&mut GinEncoder, &[RcsEntry]) {
        (&mut self.encoder, self.rcs.entries())
    }

    /// Recomputes all RCS embeddings (after incremental encoder updates)
    /// on the batch-stacked embedding service: the whole RCS is encoded in
    /// a few large stacked forwards (chunks fanned out over the pool)
    /// instead of one kernel dispatch per graph per layer. The stacked
    /// chunks are cached across refreshes — in steady state this path does
    /// no *per-graph* work (no context rebuild or per-graph allocation;
    /// entry embedding buffers are reused in place, with only a few
    /// per-chunk workspace matrices allocated per call). Bit-identical to
    /// encoding each graph separately.
    pub fn refresh_embeddings(&mut self) {
        let encoder = &self.encoder;
        let pooled: Vec<Matrix> = (self.rcs.pack().par_iter())
            .map(|chunk| AdvisorShard::encode_chunk(encoder, chunk))
            .collect();
        let generation = AdvisorBackend::generation(self);
        self.rcs
            .write_back(&pooled, self.index_cfg.as_ref(), &self.metrics, generation);
    }

    /// Embeds many datasets at once: features are extracted in parallel and
    /// the graphs are encoded through the batch-stacked service. Identical
    /// to mapping [`Self::embed`] over `datasets`, with far fewer kernel
    /// dispatches.
    pub fn embed_batch(&self, datasets: &[Dataset]) -> Vec<Vec<f32>> {
        let graphs: Vec<FeatureGraph> = datasets
            .par_iter()
            .map(|ds| extract_features(ds, &self.config.feature))
            .collect();
        self.encoder.encode_batch(&graphs)
    }

    /// Batch Stage-4 recommendation: one stacked embedding pass over all
    /// datasets, then the KNN vote per embedding. Equivalent to calling
    /// [`Self::recommend`] per dataset.
    pub fn recommend_batch(&self, datasets: &[Dataset], w: MetricWeights) -> Vec<ModelKind> {
        self.embed_batch(datasets)
            .iter()
            .map(|x| self.predict_from_embedding(x, w).0)
            .collect()
    }
}

#[cfg(test)]
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
        assert_eq!(advisor.rcs().len(), 12);
        assert!(advisor.rcs().iter().all(|e| !e.embedding.is_empty()));
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
        assert_eq!(advisor.rcs().len(), 12, "RCS keeps original entries");
    }

    /// The batch-stacked serving path must agree with the per-graph path
    /// bit for bit: refreshed RCS embeddings, batch embeds and batch
    /// recommendations all match their one-at-a-time equivalents.
    #[test]
    fn stacked_serving_path_matches_per_graph_path_bitwise() {
        let (datasets, mut advisor) = tiny_training_run(2, false);
        // Per-graph references, computed before any refresh.
        let per_graph_rcs: Vec<Vec<f32>> = advisor
            .rcs()
            .iter()
            .map(|e| advisor.embed_graph(&e.graph))
            .collect();
        advisor.refresh_embeddings();
        for (e, expect) in advisor.rcs().iter().zip(&per_graph_rcs) {
            assert_eq!(&e.embedding, expect, "stacked refresh must be bitwise");
        }
        let batch = advisor.embed_batch(&datasets);
        let w = MetricWeights::new(0.7);
        let recs = advisor.recommend_batch(&datasets, w);
        for ((ds, emb), rec) in datasets.iter().zip(&batch).zip(&recs) {
            assert_eq!(emb, &advisor.embed(ds), "stacked embed must be bitwise");
            assert_eq!(*rec, advisor.recommend(ds, w));
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
            let mut dists = Vec::new();
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
                    let got = shard.partial_topk(&x, k, exclude, 0, &mut dists);
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
        let e = &advisor.rcs()[0];
        assert_eq!(e.dml_label().len(), e.sa.len() + e.se.len());
        // Scores at wa = 1 equal sa.
        let s = e.scores(MetricWeights::new(1.0));
        for (a, b) in s.iter().zip(&e.sa) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
