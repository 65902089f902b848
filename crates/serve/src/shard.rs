//! The sharded RCS: entries distributed across [`AdvisorShard`]s, each
//! owning its packed serving chunks and its KNN index slot.
//!
//! # Flat equivalence
//!
//! [`ShardedAdvisor::predict_excluding`] is **bit-identical** to
//! [`AutoCe::predict_excluding`] for every shard count because both are
//! the same calls into [`autoce::knn`] — `select_k`, `partial_topk` per
//! partition, `merge_vote` — the flat advisor over one partition, this one
//! over N. Shard membership never changes a distance;
//! [`autoce::knn_order`] is a strict total order, so every global top-k
//! neighbor is inside its shard's partial list and the sorted, truncated
//! merge is exactly the flat sequence; [`autoce::knn_vote`] accumulates
//! scores in that order. Thread counts and collection order cannot change
//! any of it.

use autoce::index::IndexConfig;
use autoce::{knn, AdvisorBackend, AdvisorError, AutoCe, AutoCeConfig, RcsEntry};
use ce_features::{extract_features, FeatureGraph};
use ce_gnn::GinEncoder;
use ce_models::ModelKind;
use ce_nn::Matrix;
use ce_obs::{MetricsRegistry, LATENCY_NS_BUCKETS};
use ce_storage::Dataset;
use ce_testbed::{DatasetLabel, MetricWeights};
use rayon::prelude::*;

pub use autoce::AdvisorShard;

/// The sharded advisor: the Stage-4 serving path of [`AutoCe`] with the
/// RCS distributed across [`AdvisorShard`]s.
///
/// Recommendations are bit-identical to the flat advisor at any shard
/// count (see the module docs); online adaptation routes new entries to
/// the least-loaded shard and refreshes embeddings per shard over each
/// shard's cached stacked chunks.
#[derive(Clone)]
pub struct ShardedAdvisor {
    config: AutoCeConfig,
    pub(crate) encoder: GinEncoder,
    pub(crate) shards: Vec<AdvisorShard>,
    /// Global index → `(shard, slot)`; one entry per RCS member, appended
    /// in global-index order (global ids are never reused).
    pub(crate) directory: Vec<(usize, usize)>,
    generation: u64,
    /// Registry the refresh/adaptation paths record into (default:
    /// disabled). [`AdvisorService::adapt`](crate::AdvisorService) wires
    /// its own registry in before adapting, so refresh/train phase timings
    /// land in the same snapshot as the serving metrics.
    pub(crate) metrics: MetricsRegistry,
    /// Two-stage KNN index configuration; `None` serves every partial
    /// top-k by flat scan. Per-shard indexes are rebuilt on refresh
    /// (inside the same value a snapshot swap publishes) and dropped on
    /// pushes.
    index_cfg: Option<IndexConfig>,
}

impl ShardedAdvisor {
    /// Distributes a flat advisor's RCS across `num_shards` shards in
    /// contiguous, balanced ranges (global index order is preserved, so a
    /// 1-shard instance is layout-identical to the flat advisor). The flat
    /// advisor is left untouched; entries and encoder are cloned.
    pub fn from_advisor(advisor: &AutoCe, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let entries = advisor.rcs();
        let n = entries.len();
        let base = n / num_shards;
        let rem = n % num_shards;
        let mut shards = Vec::with_capacity(num_shards);
        let mut directory = Vec::with_capacity(n);
        let mut next = 0usize;
        for s in 0..num_shards {
            let take = base + usize::from(s < rem);
            let ids: Vec<usize> = (next..next + take).collect();
            for (slot, &id) in ids.iter().enumerate() {
                debug_assert_eq!(id, directory.len());
                let _ = id;
                directory.push((s, slot));
            }
            shards.push(AdvisorShard::new(ids, entries[next..next + take].to_vec()));
            next += take;
        }
        let mut sharded = ShardedAdvisor {
            config: advisor.config.clone(),
            encoder: advisor.encoder().clone(),
            shards,
            directory,
            generation: 0,
            metrics: MetricsRegistry::disabled(),
            index_cfg: None,
        };
        // Pre-warm the serving chunks at construction: packing is pure
        // data movement (no floats change), and doing it here keeps the
        // first refresh/adaptation — and cold request streams racing it —
        // from paying the packing cost at serving time.
        sharded.prewarm_chunks();
        sharded
    }

    /// Packs every shard's stacked serving chunks now instead of lazily at
    /// the next refresh. Idempotent; shards whose membership changed since
    /// the last packing are rebuilt, clean shards are untouched.
    pub fn prewarm_chunks(&mut self) {
        for shard in &mut self.shards {
            shard.pack();
        }
    }

    /// Advisor configuration (featurization, DML, `k`).
    pub fn config(&self) -> &AutoCeConfig {
        &self.config
    }

    /// Shared encoder access.
    pub fn encoder(&self) -> &GinEncoder {
        &self.encoder
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

    /// True when no shard owns any entry.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Monotonic adaptation counter: bumped on every online adaptation so
    /// snapshot consumers (embedding caches, stats) can detect refreshes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// Points the refresh/adaptation instrumentation at `registry`:
    /// embedding refreshes record `ce_serve_refresh_ns` and incremental
    /// DML updates record the `ce_gnn_*` training metrics there. A
    /// disabled registry (the default) makes every site a no-op; the
    /// query hot path is unaffected either way.
    pub fn set_metrics(&mut self, registry: MetricsRegistry) {
        self.metrics = registry;
    }

    /// The RCS entry at a global index.
    pub fn entry(&self, global: usize) -> &RcsEntry {
        let (s, slot) = self.directory[global];
        &self.shards[s].entries()[slot]
    }

    /// Encodes a dataset into its embedding (identical to
    /// [`AutoCe::embed`]).
    pub fn embed(&self, ds: &Dataset) -> Vec<f32> {
        self.embed_graph(&extract_features(ds, &self.config.feature))
    }

    /// Encodes a feature graph.
    pub fn embed_graph(&self, g: &FeatureGraph) -> Vec<f32> {
        self.encoder.encode(g)
    }

    /// Batch-embeds feature graphs through the stacked service (one tall
    /// forward per chunk) — the micro-batcher's encoding entry point.
    pub fn embed_graph_batch(&self, graphs: &[&FeatureGraph]) -> Vec<Vec<f32>> {
        self.encoder.encode_batch(graphs)
    }

    /// KNN prediction from an embedding, bit-identical to
    /// [`AutoCe::predict_from_embedding`] at any shard count.
    pub fn predict_from_embedding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
    ) -> (ModelKind, Vec<f64>) {
        self.predict_excluding(embedding, w, usize::MAX)
    }

    /// KNN prediction excluding one global RCS index (see the module docs
    /// for why this matches the flat scan bitwise). A convenience over
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

    /// Full Stage-4 recommendation, bit-identical to [`AutoCe::recommend`].
    pub fn recommend(&self, ds: &Dataset, w: MetricWeights) -> ModelKind {
        let x = self.embed(ds);
        self.predict_from_embedding(&x, w).0
    }

    /// Recommendation from a pre-extracted feature graph.
    pub fn recommend_graph(&self, g: &FeatureGraph, w: MetricWeights) -> ModelKind {
        let x = self.embed_graph(g);
        self.predict_from_embedding(&x, w).0
    }

    /// Distance from an embedding to the nearest RCS entry (drift check).
    pub fn distance_to_embedding(&self, x: &[f32]) -> f32 {
        let entries = self.shards.iter().flat_map(AdvisorShard::entries);
        knn::min_distance(x, entries.map(|e| e.embedding.as_slice()))
    }

    /// Fits a drift detector over all entries in global-index order —
    /// the same threshold [`autoce::online::DriftDetector::fit`] computes
    /// on the equivalent flat advisor.
    pub fn drift_detector(&self) -> autoce::online::DriftDetector {
        let embs: Vec<&[f32]> = (0..self.len())
            .map(|i| self.entry(i).embedding.as_slice())
            .collect();
        autoce::online::DriftDetector::from_embeddings(&embs)
    }

    /// Adds a freshly labeled dataset, routed to the least-loaded shard
    /// (ties to the lowest shard index). Returns the new global index. The
    /// receiving shard's chunks are marked stale; embeddings are written by
    /// the next [`Self::refresh_embeddings`].
    pub fn push_entry(&mut self, graph: FeatureGraph, label: &DatasetLabel) -> usize {
        let embedding = self.encoder.encode(&graph);
        let global = self.directory.len();
        let target = (0..self.shards.len())
            .min_by_key(|&s| (self.shards[s].len(), s))
            .expect("at least one shard");
        let shard = &mut self.shards[target];
        shard.push(global, RcsEntry::from_label(graph, label, embedding));
        self.directory.push((target, shard.len() - 1));
        global
    }

    /// Recomputes every entry's embedding after an encoder update, routed
    /// per shard: each shard re-encodes its own cached stacked chunks
    /// (rebuilt only where membership changed) with the refresh fanned out
    /// over the rayon pool. Bit-identical to per-graph encoding.
    pub fn refresh_embeddings(&mut self) {
        // Refresh is a cold path (it follows a retrain), so registering
        // the histogram here — under the registry's own mutex, never a
        // serving lock — is fine.
        let _span = self
            .metrics
            .histogram("ce_serve_refresh_ns", &[], LATENCY_NS_BUCKETS)
            .start_span();
        for shard in &mut self.shards {
            shard.pack();
        }
        let encoder = &self.encoder;
        let pooled: Vec<Vec<Matrix>> = (self.shards.par_iter())
            .map(|s| {
                let encode = |c| AdvisorShard::encode_chunk(encoder, c);
                s.chunks().iter().map(encode).collect()
            })
            .collect();
        // Write-back rebuilds each shard's index inside the same advisor
        // value a snapshot swap publishes, so no query can pair entries
        // with another generation's index (docs/knn-index.md).
        let (index, metrics) = (self.index_cfg.as_ref(), &self.metrics);
        for (shard, mats) in self.shards.iter_mut().zip(pooled) {
            shard.write_back(&mats, index, metrics, self.generation);
        }
    }

    /// Installs (or replaces) the two-stage KNN index configuration and
    /// builds per-shard indexes over the current embeddings. Validation
    /// matches the flat advisor's ([`AutoCe::set_index_config`]).
    pub fn set_index_config(&mut self, cfg: IndexConfig) -> Result<(), AdvisorError> {
        cfg.validate_for_k(self.config.k)?;
        self.index_cfg = Some(cfg);
        for shard in &mut self.shards {
            shard.rebuild_index(self.index_cfg.as_ref(), &self.metrics, self.generation);
        }
        Ok(())
    }

    /// The installed index configuration, if any.
    pub fn index_config(&self) -> Option<&IndexConfig> {
        self.index_cfg.as_ref()
    }

    /// Validated construction: like [`Self::from_advisor`] but rejects a
    /// shard count of zero or one exceeding the RCS size at build time
    /// (an advisor with empty shards *serves* correctly — the merge skips
    /// them — but asking for more shards than entries is always a sizing
    /// mistake, and the builder path surfaces it before first use).
    pub fn try_from_advisor(advisor: &AutoCe, num_shards: usize) -> Result<Self, AdvisorError> {
        if num_shards == 0 {
            return Err(AdvisorError::InvalidConfig(
                "shard count must be at least 1".into(),
            ));
        }
        if num_shards > advisor.rcs().len() {
            return Err(AdvisorError::InvalidConfig(format!(
                "shard count {num_shards} exceeds RCS size {} (empty shards)",
                advisor.rcs().len()
            )));
        }
        Ok(ShardedAdvisor::from_advisor(advisor, num_shards))
    }
}

/// The unified query surface over the in-process sharded advisor: every
/// method forwards to the inherent implementation, whose bit-identity to
/// the flat advisor (any shard count) is what makes this backend
/// interchangeable with [`AutoCe`] behind an
/// [`AdvisorService`](crate::AdvisorService).
impl AdvisorBackend for ShardedAdvisor {
    fn rcs_len(&self) -> usize {
        self.len()
    }

    fn generation(&self) -> u64 {
        ShardedAdvisor::generation(self)
    }

    fn feature_config(&self) -> ce_features::FeatureConfig {
        self.config.feature
    }

    fn embed_graph(&self, g: &FeatureGraph) -> Vec<f32> {
        ShardedAdvisor::embed_graph(self, g)
    }

    fn embed_graph_batch(&self, graphs: &[&FeatureGraph]) -> Vec<Vec<f32>> {
        ShardedAdvisor::embed_graph_batch(self, graphs)
    }

    fn predict_excluding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
        exclude: usize,
    ) -> Result<(ModelKind, Vec<f64>), AdvisorError> {
        let k = knn::select_k(self.config.k, self.len(), exclude)?;
        // Shards are scanned **serially**: this is the per-request hot
        // path, a shard's scan is microseconds of work, and the rayon shim
        // backs `par_iter` with scoped OS threads (no persistent pool) —
        // per-call thread spawns would dwarf the scan on multi-core hosts.
        let mut partials = Vec::with_capacity(k * self.shards.len());
        let mut dists = Vec::new();
        for s in &self.shards {
            partials.extend(s.partial_topk(embedding, k, exclude, self.generation, &mut dists));
        }
        Ok(knn::merge_vote(partials, k, w, |id| self.entry(id)))
    }

    fn distance_to_nearest(&self, x: &[f32]) -> f32 {
        self.distance_to_embedding(x)
    }

    fn drift_detector(&self) -> autoce::online::DriftDetector {
        ShardedAdvisor::drift_detector(self)
    }

    fn push_entry(
        &mut self,
        graph: FeatureGraph,
        label: &DatasetLabel,
    ) -> Result<usize, AdvisorError> {
        Ok(ShardedAdvisor::push_entry(self, graph, label))
    }

    fn refresh(&mut self) -> Result<u64, AdvisorError> {
        self.refresh_embeddings();
        Ok(ShardedAdvisor::generation(self))
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
mod tests {
    use super::*;
    use autoce::fixtures::{synthetic_flat, synthetic_label};

    #[test]
    fn sharded_predictions_match_flat_for_every_shard_count() {
        let flat = synthetic_flat(11, 3);
        let w = MetricWeights::new(0.7);
        let queries = [
            vec![0.0f32, 0.0, 0.0],
            vec![1.3, 0.4, -0.2],
            vec![2.5, 6.25, -1.5],
        ];
        for shards in 1..=5 {
            let sharded = ShardedAdvisor::from_advisor(&flat, shards);
            assert_eq!(sharded.num_shards(), shards);
            assert_eq!(sharded.len(), 11);
            for x in &queries {
                for exclude in [usize::MAX, 0, 5, 10] {
                    let a = flat.predict_excluding(x, w, exclude);
                    let b = sharded.predict_excluding(x, w, exclude);
                    assert_eq!(a, b, "shards={shards} exclude={exclude}");
                }
            }
        }
    }

    #[test]
    fn more_shards_than_entries_leaves_empty_shards_working() {
        let flat = synthetic_flat(2, 2);
        let sharded = ShardedAdvisor::from_advisor(&flat, 4);
        assert_eq!(sharded.num_shards(), 4);
        assert!(sharded.shards()[2].is_empty() && sharded.shards()[3].is_empty());
        let x = vec![0.1f32, 0.0, 0.9];
        let w = MetricWeights::new(0.5);
        assert_eq!(
            flat.predict_from_embedding(&x, w),
            sharded.predict_from_embedding(&x, w)
        );
    }

    #[test]
    fn push_routes_to_least_loaded_shard_and_refresh_restores_embeddings() {
        let flat = synthetic_flat(5, 2);
        let mut sharded = ShardedAdvisor::from_advisor(&flat, 2);
        // 5 entries over 2 shards: sizes [3, 2] — the push must land on
        // shard 1.
        let label = synthetic_label(&flat.rcs()[0].kinds);
        let graph = FeatureGraph {
            vertices: vec![vec![0.3, 0.3, 0.3, 0.3]],
            edges: vec![vec![0.0]],
        };
        let id = sharded.push_entry(graph, &label);
        assert_eq!(id, 5);
        assert_eq!(sharded.shards()[1].len(), 3);
        assert_eq!(sharded.entry(5).name, "new");
        // Refresh rewrites every embedding from the (unchanged) encoder:
        // the pushed entry keeps its encode-time embedding and the rest
        // keep encoder-consistent values.
        let before: Vec<Vec<f32>> = (0..sharded.len())
            .map(|i| sharded.encoder().encode(&sharded.entry(i).graph))
            .collect();
        sharded.refresh_embeddings();
        for (i, expect) in before.iter().enumerate() {
            assert_eq!(&sharded.entry(i).embedding, expect);
        }
    }
}
