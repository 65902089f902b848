//! [`AdvisorShard`]: one partition of an [`AutoCe`]'s RCS. Only [`AutoCe`]
//! builds, pushes to and refreshes a shard; everyone else reads it through
//! [`AdvisorShard::ids`] and [`AdvisorShard::entries`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

#[cfg(doc)]
use crate::advisor::AutoCe;
use crate::advisor::RcsEntry;
use crate::index::{IndexConfig, KnnIndex};
use crate::knn::{self, Partition};
use ce_features::FeatureGraph;
use ce_gnn::{GinEncoder, StackedCtx};
use ce_nn::packed::PackedRows;
use ce_nn::Matrix;
use ce_obs::MetricsRegistry;

/// One partition of an [`AutoCe`]'s RCS — all of it when the advisor has
/// one shard: entries tagged with their global indices, the packed mirror
/// of their embeddings the flat scan reads, the stacked serving chunks over
/// their graphs, the partition's KNN index slot, and the refresh steps
/// (pack → encode → write back → rebuild the index). Queries go through
/// [`knn::partial_topk`].
#[derive(Clone)]
pub struct AdvisorShard {
    /// Global RCS index of each entry, ascending, aligned with `entries`.
    ids: Vec<usize>,
    entries: Vec<RcsEntry>,
    /// `entries[m].embedding` as row `m`, lane-per-row. Written by the three
    /// mutations that write an embedding — [`Self::new`], [`Self::push`],
    /// `write_back` — and by nothing else (`entries` is lent out
    /// read-only), so it needs no freshness tag. `len · dim · 4` bytes.
    packed: PackedRows,
    /// Stacked chunks over `entries`' graphs, packed lazily by the owner's
    /// first refresh (`pack`); no query reads them, so a read-only owner
    /// never pays for them. Graphs are immutable once in the RCS, so
    /// the packing survives every encoder update, and a push appends the
    /// newcomer to it ([`StackedCtx::push_packed`]): the chunks always
    /// equal a fresh packing of `entries`' graphs.
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
    pub(crate) fn new(ids: Vec<usize>, entries: Vec<RcsEntry>) -> Self {
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

    /// This partition as [`knn::partial_topk`] scans it, under the owner's
    /// live `generation`.
    pub(crate) fn view(&self, generation: u64) -> Partition<'_, usize> {
        Partition {
            ids: &self.ids,
            packed: &self.packed,
            index: self.index.as_ref(),
            generation,
        }
    }

    /// The partial top-k of this partition ([`knn::partial_topk`]),
    /// appended to `out`; `generation` is the owner's live generation,
    /// `scratch` the query path's reusable buffers.
    pub(crate) fn partial_topk(
        &self,
        x: &[f32],
        k: usize,
        exclude: usize,
        generation: u64,
        scratch: &mut knn::Scratch,
        out: &mut Vec<(usize, f32)>,
    ) {
        knn::partial_topk(&self.view(generation), x, k, exclude, scratch, out);
    }

    /// Appends an entry under global index `id`. The embedding mirror and
    /// the packed chunks (if packed yet) take the newcomer in place; the
    /// index is dropped at once (its length stamp would bypass it anyway).
    pub(crate) fn push(&mut self, id: usize, entry: RcsEntry) {
        self.packed.push(&entry.embedding);
        if let Some(chunks) = &mut self.chunks {
            StackedCtx::push_packed(chunks, &entry.graph);
        }
        self.ids.push(id);
        self.entries.push(entry);
        self.index = None;
    }

    /// Packs the stacked serving chunks on the first call, and returns
    /// them. Pure data movement.
    pub(crate) fn pack(&mut self) -> &[StackedCtx] {
        let entries = &self.entries;
        self.chunks.get_or_insert_with(|| {
            let graphs: Vec<&FeatureGraph> = entries.iter().map(|e| &e.graph).collect();
            StackedCtx::pack_graphs(&graphs)
        })
    }

    /// One stacked forward over one packed chunk: a row per graph.
    pub(crate) fn encode_chunk(encoder: &GinEncoder, chunk: &StackedCtx) -> Matrix {
        let mut m = Matrix::zeros(0, 0);
        encoder.encode_stacked_into(chunk, &mut m);
        m
    }

    /// Writes refreshed embeddings back — `pooled` holds one row per entry,
    /// chunk by chunk — into the entries and their packed mirror, and
    /// rebuilds the index over them in the same mutation, so nobody can
    /// pair refreshed embeddings with a pre-refresh mirror or build, or the
    /// reverse.
    pub(crate) fn write_back(
        &mut self,
        pooled: &[Matrix],
        index: Option<&IndexConfig>,
        metrics: &MetricsRegistry,
        generation: u64,
    ) {
        let rows = pooled.iter().map(|m| m.rows).sum::<usize>();
        assert_eq!(rows, self.entries.len(), "one pooled row per entry");
        // Entries handed over ahead of their first encode change dimension
        // here; only then is the mirror packed anew.
        let in_place = pooled.first().map(|m| m.cols) == self.packed.dim();
        let rows = pooled
            .iter()
            .flat_map(|m| (0..m.rows).map(move |r| m.row(r)));
        for ((m, e), row) in self.entries.iter_mut().enumerate().zip(rows) {
            e.embedding.clear();
            e.embedding.extend_from_slice(row);
            if in_place {
                self.packed.set_row(m, row);
            }
        }
        if !in_place {
            self.packed = PackedRows::from_rows(&embeddings(&self.entries));
        }
        self.rebuild_index(index, metrics, generation);
    }

    /// Rebuilds the index over the live embeddings, stamped
    /// `(generation, len)`. No configuration, or a partition below the
    /// cutover, empties the slot — the flat scan serves.
    pub(crate) fn rebuild_index(
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

#[cfg(test)]
mod tests {
    use crate::advisor::AutoCe;
    use crate::backend::AdvisorBackend;
    use crate::fixtures::{synthetic_flat, synthetic_label};
    use ce_features::FeatureGraph;
    use ce_gnn::StackedCtx;
    use ce_testbed::MetricWeights;

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
            let sharded = AutoCe::from_advisor(&flat, shards);
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
        let sharded = AutoCe::from_advisor(&flat, 4);
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
        let mut sharded = AutoCe::from_advisor(&flat, 2);
        // 5 entries over 2 shards: sizes [3, 2] — the push must land on
        // shard 1.
        let label = synthetic_label(&flat.entry(0).kinds);
        let graph = FeatureGraph {
            vertices: vec![vec![0.3, 0.3, 0.3, 0.3]],
            edges: vec![vec![0.0]],
        };
        let id = sharded.push_entry(graph, &label);
        assert_eq!(id, 5);
        assert_eq!(sharded.shards()[1].len(), 3);
        assert_eq!(sharded.shard_of(5), Some(1));
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
        assert_eq!(sharded.generation(), 0, "a refresh is not an adaptation");
    }

    proptest::proptest! {
        /// A push keeps the receiving shard's packed chunks and appends the
        /// newcomer: the next refresh reads the chunks a fresh
        /// `pack_graphs` over the shard's graphs builds, and writes the
        /// embedding bits a fresh stacked encode gives.
        #[test]
        fn push_then_refresh_is_a_fresh_packing(
            base in 1usize..12,
            shards in 1usize..4,
            pushed in proptest::collection::vec(1usize..6, 1..24),
            v0 in -1.0f32..1.0,
        ) {
            let flat = synthetic_flat(base, 2);
            let mut sharded = AutoCe::from_advisor(&flat, shards);
            sharded.refresh_embeddings();
            let label = synthetic_label(&flat.entry(0).kinds);
            for (j, &n) in pushed.iter().enumerate() {
                let v = v0 + j as f32 * 0.125;
                let graph = FeatureGraph {
                    vertices: (0..n).map(|r| vec![v, r as f32 * 0.5, -v, 0.25]).collect(),
                    edges: (0..n)
                        .map(|a| (0..n).map(|b| if a + 1 == b { 0.5 } else { 0.0 }).collect())
                        .collect(),
                };
                sharded.push_entry(graph, &label);
            }
            sharded.refresh_embeddings();
            for shard in sharded.shards() {
                let graphs: Vec<&FeatureGraph> = shard.entries().iter().map(|e| &e.graph).collect();
                let fresh = StackedCtx::pack_graphs(&graphs);
                let kept = shard.chunks.as_deref().unwrap_or_default();
                proptest::prop_assert_eq!(kept.len(), fresh.len());
                for (a, b) in kept.iter().zip(&fresh) {
                    proptest::prop_assert_eq!(a.offsets(), b.offsets());
                }
            }
            let graphs: Vec<&FeatureGraph> =
                (0..sharded.len()).map(|i| &sharded.entry(i).graph).collect();
            let want = sharded.encoder().encode_batch(&graphs);
            for (i, want) in want.iter().enumerate() {
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&sharded.entry(i).embedding), bits(want), "entry {}", i);
            }
        }
    }
}
