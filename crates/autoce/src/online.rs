//! Online adapting for unexpected data distributions (§V-E).
//!
//! Three steps: (1) **drift detection** — a dataset whose embedding's
//! nearest-RCS distance exceeds the 90th percentile of the RCS's own
//! nearest-neighbor distances is out-of-distribution; (2) **online
//! learning** — the drifted dataset is labeled by the testbed to obtain
//! ground truth; (3) **model update** — the new sample joins the RCS and
//! the encoder receives an incremental DML update.
//!
//! A dataset's distance in step 1 is the Stage-4 scan the advisor serves
//! with ([`crate::knn::nearest_distance`]: `partial_topk` at `k = 1` over
//! the backend's own partitions, index first). The detector's fit asks for
//! every row's nearest other row at once, so it is one join over the
//! partitions the RCS is already cut into, asking no index a query: each
//! live index contributes its k-means partitions (centroid, radius, packed
//! member block), and a shard without a live index is one partition
//! without a centroid. A row's nearest other row comes from its own
//! partition, its own position excluded, then from every other partition
//! the centroid bound cannot rule out for the whole partition at once
//! (`nearest_per_row`). Every value is a minimum of `euclidean` bits,
//! so the threshold is the pairwise fit's at any thread count.
//!
//! Step 3 has one body ([`AutoCe::adapt_with_reservoir`]'s): push the
//! newcomer, train on an ascending list of global ids, bump the generation,
//! refresh. [`adapt_online`] trains on every id; a [`Reservoir`] bounds the
//! list to a fixed-size uniform sample of the RCS plus the newcomer, which
//! is what the serving layer adapts with.
//!
//! Nothing in the fit panics on its inputs; the lints below keep it so.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::advisor::AutoCe;
use crate::knn::finite;
use crate::shard::AdvisorShard;
use ce_features::extract_features;
use ce_gnn::DmlConfig;
use ce_nn::packed::{least, slack, PackedRows};
use ce_obs::MetricsRegistry;
use ce_storage::Dataset;
use ce_testbed::{label_dataset, TestbedConfig};
use rayon::prelude::*;
use std::ops::Range;

pub use crate::reservoir::Reservoir;

/// Drift detector built over the advisor's RCS.
///
/// Its threshold is the [`Self::PERCENTILE`] rank of every RCS row's
/// distance to its nearest *other* row, each the bits of the smallest
/// `euclidean` over the other rows. A row holding a NaN or ±∞ neither gets
/// nor gives a distance: such an RCS is fitted over its finite rows, as one
/// partition without a centroid.
pub struct DriftDetector {
    threshold: f32,
}

impl DriftDetector {
    /// Percentile of within-RCS nearest-neighbor distances used as the
    /// drift threshold (the paper takes the 90th).
    pub const PERCENTILE: f64 = 90.0;

    /// Builds the detector over an RCS held as `partitions` (global ids
    /// `0..n` between them) under the owner's live `generation` — what
    /// [`AutoCe`]'s [`drift_detector`](crate::AdvisorBackend::drift_detector)
    /// fits, so every shard count produces the same threshold: the
    /// percentile rank over `nearest_per_row`.
    pub fn from_partitions(partitions: &[AdvisorShard], generation: u64) -> Self {
        Self::fit(partitions, generation, &MetricsRegistry::disabled())
    }

    /// [`Self::from_partitions`], counting the join's partition pairs in
    /// `metrics` (`ce_index_fit_pairs_total`).
    pub(crate) fn fit(
        partitions: &[AdvisorShard],
        generation: u64,
        metrics: &MetricsRegistry,
    ) -> Self {
        Self::from_nn_dists(nearest_per_row(partitions, generation, metrics))
    }

    /// Builds the detector from raw embeddings in RCS order, over one
    /// partition without a centroid: each row's distance is the least over
    /// every other row.
    pub fn from_embeddings(embeddings: &[&[f32]]) -> Self {
        let rows = embeddings.iter().copied().enumerate();
        Self::from_nn_dists(unindexed(embeddings.len(), rows))
    }

    /// The percentile rank over each row's nearest-neighbor distance, the
    /// non-finite ones left out. A selection under `total_cmp` picks the
    /// value a full sort would: the distances never mix `-0.0` and `+0.0`
    /// (only dimension zero makes a `-0.0`, and there every distance is).
    fn from_nn_dists(mut nn_dists: Vec<f32>) -> Self {
        nn_dists.retain(|d| d.is_finite());
        let Some(last) = nn_dists.len().checked_sub(1) else {
            return DriftDetector {
                threshold: f32::MAX,
            };
        };
        let rank = ((Self::PERCENTILE / 100.0) * last as f64).round() as usize;
        let (_, &mut threshold, _) =
            nn_dists.select_nth_unstable_by(rank.min(last), f32::total_cmp);
        DriftDetector { threshold }
    }

    /// Distance threshold in embedding space.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Distance from a dataset to the RCS (closest embedding).
    pub fn distance_to_rcs(&self, advisor: &AutoCe, ds: &Dataset) -> f32 {
        advisor.distance_to_embedding(&advisor.embed(ds))
    }

    /// True if the dataset's distribution is unexpected.
    pub fn is_drifted(&self, advisor: &AutoCe, ds: &Dataset) -> bool {
        self.distance_to_rcs(advisor, ds) > self.threshold
    }
}

/// Every RCS row's distance to its nearest other row, by global id (the
/// `shards` hold ids `0..n` between them): `+∞` for a row with no other
/// row, and for a non-finite row, which also gives no distance. One join
/// ([`join`]) over the partitions the shards serve from: a shard whose
/// index tag is live under `generation` gives each non-empty k-means
/// partition of it, any other shard is one partition without a centroid,
/// and an RCS holding a non-finite row is one such partition over its
/// finite rows. When a live index takes part, the join's ordered partition
/// pairs count in `metrics` as `ce_index_fit_pairs_total{outcome=scanned|pruned}`;
/// a fit without one counts nothing. `ce_index_queries_total` does not
/// move: the join asks no index a query.
pub(crate) fn nearest_per_row(
    shards: &[AdvisorShard],
    generation: u64,
    metrics: &MetricsRegistry,
) -> Vec<f32> {
    let n = shards.iter().map(AdvisorShard::len).sum();
    let rows = || {
        shards.iter().flat_map(|s| {
            let embeddings = s.entries().iter().map(|e| e.embedding.as_slice());
            s.ids().iter().copied().zip(embeddings)
        })
    };
    if !rows().all(|(_, x)| finite(x)) {
        return unindexed(n, rows());
    }
    let mut cells = Vec::new();
    for shard in shards.iter().filter(|s| !s.is_empty()) {
        let view = shard.view(generation);
        let ids = shard.ids();
        let embedding = |m: usize| shard.entries()[m].embedding.as_slice();
        let live = (view.index).filter(|ix| {
            ix.tag_matches(generation, ids.len()) && Some(ix.dim()) == view.packed.dim()
        });
        let Some(index) = live else {
            cells.push(Cell {
                ids: ids.to_vec(),
                rows: (0..ids.len()).map(embedding).collect(),
                block: view.packed,
                ball: None,
            });
            continue;
        };
        for p in index.partitions().filter(|p| !p.members.is_empty()) {
            let members = p.members.iter().map(|&m| m as usize);
            cells.push(Cell {
                ids: members.clone().map(|m| ids[m]).collect(),
                rows: members.map(embedding).collect(),
                block: p.block,
                ball: Some(Ball {
                    centroid: p.centroid,
                    radius: p.radius,
                    margin: index.margin(),
                }),
            });
        }
    }
    let (nearest, pruned) = join(n, &cells);
    if cells.iter().any(|c| c.ball.is_some()) {
        let pairs = (cells.len() * (cells.len() - 1)) as u64;
        let counter = |o| metrics.counter("ce_index_fit_pairs_total", &[("outcome", o)]);
        counter("scanned").add(pairs - pruned);
        counter("pruned").add(pruned);
    }
    nearest
}

/// [`nearest_per_row`] over the finite ones of `rows` (`(global id,
/// embedding)`, ids below `n`) as one partition without a centroid.
fn unindexed<'a>(n: usize, rows: impl Iterator<Item = (usize, &'a [f32])>) -> Vec<f32> {
    let (ids, rows): (Vec<usize>, Vec<&[f32]>) = rows.filter(|(_, x)| finite(x)).unzip();
    let block = PackedRows::from_rows(&rows);
    let cell = Cell {
        ids,
        rows,
        block: &block,
        ball: None,
    };
    join(n, &[cell]).0
}

/// One partition of the fit's join: its members' global ids and
/// embeddings, in the row order of their packed block.
struct Cell<'a> {
    ids: Vec<usize>,
    rows: Vec<&'a [f32]>,
    block: &'a PackedRows,
    /// The partition's index ball; `None` for a partition that no centroid
    /// bounds, which is scanned by every other and prunes nothing.
    ball: Option<Ball<'a>>,
}

/// An index partition's centroid, its radius (the largest exact member
/// distance to it) and its index's admissibility margin.
#[derive(Clone, Copy)]
struct Ball<'a> {
    centroid: &'a [f32],
    radius: f32,
    margin: f32,
}

/// The partition join: each row's least distance to another member of
/// `cells`, written at its global id in a vector of `n` (`+∞` where no
/// cell holds the id), and how many ordered pairs of cells were pruned.
/// Tasks are whole cells — a cell without a centroid split into one row
/// range per worker, since no pair decision depends on its rows together —
/// fanned out over the rayon pool, each writing only its own rows. Every
/// row's value is the minimum of the same `euclidean` bits in any
/// schedule, so the result is the same at any thread count.
fn join(n: usize, cells: &[Cell<'_>]) -> (Vec<f32>, u64) {
    let mut ball_rows = vec![None; cells.len()];
    let mut centres = Vec::new();
    for (c, ball) in cells
        .iter()
        .enumerate()
        .filter_map(|(c, cell)| Some((c, cell.ball?)))
    {
        ball_rows[c] = Some(centres.len());
        centres.push(ball.centroid);
    }
    let join = Join {
        cells,
        centroids: PackedRows::from_rows(&centres),
        ball_rows,
    };
    let workers = rayon::current_num_threads().max(1);
    let tasks: Vec<(usize, Range<usize>)> = (cells.iter().enumerate())
        .flat_map(|(c, cell)| {
            let len = cell.rows.len();
            let parts = if cell.ball.is_some() {
                1
            } else {
                workers.min(len).max(1)
            };
            (0..parts).map(move |i| (c, i * len / parts..(i + 1) * len / parts))
        })
        .collect();
    let done: Vec<(Vec<f32>, u64)> = (tasks.par_iter())
        .map(|(c, rows)| join.nearest(*c, rows.clone()))
        .collect();
    let mut nearest = vec![f32::INFINITY; n];
    let mut pruned = 0;
    for ((c, rows), (best, p)) in tasks.into_iter().zip(done) {
        pruned += p;
        for (&id, d) in cells[c].ids[rows].iter().zip(best) {
            if let Some(slot) = nearest.get_mut(id) {
                *slot = d;
            }
        }
    }
    (nearest, pruned)
}

/// The join's shared, read-only state.
struct Join<'a, 'c> {
    cells: &'c [Cell<'a>],
    /// Every ball's centroid, packed in cell order.
    centroids: PackedRows,
    /// Each cell's row in `centroids`.
    ball_rows: Vec<Option<usize>>,
}

impl Join<'_, '_> {
    /// The least distance from each of cell `c`'s `rows` to another
    /// member: over its own block with its own position excluded, then
    /// over every other cell's block the centroid bound cannot rule out
    /// for all of `c` at once — nearest-bounded first, so the rows' reach
    /// shrinks early. Returns the distances and the pruned pair count.
    fn nearest(&self, c: usize, rows: Range<usize>) -> (Vec<f32>, u64) {
        let cell = &self.cells[c];
        let mut best = vec![f32::INFINITY; rows.len()];
        let mut dists = Vec::new();
        for (b, j) in best.iter_mut().zip(rows.clone()) {
            cell.block.dists_into(cell.rows[j], &mut dists);
            if let Some(own) = dists.get_mut(j) {
                *own = f32::INFINITY;
            }
            *b = least(*b, &dists);
        }
        let others = (0..self.cells.len()).filter(|&q| q != c);
        let Some(ball) = cell.ball else {
            for q in others {
                self.scan(q, &cell.rows[rows.clone()], &mut best, &mut dists);
            }
            return (best, 0);
        };
        // Each other cell's exact centroid distance and ball, and its lower
        // bound on any member-to-member distance, `d(c_P, c_Q) − r_P − r_Q`
        // (−∞ without a centroid): scanned in that order, the near rows
        // come first.
        let mut centre = Vec::new();
        self.centroids.dists_into(ball.centroid, &mut centre);
        let mut order: Vec<_> = others
            .map(|q| {
                let other = self.cells[q].ball.zip(self.ball_rows[q]);
                let other = other.map(|(other, r)| (centre[r], other));
                let lower = other.map_or(f32::NEG_INFINITY, |(d, o)| d - ball.radius - o.radius);
                (lower, q, other)
            })
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let dim = ball.centroid.len();
        let mut reach = best.iter().fold(0.0f32, |m, &d| m.max(d));
        let mut pruned = 0;
        for (lower, q, other) in order {
            if let Some((d, other)) = other {
                let margin = ball.margin.max(other.margin);
                let magnitude = d + ball.radius + other.radius + reach;
                if lower > reach + margin + slack(dim, magnitude) {
                    pruned += 1;
                    continue;
                }
            }
            self.scan(q, &cell.rows[rows.clone()], &mut best, &mut dists);
            reach = best.iter().fold(0.0f32, |m, &d| m.max(d));
        }
        (best, pruned)
    }

    /// Folds cell `q`'s block into `best`, the least distances of `rows`.
    fn scan(&self, q: usize, rows: &[&[f32]], best: &mut [f32], dists: &mut Vec<f32>) {
        let block = self.cells[q].block;
        for (b, x) in best.iter_mut().zip(rows) {
            block.dists_into(x, dists);
            *b = least(*b, dists);
        }
    }
}

/// DML configuration of an *online* encoder update: identical to Stage-2
/// training but with the epoch count capped — a drifted dataset must not
/// trigger a full retraining-sized pass.
pub(crate) fn online_update_config(dml: &DmlConfig) -> DmlConfig {
    let mut cfg = dml.clone();
    cfg.epochs = cfg.epochs.min(5);
    cfg
}

/// Runs the full online-adapting loop on one dataset: if drifted, labels it
/// online, extends the RCS, and incrementally updates the encoder. Returns
/// `true` if an adaptation happened.
///
/// This path retrains on the **full** RCS per drifted dataset — O(RCS) per
/// adaptation. [`AutoCe::adapt_with_reservoir`] runs the same body over a
/// [`Reservoir`] sample; prefer it once the RCS grows beyond a few hundred
/// entries.
pub fn adapt_online(
    advisor: &mut AutoCe,
    detector: &DriftDetector,
    ds: &Dataset,
    testbed: &TestbedConfig,
    seed: u64,
) -> bool {
    if !detector.is_drifted(advisor, ds) {
        return false;
    }
    // Step 2: online learning for ground truth.
    let label = label_dataset(ds, testbed, seed);
    let graph = extract_features(ds, &advisor.config.feature);
    // Step 3: the model update over the extended RCS.
    advisor.adapt(graph, &label, None, seed);
    true
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::advisor::{AutoCeConfig, RcsEntry};
    use crate::backend::{AdvisorBackend, BatchPredictRequest};
    use crate::index::IndexConfig;
    use ce_datagen::{generate_batch, generate_dataset, DatasetSpec, SpecRange};
    use ce_features::FeatureGraph;
    use ce_gnn::DmlConfig;
    use ce_models::ModelKind;
    use ce_obs::MetricsRegistry;
    use ce_testbed::label_datasets;
    use ce_workload::WorkloadSpec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pairwise oracle: per row, one `euclidean` call per other row,
    /// the minimum over roots.
    fn oracle_rows(embeddings: &[&[f32]]) -> Vec<f32> {
        (0..embeddings.len())
            .map(|i| {
                (embeddings.iter().enumerate())
                    .filter(|(j, _)| *j != i)
                    .map(|(_, o)| ce_nn::matrix::euclidean(embeddings[i], o))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect()
    }

    /// The oracle's threshold: the percentile rank over a full sort of the
    /// finite [`oracle_rows`].
    fn oracle_threshold(embeddings: &[&[f32]]) -> f32 {
        let mut dists = oracle_rows(embeddings);
        dists.retain(|d| d.is_finite());
        if dists.is_empty() {
            return f32::MAX;
        }
        dists.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let last = dists.len() - 1;
        let rank = ((DriftDetector::PERCENTILE / 100.0) * last as f64).round() as usize;
        dists[rank.min(last)]
    }

    fn bits(rows: &[f32]) -> Vec<u32> {
        rows.iter().map(|d| d.to_bits()).collect()
    }

    /// `op` on a pool of `threads` workers.
    fn on_threads<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(op)
    }

    proptest! {
        /// The unindexed fit — one partition without a centroid over the
        /// finite rows — has the pairwise oracle's bits row by row, and its
        /// threshold the oracle's sorted rank, at 1 and 3 threads.
        #[test]
        fn packed_fit_matches_the_pairwise_oracle(
            seed in 0u64..1_000_000,
            n in 0usize..200,
            dim in 0usize..34,
            // Coarse grids make duplicate rows and tied minima common.
            grid in 1usize..50,
            nan_rows in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(0..grid) as f32 * 0.125 - 1.0).collect())
                .collect();
            if n > 0 && dim > 0 {
                for _ in 0..nan_rows {
                    rows[rng.gen_range(0..n)][rng.gen_range(0..dim)] = f32::NAN;
                }
            }
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let want = bits(&oracle_rows(&refs));
            for threads in [1, 3] {
                let got = on_threads(threads, || unindexed(n, refs.iter().copied().enumerate()));
                prop_assert_eq!(bits(&got), want.clone(), "{} threads", threads);
                let got = on_threads(threads, || DriftDetector::from_embeddings(&refs).threshold());
                prop_assert_eq!(got.to_bits(), oracle_threshold(&refs).to_bits(), "{} threads", threads);
            }
        }
    }

    /// `n` rows around `blobs` centres on a 0.5-step grid, each offset by
    /// a few 0.125 steps: clustered, with duplicate rows and tied distances.
    fn clustered(rng: &mut StdRng, n: usize, dim: usize, blobs: usize) -> Vec<Vec<f32>> {
        let centres: Vec<Vec<f32>> = (0..blobs)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.gen_range(-8..=8) as f32 * 0.5)
                    .collect()
            })
            .collect();
        (0..n)
            .map(|_| {
                let c = &centres[rng.gen_range(0..blobs)];
                c.iter()
                    .map(|v| v + rng.gen_range(-2..=2) as f32 * 0.125)
                    .collect()
            })
            .collect()
    }

    /// `rows` (global ids `0..n`) dealt at random into `parts` partitions,
    /// ids ascending within each, each indexed under `cfg` (where it
    /// reaches the cutover) at the generation `generation(shard)` names.
    fn deal(
        rng: &mut StdRng,
        rows: &[Vec<f32>],
        parts: usize,
        cfg: Option<&IndexConfig>,
        registry: &MetricsRegistry,
        generation: impl Fn(usize) -> u64,
    ) -> Vec<AdvisorShard> {
        let mut split: Vec<(Vec<usize>, Vec<RcsEntry>)> = vec![(Vec::new(), Vec::new()); parts];
        for (id, row) in rows.iter().enumerate() {
            let (ids, entries) = &mut split[rng.gen_range(0..parts)];
            ids.push(id);
            entries.push(RcsEntry {
                name: format!("r{id}"),
                graph: FeatureGraph {
                    vertices: vec![vec![0.0]],
                    edges: vec![vec![0.0]],
                },
                embedding: row.clone(),
                kinds: vec![ModelKind::Postgres],
                sa: vec![1.0],
                se: vec![1.0],
            });
        }
        (split.into_iter().enumerate())
            .map(|(s, (ids, entries))| {
                let mut shard = AdvisorShard::new(ids, entries);
                shard.rebuild_index(cfg, registry, generation(s));
                shard
            })
            .collect()
    }

    /// `[indexed, fallback, bypass]` index queries so far.
    fn outcomes(registry: &MetricsRegistry) -> [u64; 3] {
        let snap = registry.snapshot();
        ["indexed", "fallback", "bypass"]
            .map(|o| snap.counter("ce_index_queries_total", &[("outcome", o)]))
    }

    /// `[scanned, pruned]` partition pairs of the fits so far.
    fn pairs(registry: &MetricsRegistry) -> [u64; 2] {
        let snap = registry.snapshot();
        ["scanned", "pruned"].map(|o| snap.counter("ce_index_fit_pairs_total", &[("outcome", o)]))
    }

    /// The fit's generation; a stale shard's index is stamped one before.
    const LIVE: u64 = 3;

    proptest! {
        /// The partition join has the pairwise oracle's bits row by row,
        /// and its threshold the oracle's: clustered RCSs dealt over 1, 2 or
        /// 4 shards (some of them empty at small sizes), indexed on every
        /// shard, on all but one (whose tag is stale) or on none; up to 24
        /// k-means partitions at a cutover of 2, so singleton and empty
        /// partitions are common; rows duplicated across shards; with a
        /// margin that prunes no pair, and with a NaN row of either sign
        /// (fitted over the finite rows); at 1 and 3 threads. No fit asks
        /// an index a query.
        #[test]
        fn indexed_fit_matches_the_pairwise_oracle(
            seed in 0u64..1_000_000,
            n in 0usize..320,
            dim in 0usize..4,
            blobs in 1usize..12,
            shards in 0usize..3,
            live in 0usize..3,
            partitions in 1usize..24,
            wide in 0usize..4,
            dups in 0usize..6,
            nan in 0usize..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = [1, 3, 8, 32][dim];
            let mut rows = clustered(&mut rng, n, dim, blobs);
            for _ in 0..dups.min(n / 2) {
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                rows[to] = rows[from].clone();
            }
            // Either sign: a negative NaN distance ranks first under
            // `total_cmp`, so only leaving the row out keeps the bits.
            let (nan, sign) = (nan < 2 && n > 0, nan % 2);
            if nan {
                rows[rng.gen_range(0..n)][rng.gen_range(0..dim)] = [f32::NAN, -f32::NAN][sign];
            }
            let wide = wide == 0;
            let cfg = IndexConfig {
                partitions,
                probe: 1,
                margin: if wide { 1e30 } else { 0.0 },
                min_rcs_for_index: 2,
                ..IndexConfig::default()
            };
            let registry = MetricsRegistry::new();
            // k-means cannot partition a NaN row: such an RCS has no index.
            let index = Some(&cfg).filter(|_| !nan && live < 2);
            let stale = |s: usize| if live == 1 && s == 0 { LIVE - 1 } else { LIVE };
            let shards = deal(&mut rng, &rows, [1, 2, 4][shards], index, &registry, stale);
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let want = bits(&oracle_rows(&refs));
            let threshold = oracle_threshold(&refs).to_bits();
            let queries = outcomes(&registry);
            for threads in [1, 3] {
                let got = on_threads(threads, || nearest_per_row(&shards, LIVE, &registry));
                prop_assert_eq!(bits(&got), want.clone(), "{} threads", threads);
                let got = on_threads(threads, || DriftDetector::from_partitions(&shards, LIVE));
                prop_assert_eq!(got.threshold().to_bits(), threshold, "{} threads", threads);
            }
            prop_assert_eq!(outcomes(&registry), queries, "the fit asks no index a query");
            let [scanned, pruned] = pairs(&registry);
            let indexed = (shards.iter()).any(|s| {
                s.view(LIVE).index.is_some_and(|ix| ix.tag_matches(LIVE, s.len()))
            });
            if !indexed {
                prop_assert_eq!(scanned + pruned, 0, "no live index, no pairs counted");
            }
            if wide {
                prop_assert_eq!(pruned, 0, "a huge margin prunes nothing");
            }
        }
    }

    proptest! {
        /// The join is exact at every float scale: blob-clustered rows off
        /// any grid, scaled by `2^-shift` from 1 down to `2^-80` — through
        /// the band where squared coordinate differences are subnormal, and
        /// past it, where they are zero — and dealt over two indexed shards,
        /// have the pairwise oracle's bits row by row.
        #[test]
        fn indexed_fit_matches_the_pairwise_oracle_at_every_float_scale(
            seed in 0u64..1_000_000,
            dim in 0usize..4,
            blobs in 2usize..12,
            partitions in 2usize..16,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = [1, 3, 8, 32][dim];
            let centres: Vec<Vec<f32>> = (0..blobs)
                .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect())
                .collect();
            let base: Vec<Vec<f32>> = (0..160)
                .map(|i| centres[i % blobs].iter().map(|v| v + (rng.gen::<f32>() - 0.5) * 0.2).collect())
                .collect();
            let cfg = IndexConfig {
                partitions,
                probe: 1,
                min_rcs_for_index: 2,
                ..IndexConfig::default()
            };
            let registry = MetricsRegistry::disabled();
            for shift in (0..=80).step_by(4) {
                let scale = 2f32.powi(-shift);
                let rows: Vec<Vec<f32>> =
                    base.iter().map(|r| r.iter().map(|v| v * scale).collect()).collect();
                let mut deal_rng = StdRng::seed_from_u64(seed);
                let shards = deal(&mut deal_rng, &rows, 2, Some(&cfg), &registry, |_| LIVE);
                let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
                let got = nearest_per_row(&shards, LIVE, &registry);
                prop_assert_eq!(bits(&got), bits(&oracle_rows(&refs)), "scale 2^-{}", shift);
            }
        }
    }

    /// The fit over a realistic shape — 1200 clustered rows in two indexed
    /// shards of 24 partitions, 32 dimensions — has the oracle's bits row
    /// by row, asks no index a query, and is served by the index's
    /// partitions: every ordered pair of them is counted once, and the
    /// centroid bound prunes most.
    #[test]
    fn indexed_fit_is_served_by_the_index() {
        let mut rng = StdRng::seed_from_u64(0xf17);
        let rows = clustered(&mut rng, 1200, 32, 40);
        let cfg = IndexConfig {
            partitions: 24,
            probe: 4,
            ..IndexConfig::default()
        };
        let registry = MetricsRegistry::new();
        let shards = deal(&mut rng, &rows, 2, Some(&cfg), &registry, |_| LIVE);
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let got = nearest_per_row(&shards, LIVE, &registry);
        assert_eq!(bits(&got), bits(&oracle_rows(&refs)));
        assert_eq!(outcomes(&registry), [0; 3], "the fit asks no index a query");
        let cells: u64 = (shards.iter())
            .map(|s| {
                let index = s.view(LIVE).index.expect("both shards indexed");
                index.partitions().filter(|p| !p.members.is_empty()).count() as u64
            })
            .sum();
        let [scanned, pruned] = pairs(&registry);
        println!(
            "indexed fit: 1200 rows, {cells} partitions → pairs scanned {scanned}, pruned {pruned}"
        );
        assert_eq!(
            scanned + pruned,
            cells * (cells - 1),
            "one count per ordered pair"
        );
        assert!(pruned > scanned, "the bound rules out most pairs");
        let threshold = DriftDetector::from_partitions(&shards, LIVE).threshold();
        assert_eq!(threshold.to_bits(), oracle_threshold(&refs).to_bits());
    }

    fn testbed() -> TestbedConfig {
        TestbedConfig {
            models: vec![ModelKind::Postgres, ModelKind::LwXgb],
            train_queries: 50,
            test_queries: 25,
            workload: WorkloadSpec::default(),
        }
    }

    fn trained_advisor(seed: u64) -> AutoCe {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = DatasetSpec::small().single_table();
        // A reasonably dense RCS: with too few reference points the 90th
        // percentile nearest-neighbor threshold is noise-dominated and the
        // in-distribution check becomes a coin flip.
        let datasets = generate_batch("o", 24, &spec, &mut rng);
        let mut labels = label_datasets(&datasets, &testbed(), 3, 0);
        // Pin latencies to fixed per-model values: real testbed latencies
        // are wall-clock measurements, so leaving them in makes the
        // trained embedding space (and therefore every drift-threshold
        // assertion below) vary run to run. Q-errors stay measured — they
        // are deterministic.
        for label in &mut labels {
            for (m, p) in label.performances.iter_mut().enumerate() {
                p.latency_mean_us = 100.0 * (m + 1) as f64;
            }
        }
        AutoCe::train(
            &datasets,
            &labels,
            AutoCeConfig {
                dml: DmlConfig {
                    epochs: 6,
                    hidden: vec![16],
                    embed_dim: 8,
                    ..DmlConfig::default()
                },
                incremental: None,
                ..AutoCeConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn in_distribution_dataset_is_not_drifted() {
        let advisor = trained_advisor(251);
        let detector = advisor.drift_detector();
        let mut rng = StdRng::seed_from_u64(252);
        // Same generator: most draws should be within the threshold.
        // Deterministic thanks to the pinned label latencies in
        // `trained_advisor` — with measured latencies this was a ~25%
        // cross-process flake.
        let spec = DatasetSpec::small().single_table();
        let fresh: Vec<_> = (0..6)
            .map(|i| generate_dataset(format!("f{i}"), &spec, &mut rng))
            .collect();
        let drifted = fresh
            .iter()
            .filter(|ds| detector.is_drifted(&advisor, ds))
            .count();
        assert!(drifted <= 2, "{drifted}/6 flagged as drifted");
    }

    #[test]
    fn out_of_distribution_dataset_is_flagged_and_adapted() {
        let mut advisor = trained_advisor(253);
        let detector = advisor.drift_detector();
        // A wildly different dataset: 5 tables instead of 1.
        let mut rng = StdRng::seed_from_u64(254);
        let mut spec = DatasetSpec::small().multi_table();
        spec.tables = SpecRange { lo: 5, hi: 5 };
        let odd = generate_dataset("odd", &spec, &mut rng);
        assert!(
            detector.is_drifted(&advisor, &odd),
            "multi-table should drift"
        );
        let before = advisor.len();
        let adapted = adapt_online(&mut advisor, &detector, &odd, &testbed(), 9);
        assert!(adapted);
        assert_eq!(advisor.len(), before + 1);
        // After adapting, the same dataset is close to the RCS.
        let d_after = advisor.drift_detector().distance_to_rcs(&advisor, &odd);
        assert!(d_after < 1e-3, "adapted dataset distance {d_after}");
    }

    #[test]
    fn detector_handles_tiny_rcs() {
        let advisor = trained_advisor(255);
        let detector = advisor.drift_detector();
        assert!(detector.threshold() > 0.0);
    }

    /// Encoder parameter bits, every embedding's bits, the generation and
    /// the answers to a tie-heavy batch (exclusions included), as bits.
    type AdvisorBits = (Vec<u32>, Vec<Vec<u32>>, u64, Vec<(ModelKind, Vec<u64>)>);

    fn advisor_bits(a: &AutoCe) -> AdvisorBits {
        use crate::fixtures::tie_heavy_queries;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let queries = tie_heavy_queries();
        let batch: Vec<BatchPredictRequest<'_>> = (queries.iter().enumerate())
            .map(|(i, x)| BatchPredictRequest {
                embedding: x,
                w: ce_testbed::MetricWeights::new(i as f64 / 24.0),
                exclude: [usize::MAX, 0, a.len() - 1][i % 3],
            })
            .collect();
        let answers = (a.predict_batch(&batch).expect("a selectable RCS"))
            .into_iter()
            .map(|(m, s)| (m, s.iter().map(|v| v.to_bits()).collect()))
            .collect();
        (
            bits(&a.encoder().flat_params()),
            (0..a.len()).map(|i| bits(&a.entry(i).embedding)).collect(),
            a.generation(),
            answers,
        )
    }

    /// Full-RCS adaptation and reservoir adaptation are one body: with a
    /// reservoir that holds the whole RCS, newcomer included, the reservoir
    /// path trains on the full path's id list, so at every shard count both
    /// leave the encoder bits, embeddings and answers of the one-shard
    /// full-RCS adaptation. The label is synthetic on purpose: a testbed
    /// label carries a wall-clock efficiency score.
    #[test]
    fn full_and_reservoir_adaptation_are_one_body() {
        use crate::fixtures::{synthetic_flat, synthetic_label};
        let base = synthetic_flat(11, 3);
        let graph = FeatureGraph {
            vertices: vec![vec![0.3, 0.9, -0.2, 0.4], vec![1.1, 0.0, 0.5, 0.25]],
            edges: vec![vec![0.0, 1.0], vec![1.0, 0.0]],
        };
        let label = synthetic_label(&base.entry(0).kinds);
        let seed = 0x0b5e;
        let mut want = base.clone();
        assert_eq!(want.adapt(graph.clone(), &label, None, seed), 12);
        let want = advisor_bits(&want);
        assert_ne!(
            want.0,
            advisor_bits(&base).0,
            "the update moved the encoder"
        );
        assert_eq!(want.2, 1, "one adaptation, one generation");
        for shards in 1..=4 {
            let mut full = AutoCe::from_advisor(&base, shards);
            assert_eq!(full.adapt(graph.clone(), &label, None, seed), 12);
            assert_eq!(advisor_bits(&full), want, "full RCS, {shards} shards");
            for capacity in [12, 64] {
                let mut sampled = AutoCe::from_advisor(&base, shards);
                let mut reservoir = Reservoir::over_initial(base.len(), capacity, 5);
                let trained =
                    sampled.adapt_with_reservoir(graph.clone(), &label, &mut reservoir, seed);
                assert_eq!(trained, 12);
                assert_eq!(
                    advisor_bits(&sampled),
                    want,
                    "reservoir of {capacity}, {shards} shards"
                );
            }
        }
    }
}
