//! Online adapting for unexpected data distributions (§V-E).
//!
//! Three steps: (1) **drift detection** — a dataset whose embedding's
//! nearest-RCS distance exceeds the 90th percentile of the RCS's own
//! nearest-neighbor distances is out-of-distribution; (2) **online
//! learning** — the drifted dataset is labeled by the testbed to obtain
//! ground truth; (3) **model update** — the new sample joins the RCS and
//! the encoder receives an incremental DML update.
//!
//! Both distances of step 1 come from the Stage-4 scan the advisor serves
//! with ([`knn::nearest_distance`]: [`knn::partial_topk`] at `k = 1` over
//! the backend's own partitions, index first). A dataset's distance is one
//! such query; the detector's fit is one per RCS row, excluding the row
//! itself, so with an index installed the fit is sub-quadratic.
//!
//! Step 3 has one body ([`AutoCe::adapt_with_reservoir`]'s): push the
//! newcomer, train on an ascending list of global ids, bump the generation,
//! refresh. [`adapt_online`] trains on every id; a [`Reservoir`] bounds the
//! list to a fixed-size uniform sample of the RCS plus the newcomer, which
//! is what the serving layer adapts with.

use crate::advisor::AutoCe;
use crate::knn::{self, finite, Partition, Scratch};
use crate::shard::AdvisorShard;
use ce_features::extract_features;
use ce_gnn::DmlConfig;
use ce_nn::packed::PackedRows;
use ce_storage::Dataset;
use ce_testbed::{label_dataset, TestbedConfig};
use rayon::prelude::*;

pub use crate::reservoir::Reservoir;

/// Drift detector built over the advisor's RCS.
///
/// Its threshold is the [`Self::PERCENTILE`] rank of every RCS row's
/// distance to its nearest *other* row, each the bits of the smallest
/// `euclidean` over the other rows. A row holding a NaN or ±∞ neither gets
/// nor gives a distance: such an RCS is fitted over its finite rows, in one
/// temporary unindexed partition.
pub struct DriftDetector {
    threshold: f32,
}

impl DriftDetector {
    /// Percentile of within-RCS nearest-neighbor distances used as the
    /// drift threshold (the paper takes the 90th).
    pub const PERCENTILE: f64 = 90.0;

    /// Rows per task of the fit's fan-out.
    const FIT_CHUNK: usize = 64;

    /// Builds the detector over an RCS held as `partitions` (global ids
    /// `0..n` between them) under the owner's live `generation` — what
    /// [`AutoCe`]'s [`drift_detector`](crate::AdvisorBackend::drift_detector)
    /// fits, so every shard count produces the same threshold. Each row's
    /// nearest other member comes from [`knn::nearest_distance`] over the
    /// partitions as they serve — a partition's index when its tag is live,
    /// widening wherever the bound declines, its flat scan otherwise.
    pub fn from_partitions(partitions: &[AdvisorShard], generation: u64) -> Self {
        let mut rows: Vec<(usize, &[f32])> = (partitions.iter())
            .flat_map(|p| p.ids().iter().copied().zip(p.entries()))
            .map(|(id, e)| (id, e.embedding.as_slice()))
            .collect();
        rows.sort_unstable_by_key(|&(id, _)| id);
        if !rows.iter().all(|(_, x)| finite(x)) {
            return Self::unindexed(&rows);
        }
        let views: Vec<Partition<'_, usize>> =
            partitions.iter().map(|p| p.view(generation)).collect();
        Self::nearest_per_row(&rows, &views)
    }

    /// Builds the detector from raw embeddings in RCS order, over one
    /// temporary unindexed partition: each row's distance is the flat
    /// scan's.
    pub fn from_embeddings(embeddings: &[&[f32]]) -> Self {
        let rows: Vec<(usize, &[f32])> = embeddings.iter().copied().enumerate().collect();
        Self::unindexed(&rows)
    }

    /// The fit over one temporary unindexed partition of the finite
    /// `rows`; the others take no part.
    fn unindexed(rows: &[(usize, &[f32])]) -> Self {
        let rows: Vec<(usize, &[f32])> = rows.iter().copied().filter(|(_, x)| finite(x)).collect();
        let ids: Vec<usize> = rows.iter().map(|&(id, _)| id).collect();
        let embeddings: Vec<&[f32]> = rows.iter().map(|&(_, x)| x).collect();
        let packed = PackedRows::from_rows(&embeddings);
        let view = Partition {
            ids: &ids,
            packed: &packed,
            index: None,
            generation: 0,
        };
        Self::nearest_per_row(&rows, &[view])
    }

    /// The fit proper: every `(id, embedding)` row's
    /// [`knn::nearest_distance`] over `partitions`, excluding the row
    /// itself, then the percentile rank. Rows fan out over the rayon pool
    /// in chunks of 64, each task on its own buffers, and the distances are
    /// collected **in row order** — the threshold is bit-identical at any
    /// thread count, and to the pairwise `euclidean` loop kept as the test
    /// oracle: over finite rows every distance is `euclidean`'s bits and
    /// the index answers only what the flat scan would.
    fn nearest_per_row(rows: &[(usize, &[f32])], partitions: &[Partition<'_, usize>]) -> Self {
        let chunks: Vec<&[(usize, &[f32])]> = rows.chunks(Self::FIT_CHUNK).collect();
        let nearest: Vec<Vec<f32>> = chunks
            .par_iter()
            .map(|chunk| {
                let (mut scratch, mut cands) = (Scratch::default(), Vec::new());
                (chunk.iter())
                    .map(|&(id, x)| {
                        knn::nearest_distance(partitions, x, id, &mut scratch, &mut cands)
                    })
                    .collect()
            })
            .collect();
        Self::from_nn_dists(nearest.into_iter().flatten().collect())
    }

    /// The percentile rank over each row's nearest-neighbor distance.
    fn from_nn_dists(mut nn_dists: Vec<f32>) -> Self {
        nn_dists.retain(|d| d.is_finite());
        if nn_dists.is_empty() {
            return DriftDetector {
                threshold: f32::MAX,
            };
        }
        nn_dists.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let rank = ((Self::PERCENTILE / 100.0) * (nn_dists.len() - 1) as f64).round() as usize;
        DriftDetector {
            threshold: nn_dists[rank.min(nn_dists.len() - 1)],
        }
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
impl DriftDetector {
    /// The pairwise loop the fit replaced, kept as its oracle: one
    /// `euclidean` call per ordered pair, the minimum over roots.
    fn from_embeddings_oracle(embeddings: &[&[f32]]) -> Self {
        Self::from_nn_dists(
            (0..embeddings.len())
                .map(|i| {
                    embeddings
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, o)| ce_nn::matrix::euclidean(embeddings[i], o))
                        .fold(f32::INFINITY, f32::min)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
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

    proptest! {
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
            for threads in [1, 3] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let got = pool.install(|| DriftDetector::from_embeddings(&refs).threshold());
                let want = DriftDetector::from_embeddings_oracle(&refs).threshold();
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} threads", threads);
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
    /// ids ascending within each, every one indexed under `cfg` where it
    /// reaches the cutover.
    fn deal(
        rng: &mut StdRng,
        rows: &[Vec<f32>],
        parts: usize,
        cfg: Option<&IndexConfig>,
        registry: &MetricsRegistry,
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
        (split.into_iter())
            .map(|(ids, entries)| {
                let mut shard = AdvisorShard::new(ids, entries);
                shard.rebuild_index(cfg, registry, 3);
                shard
            })
            .collect()
    }

    /// `[indexed, fallback, bypass]` so far.
    fn outcomes(registry: &MetricsRegistry) -> [u64; 3] {
        let snap = registry.snapshot();
        ["indexed", "fallback", "bypass"]
            .map(|o| snap.counter("ce_index_queries_total", &[("outcome", o)]))
    }

    proptest! {
        /// The fit through the serving partitions — each row's nearest
        /// other member from its partitions' indexes, widening where the
        /// bound declines, or their flat scans — has the pairwise oracle's
        /// bits: clustered RCSs past the default cutover, dealt over 1, 2
        /// or 4 indexed partitions, at 1 and 3 threads; with a margin that
        /// widens every query to every partition, and with a NaN row
        /// (fitted unindexed over the finite rows).
        #[test]
        fn indexed_fit_matches_the_pairwise_oracle(
            seed in 0u64..1_000_000,
            n in 256usize..400,
            dim in 0usize..4,
            blobs in 1usize..12,
            parts in 0usize..3,
            probe in 1usize..4,
            wide in 0usize..4,
            nan in 0usize..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = [1, 3, 8, 32][dim];
            let mut rows = clustered(&mut rng, n, dim, blobs);
            // Either sign: a negative NaN distance ranks first under
            // `knn_order`, so only leaving the row out keeps the bits.
            let (nan, sign) = (nan < 2, nan % 2);
            if nan {
                rows[rng.gen_range(0..n)][rng.gen_range(0..dim)] = [f32::NAN, -f32::NAN][sign];
            }
            let wide = wide == 0;
            let cfg = IndexConfig {
                partitions: 8,
                probe,
                margin: if wide { 1e30 } else { 0.0 },
                min_rcs_for_index: 48,
                ..IndexConfig::default()
            };
            let registry = MetricsRegistry::new();
            // k-means cannot partition a NaN row: such an RCS has no index.
            let index = Some(&cfg).filter(|_| !nan);
            let shards = deal(&mut rng, &rows, [1, 2, 4][parts], index, &registry);
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let want = DriftDetector::from_embeddings_oracle(&refs).threshold();
            for threads in [1, 3] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let got = pool.install(|| DriftDetector::from_partitions(&shards, 3).threshold());
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} threads", threads);
            }
            let [indexed, fallback, bypass] = outcomes(&registry);
            prop_assert_eq!(bypass, 0);
            if wide && !nan {
                prop_assert_eq!(indexed, 0, "every query widens");
                prop_assert!(fallback > 0, "the largest partition is indexed");
            }
        }
    }

    /// The fit over a realistic shape — 1200 clustered rows in two indexed
    /// partitions of 32 dimensions — has the oracle's bits and is served by
    /// the indexes, nearly all of it from the first probe.
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
        let shards = deal(&mut rng, &rows, 2, Some(&cfg), &registry);
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let want = DriftDetector::from_embeddings_oracle(&refs).threshold();
        let got = DriftDetector::from_partitions(&shards, 3).threshold();
        assert_eq!(got.to_bits(), want.to_bits());
        let [indexed, fallback, bypass] = outcomes(&registry);
        println!("indexed fit: 1200 rows × 2 partitions → indexed {indexed}, widened {fallback}, bypass {bypass}");
        assert_eq!(
            indexed + fallback + bypass,
            2 * 1200,
            "one query per row and partition"
        );
        assert!(indexed > 9 * fallback, "the first probe answers most rows");
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
