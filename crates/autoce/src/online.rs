//! Online adapting for unexpected data distributions (§V-E).
//!
//! Three steps: (1) **drift detection** — a dataset whose embedding's
//! nearest-RCS distance exceeds the 90th percentile of the RCS's own
//! nearest-neighbor distances is out-of-distribution; (2) **online
//! learning** — the drifted dataset is labeled by the testbed to obtain
//! ground truth; (3) **model update** — the new sample joins the RCS and
//! the encoder receives an incremental DML update.

use crate::advisor::AutoCe;
use ce_features::extract_features;
use ce_gnn::train::train_encoder_incremental;
use ce_gnn::DmlConfig;
use ce_nn::packed::PackedRows;
use ce_storage::Dataset;
use ce_testbed::{label_dataset, TestbedConfig};
use rayon::prelude::*;

/// Drift detector built over the advisor's RCS.
pub struct DriftDetector {
    threshold: f32,
}

impl DriftDetector {
    /// Percentile of within-RCS nearest-neighbor distances used as the
    /// drift threshold (the paper takes the 90th).
    pub const PERCENTILE: f64 = 90.0;

    /// Rows per task of the fit's fan-out.
    const FIT_CHUNK: usize = 64;

    /// Builds the detector from the current RCS.
    pub fn fit(advisor: &AutoCe) -> Self {
        Self::from_embeddings(
            &advisor
                .rcs()
                .iter()
                .map(|e| e.embedding.as_slice())
                .collect::<Vec<_>>(),
        )
    }

    /// Builds the detector from raw embeddings in RCS order (shared by the
    /// flat [`Self::fit`] and the sharded serving layer, which hands in its
    /// entries concatenated in global-index order so both produce the same
    /// threshold).
    ///
    /// The O(n²) nearest-neighbor scan packs the embeddings once (a
    /// transient [`PackedRows`]) and takes one kernel pass per row. A row's
    /// minimum is taken over the *squared* sums and rooted once: `sqrt` is
    /// monotone and correctly rounded, so that is the smallest root bit for
    /// bit, and `f32::min` skips a NaN either way. Rows fan out over the
    /// rayon pool in chunks of 64, each task on its own scratch, and the
    /// per-row minima are collected **in row order** before the percentile
    /// rank — the threshold is bit-identical at any thread count, and to
    /// the pairwise `euclidean` loop this replaced (kept as the test
    /// oracle).
    pub fn from_embeddings(embeddings: &[&[f32]]) -> Self {
        let packed = PackedRows::from_rows(embeddings);
        let chunks: Vec<usize> = (0..embeddings.len()).step_by(Self::FIT_CHUNK).collect();
        let minima: Vec<Vec<f32>> = chunks
            .par_iter()
            .map(|&start| {
                let mut sq = Vec::new();
                (start..embeddings.len().min(start + Self::FIT_CHUNK))
                    .map(|i| {
                        packed.sq_dists_into(embeddings[i], &mut sq);
                        sq[..i]
                            .iter()
                            .chain(&sq[i + 1..])
                            .copied()
                            .fold(f32::INFINITY, f32::min)
                            .sqrt()
                    })
                    .collect()
            })
            .collect();
        Self::from_nn_dists(minima.into_iter().flatten().collect())
    }

    /// The pairwise loop [`Self::from_embeddings`] replaced, kept as its
    /// oracle: one `euclidean` call per ordered pair, the minimum over roots.
    #[cfg(test)]
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
/// trigger a full retraining-sized pass. The flat [`adapt_online`] and the
/// sharded serving layer's reservoir-bounded adaptation share this so both
/// paths train under the same rules.
pub fn online_update_config(dml: &DmlConfig) -> DmlConfig {
    let mut cfg = dml.clone();
    cfg.epochs = cfg.epochs.min(5);
    cfg
}

/// Runs the full online-adapting loop on one dataset: if drifted, labels it
/// online, extends the RCS, and incrementally updates the encoder. Returns
/// `true` if an adaptation happened.
///
/// This flat path retrains on the **full** RCS per drifted dataset — O(RCS)
/// per adaptation. The serving layer (`ce-serve`) bounds that with
/// reservoir sampling; prefer it once the RCS grows beyond a few hundred
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
    advisor.push_rcs_entry(graph, &label);

    // Step 3: incremental DML update over the extended RCS (graphs
    // borrowed in place).
    let cfg = online_update_config(&advisor.config.dml);
    let (encoder, rcs) = advisor.encoder_and_rcs();
    let graphs: Vec<_> = rcs.iter().map(|e| &e.graph).collect();
    let labels: Vec<_> = rcs.iter().map(|e| e.dml_label()).collect();
    train_encoder_incremental(encoder, &graphs, &labels, &cfg, seed ^ 0x0ada);
    advisor.refresh_embeddings();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::AutoCeConfig;
    use ce_datagen::{generate_batch, generate_dataset, DatasetSpec, SpecRange};
    use ce_gnn::DmlConfig;
    use ce_models::ModelKind;
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
        let detector = DriftDetector::fit(&advisor);
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
        let detector = DriftDetector::fit(&advisor);
        // A wildly different dataset: 5 tables instead of 1.
        let mut rng = StdRng::seed_from_u64(254);
        let mut spec = DatasetSpec::small().multi_table();
        spec.tables = SpecRange { lo: 5, hi: 5 };
        let odd = generate_dataset("odd", &spec, &mut rng);
        assert!(
            detector.is_drifted(&advisor, &odd),
            "multi-table should drift"
        );
        let before = advisor.rcs().len();
        let adapted = adapt_online(&mut advisor, &detector, &odd, &testbed(), 9);
        assert!(adapted);
        assert_eq!(advisor.rcs().len(), before + 1);
        // After adapting, the same dataset is close to the RCS.
        let d_after = DriftDetector::fit(&advisor).distance_to_rcs(&advisor, &odd);
        assert!(d_after < 1e-3, "adapted dataset distance {d_after}");
    }

    #[test]
    fn detector_handles_tiny_rcs() {
        let advisor = trained_advisor(255);
        let detector = DriftDetector::fit(&advisor);
        assert!(detector.threshold() > 0.0);
    }
}
