//! Seeded inputs. Everything the program is shown — corpus, query pools,
//! drift candidates, the synthetic RCS — is generated here from `--seed`,
//! outside every timed region.
//!
//! Structure (table and vertex counts) cycles with the input's index
//! instead of being drawn, so two seeds give pools of the same shape and
//! differ only in their data: a run's numbers then describe the program,
//! not the luck of the draw.

use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_models::ModelKind;
use ce_storage::Dataset;
use ce_testbed::{DatasetLabel, MetricWeights, TestbedConfig};
use ce_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Models every dataset is labelled on.
pub const MODELS: [ModelKind; 3] = [ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
/// Datasets in the real advisor's corpus, and so entries in its RCS.
pub const CORPUS: usize = 96;
/// Tables per corpus and pool dataset.
pub const CORPUS_TABLES: (usize, usize) = (4, 10);
/// Datasets or graphs in the pools of the real-advisor workloads.
pub const POOL: usize = 256;
/// Entries of the synthetic RCS of `knn-read`.
pub const KNN_RCS: usize = 6000;
/// Prototype graphs the synthetic RCS and its query pool are noised from.
pub const KNN_PROTOTYPES: usize = 100;
/// Query graphs of `knn-read`.
pub const KNN_POOL: usize = 4096;
/// Neighbours voted over in `knn-read`.
pub const KNN_K: usize = 8;
/// Uniform noise added to every prototype feature.
const KNN_NOISE: f32 = 0.02;
/// Adaptations per `adapt-mix` window.
pub const DRIFT_STEPS: usize = 2;
/// Tables of the first drift candidate tried: far outside the corpus range.
const DRIFT_TABLES: usize = 24;

/// The metric weighting every request asks for.
pub fn weights() -> MetricWeights {
    MetricWeights::new(0.5)
}

/// The testbed the corpus is labelled on and `adapt` labels drift with.
pub fn testbed() -> TestbedConfig {
    TestbedConfig {
        models: MODELS.to_vec(),
        train_queries: 30,
        test_queries: 15,
        workload: WorkloadSpec::default(),
    }
}

fn spec_with_tables(tables: usize) -> DatasetSpec {
    DatasetSpec {
        tables: SpecRange {
            lo: tables,
            hi: tables,
        },
        ..DatasetSpec::small()
    }
}

/// `n` datasets whose table counts cycle through `lo..=hi`.
fn datasets(rng: &mut StdRng, prefix: &str, n: usize, (lo, hi): (usize, usize)) -> Vec<Dataset> {
    (0..n)
        .map(|i| {
            let spec = spec_with_tables(lo + i % (hi - lo + 1));
            generate_dataset(format!("{prefix}{i}"), &spec, rng)
        })
        .collect()
}

/// Replaces the two wall-clock fields of every label by fixed values, so
/// the trained advisor — and with it every answer and checksum — is a
/// function of the seed alone. The histogram estimator, first in `MODELS`
/// and on these small workloads the most accurate, is pinned slowest:
/// otherwise it would win every vote and the advisor would have no choice
/// to make.
pub fn pin_wall_clock_fields(labels: &mut [DatasetLabel]) {
    for label in labels {
        let models = label.performances.len();
        for (m, p) in label.performances.iter_mut().enumerate() {
            p.latency_mean_us = 100.0 * (models - m) as f64;
            p.train_time_ms = 0.0;
        }
    }
}

/// Inputs of the four workloads served by the real advisor.
pub struct RealInputs {
    pub corpus: Vec<Dataset>,
    /// Unseen datasets of the corpus spec (`dataset-cold` serves these).
    pub pool_datasets: Vec<Dataset>,
    /// Their feature graphs (the other three workloads serve these).
    pub pool_graphs: Vec<FeatureGraph>,
}

pub fn real_inputs(seed: u64) -> RealInputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = datasets(&mut rng, "c", CORPUS, CORPUS_TABLES);
    let pool_datasets = datasets(&mut rng, "p", POOL, CORPUS_TABLES);
    let cfg = FeatureConfig::default();
    let pool_graphs = pool_datasets
        .iter()
        .map(|d| extract_features(d, &cfg))
        .collect();
    RealInputs {
        corpus,
        pool_datasets,
        pool_graphs,
    }
}

/// The `attempt`-th candidate for drift step `step`. Whether a dataset lies
/// outside the RCS depends on the trained encoder, so candidates are tried
/// in this fixed order until one does; every fourth moves four tables
/// further out.
pub fn drift_candidate(seed: u64, step: usize, attempt: usize) -> Dataset {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0xd81f_7000 ^ ((step as u64) << 32) ^ attempt as u64);
    let tables = DRIFT_TABLES + 4 * step + 4 * (attempt / 4);
    generate_dataset(
        format!("drift{step}_{attempt}"),
        &spec_with_tables(tables),
        &mut rng,
    )
}

/// Seed of everything that gives the index of `knn-read` its shape: the
/// prototypes, the RCS entries noised from them and the encoder's weights.
/// It is fixed, not taken from `--seed`. K-means merges another pair of
/// prototypes into one wide partition for every RCS it is given; queries at
/// such a pair fall back to the flat scan, at six times the cost of an
/// indexed one, and with the RCS drawn per run 0 to 2 % of the queries did,
/// so a run measured the draw. Every query around these prototypes is
/// served from the index; `--seed` draws the queries.
pub const KNN_SHAPE_SEED: u64 = 1003;

/// Inputs of `knn-read`: graphs only, the RCS entries and the queries
/// drawn around the same prototypes.
pub struct KnnInputs {
    pub rcs_graphs: Vec<FeatureGraph>,
    pub pool_graphs: Vec<FeatureGraph>,
}

pub fn knn_inputs(seed: u64) -> KnnInputs {
    let mut shape = StdRng::seed_from_u64(KNN_SHAPE_SEED);
    let dim = FeatureConfig::default().vertex_dim();
    let prototypes: Vec<FeatureGraph> = (0..KNN_PROTOTYPES)
        .map(|i| {
            let n = 2 + i % 3;
            FeatureGraph {
                vertices: (0..n)
                    .map(|_| (0..dim).map(|_| shape.gen_range(-1.0f32..1.0)).collect())
                    .collect(),
                edges: (0..n)
                    .map(|a| {
                        (0..n)
                            .map(|b| {
                                if a != b && shape.gen_bool(0.5) {
                                    shape.gen_range(0.1f32..1.0)
                                } else {
                                    0.0
                                }
                            })
                            .collect()
                    })
                    .collect(),
            }
        })
        .collect();
    let noised = |rng: &mut StdRng, i: usize| {
        let mut g = prototypes[i % KNN_PROTOTYPES].clone();
        for x in g.vertices.iter_mut().flatten() {
            *x += rng.gen_range(-KNN_NOISE..KNN_NOISE);
        }
        g
    };
    let rcs_graphs = (0..KNN_RCS).map(|i| noised(&mut shape, i)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // A stride coprime to the prototype count spreads consecutive
    // queries over different clusters.
    let pool_graphs = (0..KNN_POOL).map(|i| noised(&mut rng, i * 7)).collect();
    KnnInputs {
        rcs_graphs,
        pool_graphs,
    }
}

/// Score components of synthetic RCS entry `i`: fixed small patterns, so
/// neighbouring entries disagree and the vote has work to do.
pub fn synthetic_scores(i: usize) -> (Vec<f64>, Vec<f64>) {
    (
        (0..MODELS.len())
            .map(|m| ((i + m) % 4) as f64 / 3.0)
            .collect(),
        (0..MODELS.len())
            .map(|m| ((i + 2 * m) % 3) as f64 / 2.0)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_queries_same_shape() {
        let (a, b, c) = (knn_inputs(3), knn_inputs(3), knn_inputs(4));
        assert_eq!(a.pool_graphs, b.pool_graphs);
        assert_ne!(a.pool_graphs, c.pool_graphs);
        assert_eq!(
            a.rcs_graphs, c.rcs_graphs,
            "the RCS is not drawn from --seed"
        );
        let shape = |k: &KnnInputs| -> Vec<usize> {
            k.pool_graphs.iter().map(|g| g.num_vertices()).collect()
        };
        assert_eq!(shape(&a), shape(&c));
    }

    #[test]
    fn dataset_table_counts_cycle_through_the_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = datasets(&mut rng, "t", 9, (4, 10));
        let tables: Vec<usize> = ds.iter().map(Dataset::num_tables).collect();
        assert_eq!(tables, vec![4, 5, 6, 7, 8, 9, 10, 4, 5]);
    }
}
