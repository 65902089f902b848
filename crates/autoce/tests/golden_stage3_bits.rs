//! Golden bits of Stage 3 (Algorithm 2, `autoce::incremental`): the
//! cross-validated feedback split, the encoder incremental learning trains,
//! and one `AutoCe::train` with Stage 3 on.
//!
//! Every label is built by hand from quantized numbers ([`pinned_label`]),
//! so no wall clock enters; `label_datasets` would bring its measured
//! efficiency scores. The constants were captured on the commit *before*
//! the split went through `autoce::knn` (one `euclidean` per pair, a full
//! sort and a hand vote per row); every later split must reproduce them.
//!
//! `crates/bench/benches/micro.rs` includes this file by path and asserts
//! [`SPLIT_GOLDEN`] before it times `collect_feedback/{1e3,1e4}`.

use autoce::incremental::{collect_feedback, IncrementalConfig};
use autoce::RcsEntry;
use ce_features::FeatureGraph;
use ce_models::SELECTABLE_MODELS;
use ce_testbed::{DatasetLabel, ModelPerformance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over every split of [`split_checksum`], as computed by the
/// parent commit.
pub const SPLIT_GOLDEN: u64 = 0x6d06_aa2b_b286_d373;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Entry `i`'s label over the first `models` selectable kinds: small
/// integer q-errors and latencies, so its score vectors are exact and
/// often tie.
pub fn pinned_label(i: usize, models: usize) -> DatasetLabel {
    DatasetLabel {
        dataset: format!("pin{i}"),
        performances: (SELECTABLE_MODELS[..models].iter().enumerate())
            .map(|(m, &kind)| ModelPerformance {
                kind,
                qerror_mean: 1.0 + ((i * 7 + m * 3) % 5) as f64,
                qerror_p50: 1.0,
                qerror_p95: 2.0,
                qerror_p99: 3.0,
                latency_mean_us: 10.0 * (1 + (i * 5 + m * 2 + i / 3) % 4) as f64,
                train_time_ms: 0.0,
            })
            .collect(),
    }
}

/// `n` five-model entries with seeded `dim`-dimensional embeddings
/// (returned beside them, as the encoder would give them): uniform in
/// `[-1, 1)`, or on a 0.5-step grid where distance ties are the common
/// case. Each entry's graph is two seeded 4-feature vertices on a 0.25
/// grid.
pub fn seeded_rcs(n: usize, dim: usize, seed: u64, grid: bool) -> (Vec<Vec<f32>>, Vec<RcsEntry>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let coordinate = |rng: &mut StdRng| {
        if grid {
            rng.gen_range(0..5) as f32 * 0.5 - 1.0
        } else {
            rng.gen::<f32>() * 2.0 - 1.0
        }
    };
    let embeddings: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..dim).map(|_| coordinate(&mut rng)).collect())
        .collect();
    let entries = (0..n)
        .map(|i| {
            let graph = FeatureGraph {
                vertices: (0..2)
                    .map(|_| (0..4).map(|_| rng.gen_range(0..5) as f32 * 0.25).collect())
                    .collect(),
                edges: vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            };
            RcsEntry::from_label(graph, &pinned_label(i, 5), Vec::new())
        })
        .collect();
    (embeddings, entries)
}

/// Checksum of `collect_feedback` — feedback then reference ids — over
/// random and grid embeddings at sizes 2 to 300, folds from 1 (clamped to
/// 2) to more than `n`, `k` from 0 to more than `n`, at two validation
/// weights.
pub fn split_checksum() -> u64 {
    let mut h = FNV_OFFSET;
    let shapes = [
        (2, 3, false),
        (3, 3, true),
        (17, 4, true),
        (96, 8, false),
        (96, 3, true),
        (300, 32, false),
    ];
    for (case, &(n, dim, grid)) in shapes.iter().enumerate() {
        let (embeddings, entries) = seeded_rcs(n, dim, 0x5e3_0000 + case as u64, grid);
        for folds in [1, 2, 3, 5, 10, n + 3] {
            for k in [0, 1, 2, 7, n + 1] {
                for validation_weight in [0.9, 0.5] {
                    let il = IncrementalConfig {
                        folds,
                        validation_weight,
                        ..IncrementalConfig::default()
                    };
                    let split = collect_feedback(&embeddings, &entries, &il, k);
                    for ids in [&split.feedback, &split.reference] {
                        fnv1a(&mut h, &(ids.len() as u64).to_le_bytes());
                        for &id in ids {
                            fnv1a(&mut h, &(id as u64).to_le_bytes());
                        }
                    }
                }
            }
        }
    }
    h
}

#[test]
fn feedback_split_reproduces_parent_bits() {
    let got = split_checksum();
    assert_eq!(
        got, SPLIT_GOLDEN,
        "collect_feedback moved a bit: {got:#018x}"
    );
}

/// `run_incremental_learning` from one seeded encoder over 60 entries, with
/// and without augmentation: the synthesized count, then every trained
/// parameter.
#[test]
fn incremental_learning_reproduces_parent_bits() {
    /// As computed by the parent commit.
    const INCREMENTAL_GOLDEN: u64 = 0xbe3e_a4de_bd1f_6595;
    use autoce::incremental::run_incremental_learning;
    use autoce::AutoCeConfig;
    use ce_gnn::{DmlConfig, GinEncoder};

    let (_, entries) = seeded_rcs(60, 0, 0x5e3_1000, true);
    let config = AutoCeConfig {
        k: 3,
        dml: DmlConfig {
            hidden: vec![8],
            embed_dim: 4,
            ..DmlConfig::default()
        },
        ..AutoCeConfig::default()
    };
    let f32_bytes = |xs: &[f32]| {
        xs.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect::<Vec<_>>()
    };
    let mut h = FNV_OFFSET;
    let mut total = 0;
    for (folds, augment) in [(3, true), (5, false)] {
        let il = IncrementalConfig {
            folds,
            augment,
            d_error_threshold: 0.05,
            epochs: 2,
            ..IncrementalConfig::default()
        };
        let mut encoder = GinEncoder::new(4, &[8], 4, 0x5e3);
        let synthesized = run_incremental_learning(&mut encoder, &entries, &il, &config, 17);
        total += synthesized;
        fnv1a(&mut h, &(synthesized as u64).to_le_bytes());
        fnv1a(&mut h, &f32_bytes(&encoder.flat_params()));
    }
    assert!(total > 0, "Mixup ran");
    assert_eq!(
        h, INCREMENTAL_GOLDEN,
        "run_incremental_learning moved a bit: {h:#018x}"
    );
}

/// One `AutoCe::train` with Stage 3 on over twelve seeded datasets: every
/// RCS embedding, then the embeddings of two datasets it never saw (the
/// trained encoder's witness).
#[test]
fn autoce_train_with_stage_3_reproduces_parent_bits() {
    /// As computed by the parent commit.
    const TRAIN_GOLDEN: u64 = 0x26f0_bd43_5f74_94bc;
    use autoce::{AutoCe, AutoCeConfig};
    use ce_datagen::{generate_batch, DatasetSpec};
    use ce_gnn::DmlConfig;

    let mut rng = StdRng::seed_from_u64(0x5e3_2000);
    let datasets = generate_batch("g3", 12, &DatasetSpec::small(), &mut rng);
    let held_out = generate_batch("h3", 2, &DatasetSpec::small(), &mut rng);
    let labels: Vec<DatasetLabel> = (0..datasets.len()).map(|i| pinned_label(i, 3)).collect();
    let config = AutoCeConfig {
        k: 2,
        dml: DmlConfig {
            epochs: 4,
            batch_size: 12,
            hidden: vec![8],
            embed_dim: 4,
            ..DmlConfig::default()
        },
        incremental: Some(IncrementalConfig {
            folds: 3,
            d_error_threshold: 0.05,
            epochs: 2,
            ..IncrementalConfig::default()
        }),
        ..AutoCeConfig::default()
    };
    let advisor = AutoCe::train(&datasets, &labels, config, 23);
    let f32_bytes = |xs: &[f32]| {
        xs.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect::<Vec<_>>()
    };
    let mut h = FNV_OFFSET;
    for i in 0..advisor.len() {
        fnv1a(&mut h, &f32_bytes(&advisor.entry(i).embedding));
    }
    for ds in &held_out {
        fnv1a(&mut h, &f32_bytes(&advisor.embed(ds)));
    }
    assert_eq!(
        h, TRAIN_GOLDEN,
        "AutoCe::train with Stage 3 moved a bit: {h:#018x}"
    );
}
