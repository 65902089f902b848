//! Shard-invariance guarantees: `AutoCe::from_advisor` must reproduce the
//! one-shard advisor bit for bit — recommendations *and* score vectors — for every
//! shard count, including single-entry RCSs and empty shards, at any
//! rayon worker count.

mod common;

use autoce::{AdvisorBackend, AutoCe, AutoCeConfig, RcsEntry};
use ce_features::FeatureGraph;
use ce_gnn::{DmlConfig, GinEncoder};
use ce_models::ModelKind;
use ce_serve::{IndexConfig, MetricsRegistry};
use ce_testbed::MetricWeights;
use proptest::prelude::*;

/// Builds a flat advisor from synthetic parts. Embedding/score components
/// are quantized to 0.5 steps so exact distance and score ties are common
/// — the tie-breaking rules are load-bearing for shard merges, so the
/// property must exercise them constantly, not almost never.
fn synthetic_advisor(embq: &[Vec<i64>], saq: &[Vec<i64>], k: usize) -> AutoCe {
    let kinds = vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
    let entries: Vec<RcsEntry> = embq
        .iter()
        .zip(saq)
        .enumerate()
        .map(|(i, (e, s))| RcsEntry {
            name: format!("s{i}"),
            graph: FeatureGraph {
                vertices: vec![vec![i as f32, 0.5, -0.5, 1.0]],
                edges: vec![vec![0.0]],
            },
            embedding: e.iter().map(|&v| v as f32 / 2.0).collect(),
            kinds: kinds.clone(),
            sa: s.iter().map(|&v| v as f64 / 2.0).collect(),
            se: s.iter().rev().map(|&v| v as f64 / 2.0).collect(),
        })
        .collect();
    let config = AutoCeConfig {
        k,
        incremental: None,
        dml: DmlConfig {
            hidden: vec![8],
            embed_dim: 3,
            ..DmlConfig::default()
        },
        ..AutoCeConfig::default()
    };
    AutoCe::from_parts(config, GinEncoder::new(4, &[8], 3, 11), entries)
}

proptest! {
    /// For 1-4 shards (more shards than entries included), sharded KNN
    /// prediction — model, score vector, exclusion handling — equals the
    /// flat advisor exactly.
    #[test]
    fn sharded_prediction_is_bit_identical_to_flat(
        embq in prop::collection::vec(prop::collection::vec(-4i64..=4, 3), 1..10),
        saq_seed in prop::collection::vec(prop::collection::vec(0i64..=2, 3), 10),
        query in prop::collection::vec(-4i64..=4, 3),
        k in 1usize..5,
        wa10 in 0i64..=10,
        exsel in 0usize..16,
    ) {
        let n = embq.len();
        let saq: Vec<Vec<i64>> = (0..n).map(|i| saq_seed[i % saq_seed.len()].clone()).collect();
        let flat = synthetic_advisor(&embq, &saq, k);
        let x: Vec<f32> = query.iter().map(|&v| v as f32 / 2.0).collect();
        let w = MetricWeights::new(wa10 as f64 / 10.0);
        // Exclusion: a valid index some of the time, disabled otherwise
        // (never exclude the only entry — the flat path rejects that).
        let exclude = if exsel < n && n > 1 { exsel } else { usize::MAX };
        let expect = flat.predict_excluding(&x, w, exclude).expect("flat");
        for shards in 1..=4 {
            let sharded = AutoCe::from_advisor(&flat, shards);
            prop_assert_eq!(sharded.len(), n);
            let got = sharded.predict_excluding(&x, w, exclude).expect("sharded");
            prop_assert_eq!(&got.0, &expect.0, "model mismatch at {} shards", shards);
            prop_assert_eq!(&got.1, &expect.1, "score vector mismatch at {} shards", shards);
        }
    }
}

/// A trained advisor end to end: every shard count must recommend what the
/// one-shard advisor recommends (and the score vectors must match bitwise)
/// across rayon worker counts.
#[test]
fn trained_sharded_recommend_matches_flat_across_threads() {
    let (datasets, flat) = common::trained_advisor(10, 0xbead);
    let w = MetricWeights::new(0.8);
    let expected: Vec<(ModelKind, Vec<f64>)> = datasets
        .iter()
        .map(|ds| {
            let x = flat.embed(ds);
            flat.predict_from_embedding(&x, w)
        })
        .collect();
    for shards in 1..=4 {
        let sharded = AutoCe::from_advisor(&flat, shards);
        for threads in [1usize, 4] {
            let got: Vec<(ModelKind, Vec<f64>)> = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds")
                .install(|| {
                    datasets
                        .iter()
                        .map(|ds| {
                            let x = sharded.embed(ds);
                            sharded.predict_from_embedding(&x, w)
                        })
                        .collect()
                });
            assert_eq!(got, expected, "shards={shards} threads={threads}");
        }
    }
}

/// The sharded drift threshold equals the one-shard detector's, and so does
/// either one fitted through an installed index (one probe of three
/// partitions, so rows widen too).
#[test]
fn sharded_drift_threshold_matches_flat() {
    let (_, flat) = common::trained_advisor(12, 0xd1f7);
    let flat_threshold = flat.drift_detector().threshold();
    let index = IndexConfig {
        partitions: 3,
        probe: 1,
        min_rcs_for_index: 2,
        ..IndexConfig::default()
    };
    for shards in 1..=4 {
        let sharded = AutoCe::from_advisor(&flat, shards);
        assert_eq!(
            sharded.drift_detector().threshold().to_bits(),
            flat_threshold.to_bits()
        );
        let metrics = MetricsRegistry::new();
        let mut indexed = sharded.clone();
        indexed.set_metrics(metrics.clone());
        indexed
            .set_index_config(index.clone())
            .expect("cutover covers k");
        assert_eq!(
            indexed.drift_detector().threshold().to_bits(),
            flat_threshold.to_bits(),
            "{shards} indexed shards"
        );
        let snap = metrics.snapshot();
        let served = ["indexed", "fallback"]
            .map(|o| snap.counter("ce_index_queries_total", &[("outcome", o)]));
        assert_eq!(
            served.iter().sum::<u64>(),
            12 * shards as u64,
            "{shards} shards"
        );
    }
    let mut indexed = common::trained_advisor(12, 0xd1f7).1;
    indexed.set_index_config(index).expect("cutover covers k");
    assert_eq!(
        indexed.drift_detector().threshold().to_bits(),
        flat_threshold.to_bits(),
        "flat, indexed"
    );
}

/// Single-entry RCS: k clamps to 1, every shard count answers.
#[test]
fn single_entry_rcs_serves_at_any_shard_count() {
    let embq = vec![vec![1i64, -2, 3]];
    let saq = vec![vec![2i64, 0, 1]];
    let flat = synthetic_advisor(&embq, &saq, 3);
    let w = MetricWeights::new(0.4);
    let expect = flat.predict_from_embedding(&[0.0, 0.0, 0.0], w);
    for shards in 1..=4 {
        let sharded = AutoCe::from_advisor(&flat, shards);
        assert_eq!(sharded.predict_from_embedding(&[0.0, 0.0, 0.0], w), expect);
    }
}
