//! Synthetic advisors for tests across the workspace (`autoce`, `ce-serve`,
//! `ce-cluster`): built from explicit parts, no training, so every test
//! binary constructs bit-identical state from scratch. Not part of the
//! public API.

use crate::advisor::{AutoCe, AutoCeConfig, RcsEntry};
use ce_features::FeatureGraph;
use ce_gnn::{DmlConfig, GinEncoder};
use ce_models::ModelKind;
use ce_testbed::{DatasetLabel, ModelPerformance};

fn synthetic(k: usize, encoder_seed: u64, entries: Vec<RcsEntry>) -> AutoCe {
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
    AutoCe::from_parts(config, GinEncoder::new(4, &[8], 3, encoder_seed), entries)
}

/// A flat advisor with `n` RCS entries and KNN parameter `k`: embeddings
/// are simple polynomials of the entry index, score vectors cycle a small
/// quantized set so KNN votes hit ties.
pub fn synthetic_flat(n: usize, k: usize) -> AutoCe {
    let entries = (0..n)
        .map(|i| {
            let v = i as f32 * 0.25;
            RcsEntry {
                name: format!("e{i}"),
                graph: FeatureGraph {
                    vertices: vec![vec![v, 1.0 - v, 0.5, 0.25]],
                    edges: vec![vec![0.0]],
                },
                embedding: vec![v, v * v, 1.0 - v],
                kinds: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
                sa: vec![(i % 3) as f64 / 2.0, ((i + 1) % 3) as f64 / 2.0, 0.5],
                se: vec![0.5, (i % 2) as f64, 1.0 - (i % 2) as f64],
            }
        })
        .collect();
    synthetic(k, 7, entries)
}

/// The quantized-grid variant (0.5-step embeddings: distance ties are
/// common, so the position↔id tie-break contract is exercised, not
/// dodged).
pub fn synthetic_grid(n: usize, k: usize) -> AutoCe {
    let entries = (0..n)
        .map(|i| RcsEntry {
            name: format!("s{i}"),
            graph: FeatureGraph {
                vertices: vec![vec![i as f32, 0.5, -0.5, 1.0]],
                edges: vec![vec![0.0]],
            },
            embedding: vec![
                ((i * 3) % 7) as f32 / 2.0,
                ((i * 5) % 9) as f32 / 2.0 - 2.0,
                (i % 4) as f32 / 2.0,
            ],
            kinds: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
            sa: vec![(i % 3) as f64 / 2.0, 0.5, 1.0],
            se: vec![1.0, (i % 2) as f64, 0.5],
        })
        .collect();
    synthetic(k, 11, entries)
}

/// Queries on [`synthetic_grid`]'s lattice: most tie several entries.
pub fn tie_heavy_queries() -> Vec<Vec<f32>> {
    let mut qs = Vec::new();
    for a in -2i64..=2 {
        for b in -2i64..=2 {
            qs.push(vec![a as f32 / 2.0, b as f32 / 2.0, 0.5]);
        }
    }
    qs
}

/// A deterministic label over `kinds` for push-path tests (quantized
/// performance numbers so score vectors stay bit-stable).
pub fn synthetic_label(kinds: &[ModelKind]) -> DatasetLabel {
    DatasetLabel {
        dataset: "new".into(),
        performances: kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| ModelPerformance {
                kind,
                qerror_mean: 1.0 + i as f64,
                qerror_p50: 1.0,
                qerror_p95: 1.0,
                qerror_p99: 1.0,
                latency_mean_us: 10.0 * (i + 1) as f64,
                train_time_ms: 1.0,
            })
            .collect(),
    }
}
