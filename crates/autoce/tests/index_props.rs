//! Index bit-identity properties: the two-stage KNN index must reproduce
//! the flat scan **bit for bit** whenever it answers, widen its probe
//! whenever it cannot prove admissibility, and never change a recommendation —
//! across tie-heavy quantized-grid embeddings, empty partitions,
//! single-entry RCSs, `k > |RCS|`, and forced inadmissibility.

use autoce::index::{IndexConfig, KnnIndex};
use autoce::knn::Scratch;
use autoce::{knn_order, AdvisorBackend, AutoCe, AutoCeConfig, MetricsRegistry, RcsEntry};
use ce_features::FeatureGraph;
use ce_gnn::{DmlConfig, GinEncoder};
use ce_models::ModelKind;
use ce_testbed::MetricWeights;
use proptest::prelude::*;

/// Reference flat top-k: the exact select/truncate/sort the advisor and
/// every shard run, over `(position, distance)` under [`knn_order`].
fn flat_topk(embs: &[Vec<f32>], x: &[f32], k: usize, exclude: usize) -> Vec<(usize, f32)> {
    let mut dists: Vec<(usize, f32)> = embs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != exclude)
        .map(|(i, e)| (i, ce_nn::matrix::euclidean(x, e)))
        .collect();
    let k = k.min(dists.len());
    if k == 0 {
        return Vec::new();
    }
    if k < dists.len() {
        dists.select_nth_unstable_by(k - 1, knn_order);
    }
    dists.truncate(k);
    dists.sort_unstable_by(knn_order);
    dists
}

/// The index's answer over positions `0..n`, in a fresh buffer: `None`
/// when it never probed (the buffer is then left empty, as checked here).
fn indexed_topk(
    ix: &KnnIndex,
    embs: &[Vec<f32>],
    x: &[f32],
    k: usize,
    exclude: usize,
) -> Option<Vec<(usize, f32)>> {
    let positions: Vec<usize> = (0..embs.len()).collect();
    let (mut scratch, mut out) = (Scratch::default(), Vec::new());
    let served = ix.query_topk(x, k, exclude, &positions, &mut scratch, &mut out);
    assert!(served || out.is_empty(), "a declining index truncates back");
    served.then_some(out)
}

/// Flat advisor over quantized synthetic entries (0.5-steps, so exact
/// distance and score ties are common — the tie-breaking rules are what
/// the admissibility bound must respect).
fn synthetic_advisor(embq: &[Vec<i64>], k: usize) -> AutoCe {
    let embeddings = embq
        .iter()
        .map(|e| e.iter().map(|&v| v as f32 / 2.0).collect())
        .collect();
    advisor_over(embeddings, k)
}

/// A flat advisor over `embeddings` (dimension 3), scores as
/// [`synthetic_advisor`]'s.
fn advisor_over(embeddings: Vec<Vec<f32>>, k: usize) -> AutoCe {
    let kinds = vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
    let entries: Vec<RcsEntry> = embeddings
        .into_iter()
        .enumerate()
        .map(|(i, embedding)| RcsEntry {
            name: format!("s{i}"),
            graph: FeatureGraph {
                vertices: vec![vec![i as f32, 0.5, -0.5, 1.0]],
                edges: vec![vec![0.0]],
            },
            embedding,
            kinds: kinds.clone(),
            sa: vec![(i % 3) as f64 / 2.0, 0.5, 1.0],
            se: vec![1.0, (i % 2) as f64, 0.5],
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
    /// Whenever `query_topk` answers, the answer is the flat scan's —
    /// same positions, same distance bits — for every probe width,
    /// including probes that leave most partitions (some of them empty)
    /// unvisited.
    #[test]
    fn indexed_topk_bits_equal_flat_scan(
        embq in prop::collection::vec(prop::collection::vec(-4i64..=4, 3), 1..48),
        query in prop::collection::vec(-4i64..=4, 3),
        k in 1usize..6,
        partitions in 1usize..7,
        probe in 1usize..7,
        exsel in 0usize..64,
    ) {
        let embs: Vec<Vec<f32>> = embq
            .iter()
            .map(|e| e.iter().map(|&v| v as f32 / 2.0).collect())
            .collect();
        let x: Vec<f32> = query.iter().map(|&v| v as f32 / 2.0).collect();
        let exclude = if exsel < embs.len() { exsel } else { usize::MAX };
        let selectable = embs.len() - usize::from(exclude != usize::MAX);
        let k_eff = k.min(selectable);
        let expect = flat_topk(&embs, &x, k_eff, exclude);
        let cfg = IndexConfig::builder()
            .partitions(partitions)
            .probe(probe.min(partitions))
            .min_rcs_for_index(1)
            .sample_cap(partitions.max(64))
            .build()
            .expect("valid index config");
        let refs: Vec<&[f32]> = embs.iter().map(Vec::as_slice).collect();
        // Below-cutover or degenerate builds decline; the flat scan
        // serves. Nothing to compare.
        if let Some(ix) = KnnIndex::build(&refs, &cfg, 7, &MetricsRegistry::disabled()) {
            if k_eff == 0 {
                prop_assert!(indexed_topk(&ix, &embs, &x, k_eff, exclude).is_none());
            } else if let Some(got) = indexed_topk(&ix, &embs, &x, k_eff, exclude) {
                prop_assert_eq!(got.len(), expect.len());
                for ((gi, gd), (ei, ed)) in got.iter().zip(&expect) {
                    prop_assert_eq!(gi, ei, "position mismatch");
                    prop_assert_eq!(gd.to_bits(), ed.to_bits(), "distance bits mismatch");
                }
            }
            // `None` is legitimate for an unprobed query: the caller
            // serves the flat scan, which IS `expect`.
        }
    }

    /// The index is exact at every float scale: blob-clustered embeddings
    /// and queries scaled by `2^-shift`, swept from 1 down to `2^-80` —
    /// through the band where squared coordinate differences are
    /// subnormal, and past it, where they are zero — are served the flat
    /// scan's bits whenever the index answers.
    #[test]
    fn indexed_topk_bits_equal_flat_scan_at_every_float_scale(
        seed in 0u64..1_000_000,
        dim in 1usize..33,
        k in 1usize..6,
        partitions in 2usize..12,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let centres: Vec<Vec<f32>> = (0..partitions)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect())
            .collect();
        let mut near = |c: usize| -> Vec<f32> {
            centres[c].iter().map(|v| v + (rng.gen::<f32>() - 0.5) * 0.2).collect()
        };
        let base: Vec<Vec<f32>> = (0..240).map(|i| near(i % partitions)).collect();
        let queries: Vec<Vec<f32>> = (0..12).map(|i| near(i * 5 % partitions)).collect();
        let cfg = IndexConfig::builder()
            .partitions(partitions)
            .probe(1)
            .min_rcs_for_index(1)
            .build()
            .expect("valid index config");
        for shift in (0..=80).step_by(2) {
            let scale = 2f32.powi(-shift);
            let scaled = |rows: &[Vec<f32>]| -> Vec<Vec<f32>> {
                rows.iter().map(|r| r.iter().map(|v| v * scale).collect()).collect()
            };
            let (embs, xs) = (scaled(&base), scaled(&queries));
            let refs: Vec<&[f32]> = embs.iter().map(Vec::as_slice).collect();
            let Some(ix) = KnnIndex::build(&refs, &cfg, 7, &MetricsRegistry::disabled()) else {
                continue;
            };
            for (q, x) in xs.iter().enumerate() {
                let Some(got) = indexed_topk(&ix, &embs, x, k, usize::MAX) else {
                    continue;
                };
                let want = flat_topk(&embs, x, k, usize::MAX);
                let bits = |l: &[(usize, f32)]| {
                    l.iter().map(|&(i, d)| (i, d.to_bits())).collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&got), bits(&want), "scale 2^-{}, query {}", shift, q);
            }
        }
    }

    /// End to end through the advisor: predictions with an installed
    /// index — model, score vector — are bit-identical to the plain flat
    /// advisor's, whether each query was answered from the index or fell
    /// back.
    #[test]
    fn indexed_advisor_predictions_match_flat(
        embq in prop::collection::vec(prop::collection::vec(-4i64..=4, 3), 1..32),
        query in prop::collection::vec(-4i64..=4, 3),
        k in 1usize..5,
        wa10 in 0i64..=10,
        exsel in 0usize..40,
    ) {
        let n = embq.len();
        let flat = synthetic_advisor(&embq, k);
        let x: Vec<f32> = query.iter().map(|&v| v as f32 / 2.0).collect();
        let w = MetricWeights::new(wa10 as f64 / 10.0);
        let exclude = if exsel < n && n > 1 { exsel } else { usize::MAX };
        let expect = flat.predict_excluding(&x, w, exclude).expect("flat");
        let mut indexed = synthetic_advisor(&embq, k);
        let cfg = IndexConfig::builder()
            .partitions(4)
            .probe(2)
            .min_rcs_for_index(k.max(5))
            .build()
            .expect("valid index config");
        indexed
            .set_index_config(cfg)
            .expect("config admissible for k");
        let got = indexed.predict_excluding(&x, w, exclude).expect("indexed");
        prop_assert_eq!(&got.0, &expect.0, "model mismatch");
        prop_assert_eq!(&got.1, &expect.1, "scores mismatch");
    }
}

/// Two well-separated clusters, `probe: 1`, and an astronomically large
/// margin force the admissibility bound to fail: the index must widen to
/// both partitions and answer the flat scan's list bit for bit, counted as
/// a `fallback` with no re-rank sample.
#[test]
fn forced_inadmissible_falls_back() {
    let embs: Vec<Vec<f32>> = (0..16)
        .map(|i| {
            let base = if i < 8 { 0.0f32 } else { 100.0 };
            vec![base + (i % 8) as f32 * 0.25, base, base]
        })
        .collect();
    let cfg = IndexConfig::builder()
        .partitions(2)
        .probe(1)
        .margin(1e30)
        .min_rcs_for_index(1)
        .build()
        .expect("valid config");
    let refs: Vec<&[f32]> = embs.iter().map(Vec::as_slice).collect();
    let registry = MetricsRegistry::new();
    let ix = KnnIndex::build(&refs, &cfg, 0, &registry).expect("index builds");
    let x = vec![0.1f32, 0.0, 0.0];
    // Both clusters are non-empty; probing one leaves the other unprobed
    // and the margin makes its bound unprovable.
    let widened = indexed_topk(&ix, &embs, &x, 3, usize::MAX)
        .expect("an unprovable bound widens, it does not decline");
    let expect = flat_topk(&embs, &x, 3, usize::MAX);
    let bits = |l: &[(usize, f32)]| l.iter().map(|&(i, d)| (i, d.to_bits())).collect::<Vec<_>>();
    assert_eq!(
        bits(&widened),
        bits(&expect),
        "the widened answer is the flat scan's"
    );
    let snap = registry.snapshot();
    let outcome = |o| snap.counter("ce_index_queries_total", &[("outcome", o)]);
    assert_eq!(
        [outcome("indexed"), outcome("fallback"), outcome("bypass")],
        [0, 1, 0],
        "a widened answer counts as a fallback"
    );
    assert_eq!(
        snap.histogram_totals("ce_index_rerank_candidates", &[]),
        (0, 0),
        "and takes no re-rank sample"
    );
    // Zero margin on the same layout: the far cluster is ~100 away from
    // a query whose k-th neighbor is < 1 away, so the bound holds and
    // the answer equals the flat scan bit for bit.
    let cfg = IndexConfig::builder()
        .partitions(2)
        .probe(1)
        .min_rcs_for_index(1)
        .build()
        .expect("valid config");
    let ix = KnnIndex::build(&refs, &cfg, 0, &MetricsRegistry::disabled()).expect("index builds");
    let got = indexed_topk(&ix, &embs, &x, 3, usize::MAX)
        .expect("well-separated clusters are admissible");
    let expect = flat_topk(&embs, &x, 3, usize::MAX);
    assert_eq!(got.len(), expect.len());
    for ((gi, gd), (ei, ed)) in got.iter().zip(&expect) {
        assert_eq!(gi, ei);
        assert_eq!(gd.to_bits(), ed.to_bits());
    }
}

/// 400 embeddings of dimension 3 on a 0.5-grid, with row 123 holding
/// `bad` in one coordinate when given.
fn grid_with(bad: Option<f32>) -> Vec<Vec<f32>> {
    let mut embs: Vec<Vec<f32>> = (0..400)
        .map(|i| {
            let v = [i % 7, i / 7 % 5, i / 35 % 11];
            v.iter().map(|&x| x as f32 * 0.5 - 1.0).collect()
        })
        .collect();
    if let Some(bad) = bad {
        embs[123][1] = bad;
    }
    embs
}

/// An embedding holding a NaN or ±∞ declines the build (k-means cannot
/// place it), as a ragged or empty one does; the same rows made finite
/// build.
#[test]
fn a_non_finite_embedding_declines_the_build() {
    let cfg = IndexConfig::default();
    let registry = MetricsRegistry::disabled();
    let build = |embs: &[Vec<f32>]| {
        let refs: Vec<&[f32]> = embs.iter().map(Vec::as_slice).collect();
        KnnIndex::build(&refs, &cfg, 0, &registry)
    };
    assert!(
        build(&grid_with(None)).is_some(),
        "400 rows reach the cutover"
    );
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        assert!(build(&grid_with(Some(bad))).is_none(), "{bad}");
    }
}

/// Through the advisor: installing an index over an RCS with a non-finite
/// embedding leaves every shard on the flat scan, and every answer — model
/// and score bits, with and without an exclusion — is the flat advisor's.
#[test]
fn a_non_finite_embedding_keeps_the_advisor_on_the_flat_scan() {
    let w = MetricWeights::new(0.5);
    let queries: Vec<Vec<f32>> = (0..12)
        .map(|i| vec![(i % 4) as f32 * 0.75 - 1.0, 0.25 * i as f32 - 1.0, 0.5])
        .collect();
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let flat = advisor_over(grid_with(Some(bad)), 5);
        let mut indexed = advisor_over(grid_with(Some(bad)), 5);
        let metrics = MetricsRegistry::new();
        indexed.set_metrics(metrics.clone());
        indexed
            .set_index_config(IndexConfig::default())
            .expect("installs");
        for x in &queries {
            for exclude in [usize::MAX, 7, 123] {
                let want = flat.predict_excluding(x, w, exclude).expect("flat");
                let got = indexed.predict_excluding(x, w, exclude).expect("indexed");
                let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!((got.0, bits(&got.1)), (want.0, bits(&want.1)), "{bad}");
            }
        }
        let snap = metrics.snapshot();
        let (_, builds) = snap.histogram_totals("ce_index_build_ns", &[]);
        assert_eq!(builds, 0, "{bad}: no index was built");
    }
}

/// Degenerate shapes: single-entry RCS, `k > |RCS|`, and the cutover all
/// serve identically to the flat advisor with an index installed.
#[test]
fn single_entry_and_oversized_k_match_flat() {
    let embq = vec![vec![1i64, -2, 3]];
    let flat = synthetic_advisor(&embq, 4);
    let mut indexed = synthetic_advisor(&embq, 4);
    indexed
        .set_index_config(
            IndexConfig::builder()
                .partitions(2)
                .probe(1)
                .min_rcs_for_index(4)
                .build()
                .expect("valid"),
        )
        .expect("installs");
    let x = vec![0.5f32, -1.0, 1.5];
    let w = MetricWeights::new(0.5);
    // k (4) exceeds |RCS| (1): both clamp identically.
    assert_eq!(
        flat.predict_excluding(&x, w, usize::MAX),
        indexed.predict_excluding(&x, w, usize::MAX)
    );
}

/// The validating builder rejects every degenerate shape the issue pins:
/// zero partitions, probe exceeding partitions, and (at install time) a
/// cutover below the advisor's `k`.
#[test]
fn builder_rejects_degenerate_configs() {
    assert!(IndexConfig::builder().partitions(0).build().is_err());
    assert!(IndexConfig::builder().probe(0).build().is_err());
    assert!(IndexConfig::builder()
        .partitions(4)
        .probe(5)
        .build()
        .is_err());
    assert!(IndexConfig::builder().margin(f32::NAN).build().is_err());
    assert!(IndexConfig::builder().margin(-1.0).build().is_err());
    assert!(IndexConfig::builder().min_rcs_for_index(0).build().is_err());
    assert!(IndexConfig::builder()
        .partitions(64)
        .sample_cap(32)
        .build()
        .is_err());
    // Cutover below k is the install-time check.
    let cfg = IndexConfig::builder()
        .min_rcs_for_index(2)
        .build()
        .expect("structurally fine");
    assert!(cfg.validate_for_k(3).is_err());
    assert!(cfg.validate_for_k(2).is_ok());
    let mut advisor = synthetic_advisor(&[vec![0i64, 0, 0], vec![1, 1, 1]], 3);
    assert!(advisor.set_index_config(cfg).is_err());
}

/// The staleness tag: a push without a refresh bypasses the index (the
/// flat scan serves — counted as `bypass`), and the refresh that follows
/// rebuilds it over the new membership.
#[test]
fn stale_tag_bypasses_until_refresh() {
    let embq: Vec<Vec<i64>> = (0..12).map(|i| vec![i, -i, 2 * i]).collect();
    let mut advisor = synthetic_advisor(&embq, 2);
    let metrics = MetricsRegistry::new();
    advisor.set_metrics(metrics.clone());
    advisor
        .set_index_config(
            IndexConfig::builder()
                .partitions(3)
                .probe(3)
                .min_rcs_for_index(2)
                .build()
                .expect("valid"),
        )
        .expect("installs");
    let x = vec![0.5f32, -0.5, 1.0];
    let w = MetricWeights::new(0.5);
    let before = advisor.predict_from_embedding(&x, w);
    // Probing every partition (probe == partitions) is always admissible.
    assert_eq!(
        metrics
            .snapshot()
            .counter("ce_index_queries_total", &[("outcome", "indexed")]),
        1
    );
    // Push a new entry: membership changed, the index must not serve.
    let graph = FeatureGraph {
        vertices: vec![vec![0.3, 0.3, 0.3, 0.3]],
        edges: vec![vec![0.0]],
    };
    let label = ce_testbed::DatasetLabel {
        dataset: "new".into(),
        performances: advisor
            .entry(0)
            .kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| ce_testbed::ModelPerformance {
                kind,
                qerror_mean: 1.0 + i as f64,
                qerror_p50: 1.0,
                qerror_p95: 1.0,
                qerror_p99: 1.0,
                latency_mean_us: 10.0 * (i + 1) as f64,
                train_time_ms: 1.0,
            })
            .collect(),
    };
    advisor.push_entry(graph, &label);
    let _ = advisor.predict_from_embedding(&x, w);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("ce_index_queries_total", &[("outcome", "indexed")]),
        1,
        "a stale index must never answer"
    );
    // Refresh rebuilds over the 13 entries; queries index again.
    advisor.refresh_embeddings();
    let after = advisor.predict_from_embedding(&x, w);
    assert_eq!(
        metrics
            .snapshot()
            .counter("ce_index_queries_total", &[("outcome", "indexed")]),
        2
    );
    // Sanity: the model space did not shift under us.
    assert_eq!(before.1.len(), after.1.len());
}
