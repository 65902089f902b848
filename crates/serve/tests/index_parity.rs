//! Sharded-index parity: a `ShardedAdvisor` carrying per-shard KNN
//! indexes must stay bit-identical to the flat advisor for every shard
//! count — and the index must obey the snapshot discipline: a push
//! bypasses it (stale tag), a refresh rebuilds it, and an online
//! adaptation stamps the rebuilt indexes with the **post-bump**
//! generation (the swap-race regression).

use autoce::fixtures::{synthetic_grid, synthetic_label, tie_heavy_queries};
use ce_features::FeatureGraph;
use ce_serve::{IndexConfig, MetricsRegistry, Reservoir, ShardedAdvisor};
use ce_testbed::MetricWeights;

/// Indexed sharded advisors (1–4 shards, admissibility-guaranteed and
/// fallback-heavy probe widths alike) reproduce the flat advisor bit for
/// bit, and the guaranteed configuration really answers from the index.
#[test]
fn indexed_sharded_parity_one_to_four_shards() {
    let flat = synthetic_grid(24, 2);
    let queries = tie_heavy_queries();
    let w = MetricWeights::new(0.6);
    // (partitions, probe): probing everything is always admissible;
    // probe 1 of 4 forces frequent fallbacks. Both must stay bit-exact.
    for (partitions, probe) in [(3usize, 3usize), (4, 1)] {
        for shards in 1..=4usize {
            let metrics = MetricsRegistry::new();
            let mut sharded = ShardedAdvisor::from_advisor(&flat, shards);
            sharded.set_metrics(metrics.clone());
            sharded
                .set_index_config(
                    IndexConfig::builder()
                        .partitions(partitions)
                        .probe(probe)
                        .min_rcs_for_index(2)
                        .build()
                        .expect("valid index config"),
                )
                .expect("config admissible for k");
            for (qi, x) in queries.iter().enumerate() {
                let exclude = if qi % 3 == 0 { qi % 24 } else { usize::MAX };
                let expect = flat.predict_excluding(x, w, exclude);
                let got = sharded.predict_excluding(x, w, exclude);
                assert_eq!(
                    got, expect,
                    "parity broke at {shards} shards, p={partitions}, probe={probe}, query {qi}"
                );
            }
            if probe == partitions {
                let served = metrics
                    .snapshot()
                    .counter("ce_index_queries_total", &[("outcome", "indexed")]);
                assert!(
                    served > 0,
                    "full-probe config must answer from the index at {shards} shards"
                );
            }
        }
    }
}

/// The swap-race discipline, membership half: a push drops/bypasses the
/// per-shard index (parity intact), and the following refresh rebuilds
/// it under the same generation (parity intact, index serving again).
#[test]
fn push_bypasses_index_until_refresh_rebuilds() {
    let flat = synthetic_grid(20, 2);
    let metrics = MetricsRegistry::new();
    let mut sharded = ShardedAdvisor::from_advisor(&flat, 2);
    sharded.set_metrics(metrics.clone());
    sharded
        .set_index_config(
            IndexConfig::builder()
                .partitions(2)
                .probe(2)
                .min_rcs_for_index(2)
                .build()
                .expect("valid"),
        )
        .expect("installs");
    let x = vec![0.5f32, 0.0, 0.5];
    let w = MetricWeights::new(0.4);
    let count_indexed = |m: &MetricsRegistry| {
        m.snapshot()
            .counter("ce_index_queries_total", &[("outcome", "indexed")])
    };
    let _ = sharded.predict_excluding(&x, w, usize::MAX);
    let baseline = count_indexed(&metrics);
    assert!(baseline > 0, "index must serve before the push");

    // Push: one shard's membership changes; that shard must not serve
    // its stale index, and answers must equal an identically-pushed
    // flat advisor's.
    let label = synthetic_label(&flat.rcs()[0].kinds);
    let graph = FeatureGraph {
        vertices: vec![vec![0.3, 0.3, 0.3, 0.3]],
        edges: vec![vec![0.0]],
    };
    // A second, identically-built flat advisor (construction is
    // deterministic) to receive the same push.
    let mut flat_pushed = synthetic_grid(20, 2);
    flat_pushed.push_rcs_entry(graph.clone(), &label);
    sharded.push_entry(graph, &label);
    assert_eq!(
        sharded.predict_excluding(&x, w, usize::MAX),
        flat_pushed.predict_excluding(&x, w, usize::MAX),
        "post-push parity"
    );

    // Refresh: per-shard indexes rebuild over the new membership inside
    // the same advisor value, and serving resumes from them.
    sharded.refresh_embeddings();
    flat_pushed.refresh_embeddings();
    let before_refresh_queries = count_indexed(&metrics);
    assert_eq!(
        sharded.predict_excluding(&x, w, usize::MAX),
        flat_pushed.predict_excluding(&x, w, usize::MAX),
        "post-refresh parity"
    );
    assert!(
        count_indexed(&metrics) > before_refresh_queries,
        "refresh must re-engage the index"
    );
}

/// The swap-race regression, generation half: an online adaptation bumps
/// the serving generation **before** the embedding refresh, so the
/// rebuilt indexes carry the post-adapt generation and keep serving.
/// (With the orders swapped, every post-adapt query would bypass
/// forever.)
#[test]
fn adaptation_rebuilds_index_under_new_generation() {
    let flat = synthetic_grid(20, 2);
    let metrics = MetricsRegistry::new();
    let mut sharded = ShardedAdvisor::from_advisor(&flat, 2);
    sharded.set_metrics(metrics.clone());
    sharded
        .set_index_config(
            IndexConfig::builder()
                .partitions(2)
                .probe(2)
                .min_rcs_for_index(2)
                .build()
                .expect("valid"),
        )
        .expect("installs");
    let x = vec![0.5f32, 0.0, 0.5];
    let w = MetricWeights::new(0.5);
    let count_indexed = |m: &MetricsRegistry| {
        m.snapshot()
            .counter("ce_index_queries_total", &[("outcome", "indexed")])
    };
    let _ = sharded.predict_excluding(&x, w, usize::MAX);
    let before = count_indexed(&metrics);
    assert!(before > 0);

    let gen_before = sharded.generation();
    let mut reservoir = Reservoir::over_initial(sharded.len(), 8, 0xfeed);
    let label = synthetic_label(&flat.rcs()[0].kinds);
    let graph = FeatureGraph {
        vertices: vec![vec![0.7, -0.1, 0.2, 0.4]],
        edges: vec![vec![0.0]],
    };
    sharded.adapt_with_reservoir(graph, &label, &mut reservoir, 0x0b5e);
    assert_eq!(sharded.generation(), gen_before + 1);

    let _ = sharded.predict_excluding(&x, w, usize::MAX);
    assert!(
        count_indexed(&metrics) > before,
        "the post-adapt query must be answered by an index stamped with \
         the new generation, not bypassed as stale"
    );
}
