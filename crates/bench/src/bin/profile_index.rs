//! Phase-attribution profiler for the two-stage KNN index.
//!
//! Not a paper experiment: times indexed vs flat `predict_from_embedding`
//! over clustered blob embeddings at 10^5 RCS entries, then attributes
//! the indexed path from the index's own `ce-obs` instrumentation — the
//! outcome counters (`ce_index_queries_total`), the re-rank candidate
//! histogram and the build-time histogram production serving records —
//! instead of hand-rolled re-implementations of each stage, so the
//! numbers attribute the *real* query path and cannot drift from it.
//! The re-rank share is derived by costing the recorded candidate count
//! at the measured rate of what the re-rank does per candidate — one
//! `euclidean` call through an entry's own embedding, entries taken one
//! blob apart, as a probed partition's members lie; the remainder is the
//! coarse stage (centroid probe + admissibility check) plus the vote. (The
//! flat scan no longer prices it: that reads a packed mirror, sixteen rows
//! per kernel step.)

use autoce::{AutoCe, AutoCeConfig, IndexConfig, QuantMode};
use ce_bench::harness::blob_rcs;
use ce_gnn::{DmlConfig, GinEncoder};
use ce_nn::matrix::euclidean;
use ce_serve::MetricsRegistry;
use ce_testbed::MetricWeights;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    const N: usize = 100_000;
    const DIM: usize = 32;
    const PARTITIONS: usize = 256;
    const PROBE: usize = 4;
    const QUERIES: usize = 64;
    const REPS: usize = 5;
    let mut rng = StdRng::seed_from_u64(0x1d7 + N as u64);
    let (entries, queries) = blob_rcs(N, PARTITIONS, DIM, QUERIES, &mut rng);
    let cfg = AutoCeConfig {
        k: 8,
        incremental: None,
        dml: DmlConfig {
            hidden: vec![8],
            embed_dim: DIM,
            ..DmlConfig::default()
        },
        ..AutoCeConfig::default()
    };
    let flat = AutoCe::from_parts(
        cfg.clone(),
        GinEncoder::new(4, &[8], DIM, 17),
        entries.clone(),
    );
    let mut indexed = AutoCe::from_parts(cfg, GinEncoder::new(4, &[8], DIM, 17), entries);
    let registry = MetricsRegistry::new();
    // The build is recorded into `ce_index_build_ns` by the install below.
    indexed
        .set_index_config(
            IndexConfig::builder()
                .partitions(PARTITIONS)
                .probe(PROBE)
                .quant(QuantMode::I8)
                .sample_cap(16_384)
                .kmeans_iters(12)
                .build()
                .expect("valid index config"),
            registry.clone(),
        )
        .expect("cutover admits k");

    let w = MetricWeights::new(0.7);
    let time_us_per_query = |advisor: &AutoCe| {
        let t = Instant::now();
        for _ in 0..REPS {
            for x in &queries {
                black_box(advisor.predict_from_embedding(x, w));
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / (REPS * QUERIES) as f64
    };
    let flat_us = time_us_per_query(&flat);
    let indexed_us = time_us_per_query(&indexed);

    // Attribution from the registry: the counters and histograms the
    // index recorded while the loop above ran.
    let snap = registry.snapshot();
    let outcome = |o: &str| snap.counter("ce_index_queries_total", &[("outcome", o)]);
    let (served, fellback, bypassed) = (outcome("indexed"), outcome("fallback"), outcome("bypass"));
    let (cand_sum, cand_count) = snap.histogram_totals("ce_index_rerank_candidates", &[]);
    let (build_sum, build_count) = snap.histogram_totals("ce_index_build_ns", &[]);
    let mean_candidates = cand_sum as f64 / cand_count.max(1) as f64;
    // Cost of one exact distance as the re-rank pays it.
    let rcs = flat.rcs();
    let t = Instant::now();
    let mut pairs = 0usize;
    for (blob, x) in queries.iter().enumerate() {
        for e in rcs.iter().skip(blob).step_by(PARTITIONS) {
            black_box(euclidean(x, &e.embedding));
            pairs += 1;
        }
    }
    let per_pair_us = t.elapsed().as_secs_f64() * 1e6 / pairs as f64;
    let rerank_us = mean_candidates * per_pair_us;
    println!(
        "index build: {build_count} build(s), {:.1} ms total ({N} entries, \
         {PARTITIONS} partitions, probe {PROBE}, i8 coarse stage)",
        build_sum as f64 * 1e-6
    );
    println!(
        "query outcomes: indexed {served}, fallback {fellback}, bypass {bypassed} \
         (fallback+bypass rate {:.3})",
        (fellback + bypassed) as f64 / (served + fellback + bypassed).max(1) as f64
    );
    println!(
        "per-query µs: flat scan {flat_us:.1} | indexed {indexed_us:.1} (speedup {:.2}x) | \
         re-rank {mean_candidates:.0} candidates ≈ {rerank_us:.1}µs at the one-pair rate, \
         coarse probe + admissibility + vote ≈ {:.1}µs",
        flat_us / indexed_us,
        (indexed_us - rerank_us).max(0.0)
    );
}
