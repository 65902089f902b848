//! Phase-attribution profiler for the cold (all-miss) serving path.
//!
//! Not a paper experiment: times one client's all-distinct burst stream
//! through the inline-burst service path against the flat per-request
//! advisor, single-threaded. Phase attribution (stacked encode, votes,
//! batch depth) is read from the service's own `ce-obs` phase histograms
//! — the same spans production serving records — instead of hand-rolled
//! re-implementations of each phase, so the numbers attribute the *real*
//! serving path and cannot drift from it.

use autoce::{AutoCe, AutoCeConfig, RcsEntry};
use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_gnn::{DmlConfig, GinEncoder};
use ce_models::ModelKind;
use ce_serve::{AdvisorService, MetricsRegistry, Query, ServeConfig, ShardedAdvisor};
use ce_testbed::MetricWeights;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    const RCS: usize = 96;
    const POOL: usize = 48;
    const GROUP: usize = 8;
    let mut rng = StdRng::seed_from_u64(0x5e57e);
    let mut spec = DatasetSpec::small().multi_table();
    spec.tables = SpecRange { lo: 10, hi: 16 };
    let fcfg = FeatureConfig::default();
    let mut graph =
        |name: String| extract_features(&generate_dataset(name, &spec, &mut rng), &fcfg);
    let rcs_graphs: Vec<FeatureGraph> = (0..RCS).map(|i| graph(format!("r{i}"))).collect();
    let pool: Vec<FeatureGraph> = (0..POOL).map(|i| graph(format!("q{i}"))).collect();
    let dml = DmlConfig::default();
    let enc = GinEncoder::new(rcs_graphs[0].vertex_dim(), &dml.hidden, dml.embed_dim, 17);
    let embeddings = enc.encode_batch(&rcs_graphs);
    let kinds = [ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn];
    let entries: Vec<RcsEntry> = rcs_graphs
        .into_iter()
        .zip(embeddings)
        .enumerate()
        .map(|(i, (g, embedding))| RcsEntry {
            name: format!("r{i}"),
            graph: g,
            embedding,
            kinds: kinds.to_vec(),
            sa: (0..3).map(|m| ((i + m) % 4) as f64 / 3.0).collect(),
            se: (0..3).map(|m| ((i + 2 * m) % 3) as f64 / 2.0).collect(),
        })
        .collect();
    let flat = Arc::new(AutoCe::from_parts(
        AutoCeConfig {
            k: 2,
            incremental: None,
            dml,
            ..AutoCeConfig::default()
        },
        enc,
        entries,
    ));
    let w = MetricWeights::new(0.7);
    let reps = 200;
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_secs_f64() * 1e6 / (reps * POOL) as f64
    };
    // Flat per-request baseline.
    let flat_t = time(&mut || {
        for g in &pool {
            let x = flat.embed_graph(g);
            black_box(flat.predict_from_embedding(&x, w));
        }
    });
    // Full inline service path, single client (fresh service per rep so
    // the cache never hits; the service cost includes its construction
    // amortized over POOL requests — printed separately). Every service
    // records into the same registry, so the phase histograms accumulate
    // across all reps and attribute the measured loop itself.
    let registry = MetricsRegistry::new();
    let cfg = ServeConfig {
        max_batch: 32,
        cache_capacity: 4096,
        metrics: registry.clone(),
        ..ServeConfig::default()
    };
    let mut drive = 0.0f64;
    for _ in 0..reps {
        // Construction and shutdown stay outside the timer, exactly as
        // the gated bench measures its cold stream.
        let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 4), cfg.clone());
        let handle = service.handle();
        let t = Instant::now();
        for c in pool.chunks(GROUP) {
            let refs: Vec<&FeatureGraph> = c.iter().collect();
            black_box(handle.query(Query::graph_refs(&refs, w)).expect("running"));
        }
        drive += t.elapsed().as_secs_f64();
        service.shutdown();
    }
    let serve_t = drive * 1e6 / (reps * POOL) as f64;
    // Phase attribution from the registry: per-request encode and vote
    // cost come from the spans the inline path recorded while the loop
    // above ran — no separately hand-timed phase replicas to drift.
    let snap = registry.snapshot();
    let requests = (reps * POOL) as f64;
    let per_req = |name: &str, path: &str| {
        let (sum, _) = snap.histogram_totals(name, &[("path", path)]);
        sum as f64 * 1e-3 / requests
    };
    let enc_t = per_req("ce_serve_encode_ns", "inline");
    let vote_t = per_req("ce_serve_vote_ns", "inline");
    let inline_reqs = snap.counter("ce_serve_path_requests_total", &[("path", "inline")]);
    let (depth_sum, depth_count) =
        snap.histogram_totals("ce_serve_batch_depth", &[("path", "inline")]);
    assert_eq!(
        inline_reqs as f64, requests,
        "every cold request must take the inline path"
    );
    println!(
        "inline batches: {depth_count} at mean depth {:.1}",
        depth_sum as f64 / depth_count.max(1) as f64
    );
    println!(
        "cold per-request µs: flat {flat_t:.1} | inline-serve {serve_t:.1} (ratio {:.2}x) | \
         registry phases: stacked-encode {enc_t:.1}, vote {vote_t:.1}, \
         other (fingerprint/cache/dispatch) {:.1}",
        flat_t / serve_t,
        (serve_t - enc_t - vote_t).max(0.0)
    );
}
