//! Serving scale-out scenario: the trained advisor behind `ce-serve` — a
//! sharded RCS, concurrent clients micro-batched into stacked forwards, an
//! embedding cache, and reservoir-bounded online adaptation when a tenant
//! drifts out of distribution.
//!
//! Run with `cargo run --release --example serving`.

use autoce_suite::autoce::{AutoCe, AutoCeConfig};
use autoce_suite::datagen::{generate_batch, generate_dataset, DatasetSpec, SpecRange};
use autoce_suite::gnn::DmlConfig;
use autoce_suite::models::ModelKind;
use autoce_suite::serve::{AdvisorService, MetricsRegistry, ServeConfig, ShardedAdvisor};
use autoce_suite::testbed::{label_datasets, MetricWeights, TestbedConfig};
use autoce_suite::workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let spec = DatasetSpec::small().single_table();
    let testbed = TestbedConfig {
        models: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
        train_queries: 80,
        test_queries: 30,
        workload: WorkloadSpec::default(),
    };

    println!("offline: labeling the corpus and training the advisor...");
    let corpus = generate_batch("corpus", 16, &spec, &mut rng);
    let labels = label_datasets(&corpus, &testbed, 3, 0);
    let advisor = AutoCe::train(
        &corpus,
        &labels,
        AutoCeConfig {
            dml: DmlConfig {
                epochs: 8,
                hidden: vec![16],
                embed_dim: 8,
                ..DmlConfig::default()
            },
            incremental: None,
            ..AutoCeConfig::default()
        },
        7,
    );

    // Shard the RCS and start the service: one batcher thread, bounded
    // queue, embedding cache, reservoir-bounded adaptation.
    let sharded = ShardedAdvisor::from_advisor(&advisor, 4);
    println!(
        "sharded RCS: {} entries over {} shards {:?}",
        sharded.len(),
        sharded.num_shards(),
        sharded.shards().iter().map(|s| s.len()).collect::<Vec<_>>()
    );
    // Builder-validated config: zero batch/queue/reservoir sizes are
    // rejected at build time instead of wedging the worker later. The
    // registry turns on phase histograms and path counters (see
    // docs/observability.md); the default is disabled and free.
    let registry = MetricsRegistry::new();
    let service = AdvisorService::start(
        sharded,
        ServeConfig {
            max_batch: 8,
            batch_deadline: Duration::from_millis(2),
            reservoir_capacity: 8,
            metrics: registry.clone(),
            ..ServeConfig::default()
        },
    );

    // Concurrent tenants: 4 client threads, each asking about several
    // datasets at its own metric weighting. Requests ride micro-batches;
    // repeated graphs are answered from the embedding cache.
    println!("\nserving 4 concurrent clients...");
    let tenants = generate_batch("tenant", 8, &spec, &mut rng);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let handle = service.handle();
            let tenants = &tenants;
            scope.spawn(move || {
                let w = MetricWeights::new(0.6 + 0.1 * t as f64);
                // Each client starts at its own offset so micro-batches mix
                // distinct tenants.
                for i in 0..tenants.len() {
                    let j = (i + 2 * t) % tenants.len();
                    let rec = handle
                        .recommend(&tenants[j], w)
                        .expect("service is running");
                    if t == 0 {
                        println!(
                            "  tenant-{j}: {} (cache hit: {}, gen {})",
                            rec.model, rec.cache_hit, rec.generation
                        );
                    }
                }
            });
        }
    });
    let s = service.stats();
    // Only cache misses ride micro-batches; hits are answered on the
    // calling thread.
    println!(
        "stats: {} requests, {} encoded in {} micro-batches (avg occupancy {:.1}); {} cache hits",
        s.requests,
        s.cache_misses,
        s.batches,
        s.cache_misses as f64 / s.batches.max(1) as f64,
        s.cache_hits
    );

    // A warm pass: every embedding is already cached, so requests skip the
    // encoder entirely.
    let handle = service.handle();
    let warm_hits = tenants
        .iter()
        .filter(|ds| {
            handle
                .recommend(ds, MetricWeights::new(0.5))
                .expect("service is running")
                .cache_hit
        })
        .count();
    println!(
        "warm pass: {warm_hits}/{} served from the embedding cache",
        tenants.len()
    );

    // A drifted tenant: wildly different schema. The admin path labels it
    // on the testbed, retrains against the bounded reservoir sample (not
    // the full RCS), refreshes shard embeddings and swaps the serving
    // snapshot; concurrent readers never block.
    let mut odd_spec = DatasetSpec::small().multi_table();
    odd_spec.tables = SpecRange { lo: 5, hi: 5 };
    let odd = generate_dataset("tenant-odd", &odd_spec, &mut rng);
    println!("\ninjecting a drifted tenant (5-table schema)...");
    let adapted = service.adapt(&odd, &testbed, 77);
    let snap = service.snapshot();
    println!(
        "adapted: {adapted}; RCS now {} entries, serving generation {}",
        snap.len(),
        snap.generation()
    );
    let rec = service
        .handle()
        .recommend(&odd, MetricWeights::new(0.9))
        .expect("service is running");
    println!(
        "post-adaptation recommendation for tenant-odd: {}",
        rec.model
    );

    // The unified exposition: the registry's phase histograms and path
    // counters plus the service/cache ledgers, rendered as Prometheus
    // text in stable order. An excerpt of the counters this run moved:
    let snap = service.handle().metrics_snapshot();
    println!("\nmetrics exposition (excerpt):");
    for line in snap.render_prometheus().lines().filter(|l| {
        l.starts_with("ce_serve_path_requests_total")
            || l.starts_with("ce_serve_snapshot_swaps_total")
            || l.starts_with("ce_serve_cache_resident")
            || l.starts_with("ce_gnn_train_batches_total")
    }) {
        println!("  {line}");
    }
    let (encode_ns, encode_batches) =
        snap.histogram_totals("ce_serve_encode_ns", &[("path", "worker")]);
    println!(
        "  worker stacked-encode: {encode_batches} batches, {:.1} µs mean",
        encode_ns as f64 * 1e-3 / encode_batches.max(1) as f64
    );
    service.shutdown();
}
