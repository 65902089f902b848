//! Cross-process cluster serving scenario: a trained advisor replicated
//! onto two shard-server processes over loopback TCP, a coordinator that
//! merges their partial top-k answers bit-identically to the in-process
//! advisor — then one replica hard-killed mid-session to show failover
//! changing nothing but the health report.
//!
//! Run with `cargo run --release --example cluster`.

use autoce_suite::autoce::{AdvisorBackend, AutoCe, AutoCeConfig};
use autoce_suite::cluster::{
    maybe_run_shard_server_from_args, spawn_shard_process, ClusterConfig, ClusterCoordinator,
    Connector, MetricsRegistry, TcpConnector,
};
use autoce_suite::datagen::{generate_batch, DatasetSpec};
use autoce_suite::gnn::DmlConfig;
use autoce_suite::models::ModelKind;
use autoce_suite::testbed::{label_datasets, MetricWeights, TestbedConfig};
use autoce_suite::workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    // Self-exec hook: the shard-server children this example spawns are
    // re-executions of this very binary and never get past this line.
    maybe_run_shard_server_from_args();

    let mut rng = StdRng::seed_from_u64(42);
    let spec = DatasetSpec::small().single_table();
    let testbed = TestbedConfig {
        models: vec![ModelKind::Postgres, ModelKind::LwXgb, ModelKind::LwNn],
        train_queries: 80,
        test_queries: 30,
        workload: WorkloadSpec::default(),
    };

    println!("offline: labeling the corpus and training the advisor...");
    let corpus = generate_batch("corpus", 12, &spec, &mut rng);
    let labels = label_datasets(&corpus, &testbed, 3, 0);
    let advisor = AutoCe::train(
        &corpus,
        &labels,
        AutoCeConfig {
            dml: DmlConfig {
                epochs: 6,
                hidden: vec![16],
                embed_dim: 8,
                ..DmlConfig::default()
            },
            k: 2,
            incremental: None,
            ..AutoCeConfig::default()
        },
        7,
    );
    let sharded = AutoCe::from_advisor(&advisor, 1);

    println!("cluster: spawning two replica shard servers on loopback...");
    let exe = std::env::current_exe().expect("own executable path");
    let mut children = Vec::new();
    let mut replicas: Vec<Box<dyn Connector>> = Vec::new();
    for r in 0..2 {
        let (child, addr) = spawn_shard_process(&exe).expect("spawn shard server");
        println!("  replica {r} listening on {addr} (pid {})", child.id());
        replicas.push(Box::new(TcpConnector::new(addr, Duration::from_secs(2))));
        children.push(child);
    }
    // Builder-validated config: bad geometry (zero deadline with retries,
    // zero demote_after) is rejected here, not as a hang at request time.
    // The registry turns on per-range RTT/failover counters (see
    // docs/observability.md); default is disabled and free.
    let registry = MetricsRegistry::new();
    let cfg = ClusterConfig {
        request_deadline: Duration::from_millis(250),
        demote_after: 3,
        metrics: registry.clone(),
        ..ClusterConfig::default()
    };
    let coord = ClusterCoordinator::new(sharded.clone(), vec![replicas], cfg);
    coord.bootstrap().expect("bootstrap replicas");

    let w = MetricWeights::new(0.7);
    let queries: Vec<Vec<f32>> = corpus.iter().take(4).map(|ds| sharded.embed(ds)).collect();
    println!("healthy: cluster answers vs in-process advisor");
    for (i, x) in queries.iter().enumerate() {
        let local = sharded.predict_from_embedding(x, w);
        let remote = coord.predict_from_embedding(x, w).expect("cluster predict");
        assert_eq!(local, remote, "cluster must be bit-identical");
        println!("  query {i}: {:?} (identical over the wire)", remote.0);
    }

    println!("failure: hard-killing replica 0 (no goodbye, no flush)...");
    children[0].kill().expect("kill replica 0");
    children[0].wait().expect("reap replica 0");
    for (i, x) in queries.iter().enumerate() {
        let local = sharded.predict_from_embedding(x, w);
        let remote = coord
            .predict_from_embedding(x, w)
            .expect("failover predict");
        assert_eq!(local, remote, "failover must not change a bit");
        println!(
            "  query {i}: {:?} (still identical after failover)",
            remote.0
        );
    }
    println!("{}", coord.heartbeat().report());

    // The coordinator's own counters saw the failover; the cluster-wide
    // aggregation additionally pulls each live shard's counters over the
    // metrics step, tagged range/replica (the dead replica is
    // silently skipped — observing never changes behavior).
    let local = coord.metrics();
    println!(
        "coordinator metrics (range 0): {} failovers, {} replica failures, {} retries",
        local.counter("ce_cluster_failovers_total", &[("range", "0")]),
        local.counter("ce_cluster_replica_failures_total", &[("range", "0")]),
        local.counter("ce_cluster_retries_total", &[("range", "0")]),
    );
    let agg = coord.cluster_metrics();
    println!("aggregated shard metrics (excerpt, non-zero):");
    for line in agg
        .render_prometheus()
        .lines()
        .filter(|l| l.starts_with("ce_shard_requests_total") && !l.ends_with(" 0"))
    {
        println!("  {line}");
    }

    coord.shutdown_cluster();
    for mut child in children.into_iter().skip(1) {
        let _ = child.wait();
    }
    println!("done: one replica dead, zero bits changed.");
}
