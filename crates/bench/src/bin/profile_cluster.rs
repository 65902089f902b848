//! Cluster-serving profiler: the cross-process coordinator path (loopback
//! TCP, 2 ranges × 2 replicas, real shard-server processes re-executed
//! from this binary) against the in-process [`ShardedAdvisor`], plus the
//! degraded-mode path with one replica hard-killed. Emits
//! `BENCH_cluster.json` at the workspace root with the three trajectory
//! ratios the CI gate tracks:
//!
//! * `cluster_vs_inproc` — in-process ns / cluster ns per request on the
//!   embedding path: the price of crossing process boundaries (expected
//!   < 1; a drop means the wire path got more expensive). The pipelined
//!   fan-out overlaps the per-range round trips, but on this box the
//!   loopback RTT floor (~4.7µs × 2 ranges) dwarfs the ~1.5µs in-process
//!   KNN, bounding this *per-query* ratio well under 0.45 regardless of
//!   coordinator cleverness. Deep wire batches (one `QueryBatch` frame
//!   per range per *batch*) are that RTT floor's fix, and are measured by
//!   the service-fronted ratio below — this batch-of-one number stays as
//!   the honest unbatched baseline;
//! * `failover_vs_healthy` — healthy cluster ns / degraded cluster ns:
//!   what steady-state degraded mode costs relative to a healthy cluster.
//!   With replica demotion the dead primary stops being dialed after its
//!   streak crosses the threshold, so this should sit near 1.0 — the
//!   ratio now *gates the demotion machinery*, where it previously
//!   measured the cost of paying refused dials on every request;
//! * `cluster_batched_vs_inproc` — in-process ns / service-fronted ns per
//!   request on the *graph* path (encode + KNN): concurrent clients
//!   submit 16-graph bursts (`query(Query::graphs(..))`) over the cluster
//!   backend, so each burst runs one stacked encoder forward and one
//!   wire-batched KNN fan-out (`predict_batch`: one
//!   `QueryBatch` frame per range per burst — a 16-deep batch pays 2
//!   RTTs instead of 32). The embedding cache is disabled for the
//!   measurement; the ratio isolates batching, not caching. Two
//!   attribution numbers ride along in the record: `wire_batch_amortization`
//!   (batch-of-one wire votes / 16-deep wire votes, no encode in the
//!   loop — the pure RTT win of batching) and `cluster_queued_vs_inproc`
//!   (the same workload submitted one request at a time through the
//!   micro-batch queue; on this 1-CPU runner its gap to the burst path
//!   is per-request queue handoff and thread scheduling, not the wire).
//!
//! Answers are verified bit-identical to the in-process advisor on every
//! path before anything is timed.

use autoce::{AutoCe, AutoCeConfig, RcsEntry};
use ce_cluster::{
    maybe_run_shard_server_from_args, spawn_shard_process, ClusterConfig, ClusterCoordinator,
    Connector, MetricsRegistry, ShardedAdvisor, TcpConnector, PROTOCOL_VERSION,
};
use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_gnn::{DmlConfig, GinEncoder};
use ce_models::ModelKind;
use ce_serve::{AdvisorService, Query, ServeConfig};
use ce_testbed::MetricWeights;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RANGES: usize = 2;
const REPLICAS_PER_RANGE: usize = 2;
const RCS: usize = 96;
const QUERIES: usize = 48;
const REPS: usize = 50;
/// Client threads driving the service-fronted graph-path measurement.
const CLIENTS: usize = 4;
/// Per-client passes over the query pool in that measurement (the graph
/// path pays a real encode per request, so it runs fewer repetitions).
const GRAPH_REPS: usize = 12;
/// Burst depth for the batched measurement — matches the service's
/// `max_batch`, so one burst is exactly one wire batch per range.
const BURST: usize = 16;

fn main() {
    // Children of this binary become shard servers and never return.
    maybe_run_shard_server_from_args();

    let mut rng = StdRng::seed_from_u64(0x5e57e);
    let mut spec = DatasetSpec::small().multi_table();
    spec.tables = SpecRange { lo: 10, hi: 16 };
    let fcfg = FeatureConfig::default();
    let mut graph =
        |name: String| extract_features(&generate_dataset(name, &spec, &mut rng), &fcfg);
    let rcs_graphs: Vec<FeatureGraph> = (0..RCS).map(|i| graph(format!("r{i}"))).collect();
    let pool: Vec<FeatureGraph> = (0..QUERIES).map(|i| graph(format!("q{i}"))).collect();
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
    let flat = AutoCe::from_parts(
        AutoCeConfig {
            k: 2,
            incremental: None,
            dml,
            ..AutoCeConfig::default()
        },
        enc,
        entries,
    );
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let w = MetricWeights::new(0.7);
    let xs: Vec<Vec<f32>> = pool.iter().map(|g| flat.embed_graph(g)).collect();

    let exe = std::env::current_exe().expect("own path");
    let mut children = Vec::new();
    let mut connectors: Vec<Vec<Box<dyn Connector>>> = Vec::new();
    for _range in 0..RANGES {
        let mut row: Vec<Box<dyn Connector>> = Vec::new();
        for _r in 0..REPLICAS_PER_RANGE {
            let (child, addr) = spawn_shard_process(&exe).expect("spawn shard server");
            row.push(Box::new(TcpConnector::new(addr, Duration::from_secs(2))));
            children.push(child);
        }
        connectors.push(row);
    }
    // One registry for the coordinator and the service front: the wire
    // phase histograms (`ce_cluster_rtt_ns`) and the serving phase
    // histograms (`ce_serve_*`) land in one snapshot, replacing
    // hand-rolled phase timers with the spans production serving records.
    let registry = MetricsRegistry::new();
    let mut ccfg = ClusterConfig::no_sleep();
    ccfg.metrics = registry.clone();
    let coord = Arc::new(ClusterCoordinator::new(sharded.clone(), connectors, ccfg));
    coord.bootstrap().expect("bootstrap over loopback");

    // Correctness before timing: every path answers flat-identically.
    for x in &xs {
        assert_eq!(
            sharded.predict_from_embedding(x, w),
            coord.predict_from_embedding(x, w).expect("healthy predict"),
            "cluster answer differs from in-process"
        );
    }

    let requests = (REPS * QUERIES) as f64;
    let time_ns = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..REPS {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / requests
    };
    let inproc_ns = time_ns(&mut || {
        for x in &xs {
            black_box(sharded.predict_from_embedding(x, w));
        }
    });
    // Bracket the healthy loop with registry snapshots: the delta of the
    // `ce_cluster_rtt_ns` sums is the wall time the loop spent inside
    // wire round trips — the phase attribution the hand-rolled timer
    // can't give, and the figure `bench_trajectory.py` cross-checks the
    // end-to-end number against.
    let rtt_total = |snap: &ce_cluster::MetricsSnapshot| -> u64 {
        (0..RANGES)
            .map(|r| {
                snap.histogram_totals("ce_cluster_rtt_ns", &[("range", &r.to_string())])
                    .0
            })
            .sum()
    };
    let rtt_before = rtt_total(&coord.metrics());
    let healthy_ns = time_ns(&mut || {
        for x in &xs {
            black_box(coord.predict_from_embedding(x, w).expect("healthy"));
        }
    });
    let snapshot_rtt_ns = (rtt_total(&coord.metrics()) - rtt_before) as f64 / requests;

    // Pure wire-vote amortization (no encode anywhere in the loop): the
    // same embeddings voted one at a time (a batch-of-one `QueryBatch`
    // frame per range per query) against voted in 16-deep wire batches
    // (one frame per range per chunk). This is batching's RTT win in
    // isolation.
    let wire_vote_serial_ns = time_ns(&mut || {
        for x in &xs {
            black_box(coord.predict_from_embedding(x, w).expect("serial vote"));
        }
    });
    let wire_vote_batched_ns = time_ns(&mut || {
        for chunk in xs.chunks(BURST) {
            let reqs: Vec<autoce::BatchPredictRequest<'_>> = chunk
                .iter()
                .map(|x| autoce::BatchPredictRequest {
                    embedding: x,
                    w,
                    exclude: usize::MAX,
                })
                .collect();
            black_box(coord.predict_batch(&reqs).expect("batched vote"));
        }
    });
    let wire_batch_amortization = wire_vote_serial_ns / wire_vote_batched_ns.max(1.0);

    // Service-fronted batched graph path: CLIENTS threads submit feature
    // graphs, the service micro-batches the encodes into stacked forwards
    // and fans the KNN out over the wire through the same coordinator.
    // Cache capacity 0: every request pays a real encode, so the ratio
    // isolates batching (the cache would hide exactly the cost being
    // measured). The in-process baseline is the same graph path, one
    // request at a time.
    let inproc_graph_ns = {
        let t = Instant::now();
        for _ in 0..GRAPH_REPS {
            for g in &pool {
                let x = sharded.embed_graph(g);
                black_box(sharded.predict_from_embedding(&x, w));
            }
        }
        t.elapsed().as_secs_f64() * 1e9 / (GRAPH_REPS * QUERIES) as f64
    };
    let service = AdvisorService::start_shared(
        coord.clone(),
        ServeConfig::builder()
            .max_batch(16)
            // Zero deadline: the worker never sleeps while work exists.
            // Clients block on their replies, so a straggler wait could
            // only ever spend idle time — natural batching comes from
            // requests that queue while the previous batch is in flight.
            .batch_deadline(Duration::ZERO)
            .cache_capacity(0)
            .metrics(registry.clone())
            .build()
            .expect("valid serve config"),
    );
    // Correctness first: the service front answers the graph path
    // flat-identically, per request and per burst.
    for (g, x) in pool.iter().zip(&xs) {
        let rec = service
            .handle()
            .recommend_graph(g.clone(), w)
            .expect("service predict");
        assert_eq!(
            (rec.model, rec.scores),
            sharded.predict_from_embedding(x, w),
            "service-fronted answer differs from in-process"
        );
    }
    for (rec, x) in service
        .handle()
        .query(Query::graphs(pool.clone(), w))
        .expect("service burst")
        .into_iter()
        .zip(&xs)
    {
        assert_eq!(
            (rec.model, rec.scores),
            sharded.predict_from_embedding(x, w),
            "burst answer differs from in-process"
        );
    }
    let batched_requests = (CLIENTS * GRAPH_REPS * QUERIES) as f64;
    // Attribution: the same workload submitted one request at a time
    // through the micro-batch queue. Its batches are as deep as scheduling
    // happens to make them, and each request pays a queue handoff.
    let queued_ns = {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let handle = service.handle();
                let pool = &pool;
                scope.spawn(move || {
                    for rep in 0..GRAPH_REPS {
                        for i in 0..pool.len() {
                            // Offset clients so batches mix distinct graphs.
                            let j = (i + c * 7 + rep) % pool.len();
                            black_box(
                                handle
                                    .recommend_graph(pool[j].clone(), w)
                                    .expect("service predict"),
                            );
                        }
                    }
                });
            }
        });
        t.elapsed().as_secs_f64() * 1e9 / batched_requests
    };
    let service_stats = service.stats();
    assert!(
        service_stats.batches < service_stats.requests,
        "micro-batching never engaged"
    );
    // Headline: clients submit 16-graph bursts — the micro-batcher's
    // design depth. Each burst is one stacked encoder forward plus one
    // `QueryBatch` frame per range; no queue handoff.
    let batched_ns = {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let handle = service.handle();
                let pool = &pool;
                scope.spawn(move || {
                    for rep in 0..GRAPH_REPS {
                        for (b, chunk) in pool.chunks(BURST).enumerate() {
                            // Offset clients so concurrent bursts mix
                            // distinct graphs.
                            let mut burst: Vec<FeatureGraph> = chunk.to_vec();
                            burst.rotate_left((c * 3 + rep + b) % chunk.len());
                            black_box(
                                handle
                                    .query(Query::graphs(burst, w))
                                    .expect("service burst"),
                            );
                        }
                    }
                });
            }
        });
        t.elapsed().as_secs_f64() * 1e9 / batched_requests
    };
    service.shutdown();

    // Degraded mode: hard-kill the primary of range 0. The first few
    // requests pay its refused dials; once the dead-streak crosses
    // `demote_after` the replica is demoted and the steady state stops
    // dialing it — so this path now times the demotion machinery, not an
    // endless retry tax.
    children[0].kill().expect("kill primary");
    children[0].wait().expect("reap");
    for x in &xs {
        assert_eq!(
            sharded.predict_from_embedding(x, w),
            coord
                .predict_from_embedding(x, w)
                .expect("degraded predict"),
            "failover answer differs from in-process"
        );
    }
    let failover_ns = time_ns(&mut || {
        for x in &xs {
            black_box(coord.predict_from_embedding(x, w).expect("degraded"));
        }
    });
    let health = coord.health();
    assert!(health.degraded() && !health.any_range_dark());

    // Registry-derived failover attribution: what the degraded phase cost
    // in failovers/demotions, read from the coordinator's own counters.
    let snap = coord.metrics();
    let range0 = |name: &str| snap.counter(name, &[("range", "0")]);
    println!(
        "range-0 fault counters: replica_failures {} | failovers {} | demotes {} | retries {}",
        range0("ce_cluster_replica_failures_total"),
        range0("ce_cluster_failovers_total"),
        range0("ce_cluster_demotes_total"),
        range0("ce_cluster_retries_total"),
    );
    // Cluster-wide aggregation over the wire (the metrics step):
    // surviving shards report how many queries they actually served.
    let cluster_snap = coord.cluster_metrics();
    let shard_queries: u64 = (0..RANGES)
        .flat_map(|r| (0..REPLICAS_PER_RANGE).map(move |p| (r, p)))
        .map(|(r, p)| {
            cluster_snap.counter(
                "ce_shard_requests_total",
                &[
                    ("step", "coord_send_query_batch"),
                    ("range", &r.to_string()),
                    ("replica", &p.to_string()),
                ],
            )
        })
        .sum();
    assert!(shard_queries > 0, "aggregated shard metrics must be live");
    println!("shard-reported query frames (cluster_metrics): {shard_queries}");
    // Service phase attribution for the graph path, from the same spans
    // production serving records (worker = micro-batch queue path,
    // inline = burst path).
    for path in ["worker", "inline"] {
        let (enc, enc_n) = snap.histogram_totals("ce_serve_encode_ns", &[("path", path)]);
        let (vote, vote_n) = snap.histogram_totals("ce_serve_vote_ns", &[("path", path)]);
        println!(
            "service {path} phases: encode {:.1}µs/batch ({enc_n} batches) | \
             vote {:.1}µs/batch ({vote_n} batches)",
            enc as f64 * 1e-3 / enc_n.max(1) as f64,
            vote as f64 * 1e-3 / vote_n.max(1) as f64,
        );
    }

    coord.shutdown_cluster();
    for mut child in children.into_iter().skip(1) {
        let _ = child.wait();
    }

    let cluster_vs_inproc = inproc_ns / healthy_ns.max(1.0);
    let failover_vs_healthy = healthy_ns / failover_ns.max(1.0);
    let cluster_batched_vs_inproc = inproc_graph_ns / batched_ns.max(1.0);
    let cluster_queued_vs_inproc = inproc_graph_ns / queued_ns.max(1.0);
    println!(
        "cluster per-request ns: inproc {inproc_ns:.0} | healthy {healthy_ns:.0} \
         (cluster_vs_inproc {cluster_vs_inproc:.3}x) | degraded {failover_ns:.0} \
         (failover_vs_healthy {failover_vs_healthy:.3}x) | registry wire-RTT share \
         {snapshot_rtt_ns:.0} ({:.0}%)",
        snapshot_rtt_ns / healthy_ns.max(1.0) * 100.0
    );
    println!(
        "wire vote per-query ns: serial {wire_vote_serial_ns:.0} | 16-deep batched \
         {wire_vote_batched_ns:.0} (wire_batch_amortization {wire_batch_amortization:.3}x)"
    );
    println!(
        "graph path per-request ns: inproc {inproc_graph_ns:.0} | service-fronted \
         burst {batched_ns:.0} (cluster_batched_vs_inproc {cluster_batched_vs_inproc:.3}x) \
         | queued singles {queued_ns:.0} (cluster_queued_vs_inproc \
         {cluster_queued_vs_inproc:.3}x)"
    );

    let record = serde_json::json!({
        "protocol_version": PROTOCOL_VERSION,
        "rcs_entries": RCS,
        "ranges": RANGES,
        "replicas_per_range": REPLICAS_PER_RANGE,
        "requests_per_run": requests as u64,
        "inproc_ns_per_request": inproc_ns,
        "cluster_ns_per_request": healthy_ns,
        // Snapshot-derived wire phase total for the healthy serial loop:
        // the `ce_cluster_rtt_ns` sum delta per request. On loopback the
        // RTT dominates cluster serving, so `bench_trajectory.py`
        // cross-checks it against `cluster_ns_per_request` (warn > 15%).
        "snapshot_rtt_ns_per_request": snapshot_rtt_ns,
        "failover_ns_per_request": failover_ns,
        "inproc_graph_ns_per_request": inproc_graph_ns,
        "cluster_batched_ns_per_request": batched_ns,
        "cluster_queued_ns_per_request": queued_ns,
        "wire_vote_serial_ns": wire_vote_serial_ns,
        "wire_vote_batched_ns": wire_vote_batched_ns,
        "cluster_vs_inproc": cluster_vs_inproc,
        "failover_vs_healthy": failover_vs_healthy,
        "cluster_batched_vs_inproc": cluster_batched_vs_inproc,
        "cluster_queued_vs_inproc": cluster_queued_vs_inproc,
        "wire_batch_amortization": wire_batch_amortization,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    let bytes = serde_json::to_vec_pretty(&record).expect("serializable record");
    std::fs::write(path, bytes).expect("write BENCH_cluster.json");
    println!("[bench] wrote {path}");
}
