//! Backend parity: the micro-batched [`AdvisorService`] must answer
//! bit-identically over every [`AdvisorBackend`] — the flat advisor, the
//! in-process sharded advisor, and the cluster coordinator fronting a
//! simulated wire — and bit-identically to calling the backend directly.
//! The service's conveniences (micro-batching across client threads, the
//! embedding cache, snapshot swaps) must never change a bit either.

mod common;

use autoce::{AdvisorBackend, AutoCe, BatchPredictRequest};
use ce_cluster::{ClusterConfig, ClusterCoordinator, FaultPlan, ShardedAdvisor, SimNet};
use ce_features::FeatureGraph;
use ce_models::ModelKind;
use ce_serve::{AdvisorService, IndexConfig, Query, ServeConfig};
use ce_testbed::MetricWeights;
use std::sync::Arc;
use std::time::Duration;

const RANGES: usize = 2;
const REPLICAS_PER_RANGE: usize = 2;

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_millis(2),
        queue_capacity: 64,
        cache_capacity: 128,
        seed: 99,
        ..ServeConfig::default()
    }
}

/// The request workload: every RCS entry's own graph (so answers span the
/// whole table, including KNN tie cases the fixtures are built to hit).
fn graphs(flat: &AutoCe) -> Vec<FeatureGraph> {
    flat.rcs().iter().map(|e| e.graph.clone()).collect()
}

/// Ground truth straight off the flat advisor: embed, then vote.
fn expected(flat: &AutoCe, w: MetricWeights) -> Vec<(ModelKind, Vec<f64>)> {
    graphs(flat)
        .iter()
        .map(|g| {
            let x = flat.embed_graph(g);
            flat.predict_from_embedding(&x, w)
        })
        .collect()
}

/// Drives `clients` threads through the service and checks every answer
/// against `want`, then a single-threaded second pass that must be served
/// from the embedding cache with the same bits.
fn hammer<B: AdvisorBackend + 'static>(
    service: &AdvisorService<B>,
    graphs: &[FeatureGraph],
    want: &[(ModelKind, Vec<f64>)],
    w: MetricWeights,
    clients: usize,
    label: &str,
) {
    std::thread::scope(|scope| {
        for t in 0..clients {
            let handle = service.handle();
            scope.spawn(move || {
                for i in 0..graphs.len() {
                    let j = (i + t * 3) % graphs.len();
                    let rec = handle
                        .recommend_graph(graphs[j].clone(), w)
                        .expect("service is running");
                    assert_eq!(
                        (rec.model, rec.scores),
                        (want[j].0, want[j].1.clone()),
                        "{label}: client {t} of {clients}, graph {j}"
                    );
                }
            });
        }
    });
    let hits_before = service.stats().cache_hits;
    let handle = service.handle();
    for (g, want) in graphs.iter().zip(want) {
        let rec = handle.recommend_graph(g.clone(), w).expect("running");
        assert!(rec.cache_hit, "{label}: warm pass must hit the cache");
        assert_eq!((rec.model, rec.scores), (want.0, want.1.clone()), "{label}");
    }
    assert!(
        service.stats().cache_hits >= hits_before + graphs.len() as u64,
        "{label}: cache-hit counter must advance"
    );
}

/// One service per backend shape, each hammered at 1/2/4/8 client
/// threads: the flat advisor, the sharded advisor, and the cluster
/// coordinator over a healthy simulated wire all answer with the same
/// bits as the flat advisor called directly.
#[test]
fn service_answers_identically_over_flat_sharded_and_cluster_backends() {
    let flat = common::synthetic_flat(11, 3);
    let w = MetricWeights::new(0.7);
    let want = expected(&flat, w);
    let gs = graphs(&flat);

    for clients in [1usize, 2, 4, 8] {
        // Flat backend (rebuilt from parts — the synthetic fixture is
        // bit-identical on every construction).
        let service = AdvisorService::start(common::synthetic_flat(11, 3), serve_config());
        hammer(&service, &gs, &want, w, clients, "flat");
        service.shutdown();

        // Sharded backend.
        let service = AdvisorService::start(
            ShardedAdvisor::from_advisor(&flat, RANGES + 1),
            serve_config(),
        );
        hammer(&service, &gs, &want, w, clients, "sharded");
        service.shutdown();

        // Cluster backend over a healthy SimNet; the caller keeps the
        // admin handle while queries ride the service.
        let net = SimNet::new(RANGES * REPLICAS_PER_RANGE, FaultPlan::none());
        let coord = Arc::new(ClusterCoordinator::over_sim(
            ShardedAdvisor::from_advisor(&flat, RANGES),
            &net,
            REPLICAS_PER_RANGE,
            ClusterConfig::no_sleep(),
        ));
        coord.bootstrap().expect("bootstrap");
        let service = AdvisorService::start_shared(coord.clone(), serve_config());
        hammer(&service, &gs, &want, w, clients, "cluster");
        assert!(
            !coord.health().degraded(),
            "a healthy net must stay healthy under service traffic"
        );
        service.shutdown();
    }
}

/// Burst submissions ([`Query::graphs`] through
/// [`ce_serve::ServeHandle::query`]) over the cluster backend ride the
/// wire-batched path — one `QueryBatch` frame per shard range per burst —
/// and must answer with
/// exactly the flat advisor's bits at every client-thread count, cold and
/// from the warm cache alike.
#[test]
fn burst_submissions_ride_the_batched_wire_path_bit_identically() {
    let flat = common::synthetic_flat(11, 3);
    let w = MetricWeights::new(0.7);
    let want = expected(&flat, w);
    let gs = graphs(&flat);

    for clients in [1usize, 2, 4, 8] {
        let net = SimNet::new(RANGES * REPLICAS_PER_RANGE, FaultPlan::none());
        let coord = Arc::new(ClusterCoordinator::over_sim(
            ShardedAdvisor::from_advisor(&flat, RANGES),
            &net,
            REPLICAS_PER_RANGE,
            ClusterConfig::no_sleep(),
        ));
        coord.bootstrap().expect("bootstrap");
        let service = AdvisorService::start_shared(coord.clone(), serve_config());
        std::thread::scope(|scope| {
            for t in 0..clients {
                let handle = service.handle();
                let gs = &gs;
                let want = &want;
                scope.spawn(move || {
                    // Rotate each thread's burst so concurrent batches
                    // disagree about submission order.
                    let mut burst: Vec<FeatureGraph> = gs.to_vec();
                    let rot = t % burst.len();
                    burst.rotate_left(rot);
                    let recs = handle.query(Query::graphs(burst, w)).expect("burst");
                    for (i, rec) in recs.into_iter().enumerate() {
                        let j = (i + t) % want.len();
                        assert_eq!(
                            (rec.model, rec.scores),
                            (want[j].0, want[j].1.clone()),
                            "burst at {clients} clients: thread {t}, slot {i}"
                        );
                    }
                });
            }
        });
        // Warm pass: the whole burst is cache-servable and still batches
        // its votes over the wire with identical bits.
        let recs = service
            .handle()
            .query(Query::graphs(gs.clone(), w))
            .expect("warm burst");
        for (rec, want) in recs.into_iter().zip(&want) {
            assert!(rec.cache_hit, "warm burst must hit the cache");
            assert_eq!((rec.model, rec.scores), (want.0, want.1.clone()));
        }
        assert!(
            !coord.health().degraded(),
            "batched traffic must keep a healthy net healthy"
        );
        service.shutdown();
    }
}

/// The unified [`Query`] entrypoint — the single core path `recommend`
/// and `recommend_graph` lower into — over every backend shape **with a
/// two-stage KNN index installed** (via `ServeConfig::index` for the
/// owned backends, `ClusterConfig::index` for the cluster authority):
/// 1/2/4/8 client threads, owned and borrowed query forms, all
/// bit-identical to the flat advisor called directly.
#[test]
fn unified_query_entrypoint_is_bit_identical_over_all_backends() {
    let flat = common::synthetic_flat(11, 3);
    let w = MetricWeights::new(0.7);
    let want = expected(&flat, w);
    let gs = graphs(&flat);
    let index_cfg = || {
        IndexConfig::builder()
            .partitions(3)
            .probe(2)
            .min_rcs_for_index(4)
            .build()
            .expect("valid index config")
    };
    let indexed_serve_config = || ServeConfig {
        max_batch: 8,
        queue_capacity: 64,
        cache_capacity: 128,
        seed: 99,
        index: Some(index_cfg()),
        ..ServeConfig::default()
    };

    // One helper drives a service through `query` in both forms;
    // `recommend_graph` is covered by the other parity tests in this file.
    fn drive<B: AdvisorBackend + 'static>(
        service: &AdvisorService<B>,
        gs: &[FeatureGraph],
        want: &[(ModelKind, Vec<f64>)],
        w: MetricWeights,
        clients: usize,
        label: &str,
    ) {
        std::thread::scope(|scope| {
            for t in 0..clients {
                let handle = service.handle();
                scope.spawn(move || {
                    // Owned burst through the core path.
                    let mut burst: Vec<FeatureGraph> = gs.to_vec();
                    let rot = t % burst.len();
                    burst.rotate_left(rot);
                    let recs = handle.query(Query::graphs(burst, w)).expect("owned query");
                    for (i, rec) in recs.into_iter().enumerate() {
                        let j = (i + t) % want.len();
                        assert_eq!(
                            (rec.model, rec.scores),
                            (want[j].0, want[j].1.clone()),
                            "{label}: owned query, {clients} clients, thread {t}, slot {i}"
                        );
                    }
                    // Borrowed burst: zero-clone on the warm path.
                    let refs: Vec<&FeatureGraph> = gs.iter().collect();
                    let recs = handle
                        .query(Query::graph_refs(&refs, w))
                        .expect("borrowed query");
                    for (rec, want) in recs.into_iter().zip(want) {
                        assert_eq!(
                            (rec.model, rec.scores),
                            (want.0, want.1.clone()),
                            "{label}: borrowed query, {clients} clients, thread {t}"
                        );
                    }
                });
            }
        });
    }

    for clients in [1usize, 2, 4, 8] {
        let service = AdvisorService::start(common::synthetic_flat(11, 3), indexed_serve_config());
        drive(&service, &gs, &want, w, clients, "flat+index");
        service.shutdown();

        let service = AdvisorService::start(
            ShardedAdvisor::from_advisor(&flat, RANGES + 1),
            indexed_serve_config(),
        );
        drive(&service, &gs, &want, w, clients, "sharded+index");
        service.shutdown();

        let net = SimNet::new(RANGES * REPLICAS_PER_RANGE, FaultPlan::none());
        let coord = Arc::new(ClusterCoordinator::over_sim(
            ShardedAdvisor::from_advisor(&flat, RANGES),
            &net,
            REPLICAS_PER_RANGE,
            ClusterConfig {
                index: Some(index_cfg()),
                ..ClusterConfig::no_sleep()
            },
        ));
        coord.bootstrap().expect("bootstrap");
        let service = AdvisorService::start_shared(coord.clone(), serve_config());
        drive(&service, &gs, &want, w, clients, "cluster+index");
        assert!(!coord.health().degraded());
        service.shutdown();
    }
}

/// Concurrent direct [`ClusterCoordinator::predict_batch`] calls — with
/// per-query metric weights and exclusions mixed *inside* each batch —
/// answer bit-identically to per-query `predict_excluding` on the
/// in-process sharded advisor, from 1 to 8 caller threads.
#[test]
fn concurrent_predict_batch_matches_per_query_bits() {
    let flat = common::synthetic_flat(11, 3);
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let ws = [MetricWeights::new(0.7), MetricWeights::new(0.3)];
    let cases: Vec<(Vec<f32>, MetricWeights, usize)> = graphs(&flat)
        .iter()
        .enumerate()
        .flat_map(|(i, g)| {
            let x = flat.embed_graph(g);
            [usize::MAX, 0, 7]
                .into_iter()
                .map(move |exclude| (x.clone(), ws[i % 2], exclude))
                .collect::<Vec<_>>()
        })
        .collect();
    let want: Vec<(ModelKind, Vec<f64>)> = cases
        .iter()
        .map(|(x, w, exclude)| sharded.predict_excluding(x, *w, *exclude))
        .collect();

    let net = SimNet::new(RANGES * REPLICAS_PER_RANGE, FaultPlan::none());
    let coord = Arc::new(ClusterCoordinator::over_sim(
        sharded,
        &net,
        REPLICAS_PER_RANGE,
        ClusterConfig::no_sleep(),
    ));
    coord.bootstrap().expect("bootstrap");
    for clients in [1usize, 2, 4, 8] {
        std::thread::scope(|scope| {
            for t in 0..clients {
                let coord = coord.clone();
                let cases = &cases;
                let want = &want;
                scope.spawn(move || {
                    // Each thread batches the workload at a different
                    // depth, so concurrent calls interleave mid-workload.
                    let depth = [2usize, 3, 4, 5][t % 4];
                    let mut got = Vec::new();
                    for chunk in cases.chunks(depth) {
                        let reqs: Vec<BatchPredictRequest<'_>> = chunk
                            .iter()
                            .map(|(x, w, exclude)| BatchPredictRequest {
                                embedding: x,
                                w: *w,
                                exclude: *exclude,
                            })
                            .collect();
                        got.extend(coord.predict_batch(&reqs).expect("batched predict"));
                    }
                    assert_eq!(
                        &got, want,
                        "{clients} clients: thread {t} (depth {depth}) drifted"
                    );
                });
            }
        });
    }
    assert!(!coord.health().degraded());
}

/// Admin mutations through the caller-held coordinator handle — push and
/// epoch snapshot — flow through to service answers with the same bits as
/// an in-process mirror, and the embedding cache stays correct across the
/// snapshot (the encoder did not change, so cached embeddings remain
/// valid while the recommendations move with the new RCS state).
#[test]
fn service_fronted_cluster_tracks_push_and_snapshot_bit_identically() {
    let flat = common::synthetic_flat(9, 3);
    let w = MetricWeights::new(0.5);
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let mut mirror = sharded.clone();
    let net = SimNet::new(RANGES * REPLICAS_PER_RANGE, FaultPlan::none());
    let coord = Arc::new(ClusterCoordinator::over_sim(
        sharded,
        &net,
        REPLICAS_PER_RANGE,
        ClusterConfig::no_sleep(),
    ));
    coord.bootstrap().expect("bootstrap");
    let service = AdvisorService::start_shared(coord.clone(), serve_config());
    let handle = service.handle();
    let gs = graphs(&flat);

    // Warm the cache on the pre-mutation state.
    for g in &gs {
        let rec = handle.recommend_graph(g.clone(), w).expect("running");
        let x = mirror.embed_graph(g);
        let want = mirror.predict_from_embedding(&x, w);
        assert_eq!((rec.model, rec.scores), want);
    }

    // Push through the admin handle; the mirror pushes the same entry.
    let label = common::synthetic_label(&mirror.shards()[0].entries()[0].kinds);
    let graph = FeatureGraph {
        vertices: vec![vec![0.3, 0.3, 0.3, 0.3]],
        edges: vec![vec![0.0]],
    };
    let id = coord.push_entry(graph.clone(), &label).expect("push");
    assert_eq!(id, mirror.push_entry(graph, &label));
    for g in &gs {
        let rec = handle.recommend_graph(g.clone(), w).expect("running");
        assert!(rec.cache_hit, "push must not invalidate the cache");
        let x = mirror.embed_graph(g);
        assert_eq!(
            (rec.model, rec.scores),
            mirror.predict_from_embedding(&x, w),
            "post-push answers must track the mirror"
        );
    }
    // A whole burst against the post-push state: one wire batch per
    // range, every answer tracking the mirror, all from the warm cache.
    let recs = handle.query(Query::graphs(gs.clone(), w)).expect("burst");
    for (rec, g) in recs.into_iter().zip(&gs) {
        assert!(rec.cache_hit, "post-push burst must stay cache-served");
        let x = mirror.embed_graph(g);
        assert_eq!(
            (rec.model, rec.scores),
            mirror.predict_from_embedding(&x, w),
            "post-push burst must track the mirror"
        );
    }

    // Epoch snapshot through the admin handle; embeddings refresh on both
    // sides.
    mirror.refresh_embeddings();
    let epoch = coord.refresh_and_snapshot().expect("snapshot");
    assert_eq!(epoch, 1);
    for g in &gs {
        let rec = handle.recommend_graph(g.clone(), w).expect("running");
        assert!(
            rec.cache_hit,
            "the encoder did not change; cached query embeddings stay valid"
        );
        let x = mirror.embed_graph(g);
        assert_eq!(
            (rec.model, rec.scores),
            mirror.predict_from_embedding(&x, w),
            "post-snapshot answers must track the mirror"
        );
    }
    // And the direct batched fan-out against the new epoch: the whole
    // workload in one `predict_batch`, bit-identical to the mirror.
    let xs: Vec<Vec<f32>> = gs.iter().map(|g| mirror.embed_graph(g)).collect();
    let reqs: Vec<BatchPredictRequest<'_>> = xs
        .iter()
        .map(|x| BatchPredictRequest {
            embedding: x,
            w,
            exclude: usize::MAX,
        })
        .collect();
    let batched = coord.predict_batch(&reqs).expect("post-snapshot batch");
    for (got, x) in batched.into_iter().zip(&xs) {
        assert_eq!(
            got,
            mirror.predict_from_embedding(x, w),
            "post-snapshot batched fan-out must track the mirror"
        );
    }
    assert!(!coord.heartbeat().degraded());
    service.shutdown();
}

proptest::proptest! {
    /// A single query is a batch of one: `predict_excluding`, a
    /// one-element `predict_batch` and the in-process sharded advisor
    /// agree bit for bit, with and without an in-range exclusion. Query
    /// coordinates sit on the quarter lattice the fixture's embeddings
    /// use, so distance ties (broken by global id) are the common case.
    #[test]
    fn single_query_is_a_batch_of_one(
        quarters in proptest::collection::vec(-4i64..=12, 3),
        alpha in 0.0f64..=1.0,
        excluded in 0usize..11,
        exclude_nothing in 0usize..2,
    ) {
        let sharded = ShardedAdvisor::from_advisor(&common::synthetic_flat(11, 3), RANGES);
        let net = SimNet::new(RANGES * REPLICAS_PER_RANGE, FaultPlan::none());
        let coord = ClusterCoordinator::over_sim(
            sharded.clone(),
            &net,
            REPLICAS_PER_RANGE,
            ClusterConfig::no_sleep(),
        );
        coord.bootstrap().expect("bootstrap");
        let x: Vec<f32> = quarters.iter().map(|&q| q as f32 * 0.25).collect();
        let w = MetricWeights::new(alpha);
        let exclude = if exclude_nothing == 1 { usize::MAX } else { excluded };
        let want = sharded.predict_excluding(&x, w, exclude);
        let single = coord.predict_excluding(&x, w, exclude).expect("single");
        let batch = coord
            .predict_batch(&[BatchPredictRequest { embedding: &x, w, exclude }])
            .expect("batch of one");
        proptest::prop_assert_eq!(&single, &want);
        proptest::prop_assert_eq!(batch, vec![want]);
    }
}
