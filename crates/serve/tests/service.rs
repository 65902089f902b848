//! End-to-end service tests: concurrent micro-batched serving must match
//! the flat advisor exactly; online adaptation must be reservoir-bounded
//! and swap snapshots without disturbing concurrent readers.

mod common;
mod faulty;

use autoce::{AdvisorBackend, AdvisorError, AutoCe};
use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_features::extract_features;
use ce_serve::{AdvisorService, Query, Reservoir, ServeConfig};
use ce_storage::Dataset;
use ce_testbed::MetricWeights;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_millis(2),
        queue_capacity: 64,
        cache_capacity: 128,
        reservoir_capacity: 4,
        seed: 99,
        ..ServeConfig::default()
    }
}

#[test]
fn concurrent_clients_get_flat_identical_answers() {
    let (datasets, flat) = common::trained_advisor(10, 0x5eb5);
    let w = MetricWeights::new(0.9);
    let expected: Vec<_> = datasets
        .iter()
        .map(|ds| {
            let x = flat.embed(ds);
            flat.predict_from_embedding(&x, w)
        })
        .collect();
    let graphs: Vec<_> = datasets
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();

    let service = AdvisorService::start(AutoCe::from_advisor(&flat, 3), serve_config());
    std::thread::scope(|scope| {
        for t in 0..4 {
            let handle = service.handle();
            let graphs = &graphs;
            let expected = &expected;
            scope.spawn(move || {
                // Each client walks the datasets from a different offset so
                // batches mix distinct graphs.
                for i in 0..graphs.len() {
                    let j = (i + t * 3) % graphs.len();
                    let rec = handle
                        .recommend_graph(graphs[j].clone(), w)
                        .expect("service is running");
                    assert_eq!(rec.model, expected[j].0, "client {t} dataset {j}");
                    assert_eq!(rec.scores, expected[j].1, "client {t} dataset {j}");
                    assert_eq!(rec.generation, 0);
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.requests, 40);
    assert!(stats.batches >= 1, "micro-batching must engage");
    assert_eq!(stats.cache_hits + stats.cache_misses, 40);
    assert!(
        stats.cache_misses >= 10,
        "each distinct graph must be encoded at least once"
    );

    // A second, single-threaded pass is fully cache-served and still
    // answers with identical bits.
    let handle = service.handle();
    for (g, expect) in graphs.iter().zip(&expected) {
        let rec = handle.recommend_graph(g.clone(), w).expect("running");
        assert!(rec.cache_hit, "second pass must hit the embedding cache");
        assert_eq!((rec.model, rec.scores), (expect.0, expect.1.clone()));
    }
    service.shutdown();
}

/// Five tables against the fixtures' single-table corpus. Whether it
/// drifts depends on the fixture's detector threshold, which is fitted to
/// the nearest-neighbour distances of the trained RCS: with the fixtures'
/// wall-clock label fields pinned it drifts against the 16-dataset
/// fixtures used here and does not against an 8-dataset one.
fn five_table_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(3);
    let mut spec = DatasetSpec::small().multi_table();
    spec.tables = SpecRange { lo: 5, hi: 5 };
    generate_dataset("odd", &spec, &mut rng)
}

#[test]
fn adaptation_is_reservoir_bounded_and_swaps_snapshots() {
    let (datasets, flat) = common::trained_advisor(16, 0xada2);
    let service = AdvisorService::start(AutoCe::from_advisor(&flat, 3), serve_config());
    let testbed = common::testbed();
    let w = MetricWeights::new(0.5);

    // In-distribution datasets do not adapt.
    assert!(!service.adapt(&datasets[0], &testbed, 1));
    assert_eq!(service.snapshot().generation(), 0);

    // A wildly different dataset must drift, adapt, and swap the snapshot.
    let odd = five_table_dataset();
    let before = service.snapshot();
    assert!(service.adapt(&odd, &testbed, 7));
    let after = service.snapshot();
    assert_eq!(after.generation(), 1);
    assert_eq!(after.len(), before.len() + 1);
    // The old snapshot is untouched (readers that held it keep consistent
    // data).
    assert_eq!(before.generation(), 0);
    assert_eq!(before.len(), 16);
    assert_eq!(service.stats().adaptations, 1);

    // Post-adaptation, the odd dataset is close to the RCS and servable.
    let x = after.embed(&odd);
    assert!(after.distance_to_embedding(&x) < 1e-3);
    let rec = service
        .handle()
        .recommend(&odd, w)
        .expect("service is running");
    assert_eq!(rec.generation, 1);
    assert!(!rec.cache_hit, "cache must be cleared on snapshot swap");
    service.shutdown();
}

/// An adaptation that panics (here on a dataset whose join edge names a
/// column that does not exist) dies holding the admin lock. Later
/// adaptations must take the poisoned lock and carry on, as every other
/// lock of the service does.
#[test]
fn adapt_survives_a_poisoned_admin_lock() {
    let (_, flat) = common::trained_advisor(16, 0xada3);
    let service = AdvisorService::start(AutoCe::from_advisor(&flat, 2), serve_config());
    let testbed = common::testbed();
    let odd = five_table_dataset();
    let mut broken = odd.clone();
    broken.joins[0].pk_col = usize::MAX;
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        service.adapt(&broken, &testbed, 7)
    }));
    assert!(died.is_err(), "the broken dataset must panic inside adapt");
    assert_eq!(service.stats().adaptations, 0);
    assert!(
        service.adapt(&odd, &testbed, 7),
        "the admin path is still open"
    );
    assert_eq!(service.snapshot().generation(), 1);
    assert_eq!(service.stats().adaptations, 1);
    service.shutdown();
}

/// A `Dataset` is all `pub` fields, so one that never met `Dataset::new`
/// can reach `recommend`: a join edge naming a table or column that does
/// not exist used to panic the calling thread inside the statistics, and
/// ragged columns were silently truncated. Both are refused with a typed
/// error before anything is extracted, and the service keeps answering.
#[test]
fn a_malformed_dataset_is_refused_not_panicked_on() {
    let (datasets, flat) = common::trained_advisor(10, 0xbad5);
    let service = AdvisorService::start(AutoCe::from_advisor(&flat, 2), serve_config());
    let handle = service.handle();
    let w = MetricWeights::new(0.5);
    let good = five_table_dataset();
    let expected = handle.recommend(&good, w).expect("well-formed");

    let breaks: [fn(&mut Dataset); 4] = [
        |ds| ds.joins[0].pk_col = usize::MAX,
        |ds| ds.joins[0].fk_table = 99,
        |ds| ds.tables[1].columns[0].data.truncate(3),
        |ds| {
            ds.tables[0]
                .columns
                .last_mut()
                .expect("columns")
                .data
                .push(1)
        },
    ];
    for (i, break_it) in breaks.iter().enumerate() {
        let mut broken = good.clone();
        break_it(&mut broken);
        match handle.recommend(&broken, w) {
            Err(AdvisorError::InvalidDataset(why)) => {
                assert!(
                    why.contains("out of range") || why.contains("length mismatch"),
                    "{why}"
                );
            }
            other => panic!("malformed dataset {i} must be refused, got {other:?}"),
        }
    }

    // Nothing of the refused requests reached the batcher, and it lives.
    assert_eq!(service.stats().requests, 1);
    let again = handle.recommend(&good, w).expect("still serving");
    assert_eq!(
        (again.model, again.scores),
        (expected.model, expected.scores)
    );
    let other = handle.recommend(&datasets[0], w).expect("still serving");
    assert_eq!(other.generation, 0);
    service.shutdown();
}

/// A `FeatureGraph` is all `pub` fields too. One whose vertex rows are not
/// the encoder's width, or whose edge matrix is not n × n, used to panic
/// inside the stacked forward — on the worker (the service was
/// `WorkerFailed` for good) or, inline, on the caller. Now it is refused
/// at admission on every path, before it is fingerprinted: a lone graph or
/// one in a burst fails its whole query with `InvalidDataset`, nothing of
/// it is served or counted, and the service keeps answering. Zero vertices
/// is a valid shape.
#[test]
fn a_malformed_feature_graph_is_refused_alone() {
    let (datasets, flat) = common::trained_advisor(6, 0xbad6);
    let service = AdvisorService::start(AutoCe::from_advisor(&flat, 2), serve_config());
    let handle = service.handle();
    let w = MetricWeights::new(0.5);
    let good = extract_features(&datasets[0], &flat.config.feature);
    let expected = handle
        .recommend_graph(good.clone(), w)
        .expect("well-formed");

    let breaks: [fn(&mut ce_features::FeatureGraph); 4] = [
        |g| g.vertices[0].truncate(1),
        |g| g.vertices.push(vec![0.5; 3]),
        |g| {
            g.edges.pop();
        },
        |g| g.edges[0].push(0.0),
    ];
    for (i, break_it) in breaks.iter().enumerate() {
        let mut broken = good.clone();
        break_it(&mut broken);
        for query in [
            Query::graph(broken.clone(), w),
            Query::graphs(vec![good.clone(), broken.clone(), good.clone()], w),
        ] {
            match handle.query(query) {
                Err(AdvisorError::InvalidDataset(why)) => {
                    assert!(why.contains("feature graph"), "{why}")
                }
                other => panic!("malformed graph {i} must be refused, got {other:?}"),
            }
        }
    }
    assert_eq!(service.stats().requests, 1, "nothing refused was counted");

    let empty = ce_features::FeatureGraph {
        vertices: Vec::new(),
        edges: Vec::new(),
    };
    let rec = handle
        .recommend_graph(empty.clone(), w)
        .expect("zero vertices");
    let x = AdvisorBackend::embed_graph_batch(&flat, &[&empty]).remove(0);
    assert_eq!((rec.model, rec.scores), flat.predict_from_embedding(&x, w));
    let again = handle.recommend_graph(good, w).expect("still serving");
    assert_eq!(
        (again.model, again.scores),
        (expected.model, expected.scores)
    );
    service.shutdown();
}

#[test]
fn adapt_with_reservoir_trains_on_bounded_subset() {
    let (_, flat) = common::trained_advisor(16, 0xb0b);
    let mut sharded = AutoCe::from_advisor(&flat, 2);
    let mut reservoir = Reservoir::over_initial(sharded.len(), 4, 5);
    let mut rng = StdRng::seed_from_u64(8);
    let mut spec = DatasetSpec::small().multi_table();
    spec.tables = SpecRange { lo: 5, hi: 5 };
    let odd = generate_dataset("odd2", &spec, &mut rng);
    // The drift check `AdvisorService::adapt` makes, then the bounded update.
    let detector = sharded.drift_detector();
    let graph = extract_features(&odd, &sharded.config().feature);
    let x = sharded.embed_graph(&graph);
    let adapted = sharded.distance_to_embedding(&x) > detector.threshold();
    assert!(adapted, "5-table dataset should drift off a 1-table corpus");
    let label = ce_testbed::label_dataset(&odd, &common::testbed(), 13);
    let trained = sharded.adapt_with_reservoir(graph, &label, &mut reservoir, 13);
    assert_eq!(sharded.len(), 17);
    assert_eq!(sharded.generation(), 1);
    // The bound: reservoir capacity (4) plus the newcomer.
    assert!(trained <= 5, "trained on {trained} graphs");
    assert_eq!(reservoir.seen(), 17);
    // Every embedding is consistent with the updated encoder.
    for i in 0..sharded.len() {
        assert_eq!(
            sharded.entry(i).embedding,
            sharded.embed_graph(&sharded.entry(i).graph),
            "entry {i} embedding stale after refresh"
        );
    }
}

/// More concurrent misses than the queue holds must all complete: a
/// submitter facing a full queue wakes the worker before parking on the
/// space condvar (regression test for a mutual deadlock where the worker
/// was only notified after a full burst was enqueued). Each submission is
/// a lone miss, which queues only on a busy front, so the first round is
/// held there: one client's inline run is held at the backend's gate
/// before the other seven start, and the worker's first batch is held
/// too, until every client has looked its graph up. One request is then
/// inline, the held batch has at most `max_batch` (2) and the queue
/// `queue_capacity` (3) — so at least two of the seven park on the full
/// queue, before or after the gate opens. That a parked submitter is
/// always woken, whichever comes first, is the front explorer's to check
/// (`front::explore` in the crate's unit tests), over every interleaving
/// its seeds reach.
#[test]
fn burst_larger_than_queue_capacity_completes() {
    let (datasets, flat) = common::trained_advisor(8, 0xb157);
    let cfg = ServeConfig {
        queue_capacity: 3,
        cache_capacity: 0, // every request is a miss
        max_batch: 2,
        ..serve_config()
    };
    let backend = Arc::new(faulty::Faulty::new(
        AutoCe::from_advisor(&flat, 2),
        &[0, 1],
        None,
    ));
    let service = AdvisorService::start_shared(backend.clone(), cfg);
    let w = MetricWeights::new(0.6);
    let graphs: Vec<_> = datasets
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    let expected: Vec<_> = datasets
        .iter()
        .map(|ds| flat.predict_from_embedding(&flat.embed(ds), w))
        .collect();
    // 8 client threads × 4 single distinct misses through a 3-slot queue.
    std::thread::scope(|scope| {
        let gate = backend.opener();
        let client = |t: usize| {
            let handle = service.handle();
            let (graphs, expected) = (&graphs, &expected);
            scope.spawn(move || {
                for round in 0..4 {
                    let j = (t + round) % graphs.len();
                    let rec = handle
                        .recommend_graph(graphs[j].clone(), w)
                        .expect("completes without deadlock");
                    assert_eq!((rec.model, rec.scores), expected[j].clone(), "thread {t}");
                }
            });
        };
        // Call 0 is client 0's inline run, call 1 the worker's first batch.
        client(0);
        assert_eq!(
            backend.wait_for_calls(1),
            [1],
            "a lone miss on an idle front"
        );
        (1..8).for_each(client);
        let held = backend.wait_for_calls(2)[1] as u64;
        assert!(
            (1..=2).contains(&held),
            "the worker batch is at most max_batch"
        );
        // Each first-round submitter looks its graph up once, the worker
        // nothing; nobody gets past round 0 while the gate is shut.
        faulty::wait_until("every client has looked its graph up", || {
            service.cache_stats().misses == 8
        });
        assert_eq!(backend.calls().len(), 2, "nothing ran past the gate");
        drop(gate);
    });
    let stats = service.stats();
    assert_eq!((stats.requests, stats.cache_misses), (32, 32));
    service.shutdown();
}

/// A burst with enough misses is encoded on the calling thread (no worker
/// handoff) and must still answer flat-identically, fill the cache, and
/// count as one batch.
#[test]
fn inline_burst_misses_serve_flat_identical_without_worker() {
    let (datasets, flat) = common::trained_advisor(8, 0x1a7e);
    let service = AdvisorService::start(AutoCe::from_advisor(&flat, 2), serve_config());
    let w = MetricWeights::new(0.7);
    let burst: Vec<_> = datasets
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    let recs = service
        .handle()
        .query(Query::graphs(burst.clone(), w))
        .expect("service is running");
    assert_eq!(recs.len(), 8);
    for (i, (rec, ds)) in recs.iter().zip(&datasets).enumerate() {
        let x = flat.embed(ds);
        let (model, scores) = flat.predict_from_embedding(&x, w);
        assert_eq!((rec.model, &rec.scores), (model, &scores), "graph {i}");
        assert!(!rec.cache_hit);
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.cache_misses, 8);
    assert_eq!(stats.batches, 1, "one inline burst = one batch");
    // The inline pass must have filled the cache: a repeat burst is all
    // hits served per request, adding no batch.
    let again = service
        .handle()
        .query(Query::graphs(burst, w))
        .expect("service is running");
    assert!(again.iter().all(|r| r.cache_hit));
    assert_eq!(service.stats().batches, 1);
    assert_eq!(service.stats().cache_hits, 8);
    service.shutdown();
}

#[test]
fn shutdown_rejects_new_requests() {
    let (datasets, flat) = common::trained_advisor(6, 0xdead);
    let service = AdvisorService::start(AutoCe::from_advisor(&flat, 2), serve_config());
    let handle = service.handle();
    let g = extract_features(&datasets[0], &flat.config.feature);
    assert!(handle
        .recommend_graph(g.clone(), MetricWeights::new(0.5))
        .is_ok());
    service.shutdown();
    assert_eq!(
        handle.recommend_graph(g, MetricWeights::new(0.5)),
        Err(AdvisorError::ShuttingDown)
    );
}

/// A worker panic (here: a backend that panics on its second encode) must
/// fail the service cleanly: the submitter whose batch it was — and every
/// submitter after it — gets `Err(WorkerFailed)` instead of hanging
/// forever on a reply channel whose sender died with the worker. A lone
/// miss reaches the worker only on a busy front, so the first client's
/// inline run is held at the backend's gate while the second client's
/// lone miss queues.
#[test]
fn worker_panic_fails_submitters_instead_of_hanging() {
    let (datasets, flat) = common::trained_advisor(6, 0xdead);
    let cfg = ServeConfig {
        cache_capacity: 0,
        ..serve_config()
    };
    let backend = Arc::new(faulty::Faulty::new(
        AutoCe::from_advisor(&flat, 2),
        &[0],
        Some(1),
    ));
    let service = AdvisorService::start_shared(backend.clone(), cfg);
    let w = MetricWeights::new(0.5);
    let graphs: Vec<_> = datasets
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    std::thread::scope(|scope| {
        let gate = backend.opener();
        let (handle, graph) = (service.handle(), graphs[0].clone());
        let first = scope.spawn(move || handle.recommend_graph(graph, w));
        backend.wait_for_calls(1);
        assert_eq!(
            service.handle().recommend_graph(graphs[1].clone(), w),
            Err(AdvisorError::WorkerFailed),
            "the submitter whose batch panicked must get an error, not a hang"
        );
        drop(gate);
        // The held run was the first client's own, on its own thread: it
        // finishes with the flat advisor's bits.
        let rec = first
            .join()
            .expect("the inline run does not panic")
            .expect("admitted before the worker failed");
        let x = flat.embed_graph(&graphs[0]);
        assert_eq!((rec.model, rec.scores), flat.predict_from_embedding(&x, w));
    });
    assert_eq!(
        backend.calls(),
        [1, 1],
        "the second lone miss was the worker's"
    );
    // The service is terminally failed: well-formed requests are refused
    // with the same diagnosis (not ShuttingDown, which would suggest an
    // orderly stop).
    assert_eq!(
        service.handle().recommend_graph(graphs[2].clone(), w),
        Err(AdvisorError::WorkerFailed)
    );
    // Dropping the service joins the (already dead) worker cleanly.
    drop(service);
}

/// Path counts `(inline, worker)` from a service's metrics.
fn inline_and_worker(service: &AdvisorService<impl AdvisorBackend + 'static>) -> (u64, u64) {
    let snap = service.handle().metrics_snapshot();
    let path = |p: &str| snap.counter("ce_serve_path_requests_total", &[("path", p)]);
    (path("inline"), path("worker"))
}

/// An RCS with nothing to select fails the request, not the service: the
/// vote answers `EmptyRcs` on every path and the worker is still there for
/// the next caller. (The tuple forms used to `assert!` inside the batcher:
/// one miss and the service was `WorkerFailed` for good.) A lone miss
/// reaches the worker only on a busy front, so a first client's inline
/// run is held at the backend's gate while two lone misses queue: the
/// worker answers both `EmptyRcs` — the second proves it survived the
/// first. Then the cache-hit path (a 4-burst repeating a graph the worker
/// cached) and the inline path (a burst of new graphs) answer it too.
/// Failed votes still count: a request is counted when its vote is asked
/// for.
#[test]
fn empty_rcs_is_a_typed_error_and_the_worker_survives() {
    fn check<B: AdvisorBackend + 'static>(empty: B) {
        let graph = |v: f32| ce_features::FeatureGraph {
            vertices: vec![vec![v, 0.3, 0.3, 0.3]],
            edges: vec![vec![0.0]],
        };
        let w = MetricWeights::new(0.5);
        let backend = Arc::new(faulty::Faulty::new(empty, &[0], None));
        let cfg = ServeConfig {
            metrics: autoce::MetricsRegistry::new(),
            ..serve_config()
        };
        let service = AdvisorService::start_shared(backend.clone(), cfg);
        let handle = service.handle();
        std::thread::scope(|scope| {
            let gate = backend.opener();
            let first = {
                let handle = service.handle();
                scope.spawn(move || handle.recommend_graph(graph(0.9), w))
            };
            backend.wait_for_calls(1);
            assert_eq!(
                handle.recommend_graph(graph(0.3), w),
                Err(AdvisorError::EmptyRcs)
            );
            assert_eq!(
                service.handle().recommend_graph(graph(0.2), w),
                Err(AdvisorError::EmptyRcs),
                "a later caller gets the request's error, not WorkerFailed"
            );
            assert_eq!(backend.calls(), [1, 1, 1], "two worker batches ran");
            drop(gate);
            assert_eq!(
                first.join().expect("the inline run returns"),
                Err(AdvisorError::EmptyRcs)
            );
        });
        assert_eq!(inline_and_worker(&service), (1, 2));
        let stats =
            |s: ce_serve::ServiceStats| (s.requests, s.batches, s.cache_hits, s.cache_misses);
        assert_eq!(stats(service.stats()), (3, 3, 0, 3));
        assert_eq!(
            handle.query(Query::graphs(vec![graph(0.3); 4], w)),
            Err(AdvisorError::EmptyRcs)
        );
        assert_eq!(stats(service.stats()), (7, 3, 4, 3));
        assert_eq!(
            handle.query(Query::graphs(vec![graph(0.1), graph(0.4)], w)),
            Err(AdvisorError::EmptyRcs)
        );
        assert_eq!(stats(service.stats()), (9, 4, 4, 5));
        assert_eq!(inline_and_worker(&service), (3, 2));
        service.shutdown();
    }
    let flat = || common::fixtures::synthetic_flat(0, 2);
    check(AutoCe::from_advisor(&flat(), 2));
    check(flat());
}

/// A NaN or ±∞ feature survives the encoder into the query embedding, where
/// `knn_order` used to panic the batcher — and every later request of every
/// caller answered `WorkerFailed`. Each backend now refuses the batch typed
/// before scanning. A NaN graph alone reaches the worker while a first
/// client's inline run is held at the backend's gate (a lone miss queues
/// only on a busy front) and is refused; the worker's next batch, a valid
/// graph, gets the flat advisor's bits. Then a +∞ graph in a burst
/// (inline) and the cached NaN embedding asked again (the hit path) are
/// refused too, and the next valid request is answered. Refused votes
/// still count: a request is counted when its vote is asked for.
#[test]
fn a_non_finite_query_is_refused_not_panicked_on() {
    fn check<B: AdvisorBackend + 'static>(backend: B, flat: &autoce::AutoCe) {
        let graph = |v: f32| ce_features::FeatureGraph {
            vertices: vec![vec![v, 0.3, 0.3, 0.3]],
            edges: vec![vec![0.0]],
        };
        let w = MetricWeights::new(0.5);
        let backend = Arc::new(faulty::Faulty::new(backend, &[0], None));
        let cfg = ServeConfig {
            metrics: autoce::MetricsRegistry::new(),
            ..serve_config()
        };
        let service = AdvisorService::start_shared(backend.clone(), cfg);
        let handle = service.handle();
        fn refused<T: std::fmt::Debug>(got: Result<T, AdvisorError>) {
            assert!(
                matches!(got, Err(AdvisorError::InvalidDataset(_))),
                "{got:?}"
            );
        }
        let flat_answer = |v: f32| flat.predict_from_embedding(&flat.embed_graph(&graph(v)), w);
        std::thread::scope(|scope| {
            let gate = backend.opener();
            let first = {
                let handle = service.handle();
                scope.spawn(move || handle.recommend_graph(graph(0.4), w))
            };
            backend.wait_for_calls(1);
            refused(handle.recommend_graph(graph(f32::NAN), w));
            let rec = handle
                .recommend_graph(graph(0.5), w)
                .expect("the worker keeps answering");
            assert_eq!((rec.model, rec.scores), flat_answer(0.5));
            assert_eq!(backend.calls(), [1, 1, 1], "two worker batches ran");
            drop(gate);
            let rec = first
                .join()
                .expect("the inline run returns")
                .expect("served");
            assert_eq!((rec.model, rec.scores), flat_answer(0.4));
        });
        assert_eq!(inline_and_worker(&service), (1, 2));
        let burst = vec![graph(0.1), graph(f32::INFINITY), graph(0.2)];
        refused(handle.query(Query::graphs(burst, w)));
        refused(handle.recommend_graph(graph(f32::NAN), w));
        let rec = handle
            .recommend_graph(graph(0.6), w)
            .expect("the service keeps answering");
        assert_eq!((rec.model, rec.scores), flat_answer(0.6));
        let stats =
            |s: ce_serve::ServiceStats| (s.requests, s.batches, s.cache_hits, s.cache_misses);
        assert_eq!(stats(service.stats()), (8, 5, 1, 7));
        service.shutdown();
    }
    let flat = common::fixtures::synthetic_flat(9, 2);
    check(AutoCe::from_advisor(&flat, 2), &flat);
    check(common::fixtures::synthetic_flat(9, 2), &flat);
}

/// The observability side channel: an instrumented service exposes phase
/// histograms, path counters and the cache ledger through
/// `metrics_snapshot()` — and recording changes no recommendation bit
/// (every answer is still compared against the flat advisor).
#[test]
fn metrics_snapshot_reports_instrumented_serving() {
    let (datasets, flat) = common::trained_advisor(6, 0x0b5e);
    let w = MetricWeights::new(0.8);
    let registry = autoce::MetricsRegistry::new();
    let cfg = ServeConfig {
        metrics: registry.clone(),
        ..serve_config()
    };
    let service = AdvisorService::start(AutoCe::from_advisor(&flat, 2), cfg);
    let handle = service.handle();
    let graphs: Vec<_> = datasets
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    // A cold burst (inline path), then the same burst again (cache hits).
    for round in 0..2 {
        let recs = handle
            .query(Query::graphs(graphs.clone(), w))
            .expect("burst served");
        for (g, r) in graphs.iter().zip(&recs) {
            let x = flat.embed_graph(g);
            assert_eq!(
                (r.model, &r.scores),
                {
                    let (m, s) = flat.predict_from_embedding(&x, w);
                    (m, &s.clone())
                },
                "metrics must not change answer bits (round {round})"
            );
        }
    }
    let snap = service.handle().metrics_snapshot();
    // Path counters: every request went inline (cold) or cache-hit (warm).
    assert_eq!(
        snap.counter("ce_serve_path_requests_total", &[("path", "inline")]),
        datasets.len() as u64
    );
    assert_eq!(
        snap.counter("ce_serve_path_requests_total", &[("path", "cache_hit")]),
        datasets.len() as u64
    );
    // Phase histograms observed the inline batch and both vote rounds.
    let (encode_sum, encode_count) =
        snap.histogram_totals("ce_serve_encode_ns", &[("path", "inline")]);
    assert_eq!(encode_count, 1, "one stacked forward for the cold burst");
    assert!(encode_sum > 0, "wall-clock encode span must be nonzero");
    let (_, vote_hits) = snap.histogram_totals("ce_serve_vote_ns", &[("path", "cache_hit")]);
    assert_eq!(vote_hits, 1, "one batched vote over the warm burst");
    let (_, depth_count) = snap.histogram_totals("ce_serve_batch_depth", &[("path", "inline")]);
    assert_eq!(depth_count, 1);
    // Ledger samples mirror ServiceStats / CacheStats.
    let stats = service.stats();
    assert_eq!(snap.counter("ce_serve_requests_total", &[]), stats.requests);
    assert_eq!(
        snap.counter("ce_serve_cache_hits_total", &[]),
        datasets.len() as u64
    );
    let cache = service.cache_stats();
    assert_eq!(cache.inserts, datasets.len() as u64);
    assert_eq!(
        snap.counter("ce_serve_cache_inserts_total", &[]),
        cache.inserts
    );
    // Stable exposition: render → parse → render must be byte-identical.
    let text = snap.render_prometheus();
    let reparsed = autoce::MetricsSnapshot::from_bytes(&snap.to_bytes()).expect("binary codec");
    assert_eq!(reparsed.render_prometheus(), text);
    // `Dataset` requests extract on the calling thread, under their own span.
    let (_, extracts) = snap.histogram_totals("ce_serve_feature_extract_ns", &[]);
    assert_eq!(extracts, 0, "graph requests never extract");
    for ds in &datasets[..2] {
        let r = handle.recommend(ds, w).expect("dataset served");
        assert_eq!(r.model, flat.recommend(ds, w));
    }
    let (extract_sum, extracts) = service
        .handle()
        .metrics_snapshot()
        .histogram_totals("ce_serve_feature_extract_ns", &[]);
    assert_eq!(extracts, 2, "one extraction per dataset request");
    assert!(extract_sum > 0);
    // Labelling has its own span, recorded only by adaptations that pass
    // the drift test.
    let testbed = common::testbed();
    assert!(!service.adapt(&datasets[0], &testbed, 1));
    let snap = service.handle().metrics_snapshot();
    let (_, labels) = snap.histogram_totals("ce_serve_adapt_label_ns", &[]);
    assert_eq!(labels, 0, "in-distribution datasets are never labelled");
    let (_, fits) = snap.histogram_totals("ce_serve_detector_fit_ns", &[]);
    assert_eq!(fits, 1, "the detector is fitted once at start");
    let (_, extracts) = snap.histogram_totals("ce_serve_feature_extract_ns", &[]);
    assert_eq!(extracts, 3, "adapt extracts under the same span");
    assert!(service.adapt(&five_table_dataset(), &testbed, 7));
    let (label_sum, labels) = service
        .handle()
        .metrics_snapshot()
        .histogram_totals("ce_serve_adapt_label_ns", &[]);
    assert_eq!(labels, 1, "one labelling per adaptation");
    assert!(label_sum > 0);
    let (fit_sum, fits) = service
        .handle()
        .metrics_snapshot()
        .histogram_totals("ce_serve_detector_fit_ns", &[]);
    assert_eq!(fits, 2, "and one refit per adaptation");
    assert!(fit_sum > 0);
    drop(service);
}

#[test]
fn try_start_rejects_invalid_configs_with_typed_errors() {
    let (_, flat) = common::trained_advisor(6, 0x7a57);
    let sharded = AutoCe::from_advisor(&flat, 2);
    let rejected = |cfg: ServeConfig, needle: &str| {
        for result in [
            AdvisorService::try_start(sharded.clone(), cfg.clone()).map(drop),
            AdvisorService::try_start_shared(std::sync::Arc::new(sharded.clone()), cfg.clone())
                .map(drop),
        ] {
            match result {
                Err(AdvisorError::InvalidConfig(msg)) => {
                    assert!(msg.contains(needle), "{needle}: {msg}")
                }
                other => panic!("{needle}: expected InvalidConfig, got {other:?}"),
            }
        }
    };
    rejected(
        ServeConfig {
            max_batch: 0,
            ..serve_config()
        },
        "max_batch",
    );
    rejected(
        ServeConfig {
            queue_capacity: 0,
            ..serve_config()
        },
        "queue_capacity",
    );
    rejected(
        ServeConfig {
            reservoir_capacity: 0,
            ..serve_config()
        },
        "reservoir_capacity",
    );
    // A structurally invalid index is refused by both, before anything is
    // installed.
    rejected(
        ServeConfig {
            index: Some(autoce::IndexConfig {
                probe: 0,
                ..autoce::IndexConfig::default()
            }),
            ..serve_config()
        },
        "probe",
    );

    // An index whose cutover sits below the advisor's k (2 here) is the
    // backend's to reject; only `try_start` installs one.
    let below_k = ServeConfig {
        index: Some(autoce::IndexConfig {
            min_rcs_for_index: 1,
            ..autoce::IndexConfig::default()
        }),
        ..serve_config()
    };
    match AdvisorService::try_start(sharded.clone(), below_k).map(drop) {
        Err(AdvisorError::InvalidConfig(msg)) => {
            assert!(msg.contains("min_rcs_for_index"), "{msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    // A valid config starts, and serves.
    let service = AdvisorService::try_start(sharded, serve_config()).expect("valid config");
    assert_eq!(service.stats().requests, 0);
}

#[test]
#[should_panic(expected = "invalid ServeConfig")]
fn start_panics_where_try_start_returns_err() {
    let (_, flat) = common::trained_advisor(6, 0x7a58);
    let cfg = ServeConfig {
        queue_capacity: 0,
        ..serve_config()
    };
    AdvisorService::start(AutoCe::from_advisor(&flat, 2), cfg);
}
