//! End-to-end service tests: concurrent micro-batched serving must match
//! the flat advisor exactly; online adaptation must be reservoir-bounded
//! and swap snapshots without disturbing concurrent readers.

mod common;

use autoce::AdvisorError;
use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
use ce_features::extract_features;
use ce_serve::{AdvisorService, Reservoir, ServeConfig, ShardedAdvisor};
use ce_storage::Dataset;
use ce_testbed::MetricWeights;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_millis(2),
        queue_capacity: 64,
        cache_capacity: 128,
        inline_burst_misses: 2,
        admit_on_second_touch: false,
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

    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 3), serve_config());
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
    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 3), serve_config());
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
    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 2), serve_config());
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
    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 2), serve_config());
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

#[test]
fn adapt_with_reservoir_trains_on_bounded_subset() {
    let (_, flat) = common::trained_advisor(16, 0xb0b);
    let mut sharded = ShardedAdvisor::from_advisor(&flat, 2);
    let mut reservoir = Reservoir::over_initial(sharded.len(), 4, 5);
    let mut rng = StdRng::seed_from_u64(8);
    let mut spec = DatasetSpec::small().multi_table();
    spec.tables = SpecRange { lo: 5, hi: 5 };
    let odd = generate_dataset("odd2", &spec, &mut rng);
    let detector = sharded.drift_detector();
    let adapted = ce_serve::adapt_online_bounded(
        &mut sharded,
        &detector,
        &odd,
        &common::testbed(),
        &mut reservoir,
        13,
    );
    assert!(adapted, "5-table dataset should drift off a 1-table corpus");
    assert_eq!(sharded.len(), 17);
    assert_eq!(sharded.generation(), 1);
    // The bound: reservoir capacity (4) plus the newcomer.
    assert!(reservoir.sample().len() <= 4);
    assert_eq!(reservoir.seen(), 17);
    // Every embedding is consistent with the updated encoder.
    for i in 0..sharded.len() {
        assert_eq!(
            sharded.entry(i).embedding,
            sharded.encoder().encode(&sharded.entry(i).graph),
            "entry {i} embedding stale after refresh"
        );
    }
}

/// A burst with more cache misses than the queue holds must still
/// complete: the submitter wakes the worker before parking on the space
/// condvar (regression test for a mutual deadlock where the worker was
/// only notified after the full burst was enqueued).
#[test]
fn burst_larger_than_queue_capacity_completes() {
    let (datasets, flat) = common::trained_advisor(8, 0xb157);
    let cfg = ServeConfig {
        queue_capacity: 3,
        cache_capacity: 0, // every request is a miss
        max_batch: 2,
        // Force the queue path: this test is specifically about the
        // submitter/worker handoff, which inline burst serving would skip.
        inline_burst_misses: usize::MAX,
        ..serve_config()
    };
    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 2), cfg);
    let w = MetricWeights::new(0.6);
    // 16 misses through a 3-slot queue in one burst.
    let burst: Vec<_> = (0..16)
        .map(|i| extract_features(&datasets[i % datasets.len()], &flat.config.feature))
        .collect();
    let recs = service
        .handle()
        .recommend_graphs(burst, w)
        .expect("burst completes without deadlock");
    assert_eq!(recs.len(), 16);
    for (i, rec) in recs.iter().enumerate() {
        let x = flat.embed(&datasets[i % datasets.len()]);
        let (model, scores) = flat.predict_from_embedding(&x, w);
        assert_eq!(rec.model, model);
        assert_eq!(rec.scores, scores);
    }
    service.shutdown();
}

/// A burst with enough misses is encoded on the calling thread (no worker
/// handoff) and must still answer flat-identically, fill the cache, and
/// count as one batch.
#[test]
fn inline_burst_misses_serve_flat_identical_without_worker() {
    let (datasets, flat) = common::trained_advisor(8, 0x1a7e);
    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 2), serve_config());
    let w = MetricWeights::new(0.7);
    let burst: Vec<_> = datasets
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    let recs = service
        .handle()
        .recommend_graphs(burst.clone(), w)
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
        .recommend_graphs(burst, w)
        .expect("service is running");
    assert!(again.iter().all(|r| r.cache_hit));
    assert_eq!(service.stats().batches, 1);
    assert_eq!(service.stats().cache_hits, 8);
    service.shutdown();
}

#[test]
fn shutdown_rejects_new_requests() {
    let (datasets, flat) = common::trained_advisor(6, 0xdead);
    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 2), serve_config());
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

/// A worker panic (here: a malformed graph blowing an encoder shape
/// invariant inside the stacked forward) must fail the service cleanly:
/// the submitter that poisoned the batch — and every submitter after it —
/// gets `Err(WorkerFailed)` instead of hanging forever on a reply channel
/// whose sender died with the worker.
#[test]
fn worker_panic_fails_submitters_instead_of_hanging() {
    let (datasets, flat) = common::trained_advisor(6, 0xdead);
    let cfg = ServeConfig {
        cache_capacity: 0,
        // Force the queue/worker path: inline serving would panic the
        // *caller*, which is not the failure mode under test.
        inline_burst_misses: usize::MAX,
        ..serve_config()
    };
    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 2), cfg);
    let handle = service.handle();
    let w = MetricWeights::new(0.5);
    // Vertex width disagrees with the encoder's input dimension.
    let poison = ce_features::FeatureGraph {
        vertices: vec![vec![0.0]],
        edges: vec![vec![0.0]],
    };
    assert_eq!(
        handle.recommend_graph(poison, w),
        Err(AdvisorError::WorkerFailed),
        "the poisoning submitter must get an error, not a hang"
    );
    // The service is terminally failed: well-formed requests are refused
    // with the same diagnosis (not ShuttingDown, which would suggest an
    // orderly stop).
    let graph = extract_features(&datasets[0], &flat.config.feature);
    assert_eq!(
        handle.recommend_graph(graph, w),
        Err(AdvisorError::WorkerFailed)
    );
    // Dropping the service joins the (already dead) worker cleanly.
    drop(service);
}

/// An RCS with nothing to select fails the request, not the service: the
/// vote answers `EmptyRcs` on the worker path and on the inline-burst path
/// alike, and the worker is still there for the next caller. (The tuple
/// forms used to `assert!` inside the batcher: one miss and the service was
/// `WorkerFailed` for good.)
#[test]
fn empty_rcs_is_a_typed_error_and_the_worker_survives() {
    fn check<B: autoce::AdvisorBackend + 'static>(empty: B, inline_burst_misses: usize) {
        let graph = || ce_features::FeatureGraph {
            vertices: vec![vec![0.3, 0.3, 0.3, 0.3]],
            edges: vec![vec![0.0]],
        };
        let w = MetricWeights::new(0.5);
        let cfg = ServeConfig {
            inline_burst_misses,
            ..serve_config()
        };
        let service = AdvisorService::start(empty, cfg);
        let handle = service.handle();
        assert_eq!(
            handle.recommend_graph(graph(), w),
            Err(AdvisorError::EmptyRcs)
        );
        assert_eq!(
            handle.recommend_graphs(vec![graph(); 4], w),
            Err(AdvisorError::EmptyRcs)
        );
        assert!(service.stats().requests >= 1, "the ledger still answers");
        assert_eq!(
            service.handle().recommend_graph(graph(), w),
            Err(AdvisorError::EmptyRcs),
            "a later caller gets the request's error, not WorkerFailed"
        );
        service.shutdown();
    }
    // Queue/worker path first, then bursts encoded on the calling thread.
    for inline_burst_misses in [usize::MAX, 2] {
        let flat = || autoce::fixtures::synthetic_flat(0, 2);
        check(
            ShardedAdvisor::from_advisor(&flat(), 2),
            inline_burst_misses,
        );
        check(flat(), inline_burst_misses);
    }
}

/// Second-touch admission: the first encoding of a graph only records its
/// fingerprint; the second encodes again and admits; the third hits.
/// Recommendations are identical throughout — the policy only moves the
/// miss/hit boundary.
#[test]
fn second_touch_admission_caches_on_reuse_only() {
    let (datasets, flat) = common::trained_advisor(4, 0x2704);
    let cfg = ServeConfig {
        admit_on_second_touch: true,
        inline_burst_misses: 1, // encode on the calling thread
        ..serve_config()
    };
    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 2), cfg);
    let handle = service.handle();
    let w = MetricWeights::new(0.7);
    let graph = extract_features(&datasets[0], &flat.config.feature);
    let expected = {
        let x = flat.embed(&datasets[0]);
        flat.predict_from_embedding(&x, w)
    };
    let hits: Vec<bool> = (0..3)
        .map(|_| {
            let rec = handle
                .recommend_graph(graph.clone(), w)
                .expect("service is running");
            assert_eq!((rec.model, rec.scores.clone()), expected);
            rec.cache_hit
        })
        .collect();
    assert_eq!(
        hits,
        vec![false, false, true],
        "miss (record), miss (admit), hit"
    );
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
        inline_burst_misses: 2,
        ..serve_config()
    };
    let service = AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 2), cfg);
    let handle = service.handle();
    let graphs: Vec<_> = datasets
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    // A cold burst (inline path), then the same burst again (cache hits).
    for round in 0..2 {
        let recs = handle
            .recommend_graphs(graphs.clone(), w)
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
    let snap = service.metrics_snapshot();
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
        .metrics_snapshot()
        .histogram_totals("ce_serve_feature_extract_ns", &[]);
    assert_eq!(extracts, 2, "one extraction per dataset request");
    assert!(extract_sum > 0);
    // Labelling has its own span, recorded only by adaptations that pass
    // the drift test.
    let testbed = common::testbed();
    assert!(!service.adapt(&datasets[0], &testbed, 1));
    let snap = service.metrics_snapshot();
    let (_, labels) = snap.histogram_totals("ce_serve_adapt_label_ns", &[]);
    assert_eq!(labels, 0, "in-distribution datasets are never labelled");
    let (_, fits) = snap.histogram_totals("ce_serve_detector_fit_ns", &[]);
    assert_eq!(fits, 1, "the detector is fitted once at start");
    let (_, extracts) = snap.histogram_totals("ce_serve_feature_extract_ns", &[]);
    assert_eq!(extracts, 3, "adapt extracts under the same span");
    assert!(service.adapt(&five_table_dataset(), &testbed, 7));
    let (label_sum, labels) = service
        .metrics_snapshot()
        .histogram_totals("ce_serve_adapt_label_ns", &[]);
    assert_eq!(labels, 1, "one labelling per adaptation");
    assert!(label_sum > 0);
    let (fit_sum, fits) = service
        .metrics_snapshot()
        .histogram_totals("ce_serve_detector_fit_ns", &[]);
    assert_eq!(fits, 2, "and one refit per adaptation");
    assert!(fit_sum > 0);
    drop(service);
}

#[test]
fn try_start_rejects_invalid_configs_with_typed_errors() {
    let (_, flat) = common::trained_advisor(6, 0x7a57);
    let sharded = ShardedAdvisor::from_advisor(&flat, 2);
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
    AdvisorService::start(ShardedAdvisor::from_advisor(&flat, 2), cfg);
}
