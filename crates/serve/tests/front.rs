//! The service front's admission rule under contention: a submission's
//! misses run on the calling thread unless a lone miss meets a busy front
//! (something queued, or a pipeline run in flight), which rides the queue
//! to the worker. These tests hold pipeline runs at a scripted backend's
//! gate to make the front busy on purpose; they are race-sensitive, so CI
//! runs them ten times in a row.

mod common;
mod faulty;

use autoce::{AdvisorBackend, AdvisorError, AutoCe};
use ce_features::extract_features;
use ce_serve::{AdvisorService, MetricsRegistry, ServeConfig};
use ce_testbed::MetricWeights;
use std::sync::Arc;
use std::time::Duration;

fn serve_config(metrics: &MetricsRegistry) -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        batch_deadline: Duration::from_millis(2),
        queue_capacity: 64,
        cache_capacity: 0, // every request is a miss
        metrics: metrics.clone(),
        ..ServeConfig::default()
    }
}

/// A panic inside an inline lone-miss run unwinds on the calling thread,
/// and the front's busy claim is released on the way out: the next lone
/// misses are served inline again — not queued behind a front wedged busy
/// — with the flat advisor's bits, and the worker never runs.
#[test]
fn a_panicking_inline_run_leaves_the_front_idle() {
    let (datasets, flat) = common::trained_advisor(6, 0x1d1e);
    let backend = Arc::new(faulty::Faulty::new(
        AutoCe::from_advisor(&flat, 2),
        &[],
        Some(0),
    ));
    let registry = MetricsRegistry::new();
    let service = AdvisorService::start_shared(backend.clone(), serve_config(&registry));
    let handle = service.handle();
    let w = MetricWeights::new(0.4);
    let graphs: Vec<_> = datasets
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle.recommend_graph(graphs[0].clone(), w)
    }));
    assert!(died.is_err(), "the scripted encode panics on the caller");
    for g in &graphs {
        let rec = handle.recommend_graph(g.clone(), w).expect("still serving");
        let x = flat.embed_graph(g);
        assert_eq!((rec.model, rec.scores), flat.predict_from_embedding(&x, w));
    }
    let snap = service.handle().metrics_snapshot();
    let path = |p: &str| snap.counter("ce_serve_path_requests_total", &[("path", p)]);
    assert_eq!(
        path("inline"),
        graphs.len() as u64,
        "every later lone miss ran inline"
    );
    assert_eq!(path("worker"), 0);
    assert_eq!(backend.calls(), vec![1; graphs.len() + 1]);
    service.shutdown();
}

/// Lockstep single-graph clients still share stacked forwards: while the
/// first client's inline run holds the front (its encode held at the
/// backend's gate), the other clients' lone misses queue, and the worker —
/// its first batch held at the gate too, until every client has looked its
/// graph up — batches the rest together. Every answer is the flat
/// advisor's.
#[test]
fn lockstep_lone_misses_on_a_busy_front_share_worker_batches() {
    let (datasets, flat) = common::trained_advisor(8, 0x10c5);
    let backend = Arc::new(faulty::Faulty::new(
        AutoCe::from_advisor(&flat, 2),
        &[0, 1],
        None,
    ));
    let registry = MetricsRegistry::new();
    let service = AdvisorService::start_shared(backend.clone(), serve_config(&registry));
    let w = MetricWeights::new(0.6);
    let graphs: Vec<_> = datasets[..4]
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    let recs = std::thread::scope(|scope| {
        let gate = backend.opener();
        let ask = |i: usize| {
            let (handle, graph) = (service.handle(), graphs[i].clone());
            scope.spawn(move || handle.recommend_graph(graph, w))
        };
        let first = ask(0);
        backend.wait_for_calls(1);
        let rest: Vec<_> = (1..graphs.len()).map(ask).collect();
        backend.wait_for_calls(2);
        // Each client looks its graph up once; the worker looks nothing up
        // (a queued request already missed).
        faulty::wait_until("every client has looked its graph up", || {
            service.cache_stats().misses == graphs.len() as u64
        });
        drop(gate);
        std::iter::once(first)
            .chain(rest)
            .map(|t| t.join().expect("client").expect("served"))
            .collect::<Vec<_>>()
    });
    for (g, rec) in graphs.iter().zip(recs) {
        let x = flat.embed_graph(g);
        assert_eq!((rec.model, rec.scores), flat.predict_from_embedding(&x, w));
    }
    let snap = service.handle().metrics_snapshot();
    let path = |p: &str| snap.counter("ce_serve_path_requests_total", &[("path", p)]);
    assert_eq!((path("inline"), path("worker")), (1, 3));
    let (depth_sum, batches) = snap.histogram_totals("ce_serve_batch_depth", &[("path", "worker")]);
    assert_eq!(depth_sum, 3);
    assert!(
        batches < depth_sum,
        "some worker batch carried two or more lone misses ({batches} batches)"
    );
    service.shutdown();
}

/// A backend that answers fewer embeddings or votes than it was asked for
/// fails the request with `AdvisorError::Protocol` on either path, and the
/// service keeps serving. While a first client's inline run is held at the
/// gate, three lone misses queue in turn: the worker's first batch gets
/// one embedding short, its second one vote short — both answer
/// `Protocol` to their submitter — and its third is served, so the worker
/// survived. The held run is then answered one vote short on its own
/// thread, and later lone misses run inline on the idle front: one short
/// embedding refused, the others served with the flat advisor's bits.
#[test]
fn a_short_backend_answer_is_a_protocol_error_on_every_path() {
    let (datasets, flat) = common::trained_advisor(6, 0x5407);
    let backend = Arc::new(
        faulty::Faulty::new(AutoCe::from_advisor(&flat, 2), &[0], None)
            .short_encodes(&[1, 5])
            .short_votes(&[0, 2]),
    );
    let registry = MetricsRegistry::new();
    let service = AdvisorService::start_shared(backend.clone(), serve_config(&registry));
    let handle = service.handle();
    let w = MetricWeights::new(0.3);
    let graphs: Vec<_> = datasets
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    let protocol = |got: Result<_, AdvisorError>| {
        assert!(matches!(got, Err(AdvisorError::Protocol(_))), "{got:?}");
    };
    let served = |i: usize, got: Result<ce_serve::Recommendation, AdvisorError>| {
        let rec = got.expect("served");
        let x = flat.embed_graph(&graphs[i]);
        assert_eq!(
            (rec.model, rec.scores),
            flat.predict_from_embedding(&x, w),
            "graph {i}"
        );
    };
    std::thread::scope(|scope| {
        let gate = backend.opener();
        let first = {
            let (handle, graph) = (service.handle(), graphs[0].clone());
            scope.spawn(move || handle.recommend_graph(graph, w))
        };
        backend.wait_for_calls(1);
        protocol(handle.recommend_graph(graphs[1].clone(), w));
        protocol(handle.recommend_graph(graphs[2].clone(), w));
        served(3, handle.recommend_graph(graphs[3].clone(), w));
        assert_eq!(backend.calls(), [1; 4], "three worker batches ran");
        drop(gate);
        protocol(first.join().expect("the inline run returns"));
    });
    served(4, handle.recommend_graph(graphs[4].clone(), w));
    protocol(handle.recommend_graph(graphs[5].clone(), w));
    served(0, handle.recommend_graph(graphs[0].clone(), w));
    // A request is counted when its vote is asked for: the two short
    // encodes never got that far.
    let snap = service.handle().metrics_snapshot();
    let path = |p: &str| snap.counter("ce_serve_path_requests_total", &[("path", p)]);
    assert_eq!((path("inline"), path("worker")), (3, 2));
    assert_eq!(backend.calls(), [1; 7]);
    service.shutdown();
}

/// A `batch_deadline` too far to represent means no timeout. It used to
/// panic the batcher outside its unwind guard (`Instant + Duration::MAX`
/// overflows): the drained submitters read `ShuttingDown` and every later
/// queued lone miss waited on a dead worker for good. While a first
/// client's inline run is held at the backend's gate, two concurrent lone
/// misses queue; the worker's batch waits for the second, closes full
/// (`max_batch: 2`) and answers both with the flat advisor's bits. The
/// service then shuts down cleanly: a later request reads `ShuttingDown`,
/// not `WorkerFailed`. (That a batch which never fills closes at shutdown
/// is checked by the front explorer, `front::explore`.)
#[test]
fn an_unrepresentable_batch_deadline_serves_and_shuts_down() {
    let (datasets, flat) = common::trained_advisor(6, 0xdea1);
    let backend = Arc::new(faulty::Faulty::new(
        AutoCe::from_advisor(&flat, 2),
        &[0],
        None,
    ));
    let registry = MetricsRegistry::new();
    let cfg = ServeConfig {
        max_batch: 2,
        batch_deadline: Duration::MAX,
        ..serve_config(&registry)
    };
    let service = AdvisorService::start_shared(backend.clone(), cfg);
    let w = MetricWeights::new(0.5);
    let graphs: Vec<_> = datasets[..3]
        .iter()
        .map(|ds| extract_features(ds, &flat.config.feature))
        .collect();
    let recs = std::thread::scope(|scope| {
        let gate = backend.opener();
        let ask = |i: usize| {
            let (handle, graph) = (service.handle(), graphs[i].clone());
            scope.spawn(move || handle.recommend_graph(graph, w))
        };
        let first = ask(0);
        backend.wait_for_calls(1);
        let rest: Vec<_> = (1..3).map(ask).collect();
        assert_eq!(backend.wait_for_calls(2), [1, 2], "one full worker batch");
        drop(gate);
        std::iter::once(first)
            .chain(rest)
            .map(|t| t.join().expect("client").expect("served"))
            .collect::<Vec<_>>()
    });
    for (g, rec) in graphs.iter().zip(recs) {
        let x = flat.embed_graph(g);
        assert_eq!((rec.model, rec.scores), flat.predict_from_embedding(&x, w));
    }
    let snap = service.handle().metrics_snapshot();
    let path = |p: &str| snap.counter("ce_serve_path_requests_total", &[("path", p)]);
    assert_eq!((path("inline"), path("worker")), (1, 2));
    let handle = service.handle();
    service.shutdown();
    assert_eq!(
        handle.recommend_graph(graphs[0].clone(), w),
        Err(AdvisorError::ShuttingDown)
    );
}
