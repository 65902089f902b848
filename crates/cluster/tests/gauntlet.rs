//! The deterministic fault gauntlet: seeded fault schedules against the
//! simulated transport must never change a bit of any answer, and the
//! whole run — every dial error, NACK, reload, failover — must replay
//! identically from the same seed.
//!
//! Each gauntlet run builds a fresh 2-range × 2-replica cluster over a
//! [`SimNet`] executing a [`FaultPlan::seeded`] schedule (connection
//! drops, lost replies, truncated/garbled frames, shard kills paired with
//! later restarts), then pushes a fixed query workload through it.
//! Transient `RangeUnavailable` errors are retried — every retry advances
//! the simulated clock, so scheduled restarts eventually land and the
//! plan drains — and every answer that arrives is compared bit for bit
//! against the in-process [`ShardedAdvisor`].

mod common;

use autoce::{AdvisorError, BatchPredictRequest};
use ce_cluster::{
    ClusterConfig, ClusterCoordinator, ClusterError, FaultPlan, MetricsRegistry, ShardedAdvisor,
    SimNet,
};
use ce_models::ModelKind;
use ce_serve::{AdvisorService, ServeConfig};
use ce_testbed::MetricWeights;
use std::sync::Arc;
use std::time::Duration;

const RANGES: usize = 2;
const REPLICAS_PER_RANGE: usize = 2;
const PLAN_STEPS: u64 = 300;
const INTENSITY: f64 = 0.5;

struct GauntletRun {
    answers: Vec<(ModelKind, Vec<f64>)>,
    trace: Vec<String>,
    retries: usize,
}

fn workload() -> Vec<(Vec<f32>, usize)> {
    let mut cases = Vec::new();
    for x in common::queries() {
        for exclude in [usize::MAX, 0, 7] {
            cases.push((x.clone(), exclude));
        }
    }
    cases
}

/// One full gauntlet run under `seed`. Panics only if the cluster stays
/// dark after the fault schedule has provably drained (which would be a
/// real failover bug, not an injected fault).
fn run_gauntlet(seed: u64) -> GauntletRun {
    run_gauntlet_cfg(seed, ClusterConfig::no_sleep())
}

/// [`run_gauntlet`] with an explicit [`ClusterConfig`], so the metrics
/// sweep can hand in an instrumented config and replay the exact same run.
fn run_gauntlet_cfg(seed: u64, cfg: ClusterConfig) -> GauntletRun {
    let flat = common::synthetic_flat(11, 3);
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let replicas = RANGES * REPLICAS_PER_RANGE;
    let plan = FaultPlan::seeded(seed, PLAN_STEPS, replicas, INTENSITY);
    let net = SimNet::new(replicas, plan);
    let coord = ClusterCoordinator::over_sim(sharded, &net, REPLICAS_PER_RANGE, cfg);
    let mut retries = 0usize;
    let mut attempt = 0u32;
    // Bootstrap may land while a seeded kill holds a whole range down;
    // every retry advances the sim clock toward the paired restart.
    while let Err(e) = coord.bootstrap() {
        attempt += 1;
        retries += 1;
        assert!(attempt < 100, "seed {seed}: bootstrap never converged: {e}");
    }
    let w = MetricWeights::new(0.7);
    let mut answers = Vec::new();
    for (i, (x, exclude)) in workload().into_iter().enumerate() {
        let mut attempt = 0u32;
        let answer = loop {
            match coord.predict_excluding(&x, w, exclude) {
                Ok(a) => break a,
                Err(ClusterError::RangeUnavailable { .. }) => {
                    attempt += 1;
                    retries += 1;
                    // 500 retries consume far more sim steps than the
                    // plan schedules; a still-dark range past that point
                    // is a genuine bug.
                    assert!(attempt < 500, "seed {seed}: range stayed dark");
                }
                Err(e) => panic!("seed {seed}: non-transient failure: {e}"),
            }
        };
        answers.push(answer);
        // Periodic heartbeats, as a production loop would run them: they
        // probe demoted replicas (the re-promotion path) and resync any
        // that restarted behind the coordinator's back.
        if i % 3 == 2 {
            let _ = coord.heartbeat();
        }
    }
    // One heartbeat pass: probes every replica, proactively reloading any
    // that restarted behind the coordinator's back.
    let health = coord.heartbeat();
    // Degraded mode must be reportable, never a panic.
    let _ = health.report();
    GauntletRun {
        answers,
        trace: coord.take_trace(),
        retries,
    }
}

/// Sweep several seeded fault mixes: every answer that comes off the
/// faulty wire equals the in-process sharded advisor bit for bit, and the
/// sweep demonstrably exercises the robustness machinery (reloads,
/// failovers, transport errors) rather than passing vacuously.
#[test]
fn seeded_fault_sweep_is_bit_identical_to_flat() {
    let flat = common::synthetic_flat(11, 3);
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let w = MetricWeights::new(0.7);
    let expected: Vec<(ModelKind, Vec<f64>)> = workload()
        .iter()
        .map(|(x, exclude)| sharded.predict_excluding(x, w, *exclude))
        .collect();

    let mut errors = 0usize; // dial-err + send-err + call-err
    let mut reloads = 0usize;
    let mut failovers = 0usize;
    let mut nacks = 0usize;
    let mut demotes = 0usize;
    let mut repromotes = 0usize;
    let mut retries = 0usize;
    for seed in 1u64..=8 {
        let run = run_gauntlet(seed);
        assert_eq!(
            run.answers, expected,
            "seed {seed}: a fault changed an answer bit"
        );
        errors += run
            .trace
            .iter()
            .filter(|l| {
                l.starts_with("dial-err") || l.starts_with("send-err") || l.starts_with("call-err")
            })
            .count();
        reloads += run.trace.iter().filter(|l| l.starts_with("reload")).count();
        failovers += run
            .trace
            .iter()
            .filter(|l| l.starts_with("failover"))
            .count();
        nacks += run.trace.iter().filter(|l| l.starts_with("nack")).count();
        demotes += run.trace.iter().filter(|l| l.starts_with("demote")).count();
        repromotes += run
            .trace
            .iter()
            .filter(|l| l.starts_with("repromote"))
            .count();
        retries += run.retries;
    }
    // The sweep is only meaningful if faults actually fired and were
    // survived. Log the coverage so a quieter-than-expected run is
    // visible in test output, not hidden behind a green check.
    println!(
        "gauntlet coverage over 8 seeds: {errors} transport errors, \
         {nacks} NACKs, {reloads} reloads, {failovers} failovers, \
         {demotes} demotions, {repromotes} re-promotions, \
         {retries} request retries"
    );
    assert!(errors > 0, "no transport faults fired — raise INTENSITY");
    assert!(reloads > 0, "no reload was ever needed — plan too gentle");
    assert!(failovers > 0, "no failover was ever exercised");
    assert!(demotes > 0, "no replica was ever demoted — plan too gentle");
    assert!(
        repromotes > 0,
        "no demoted replica ever came back through a heartbeat"
    );
}

/// Same seed, same trace — byte for byte, including retry counts. A
/// different seed produces a different failure history.
#[test]
fn same_seed_replays_the_same_event_trace() {
    let a = run_gauntlet(5);
    let b = run_gauntlet(5);
    assert_eq!(a.trace, b.trace, "event trace must replay bit-identically");
    assert_eq!(a.answers, b.answers);
    assert_eq!(a.retries, b.retries);
    let c = run_gauntlet(6);
    assert_ne!(
        a.trace, c.trace,
        "distinct seeds must produce distinct failure histories"
    );
}

/// A scripted kill/restart cycle: the restarted replica comes back empty,
/// NACKs its first pinned query, and is repaired by exactly the reload
/// path — with every answer before, during, and after the outage equal to
/// the in-process advisor's.
#[test]
fn kill_restart_cycle_heals_through_reload() {
    let flat = common::synthetic_flat(9, 3);
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let replicas = RANGES * REPLICAS_PER_RANGE;
    // Bootstrap consumes replicas × (dial + load) = 8 steps. Kill the
    // primary of range 0 right after, restart it shortly before the
    // second query round reaches it.
    let plan = FaultPlan::none().with_kill(9, 0).with_restart(14, 0);
    let net = SimNet::new(replicas, plan);
    let coord = ClusterCoordinator::over_sim(
        sharded.clone(),
        &net,
        REPLICAS_PER_RANGE,
        ClusterConfig::no_sleep(),
    );
    coord.bootstrap().expect("healthy bootstrap");
    let w = MetricWeights::new(0.5);
    for round in 0..3 {
        for x in common::queries() {
            let want = sharded.predict_from_embedding(&x, w);
            let got = coord.predict_from_embedding(&x, w).expect("predict");
            assert_eq!(want, got, "round {round} answer drifted");
        }
    }
    let trace = coord.take_trace();
    assert!(
        trace.iter().any(|l| l.starts_with("failover")),
        "the dead window must fail over: {trace:?}"
    );
    assert!(
        trace
            .iter()
            .any(|l| l.starts_with("reload range=0 r=0") || l.starts_with("nack")),
        "the restarted empty replica must be repaired by reload: {trace:?}"
    );
    // After the cycle the cluster serves from both replicas again; a
    // heartbeat finds nothing left to repair.
    let health = coord.heartbeat();
    assert!(!health.any_range_dark());
}

/// FNV-1a over the newline-terminated lines of seeds 1–8's batched event
/// traces, captured on the parent of the commit that made a single query
/// a batch of one: that change may not move a byte of them.
const BATCHED_TRACE_FNV1A: [u64; 8] = [
    0xb73d_20e7_1ba6_f0d2,
    0x304e_99e1_87bc_e887,
    0xc2b5_414a_7a5b_1de7,
    0xb6f7_d812_c36b_9710,
    0x3545_b4ce_c9ff_97f0,
    0x84f3_2b3c_1e4f_78d7,
    0xd48c_13f9_cd9e_b638,
    0x7fd2_1791_546d_0f0b,
];

fn fnv1a(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Depth of each wire batch in the batched gauntlet: deep enough that a
/// single injected fault hits several queries at once, small enough that
/// the workload spans many batch frames.
const BATCH_DEPTH: usize = 4;

/// One full gauntlet run driving the same workload in deep batches
/// ([`ClusterCoordinator::predict_batch`]): the whole chunk rides one
/// `QueryBatch` frame per range, so every injected wire fault lands on a
/// batch frame and fails (or heals) the chunk as a unit.
fn run_batched_gauntlet(seed: u64) -> GauntletRun {
    let flat = common::synthetic_flat(11, 3);
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let replicas = RANGES * REPLICAS_PER_RANGE;
    let plan = FaultPlan::seeded(seed, PLAN_STEPS, replicas, INTENSITY);
    let net = SimNet::new(replicas, plan);
    let coord =
        ClusterCoordinator::over_sim(sharded, &net, REPLICAS_PER_RANGE, ClusterConfig::no_sleep());
    let mut retries = 0usize;
    let mut attempt = 0u32;
    while let Err(e) = coord.bootstrap() {
        attempt += 1;
        retries += 1;
        assert!(attempt < 100, "seed {seed}: bootstrap never converged: {e}");
    }
    let w = MetricWeights::new(0.7);
    let cases = workload();
    let mut answers = Vec::new();
    for (ci, chunk) in cases.chunks(BATCH_DEPTH).enumerate() {
        let reqs: Vec<BatchPredictRequest<'_>> = chunk
            .iter()
            .map(|(x, exclude)| BatchPredictRequest {
                embedding: x,
                w,
                exclude: *exclude,
            })
            .collect();
        let mut attempt = 0u32;
        let batch = loop {
            match coord.predict_batch(&reqs) {
                Ok(a) => break a,
                Err(ClusterError::RangeUnavailable { .. }) => {
                    attempt += 1;
                    retries += 1;
                    assert!(attempt < 500, "seed {seed}: range stayed dark");
                }
                Err(e) => panic!("seed {seed}: non-transient failure: {e}"),
            }
        };
        assert_eq!(batch.len(), chunk.len(), "a batch must answer in full");
        answers.extend(batch);
        if ci % 2 == 1 {
            let _ = coord.heartbeat();
        }
    }
    let health = coord.heartbeat();
    let _ = health.report();
    GauntletRun {
        answers,
        trace: coord.take_trace(),
        retries,
    }
}

/// The seeded sweep in deep batches: the same 8 seeds as the per-query
/// sweep (whose frames are batches of one), with the fault schedule now
/// landing on `BATCH_DEPTH`-deep frames — and every answer still equals
/// the in-process sharded advisor bit for bit. The event traces are pinned
/// to the bytes the wire-batched path produced before the per-query path
/// was folded into it.
#[test]
fn batched_fault_sweep_is_bit_identical_to_flat() {
    let flat = common::synthetic_flat(11, 3);
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let w = MetricWeights::new(0.7);
    let expected: Vec<(ModelKind, Vec<f64>)> = workload()
        .iter()
        .map(|(x, exclude)| sharded.predict_excluding(x, w, *exclude))
        .collect();

    let mut errors = 0usize;
    let mut reloads = 0usize;
    let mut failovers = 0usize;
    let mut nacks = 0usize;
    let mut retries = 0usize;
    for seed in 1u64..=8 {
        let run = run_batched_gauntlet(seed);
        assert_eq!(
            run.answers, expected,
            "seed {seed}: a fault on the batched path changed an answer bit"
        );
        assert_eq!(
            fnv1a(&run.trace),
            BATCHED_TRACE_FNV1A[seed as usize - 1],
            "seed {seed}: the batched event trace moved: {:?}",
            run.trace
        );
        errors += run
            .trace
            .iter()
            .filter(|l| {
                l.starts_with("dial-err") || l.starts_with("send-err") || l.starts_with("call-err")
            })
            .count();
        reloads += run.trace.iter().filter(|l| l.starts_with("reload")).count();
        failovers += run
            .trace
            .iter()
            .filter(|l| l.starts_with("failover"))
            .count();
        nacks += run.trace.iter().filter(|l| l.starts_with("nack")).count();
        retries += run.retries;
    }
    println!(
        "batched gauntlet coverage over 8 seeds: {errors} transport errors, \
         {nacks} NACKs, {reloads} reloads, {failovers} failovers, \
         {retries} batch retries"
    );
    assert!(
        errors > 0,
        "no fault ever hit a batch frame — plan too gentle"
    );
    assert!(reloads > 0, "no reload was ever needed on the batched path");
    assert!(failovers > 0, "no batch frame ever failed over");
}

/// Same seed, same deep-batch trace — byte for byte.
#[test]
fn batched_gauntlet_replays_the_same_event_trace() {
    let a = run_batched_gauntlet(5);
    let b = run_batched_gauntlet(5);
    assert_eq!(
        a.trace, b.trace,
        "batched event trace must replay bit-identically"
    );
    assert_eq!(a.answers, b.answers);
    assert_eq!(a.retries, b.retries);
    let c = run_batched_gauntlet(6);
    assert_ne!(
        a.trace, c.trace,
        "distinct seeds must produce distinct batched failure histories"
    );
}

/// Answers, coordinator trace, and RangeUnavailable-retry count from one
/// service-fronted gauntlet run.
type ServiceGauntletRun = (Vec<(ModelKind, Vec<f64>)>, Vec<String>, usize);

/// One gauntlet run with the cluster mounted behind the micro-batched
/// [`AdvisorService`] (the caller keeps the coordinator's admin handle for
/// heartbeats and the trace; queries ride the service front).
fn run_service_gauntlet(seed: u64) -> ServiceGauntletRun {
    let flat = common::synthetic_flat(11, 3);
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let replicas = RANGES * REPLICAS_PER_RANGE;
    let plan = FaultPlan::seeded(seed, PLAN_STEPS, replicas, INTENSITY);
    let net = SimNet::new(replicas, plan);
    let coord = Arc::new(ClusterCoordinator::over_sim(
        sharded,
        &net,
        REPLICAS_PER_RANGE,
        ClusterConfig::no_sleep(),
    ));
    let mut attempt = 0u32;
    let mut retries = 0usize;
    while let Err(e) = coord.bootstrap() {
        attempt += 1;
        retries += 1;
        assert!(attempt < 100, "seed {seed}: bootstrap never converged: {e}");
    }
    let service = AdvisorService::start_shared(
        coord.clone(),
        ServeConfig::builder()
            .max_batch(4)
            .batch_deadline(Duration::from_millis(1))
            .cache_capacity(64)
            .build()
            .expect("valid serve config"),
    );
    let handle = service.handle();
    let w = MetricWeights::new(0.7);
    let mut answers = Vec::new();
    for (i, e) in flat.rcs().iter().enumerate() {
        let mut attempt = 0u32;
        let rec = loop {
            match handle.recommend_graph(e.graph.clone(), w) {
                Ok(rec) => break rec,
                Err(AdvisorError::RangeUnavailable { .. }) => {
                    attempt += 1;
                    retries += 1;
                    assert!(attempt < 500, "seed {seed}: range stayed dark");
                }
                Err(e) => panic!("seed {seed}: non-transient service failure: {e}"),
            }
        };
        answers.push((rec.model, rec.scores));
        if i % 3 == 2 {
            let _ = coord.heartbeat();
        }
    }
    service.shutdown();
    (answers, coord.take_trace(), retries)
}

/// The gauntlet through the service front: every recommendation off the
/// faulty wire equals the in-process sharded advisor bit for bit, and the
/// whole run — batching, caching, retries, fault recovery — replays
/// byte-identically from the same seed.
#[test]
fn service_fronted_gauntlet_is_bit_identical_and_replays() {
    let flat = common::synthetic_flat(11, 3);
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let w = MetricWeights::new(0.7);
    let expected: Vec<(ModelKind, Vec<f64>)> = flat
        .rcs()
        .iter()
        .map(|e| {
            let x = sharded.embed_graph(&e.graph);
            sharded.predict_from_embedding(&x, w)
        })
        .collect();
    for seed in 1u64..=8 {
        let (answers, trace, retries) = run_service_gauntlet(seed);
        assert_eq!(
            answers, expected,
            "seed {seed}: a fault changed a service answer bit"
        );
        let (answers2, trace2, retries2) = run_service_gauntlet(seed);
        assert_eq!(
            trace, trace2,
            "seed {seed}: the service-fronted trace must replay byte-identically"
        );
        assert_eq!((answers, retries), (answers2, retries2), "seed {seed}");
    }
}

/// A logically-clocked [`ClusterConfig`] plus the registry it records into.
fn observed_cfg() -> (ClusterConfig, MetricsRegistry) {
    let registry = MetricsRegistry::new_logical();
    let mut cfg = ClusterConfig::no_sleep();
    cfg.metrics = registry.clone();
    (cfg, registry)
}

/// The observability invariant, sweep-tested: enabling metrics (in
/// logical-clock mode, the SimNet regime) must not add a line to the
/// deterministic event trace, flip an answer bit, or change a retry count
/// on any of the 8 seeded fault schedules — and the recorded metrics must
/// themselves be live and bit-reproducible across replays.
#[test]
fn metrics_enabled_sweep_is_byte_equal_to_unobserved() {
    for seed in 1u64..=8 {
        let plain = run_gauntlet(seed);
        let (cfg, registry) = observed_cfg();
        let observed = run_gauntlet_cfg(seed, cfg);
        assert_eq!(
            plain.trace, observed.trace,
            "seed {seed}: metrics added or reordered an event-trace line"
        );
        assert_eq!(
            plain.answers, observed.answers,
            "seed {seed}: metrics changed an answer bit"
        );
        assert_eq!(plain.retries, observed.retries, "seed {seed}");
        // The comparison is only meaningful if the registry actually saw
        // the run: every answered query recorded an RTT span.
        let snap = registry.snapshot();
        let rtt_spans: u64 = (0..RANGES)
            .map(|r| {
                snap.histogram_totals("ce_cluster_rtt_ns", &[("range", &r.to_string())])
                    .1
            })
            .sum();
        assert!(
            rtt_spans > 0,
            "seed {seed}: instrumented run recorded nothing"
        );
        // And the metrics themselves replay: same seed, same logical
        // clock, same snapshot bytes.
        let (cfg2, registry2) = observed_cfg();
        let _ = run_gauntlet_cfg(seed, cfg2);
        assert_eq!(
            registry.snapshot().to_bytes(),
            registry2.snapshot().to_bytes(),
            "seed {seed}: logical-clock metrics must replay bit-identically"
        );
    }
}

/// Metrics-enabled concurrency sweep: a healthy cluster behind the
/// micro-batched service, hammered by 1, 2, 4, then 8 client threads with
/// a live logical-clock registry on both the service and the coordinator.
/// Every thread's answer stream equals the in-process advisor bit for bit
/// at every width — batching, caching, and instrumentation included.
#[test]
fn metrics_enabled_service_is_bit_identical_at_every_thread_count() {
    let flat = Arc::new(common::synthetic_flat(11, 3));
    let sharded = ShardedAdvisor::from_advisor(&flat, RANGES);
    let w = MetricWeights::new(0.7);
    let expected: Arc<Vec<(ModelKind, Vec<f64>)>> = Arc::new(
        flat.rcs()
            .iter()
            .map(|e| {
                let x = sharded.embed_graph(&e.graph);
                sharded.predict_from_embedding(&x, w)
            })
            .collect(),
    );
    for threads in [1usize, 2, 4, 8] {
        // Coordinator and service each get their OWN registry: the
        // unified snapshot merges the backend's metrics in, so sharing
        // one registry across both layers would double-count it.
        let (cfg, _cluster_registry) = observed_cfg();
        let registry = MetricsRegistry::new_logical();
        let replicas = RANGES * REPLICAS_PER_RANGE;
        let net = SimNet::new(replicas, FaultPlan::none());
        let coord = Arc::new(ClusterCoordinator::over_sim(
            ShardedAdvisor::from_advisor(&flat, RANGES),
            &net,
            REPLICAS_PER_RANGE,
            cfg,
        ));
        coord.bootstrap().expect("healthy bootstrap");
        let service = AdvisorService::start_shared(
            coord.clone(),
            ServeConfig::builder()
                .max_batch(4)
                .batch_deadline(Duration::from_millis(1))
                .cache_capacity(64)
                .metrics(registry.clone())
                .build()
                .expect("valid serve config"),
        );
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let handle = service.handle();
                let flat = flat.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for (e, want) in flat.rcs().iter().zip(expected.iter()) {
                        let rec = handle
                            .recommend_graph(e.graph.clone(), w)
                            .expect("healthy cluster");
                        assert_eq!(
                            (&rec.model, &rec.scores),
                            (&want.0, &want.1),
                            "answer drifted under concurrency with metrics on"
                        );
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("no worker may panic");
        }
        // Liveness: the unified snapshot (registry + ledgers + backend)
        // accounts for every request made at this width.
        let snap = service.handle().metrics_snapshot();
        assert_eq!(
            snap.counter("ce_serve_requests_total", &[]),
            (threads * flat.rcs().len()) as u64,
            "{threads} threads: request counter must account for every call"
        );
        let path_total: u64 = ["cache_hit", "inline", "worker"]
            .iter()
            .map(|p| snap.counter("ce_serve_path_requests_total", &[("path", p)]))
            .sum();
        assert_eq!(
            path_total,
            (threads * flat.rcs().len()) as u64,
            "{threads} threads: every request must be attributed to a path"
        );
        service.shutdown();
        coord.shutdown_cluster();
    }
}
