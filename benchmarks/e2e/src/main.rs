//! `e2e-bench`: the repository's end-to-end benchmark. See `README.md` in
//! this directory for what is measured and why it is measured this way.
//!
//! ```text
//! e2e-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics of an
//! untraced run, the per-layer metrics of a traced one. The exit code is 0
//! only when every answer was right.

mod host;
mod inputs;
mod stats;
mod trace;
mod workloads;

use autoce::AdvisorBackend;
use ce_serve::{AdvisorService, ServeHandle, ShardedAdvisor};
use host::{Calibrator, ProcessGroup, CALIB_NOMINAL_US};
use stats::{estimate, median, percentile, Estimate, Window};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layers, SpanLog};
use workloads::{
    adapt_window, expected_checksum, mirror_mismatches, oracle_answers, pass, same_answer, Answer,
    DriftPlan, Front, Inputs, Kind, Meter, Registries, Stages, Trained, WindowChecks,
};

/// `(name, unit)` of the metrics an untraced run reports, as in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rec_p50_us", "us"),
    ("rec_p95_us", "us"),
    ("rec_per_s", "1/s"),
    ("cpu_us_per_rec", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of the metrics a traced run reports, as in
/// `BENCHMARK.json`. A layer the workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("features.extract_us_p50", "us"),
    ("features.extract_share", "ratio"),
    ("gnn.encode_us_p50", "us"),
    ("gnn.encode_batch8_us_per_graph", "us"),
    ("gnn.train_s", "s"),
    ("gnn.refresh_ms_p50", "ms"),
    ("gnn.adapt_train_ms_mean", "ms"),
    ("nn.sq_dist_i8_ns", "ns"),
    ("nn.sq_dist_f16_ns", "ns"),
    ("nn.kmeans_s", "s"),
    ("autoce.knn96_us_p50", "us"),
    ("autoce.knn_indexed_us_p50", "us"),
    ("autoce.knn_flat_us_p50", "us"),
    ("autoce.index_speedup", "ratio"),
    ("autoce.index_build_s", "s"),
    ("autoce.index_served_ratio", "ratio"),
    ("autoce.rerank_candidates_mean", "count"),
    ("autoce.regret_mean", "ratio"),
    ("serve.front_us_p50", "us"),
    ("serve.hit_path_us_p50", "us"),
    ("serve.queue_wait_us_mean", "us"),
    ("serve.batch_depth_mean", "count"),
    ("serve.path_worker_ratio", "ratio"),
    ("serve.path_inline_ratio", "ratio"),
    ("serve.path_hit_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_admit_ratio", "ratio"),
    ("serve.adapt_ms_p50", "ms"),
    ("serve.adapt_self_ms", "ms"),
    ("serve.rec_p99_us", "us"),
    ("testbed.label_s", "s"),
    ("testbed.label_ms_p50", "ms"),
    ("cluster.predict_batch_us_p50", "us"),
    ("cluster.rtt_us_mean", "us"),
    ("cluster.merge_vote_us_p50", "us"),
    ("cluster.wire_bytes_per_rec", "B/rec"),
    ("cluster.frames_per_call", "count"),
    ("cluster.retries_total", "count"),
    ("cluster.shard_cpu_us_per_rec", "us"),
    ("cluster.bootstrap_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("ledger.residual_ratio", "ratio"),
    ("host.calib_us", "us"),
    ("host.quiet_spread", "ratio"),
    ("raw.rec_p50_us", "us"),
    ("raw.rec_per_s", "1/s"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed windows of a run, whatever `--seconds` says.
const MIN_WINDOWS: usize = 16;
/// Windows of `--quick`, the smoke mode.
const QUICK_WINDOWS: usize = 4;
/// Pool datasets labelled for `autoce.regret_mean`.
const REGRET_DATASETS: usize = 32;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::GraphHot,
        seed: 20_230_403,
        seconds: 8.0,
        trace: false,
        quick: false,
        out_dir: "e2e-out".into(),
    };
    let mut named = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.kind = Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                named = true;
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--out-dir" => args.out_dir = value("a directory")?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !named {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        return Err(format!(
            "--workload is required: one of {}",
            names.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// Counts every operation tried and every one that went wrong, by what
/// went wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    causes: std::collections::BTreeMap<&'static str, u64>,
}

impl Tally {
    fn fail(&mut self, cause: &'static str, n: u64) {
        if n > 0 {
            self.failed += n;
            *self.causes.entry(cause).or_default() += n;
        }
    }
}

/// One front under measurement and what is needed to run and check a
/// window on it.
struct Target<'a> {
    kind: Kind,
    inputs: &'a Inputs,
    seed: u64,
    registries: Registries,
    /// `None` for `adapt-mix`, whose every round starts its own service.
    front: Option<Front>,
    /// `adapt-mix`: what every round's service starts from, its plan, and
    /// the last window's services, one per round, in their final state.
    base: Option<ShardedAdvisor>,
    plan: Option<DriftPlan>,
    last_services: Vec<AdvisorService<ShardedAdvisor>>,
    group: ProcessGroup,
    expected: u64,
    /// `(requests, cache hits, cache inserts, cache rejects)` of services
    /// already stopped.
    retired: [u64; 4],
}

impl<'a> Target<'a> {
    fn new(
        args: &Args,
        inputs: &'a Inputs,
        trained: &Trained,
        oracle: &[Answer],
        registries: Registries,
        front: Front,
        tally: &mut Tally,
    ) -> Result<Self, String> {
        let (kind, seed) = (args.kind, args.seed);
        let mut target = Target {
            kind,
            inputs,
            seed,
            registries,
            group: ProcessGroup::with_children(&front.child_pids()),
            front: Some(front),
            base: None,
            plan: None,
            last_services: Vec::new(),
            expected: expected_checksum(kind, oracle, 1),
            retired: [0; 4],
        };
        target.precheck(oracle, tally);
        if kind == Kind::AdaptMix {
            let base = ShardedAdvisor::from_advisor(&trained.flat, 4);
            target.plan = Some(
                DriftPlan::choose(&base, seed).ok_or("no drift candidate lies outside the RCS")?,
            );
            target.base = Some(base);
            let front = target.front.take().expect("set-up front");
            target.retire_ledger(&front);
            front.stop();
        }
        Ok(target)
    }

    /// Correctness before speed: every distinct pool input, asked through
    /// the service, must get the flat advisor's model and score bits. Also
    /// fills the cache of the hit workloads.
    fn precheck(&self, oracle: &[Answer], tally: &mut Tally) {
        fn check<B: AdvisorBackend + 'static>(
            kind: Kind,
            handle: &ServeHandle<B>,
            inputs: &Inputs,
            oracle: &[Answer],
            tally: &mut Tally,
        ) {
            let w = inputs::weights();
            for (i, want) in oracle.iter().enumerate() {
                let got = if kind == Kind::DatasetCold {
                    handle.recommend(&inputs.real().pool_datasets[i], w)
                } else {
                    handle.recommend_graph(inputs.pool_graphs()[i].clone(), w)
                };
                tally.attempted += 1;
                let right = matches!(&got, Ok(r) if same_answer(r, want));
                tally.fail("answer differs from the flat advisor's", u64::from(!right));
            }
        }
        match self.front.as_ref().expect("front present before timing") {
            Front::Sharded(s) => check(self.kind, &s.handle(), self.inputs, oracle, tally),
            Front::Cluster { service, .. } => {
                check(self.kind, &service.handle(), self.inputs, oracle, tally)
            }
        }
    }

    fn retire_ledger(&mut self, front: &Front) {
        let (stats, cache) = match front {
            Front::Sharded(s) => (s.stats(), s.cache_stats()),
            Front::Cluster { service, .. } => (service.stats(), service.cache_stats()),
        };
        self.add_ledger(stats, cache);
    }

    fn add_ledger(&mut self, stats: ce_serve::ServiceStats, cache: ce_serve::CacheStats) {
        for (t, v) in self.retired.iter_mut().zip(ledger_of(&stats, &cache)) {
            *t += v;
        }
    }

    /// One window: spin, the workload's fixed work, spin.
    fn window(
        &mut self,
        cal: &mut Calibrator,
        spans: Option<&mut SpanLog>,
        tally: &mut Tally,
    ) -> Window {
        for old in std::mem::take(&mut self.last_services) {
            let (stats, cache) = (old.stats(), old.cache_stats());
            old.shutdown();
            self.add_ledger(stats, cache);
        }
        let mut meter = Meter::new(cal, &self.group, spans);
        let mut checks = WindowChecks::default();
        if self.kind == Kind::AdaptMix {
            self.last_services = adapt_window(
                self.base.as_ref().expect("adapt-mix base"),
                &self.registries,
                self.inputs,
                self.plan.as_ref().expect("adapt-mix plan"),
                self.seed,
                &mut meter,
                &mut checks,
            );
        } else {
            match self.front.as_ref().expect("front present") {
                Front::Sharded(s) => {
                    meter.segment(|m| pass(self.kind, &s.handle(), self.inputs, m))
                }
                Front::Cluster { service, .. } => {
                    meter.segment(|m| pass(self.kind, &service.handle(), self.inputs, m))
                }
            }
            checks.wrong_passes = u64::from(meter.sum.value() != self.expected);
        }
        let window = meter.window;
        tally.attempted += meter.calls + checks.adapts;
        tally.fail("call returned an error", meter.errors);
        tally.fail(
            "pass checksum differs from the oracle's",
            checks.wrong_passes,
        );
        tally.fail("adapt returned false", checks.adapts_refused);
        window
    }

    /// After the last `adapt-mix` window: every round's final answers
    /// against a mirror adapted without a service.
    fn final_checks(&mut self, tally: &mut Tally) {
        for (step, service) in self.last_services.iter().enumerate() {
            let base = self.base.as_ref().expect("adapt-mix base");
            let ds = &self.plan.as_ref().expect("adapt-mix plan").steps[step];
            tally.attempted += self.inputs.pool_graphs().len() as u64;
            tally.fail(
                "answer differs from the mirror advisor's",
                mirror_mismatches(base, service, self.inputs, (step, ds), self.seed),
            );
        }
    }

    /// `(requests, cache hits, cache inserts, cache rejects)` over every
    /// service this target ran, stopped or live.
    fn ledger(&self) -> [u64; 4] {
        let front = self.front.iter().map(|front| match front {
            Front::Sharded(s) => (s.stats(), s.cache_stats()),
            Front::Cluster { service, .. } => (service.stats(), service.cache_stats()),
        });
        let rounds = self
            .last_services
            .iter()
            .map(|s| (s.stats(), s.cache_stats()));
        let mut total = self.retired;
        for (stats, cache) in front.chain(rounds) {
            for (t, v) in total.iter_mut().zip(ledger_of(&stats, &cache)) {
                *t += v;
            }
        }
        total
    }

    fn stop(mut self) {
        for service in self.last_services.drain(..) {
            service.shutdown();
        }
        if let Some(front) = self.front.take() {
            front.stop();
        }
    }
}

fn ledger_of(stats: &ce_serve::ServiceStats, cache: &ce_serve::CacheStats) -> [u64; 4] {
    [
        stats.requests,
        stats.cache_hits,
        cache.inserts,
        cache.rejected_first_touch + cache.rejected_stale_generation + cache.rejected_disabled,
    ]
}

/// The JSON line the driver reads, and the same values for people.
fn report(tally: &Tally, metrics: &[(&str, &str, f64)]) -> bool {
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.2.is_finite());
    for (name, unit, value) in metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "attempted {} ok {} failed {}",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed
    );
    for (cause, n) in &tally.causes {
        println!("failed: {n} x {cause}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    correct
}

fn run_windows(
    args: &Args,
    cal: &mut Calibrator,
    tally: &mut Tally,
    mut next: impl FnMut(&mut Calibrator, &mut Tally, usize),
    seconds: f64,
    min_windows: usize,
) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut n = 0;
    loop {
        let done = if args.quick {
            n >= QUICK_WINDOWS
        } else {
            n >= min_windows && start.elapsed() >= budget
        };
        if done {
            break;
        }
        next(cal, tally, n);
        n += 1;
    }
}

fn timing_run(args: &Args, cal: &mut Calibrator, inputs: &Inputs) -> Result<bool, String> {
    let kind = args.kind;
    let mut tally = Tally::default();
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut built: Option<(Trained, Front)> = None;
    for rep in 0..repeats {
        if let Some((_, front)) = built.take() {
            front.stop();
        }
        let trained = workloads::train(cal, inputs, args.seed);
        let (front, stages) = Front::start(kind, cal, &trained, &Registries::disabled());
        let mut all = trained.stages.clone();
        all.0.extend(stages.0);
        println!(
            "set-up {rep}: {:.4} s corrected ({})",
            all.corrected_s(""),
            describe(&all)
        );
        setups.push(all.corrected_s(""));
        built = Some((trained, front));
    }
    let (trained, front) = built.expect("at least one set-up");
    let oracle = oracle_answers(&trained.flat, inputs.pool_graphs());
    let mut target = Target::new(
        args,
        inputs,
        &trained,
        &oracle,
        Registries::disabled(),
        front,
        &mut tally,
    )?;
    // One full window to warm caches and allocator, not recorded.
    target.window(cal, None, &mut tally);
    let mut windows = Vec::new();
    run_windows(
        args,
        cal,
        &mut tally,
        |cal, tally, _| windows.push(target.window(cal, None, tally)),
        args.seconds,
        MIN_WINDOWS,
    );
    target.final_checks(&mut tally);
    let est = estimate(&windows).map_err(|e| format!("too few samples: {e:?}"))?;
    let peak_rss = target.group.peak_rss_mib();
    target.stop();
    describe_estimate(&est);
    let values = [
        median(&setups),
        est.rec_p50_us,
        est.rec_p95_us,
        est.rec_per_s,
        est.cpu_us_per_rec,
        peak_rss,
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    Ok(report(&tally, &metrics))
}

fn describe(stages: &Stages) -> String {
    let mut names: Vec<&str> = Vec::new();
    for s in &stages.0 {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    names
        .iter()
        .map(|n| format!("{n} {:.4}", stages.corrected_s(n)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn describe_estimate(est: &Estimate) {
    println!(
        "windows {} quiet {} quiet samples {} | calib {:.0} us (nominal {CALIB_NOMINAL_US:.0}) \
         quiet spread {:.3} | raw p50 {:.2} us raw {:.0} rec/s",
        est.windows,
        est.quiet_windows,
        est.quiet_samples,
        est.calib_us,
        est.quiet_spread,
        est.raw_rec_p50_us,
        est.raw_rec_per_s
    );
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn traced_run(args: &Args, cal: &mut Calibrator, inputs: &Inputs) -> Result<bool, String> {
    let kind = args.kind;
    let mut tally = Tally::default();
    let mut log = SpanLog::new();
    let trained = workloads::train(cal, inputs, args.seed);
    let oracle = oracle_answers(&trained.flat, inputs.pool_graphs());
    let live = Registries::live();
    let (front, _) = Front::start(kind, cal, &trained, &Registries::disabled());
    let mut plain = Target::new(
        args,
        inputs,
        &trained,
        &oracle,
        Registries::disabled(),
        front,
        &mut tally,
    )?;
    let (front, front_stages) = Front::start(kind, cal, &trained, &live);
    let mut traced = Target::new(
        args,
        inputs,
        &trained,
        &oracle,
        live.clone(),
        front,
        &mut tally,
    )?;
    plain.window(cal, None, &mut tally);
    traced.window(cal, None, &mut tally);
    // Ledgers and registries from here on cover timed windows only.
    let ledger_before = traced.ledger();
    let serve_before = live.serve.snapshot();
    let cluster_before = live.cluster.snapshot();
    let (mut plain_windows, mut traced_windows) = (Vec::new(), Vec::new());
    run_windows(
        args,
        cal,
        &mut tally,
        |cal, tally, n| {
            if n % 2 == 0 {
                plain_windows.push(plain.window(cal, None, tally));
            } else {
                traced_windows.push(traced.window(cal, Some(&mut log), tally));
            }
        },
        args.seconds / 2.0,
        2 * QUICK_WINDOWS,
    );
    let ledger_after = traced.ledger();
    let serve = live.serve.snapshot();
    let cluster = live.cluster.snapshot();
    traced.final_checks(&mut tally);
    let est_plain = estimate(&plain_windows).map_err(|e| format!("too few samples: {e:?}"))?;
    let est = estimate(&traced_windows).map_err(|e| format!("too few samples: {e:?}"))?;
    describe_estimate(&est);

    // Every layer on its own, on the traced front's backend.
    let mut layers = Layers::default();
    let capacity = kind.cache_capacity();
    match (&traced.front, &traced.base) {
        (Some(Front::Sharded(s)), _) => {
            let snapshot = s.snapshot();
            trace::replay_reads(
                kind,
                cal,
                &mut log,
                inputs,
                &*snapshot,
                capacity,
                &mut layers,
            );
        }
        (Some(Front::Cluster { coord, .. }), _) => {
            trace::replay_reads(kind, cal, &mut log, inputs, &**coord, capacity, &mut layers);
        }
        (None, Some(base)) => {
            trace::replay_reads(kind, cal, &mut log, inputs, base, capacity, &mut layers);
            let plan = traced.plan.as_ref().expect("adapt-mix plan");
            trace::replay_adapt(cal, &mut log, base, plan, args.seed, &mut layers);
        }
        (None, None) => unreachable!("a target has a front or a base"),
    }

    let mut m: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    let delta = |name: &str,
                 labels: &[(&str, &str)],
                 of: &ce_obs::MetricsSnapshot,
                 before: &ce_obs::MetricsSnapshot| {
        of.counter(name, labels) - before.counter(name, labels)
    };
    let hist = |name: &str,
                labels: &[(&str, &str)],
                of: &ce_obs::MetricsSnapshot,
                before: &ce_obs::MetricsSnapshot| {
        let (s1, c1) = of.histogram_totals(name, labels);
        let (s0, c0) = before.histogram_totals(name, labels);
        (s1 - s0, c1 - c0)
    };
    let calls: u64 = traced_windows
        .iter()
        .map(|w| w.latencies_us.len() as u64)
        .sum();
    let recs: u64 = traced_windows.iter().map(|w| w.recs).sum();

    // ce-features / ce-gnn / autoce, from the replay.
    let extract = layers.p50("extract");
    let encode = layers.p50("encode");
    let knn = layers.p50("knn");
    m.insert("features.extract_us_p50", extract);
    m.insert("features.extract_share", extract / est.rec_p50_us);
    m.insert("gnn.encode_us_p50", encode);
    m.insert(
        "gnn.encode_batch8_us_per_graph",
        layers.p50("encode_batch8_per_graph"),
    );
    m.insert("serve.hit_path_us_p50", layers.p50("hit_path"));
    match kind {
        Kind::KnnRead => m.insert("autoce.knn_indexed_us_p50", knn),
        // A burst votes in one call; its share per graph is the KNN.
        Kind::GraphHot => m.insert(
            "autoce.knn96_us_p50",
            layers.p50("predict_batch") / kind.burst() as f64,
        ),
        // The vote runs in the shard processes: see shard_cpu_us_per_rec.
        Kind::ClusterBurst => m.insert("cluster.predict_batch_us_p50", layers.p50("predict_batch")),
        Kind::DatasetCold | Kind::AdaptMix => m.insert("autoce.knn96_us_p50", knn),
    };

    // Set-up stages of this run.
    m.insert("gnn.train_s", trained.stages.corrected_s("train"));
    m.insert("testbed.label_s", trained.stages.corrected_s("label"));
    m.insert("cluster.bootstrap_s", front_stages.corrected_s("bootstrap"));

    // ce-serve, from its registry and ledgers.
    let (wait_ns, waits) = hist("ce_serve_queue_wait_ns", &[], &serve, &serve_before);
    let queue_wait = ratio(wait_ns, waits) / 1e3;
    m.insert("serve.queue_wait_us_mean", queue_wait);
    let depth = |path: &str| {
        hist(
            "ce_serve_batch_depth",
            &[("path", path)],
            &serve,
            &serve_before,
        )
    };
    let (worker_depth, inline_depth) = (depth("worker"), depth("inline"));
    m.insert(
        "serve.batch_depth_mean",
        ratio(
            worker_depth.0 + inline_depth.0,
            worker_depth.1 + inline_depth.1,
        ),
    );
    let path = |p: &str| {
        delta(
            "ce_serve_path_requests_total",
            &[("path", p)],
            &serve,
            &serve_before,
        )
    };
    let (by_worker, by_inline, by_hit) = (path("worker"), path("inline"), path("cache_hit"));
    let by_any = by_worker + by_inline + by_hit;
    m.insert("serve.path_worker_ratio", ratio(by_worker, by_any));
    m.insert("serve.path_inline_ratio", ratio(by_inline, by_any));
    m.insert("serve.path_hit_ratio", ratio(by_hit, by_any));
    let ledger: Vec<u64> = ledger_after
        .iter()
        .zip(ledger_before)
        .map(|(a, b)| a - b)
        .collect();
    m.insert("serve.cache_hit_ratio", ratio(ledger[1], ledger[0]));
    m.insert(
        "serve.cache_admit_ratio",
        ratio(ledger[2], ledger[2] + ledger[3]),
    );
    m.insert("serve.rec_p99_us", {
        let mut all: Vec<f64> = plain_windows
            .iter()
            .chain(&traced_windows)
            .flat_map(|w| w.latencies_us.iter().map(|&l| l / w.factor()))
            .collect();
        all.sort_by(f64::total_cmp);
        percentile(&all, 99.0).unwrap_or(0.0)
    });

    // What the service adds on the miss path, and what no layer explains.
    let explained = match kind {
        Kind::DatasetCold | Kind::KnnRead => {
            m.insert(
                "serve.front_us_p50",
                est.rec_p50_us - extract - encode - knn,
            );
            extract + layers.p50("miss_lookup") + encode + layers.p50("admit") + knn + queue_wait
        }
        Kind::AdaptMix => layers.p50("hit_path") + knn,
        Kind::GraphHot | Kind::ClusterBurst => {
            layers.p50("hit_path") * kind.burst() as f64 + layers.p50("predict_batch")
        }
    };
    m.insert(
        "ledger.residual_ratio",
        (est.rec_p50_us - explained) / est.rec_p50_us,
    );

    if kind == Kind::KnnRead {
        let base = ShardedAdvisor::from_advisor(&trained.flat, 2);
        let (build_s, kmeans_s) = trace::replay_index_build(cal, &mut log, &base);
        m.insert("autoce.index_build_s", build_s);
        m.insert("nn.kmeans_s", kmeans_s);
        let (i8_ns, f16_ns) = trace::kernel_ns(cal);
        m.insert("nn.sq_dist_i8_ns", i8_ns);
        m.insert("nn.sq_dist_f16_ns", f16_ns);
        let d = trace::EMBED_DIM;
        println!(
            "coarse kernels at dim {d}: {} arithmetic operations per call; \
             i8 reads {} computed bytes, f16 reads {} (f32 query, f16 centroid)",
            3 * d,
            2 * d,
            6 * d
        );
        // The same embeddings through the flat advisor's scan.
        let w = inputs::weights();
        let xs: Vec<Vec<f32>> = inputs.pool_graphs()[..inputs::POOL]
            .iter()
            .map(|g| trained.flat.embed_graph(g))
            .collect();
        let mut flat_us = Vec::new();
        let ((), _, factor) = cal.bracket(|| {
            for x in &xs {
                let t = Instant::now();
                std::hint::black_box(trained.flat.predict_from_embedding(x, w));
                flat_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        });
        let flat = median(&flat_us) / factor;
        m.insert("autoce.knn_flat_us_p50", flat);
        m.insert("autoce.index_speedup", flat / knn);
        let outcome = |o: &str| {
            delta(
                "ce_index_queries_total",
                &[("outcome", o)],
                &serve,
                &serve_before,
            )
        };
        let indexed = outcome("indexed");
        let served = ratio(indexed, indexed + outcome("fallback") + outcome("bypass"));
        m.insert("autoce.index_served_ratio", served);
        let (pool, queries) = hist("ce_index_rerank_candidates", &[], &serve, &serve_before);
        m.insert("autoce.rerank_candidates_mean", ratio(pool, queries));
        // Below this the workload would silently time the flat scan.
        tally.attempted += 1;
        tally.fail(
            "under 99 % of queries served from the index",
            u64::from(served < 0.99),
        );
    }
    if kind == Kind::DatasetCold {
        let n = if args.quick { 4 } else { REGRET_DATASETS };
        m.insert(
            "autoce.regret_mean",
            trace::regret_mean(&trained, inputs, args.seed, n),
        );
    }
    if kind == Kind::AdaptMix {
        let adapts = delta("ce_serve_snapshot_swaps_total", &[], &serve, &serve_before);
        let train_ns: u64 = ["prepare", "forward", "loss", "backward", "step"]
            .iter()
            .map(|p| {
                hist(
                    "ce_gnn_train_phase_ns",
                    &[("phase", p)],
                    &serve,
                    &serve_before,
                )
                .0
            })
            .sum();
        let f = est.calib_us / CALIB_NOMINAL_US;
        let train_ms = ratio(train_ns, adapts) / 1e6 / f;
        let adapt_ms = est.write_p50_us / 1e3;
        m.insert("gnn.adapt_train_ms_mean", train_ms);
        m.insert("gnn.refresh_ms_p50", layers.p50("refresh_ms"));
        m.insert("testbed.label_ms_p50", layers.p50("label_ms"));
        m.insert("serve.adapt_ms_p50", adapt_ms);
        m.insert(
            "serve.adapt_self_ms",
            adapt_ms - train_ms - layers.p50("refresh_ms") - layers.p50("label_ms"),
        );
    }
    if kind == Kind::ClusterBurst {
        let f = est.calib_us / CALIB_NOMINAL_US;
        let ranges = ["0", "1"];
        let rtts: Vec<(u64, u64)> = ranges
            .iter()
            .map(|r| {
                hist(
                    "ce_cluster_rtt_ns",
                    &[("range", r)],
                    &cluster,
                    &cluster_before,
                )
            })
            .collect();
        let frames: u64 = rtts.iter().map(|r| r.1).sum();
        let rtt_total: u64 = rtts.iter().map(|r| r.0).sum();
        m.insert("cluster.rtt_us_mean", ratio(rtt_total, frames) / 1e3 / f);
        // Round trips of one call overlap (both frames go out before either
        // reply is read), so the longest one is the call's time on the wire.
        let longest = rtts.iter().map(|&(s, c)| ratio(s, c)).fold(0.0, f64::max) / 1e3 / f;
        m.insert(
            "cluster.merge_vote_us_p50",
            layers.p50("predict_batch") - longest,
        );
        m.insert("cluster.frames_per_call", ratio(frames, calls));
        let bytes: u64 = ["coord_send_query_batch", "shard_send_topk_batch"]
            .iter()
            .map(|step| {
                delta(
                    "ce_cluster_wire_bytes_out_total",
                    &[("step", step)],
                    &cluster,
                    &cluster_before,
                ) + delta(
                    "ce_cluster_wire_bytes_in_total",
                    &[("step", step)],
                    &cluster,
                    &cluster_before,
                )
            })
            .sum();
        m.insert("cluster.wire_bytes_per_rec", ratio(bytes, recs));
        let retries: u64 = ranges
            .iter()
            .map(|r| {
                delta(
                    "ce_cluster_retries_total",
                    &[("range", r)],
                    &cluster,
                    &cluster_before,
                )
            })
            .sum();
        m.insert("cluster.retries_total", retries as f64);
        m.insert("cluster.shard_cpu_us_per_rec", est.child_cpu_us_per_rec);
    }

    m.insert(
        "obs.trace_overhead_ratio",
        est.rec_per_s / est_plain.rec_per_s,
    );
    m.insert("host.calib_us", est.calib_us);
    m.insert("host.quiet_spread", est.quiet_spread);
    m.insert("raw.rec_p50_us", est.raw_rec_p50_us);
    m.insert("raw.rec_per_s", est.raw_rec_per_s);

    plain.stop();
    traced.stop();
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{:?}: {e}", args.out_dir))?;
    let path = args.out_dir.join(format!("trace-{}.jsonl", kind.name()));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("{path:?}: {e}"))?,
    );
    log.write_jsonl(&mut file)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("{path:?}: {e}"))?;
    println!("{} spans written to {}", log.len(), path.display());
    println!(
        "run.fail_ratio {:.6} (over every window, plain and traced)",
        ratio(tally.failed, tally.attempted)
    );
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
        .collect();
    Ok(report(&tally, &metrics))
}

fn main() -> ExitCode {
    // Shard servers are this executable started again with the marker
    // argument; they inherit the CPU the parent pinned itself to.
    ce_cluster::maybe_run_shard_server_from_args();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("e2e-bench: cannot pin to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} | pinned to cpu {cpu} of {nproc} | kernel {} | \
         one closed-loop client",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::kernel_release()
    );
    let mut cal = Calibrator::new();
    let inputs = Inputs::generate(args.kind, args.seed);
    let outcome = if args.trace {
        traced_run(&args, &mut cal, &inputs)
    } else {
        timing_run(&args, &mut cal, &inputs)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e-bench: wrong answers or failed operations, see the counts above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this program knows, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::from_str(&text).expect("valid JSON");
        let pairs = |key: &str| -> Vec<(String, String)> {
            json[key]
                .as_array()
                .expect("an array")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().unwrap_or("").to_string(),
                    )
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = pairs("workloads").into_iter().map(|p| p.0).collect();
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(workloads, kinds);
    }
}
