//! The five workloads: how each is set up, what one window of it does,
//! and how its answers are checked.
//!
//! Every workload drives `ce_serve::AdvisorService` through a
//! `ServeHandle` from one closed-loop client thread. A call's inputs are
//! pool entries `(call * burst + j) % pool`, so a pass is the same
//! sequence every time and its answers fold to one expected checksum.

use crate::host::{Calibrator, ProcessGroup, SPIN_EVERY};
use crate::inputs::{self, KnnInputs, RealInputs};
use crate::stats::{Checksum, Window};
use crate::trace::SpanLog;
use autoce::{AdvisorBackend, AdvisorError, AutoCe, AutoCeConfig, RcsEntry};
use ce_cluster::{spawn_shard_process, ClusterConfig, ClusterCoordinator, Connector, TcpConnector};
use ce_features::{extract_features, FeatureGraph};
use ce_gnn::{DmlConfig, GinEncoder};
use ce_models::ModelKind;
use ce_obs::MetricsRegistry;
use ce_serve::{
    AdvisorService, IndexConfig, QuantMode, Query, Recommendation, Reservoir, ServeConfig,
    ServeHandle, ShardedAdvisor,
};
use ce_storage::Dataset;
use ce_testbed::{label_datasets, DatasetLabel, ModelPerformance};
use std::process::Child;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(model, score vector)` as every backend's `predict_*` returns it.
pub type Answer = (ModelKind, Vec<f64>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DatasetCold,
    GraphHot,
    KnnRead,
    AdaptMix,
    ClusterBurst,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::DatasetCold,
        Kind::GraphHot,
        Kind::KnnRead,
        Kind::AdaptMix,
        Kind::ClusterBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DatasetCold => "dataset-cold",
            Kind::GraphHot => "graph-hot",
            Kind::KnnRead => "knn-read",
            Kind::AdaptMix => "adapt-mix",
            Kind::ClusterBurst => "cluster-burst",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Graphs per call.
    pub fn burst(self) -> usize {
        match self {
            Kind::GraphHot => 8,
            Kind::ClusterBurst => 16,
            _ => 1,
        }
    }

    /// Calls per pass over the pool.
    pub fn calls(self) -> usize {
        match self {
            Kind::DatasetCold | Kind::AdaptMix => inputs::POOL,
            Kind::GraphHot => 8192,
            Kind::KnnRead => inputs::KNN_POOL,
            Kind::ClusterBurst => 4096,
        }
    }

    fn shards(self) -> usize {
        match self {
            Kind::KnnRead | Kind::ClusterBurst => 2,
            _ => 4,
        }
    }

    /// `dataset-cold` cycles a pool four times its cache, so every request
    /// misses and evicts; `knn-read`'s pool is four times its cache too.
    pub fn cache_capacity(self) -> usize {
        match self {
            Kind::DatasetCold => 64,
            Kind::KnnRead => 1024,
            _ => 4096,
        }
    }

    fn serve_config(self, metrics: &MetricsRegistry) -> ServeConfig {
        ServeConfig {
            max_batch: 32,
            batch_deadline: Duration::ZERO,
            queue_capacity: 256,
            cache_capacity: self.cache_capacity(),
            metrics: metrics.clone(),
            index: (self == Kind::KnnRead).then(knn_index_config),
            ..ServeConfig::default()
        }
    }
}

pub fn knn_index_config() -> IndexConfig {
    IndexConfig::builder()
        .partitions(100)
        .probe(4)
        .quant(QuantMode::I8)
        .build()
        .expect("static index config is valid")
}

pub enum Inputs {
    Real(RealInputs),
    Knn(KnnInputs),
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        match kind {
            Kind::KnnRead => Inputs::Knn(inputs::knn_inputs(seed)),
            _ => Inputs::Real(inputs::real_inputs(seed)),
        }
    }

    pub fn real(&self) -> &RealInputs {
        match self {
            Inputs::Real(r) => r,
            Inputs::Knn(_) => panic!("knn-read has no datasets"),
        }
    }

    /// The graphs requests are made of (for `dataset-cold`, the graphs its
    /// datasets extract to).
    pub fn pool_graphs(&self) -> &[FeatureGraph] {
        match self {
            Inputs::Real(r) => &r.pool_graphs,
            Inputs::Knn(k) => &k.pool_graphs,
        }
    }
}

/// One timed stage of set-up with the host-speed factor around it.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: &'static str,
    pub raw_s: f64,
    pub factor: f64,
}

/// The timed calls of one set-up, in order.
#[derive(Debug, Clone, Default)]
pub struct Stages(pub Vec<Stage>);

impl Stages {
    fn run<T>(&mut self, cal: &mut Calibrator, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, raw_s, factor) = cal.bracket(f);
        self.0.push(Stage {
            name,
            raw_s,
            factor,
        });
        out
    }

    /// Corrected seconds of every stage called `name` (all stages for "").
    pub fn corrected_s(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|s| name.is_empty() || s.name == name)
            .map(|s| s.raw_s / s.factor)
            .sum::<f64>()
            // An empty float sum is -0.0; a stage that never ran reports 0.
            + 0.0
    }
}

/// The offline half of set-up: the flat advisor, which is also the oracle
/// every served answer is compared with.
pub struct Trained {
    pub flat: AutoCe,
    pub stages: Stages,
}

pub fn train(cal: &mut Calibrator, inputs: &Inputs, seed: u64) -> Trained {
    let mut stages = Stages::default();
    let flat = match inputs {
        Inputs::Real(r) => {
            let testbed = inputs::testbed();
            let mut labels = stages.run(cal, "label", || {
                label_datasets(&r.corpus, &testbed, seed, 0)
            });
            inputs::pin_wall_clock_fields(&mut labels);
            let config = AutoCeConfig {
                incremental: None,
                ..AutoCeConfig::default()
            };
            stages.run(cal, "train", || {
                AutoCe::train(&r.corpus, &labels, config, seed)
            })
        }
        Inputs::Knn(k) => {
            let graphs = k.rcs_graphs.clone();
            stages.run(cal, "encode_rcs", || {
                let dml = DmlConfig::default();
                let encoder = GinEncoder::new(
                    graphs[0].vertex_dim(),
                    &dml.hidden,
                    dml.embed_dim,
                    inputs::KNN_SHAPE_SEED,
                );
                let embeddings = encoder.encode_batch(&graphs);
                let entries = graphs
                    .into_iter()
                    .zip(embeddings)
                    .enumerate()
                    .map(|(i, (graph, embedding))| {
                        let (sa, se) = inputs::synthetic_scores(i);
                        RcsEntry {
                            name: format!("r{i}"),
                            graph,
                            embedding,
                            kinds: inputs::MODELS.to_vec(),
                            sa,
                            se,
                        }
                    })
                    .collect();
                let config = AutoCeConfig {
                    k: inputs::KNN_K,
                    incremental: None,
                    dml,
                    ..AutoCeConfig::default()
                };
                AutoCe::from_parts(config, encoder, entries)
            })
        }
    };
    Trained { flat, stages }
}

/// Shard-server processes of one cluster front. Dropping kills and reaps
/// them, so no exit path leaves a process behind.
pub struct ShardProcesses(Vec<Child>);

impl ShardProcesses {
    pub fn pids(&self) -> Vec<u32> {
        self.0.iter().map(Child::id).collect()
    }
}

impl Drop for ShardProcesses {
    fn drop(&mut self) {
        for child in &mut self.0 {
            // Already exited after a clean shutdown: both calls then fail
            // or return at once.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The registries a front records into: disabled for timing runs, live for
/// the traced run. Service and coordinator get one each — a shared one
/// would be merged into itself by `metrics_snapshot`.
#[derive(Clone)]
pub struct Registries {
    pub serve: MetricsRegistry,
    pub cluster: MetricsRegistry,
}

impl Registries {
    pub fn disabled() -> Self {
        Registries {
            serve: MetricsRegistry::disabled(),
            cluster: MetricsRegistry::disabled(),
        }
    }

    pub fn live() -> Self {
        Registries {
            serve: MetricsRegistry::new(),
            cluster: MetricsRegistry::new(),
        }
    }
}

/// The serving half of set-up, running.
pub enum Front {
    Sharded(AdvisorService<ShardedAdvisor>),
    Cluster {
        service: AdvisorService<ClusterCoordinator>,
        coord: Arc<ClusterCoordinator>,
        shards: ShardProcesses,
    },
}

impl Front {
    pub fn start(
        kind: Kind,
        cal: &mut Calibrator,
        trained: &Trained,
        registries: &Registries,
    ) -> (Front, Stages) {
        let mut stages = Stages::default();
        let sharded = stages.run(cal, "shard", || {
            ShardedAdvisor::from_advisor(&trained.flat, kind.shards())
        });
        let config = kind.serve_config(&registries.serve);
        if kind != Kind::ClusterBurst {
            let service = stages.run(cal, "start", || AdvisorService::start(sharded, config));
            return (Front::Sharded(service), stages);
        }
        let exe = std::env::current_exe().expect("own executable path");
        let mut children = Vec::new();
        let connectors: Vec<Vec<Box<dyn Connector>>> = stages.run(cal, "spawn", || {
            (0..kind.shards())
                .map(|_| {
                    let (child, addr) = spawn_shard_process(&exe).expect("spawn shard server");
                    children.push(child);
                    vec![Box::new(TcpConnector::new(addr, Duration::from_secs(2)))
                        as Box<dyn Connector>]
                })
                .collect()
        });
        let shards = ShardProcesses(children);
        let cluster_config = ClusterConfig {
            request_deadline: Duration::from_millis(250),
            metrics: registries.cluster.clone(),
            ..ClusterConfig::default()
        };
        let coord = stages.run(cal, "bootstrap", || {
            let coord = Arc::new(ClusterCoordinator::new(sharded, connectors, cluster_config));
            coord.bootstrap().expect("bootstrap over loopback");
            coord
        });
        let service = stages.run(cal, "start", || {
            AdvisorService::start_shared(coord.clone(), config)
        });
        (
            Front::Cluster {
                service,
                coord,
                shards,
            },
            stages,
        )
    }

    pub fn child_pids(&self) -> Vec<u32> {
        match self {
            Front::Sharded(_) => Vec::new(),
            Front::Cluster { shards, .. } => shards.pids(),
        }
    }

    /// Stops the batcher thread, then the shard processes, and waits for
    /// each to end.
    pub fn stop(self) {
        match self {
            Front::Sharded(service) => service.shutdown(),
            Front::Cluster {
                service,
                coord,
                shards,
            } => {
                service.shutdown();
                coord.shutdown_cluster();
                drop(shards);
            }
        }
    }
}

/// What the flat advisor answers for every pool graph.
pub fn oracle_answers(flat: &AutoCe, graphs: &[FeatureGraph]) -> Vec<Answer> {
    let w = inputs::weights();
    graphs
        .iter()
        .map(|g| flat.predict_from_embedding(&flat.embed_graph(g), w))
        .collect()
}

/// What a sharded advisor answers for every pool graph, asked without a
/// service: the oracle once an adaptation has replaced the flat advisor's
/// encoder.
fn sharded_answers(advisor: &ShardedAdvisor, graphs: &[FeatureGraph]) -> Vec<Answer> {
    let w = inputs::weights();
    graphs
        .iter()
        .map(|g| advisor.predict_from_embedding(&advisor.embed_graph(g), w))
        .collect()
}

/// Whether a served answer is the oracle's: same model, same score bits.
pub fn same_answer(got: &Recommendation, want: &Answer) -> bool {
    got.model == want.0
        && got.scores.len() == want.1.len()
        && got
            .scores
            .iter()
            .zip(&want.1)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The checksum `passes` passes of `kind` fold to when every answer equals
/// `oracle`'s.
pub fn expected_checksum(kind: Kind, oracle: &[Answer], passes: usize) -> u64 {
    let mut sum = Checksum::new();
    for _ in 0..passes {
        for slot in 0..kind.calls() * kind.burst() {
            let (model, scores) = &oracle[slot % oracle.len()];
            sum.answer(*model as u8, scores);
        }
    }
    sum.value()
}

/// What a call returns, folded the same way whatever its arity.
pub trait Answers {
    fn fold(&self, sum: &mut Checksum) -> u64;
}

impl Answers for Recommendation {
    fn fold(&self, sum: &mut Checksum) -> u64 {
        sum.answer(self.model as u8, &self.scores);
        1
    }
}

impl Answers for Vec<Recommendation> {
    fn fold(&self, sum: &mut Checksum) -> u64 {
        self.iter().map(|r| r.fold(sum)).sum()
    }
}

/// Collects one window's measurements while the workload runs.
pub struct Meter<'a> {
    pub window: Window,
    pub sum: Checksum,
    pub calls: u64,
    pub errors: u64,
    /// Seconds spent spinning inside the current segment.
    spin_s: f64,
    /// When the latest spin ended.
    last_spin: Instant,
    cal: &'a mut Calibrator,
    group: &'a ProcessGroup,
    spans: Option<&'a mut SpanLog>,
}

impl<'a> Meter<'a> {
    pub fn new(
        cal: &'a mut Calibrator,
        group: &'a ProcessGroup,
        spans: Option<&'a mut SpanLog>,
    ) -> Self {
        Meter {
            window: Window::default(),
            sum: Checksum::new(),
            calls: 0,
            errors: 0,
            spin_s: 0.0,
            last_spin: Instant::now(),
            cal,
            group,
            spans,
        }
    }

    /// One calibration spin, recorded as a sample of the window's host
    /// speed. Inside a segment its time is taken back out of the segment.
    pub fn spin(&mut self) {
        let t = Instant::now();
        let us = self.cal.spin_us();
        self.window.spins_us.push(us);
        self.last_spin = Instant::now();
        self.spin_s += self.last_spin.duration_since(t).as_secs_f64();
    }

    /// Runs `f` as timed work of the window: its wall time and the CPU
    /// time of the process group count; whatever happens between segments
    /// (oracle look-ups, service restarts) does not, and neither do the
    /// spins inside `f`.
    pub fn segment<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.spin();
        self.spin_s = 0.0;
        let (own, children) = self.group.cpu_ns();
        let t = Instant::now();
        let out = f(self);
        let wall_s = t.elapsed().as_secs_f64();
        let (own_after, children_after) = self.group.cpu_ns();
        self.window.wall_s += wall_s - self.spin_s;
        let child_ns = children_after.saturating_sub(children);
        // A spin is all CPU, so its wall time is its CPU time.
        let own_ns = own_after
            .saturating_sub(own)
            .saturating_sub((self.spin_s * 1e9) as u64);
        self.window.cpu_ns += own_ns + child_ns;
        self.window.child_cpu_ns += child_ns;
        self.spin();
        out
    }

    /// Times one read call and folds its answers. Between calls, a spin is
    /// taken whenever [`SPIN_EVERY`] has passed since the last one, so a
    /// window's host-speed factor is the median of samples taken where the
    /// work is, not of two at its ends.
    fn read<A: Answers>(&mut self, f: impl FnOnce() -> Result<A, AdvisorError>) {
        if self.last_spin.elapsed() >= SPIN_EVERY {
            self.spin();
        }
        let t = Instant::now();
        let out = f();
        let elapsed = t.elapsed();
        self.window.latencies_us.push(elapsed.as_secs_f64() * 1e6);
        if let Some(log) = self.spans.as_deref_mut() {
            log.push_ended("serve.call", 0, self.calls as u32, t, elapsed);
        }
        self.calls += 1;
        match out {
            Ok(answers) => self.window.recs += answers.fold(&mut self.sum),
            Err(_) => self.errors += 1,
        }
    }
}

/// One pass of `kind` over its pool through `handle`.
pub fn pass<B: AdvisorBackend + 'static>(
    kind: Kind,
    handle: &ServeHandle<B>,
    inputs: &Inputs,
    meter: &mut Meter<'_>,
) {
    let w = inputs::weights();
    if kind == Kind::DatasetCold {
        for ds in &inputs.real().pool_datasets {
            meter.read(|| handle.recommend(ds, w));
        }
        return;
    }
    let graphs = inputs.pool_graphs();
    let burst = kind.burst();
    let mut refs: Vec<&FeatureGraph> = Vec::with_capacity(burst);
    for call in 0..kind.calls() {
        if burst == 1 {
            let graph = graphs[call % graphs.len()].clone();
            meter.read(|| handle.query(Query::graph(graph, w)));
        } else {
            refs.clear();
            refs.extend((0..burst).map(|j| &graphs[(call * burst + j) % graphs.len()]));
            meter.read(|| handle.query(Query::graph_refs(&refs, w)));
        }
    }
}

/// Read passes after each adaptation of `adapt-mix`: the swap cleared the
/// cache, so the first misses and the other three hit.
pub const ADAPT_READ_PASSES: usize = 4;

/// The drift datasets `adapt-mix` adapts to, one per round, chosen once
/// per run.
pub struct DriftPlan {
    pub steps: Vec<Dataset>,
}

/// Candidates tried per round before the run gives up.
const DRIFT_ATTEMPTS: usize = 64;

impl DriftPlan {
    /// Takes, per round, the first candidate `base`'s drift detector places
    /// outside the RCS. Every round's service starts as a copy of `base`,
    /// so it decides as is decided here: no `adapt` is ever refused. `None`
    /// when a round runs out of candidates.
    pub fn choose(base: &ShardedAdvisor, seed: u64) -> Option<DriftPlan> {
        let threshold = base.drift_detector().threshold();
        let steps = (0..inputs::DRIFT_STEPS)
            .map(|step| {
                (0..DRIFT_ATTEMPTS)
                    .map(|attempt| inputs::drift_candidate(seed, step, attempt))
                    .find(|ds| {
                        let graph = extract_features(ds, &base.config().feature);
                        base.distance_to_embedding(&base.embed_graph(&graph)) > threshold
                    })
            })
            .collect::<Option<Vec<Dataset>>>()?;
        Some(DriftPlan { steps })
    }
}

pub fn adapt_seed(seed: u64, step: usize) -> u64 {
    seed.wrapping_add(1 + step as u64)
}

/// Outcome of the checks made inside one window.
#[derive(Debug, Default, Clone, Copy)]
pub struct WindowChecks {
    /// Read passes whose checksum differed from the oracle's.
    pub wrong_passes: u64,
    pub adapts: u64,
    pub adapts_refused: u64,
}

/// One `adapt-mix` window: per round a fresh service over `base` (started
/// outside the timed segment), one adaptation, four read passes. Every
/// round of every window so starts from the same RCS and does the same
/// work; a second adaptation on one service would be judged by an encoder
/// the first one trained on a label with measured, so varying, latencies,
/// and was refused once in some seventy. Returns the services in their
/// final state for the end-of-run mirror check.
pub fn adapt_window(
    base: &ShardedAdvisor,
    registries: &Registries,
    inputs: &Inputs,
    plan: &DriftPlan,
    seed: u64,
    meter: &mut Meter<'_>,
    checks: &mut WindowChecks,
) -> Vec<AdvisorService<ShardedAdvisor>> {
    let kind = Kind::AdaptMix;
    let testbed = inputs::testbed();
    let mut services = Vec::with_capacity(plan.steps.len());
    for (step, ds) in plan.steps.iter().enumerate() {
        let service = AdvisorService::start(base.clone(), kind.serve_config(&registries.serve));
        let handle = service.handle();
        let before = meter.sum;
        meter.segment(|m| {
            let t = Instant::now();
            let adapted = service.adapt(ds, &testbed, adapt_seed(seed, step));
            let elapsed = t.elapsed();
            m.window.writes_us.push(elapsed.as_secs_f64() * 1e6);
            if let Some(log) = m.spans.as_deref_mut() {
                log.push_ended("serve.adapt", 0, step as u32, t, elapsed);
            }
            checks.adapts += 1;
            checks.adapts_refused += u64::from(!adapted);
            for _ in 0..ADAPT_READ_PASSES {
                pass(kind, &handle, inputs, m);
            }
        });
        // The oracle of these reads is the snapshot the adaptation swapped
        // in, asked directly.
        let oracle = sharded_answers(&service.snapshot(), inputs.pool_graphs());
        let mut expected = before;
        for _ in 0..ADAPT_READ_PASSES {
            for (model, scores) in &oracle {
                expected.answer(*model as u8, scores);
            }
        }
        checks.wrong_passes += u64::from(expected != meter.sum);
        services.push(service);
    }
    services
}

/// A label whose normalised score components are exactly `entry`'s.
/// Min-max normalisation maps the raw values `-s` back onto `s` bit for
/// bit (`max` is `-0.0`, the spread is `1.0`), so a mirror advisor can be
/// fed the entry the service created without access to the label it used.
fn label_of(entry: &RcsEntry) -> DatasetLabel {
    DatasetLabel {
        dataset: entry.name.clone(),
        performances: entry
            .kinds
            .iter()
            .zip(entry.sa.iter().zip(&entry.se))
            .map(|(&kind, (&sa, &se))| ModelPerformance {
                kind,
                qerror_mean: -sa,
                qerror_p50: 0.0,
                qerror_p95: 0.0,
                qerror_p99: 0.0,
                latency_mean_us: -se,
                train_time_ms: 0.0,
            })
            .collect(),
    }
}

/// Replays round `step`'s adaptation on a mirror `ShardedAdvisor`
/// (`adapt_with_reservoir`, no service) and counts pool graphs the round's
/// service now answers differently from the mirror.
pub fn mirror_mismatches(
    base: &ShardedAdvisor,
    service: &AdvisorService<ShardedAdvisor>,
    inputs: &Inputs,
    (step, ds): (usize, &Dataset),
    seed: u64,
) -> u64 {
    let config = ServeConfig::default();
    let snapshot = service.snapshot();
    let entry = snapshot.entry(base.len());
    let label = label_of(entry);
    let rebuilt = RcsEntry::from_label(entry.graph.clone(), &label, Vec::new());
    if rebuilt.sa != entry.sa || rebuilt.se != entry.se {
        return inputs.pool_graphs().len() as u64;
    }
    let mut mirror = base.clone();
    let mut reservoir =
        Reservoir::over_initial(mirror.len(), config.reservoir_capacity, config.seed);
    let graph = extract_features(ds, &mirror.config().feature);
    mirror.adapt_with_reservoir(graph, &label, &mut reservoir, adapt_seed(seed, step));
    let w = inputs::weights();
    let handle = service.handle();
    let graphs = inputs.pool_graphs();
    graphs
        .iter()
        .zip(sharded_answers(&mirror, graphs))
        .filter(|(g, want)| {
            !matches!(handle.recommend_graph((*g).clone(), w), Ok(got) if same_answer(&got, want))
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_of_round_trips_normalised_scores_bit_for_bit() {
        let entry = RcsEntry {
            name: "e".into(),
            graph: FeatureGraph {
                vertices: vec![vec![0.0]],
                edges: vec![vec![0.0]],
            },
            embedding: Vec::new(),
            kinds: inputs::MODELS.to_vec(),
            sa: vec![1.0, 0.123_456_789_012_345_68, 0.0],
            se: vec![0.0, 1.0, 0.999_999_999_999_999_9],
        };
        let rebuilt = RcsEntry::from_label(entry.graph.clone(), &label_of(&entry), Vec::new());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rebuilt.sa), bits(&entry.sa));
        assert_eq!(bits(&rebuilt.se), bits(&entry.se));
        // All models tied: normalisation yields all ones both ways.
        let tied = RcsEntry {
            sa: vec![1.0; 3],
            se: vec![1.0; 3],
            ..entry
        };
        let rebuilt = RcsEntry::from_label(tied.graph.clone(), &label_of(&tied), Vec::new());
        assert_eq!(rebuilt.sa, tied.sa);
        assert_eq!(rebuilt.se, tied.se);
    }

    #[test]
    fn expected_checksum_follows_the_call_sequence() {
        let oracle: Vec<Answer> = (0..inputs::POOL)
            .map(|i| (inputs::MODELS[i % 3], vec![i as f64, 0.5]))
            .collect();
        let kind = Kind::GraphHot;
        let mut by_hand = Checksum::new();
        for call in 0..kind.calls() {
            for j in 0..kind.burst() {
                let (m, s) = &oracle[(call * kind.burst() + j) % oracle.len()];
                by_hand.answer(*m as u8, s);
            }
        }
        assert_eq!(expected_checksum(kind, &oracle, 1), by_hand.value());
        assert_ne!(
            expected_checksum(kind, &oracle, 1),
            expected_checksum(kind, &oracle, 2)
        );
    }
}
