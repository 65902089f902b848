//! The concurrent advisor service: micro-batched requests over a snapshot
//! of any [`AdvisorBackend`].
//!
//! # Design
//!
//! * **Backend-generic** — [`AdvisorService<B>`] fronts any
//!   [`AdvisorBackend`]: the in-process [`ShardedAdvisor`] (the default
//!   type parameter, so existing code keeps reading `AdvisorService`),
//!   the flat [`autoce::AutoCe`], or `ce-cluster`'s coordinator. The
//!   batching, caching and snapshot machinery below is written once
//!   against the trait; a cluster behind the service gets one taped
//!   query fan-out per *batch* instead of per request.
//! * **Micro-batching** — client threads submit `recommend` requests into
//!   a bounded queue; a single worker drains it into batches of at most
//!   [`ServeConfig::max_batch`], waiting up to
//!   [`ServeConfig::batch_deadline`] after the first request for
//!   stragglers. Each batch's cache-missing graphs run as **one** stacked
//!   forward ([`AdvisorBackend::embed_graph_batch`]) — the whole point:
//!   per-graph kernel dispatch is what makes per-request serving slow.
//! * **Snapshot reads** — the worker serves from an `Arc<B>` snapshot.
//!   Online adaptation builds a *new* advisor value and swaps the `Arc`
//!   under a momentary lock; in-flight batches keep reading the old
//!   snapshot, so serving never blocks behind a refresh (requests are
//!   answered by whichever snapshot their batch started on — the same
//!   consistency a flat advisor under a lock would give, minus the
//!   blocking).
//! * **Embedding cache** — embeddings are cached by graph fingerprint
//!   ([`crate::cache`]) and invalidated on snapshot swaps (the cache lock
//!   is held across the swap and entries are generation-tagged, so a
//!   racing batch can neither read stale embeddings against a new
//!   snapshot nor poison a fresh cache with old ones). Cache hits are
//!   served **on the calling thread** — fingerprint, lookup, KNN vote, no
//!   queue handoff — so repeat-heavy traffic costs microseconds per
//!   request and never wakes the worker. Hits skip the encoder entirely;
//!   every other step is identical, so caching never changes a
//!   recommendation.
//! * **Inline burst serving** — a submission carrying at least
//!   [`ServeConfig::inline_burst_misses`] cache misses is already its own
//!   micro-batch, so the calling thread encodes it directly (one stacked
//!   forward + cache fill + votes, the worker's exact code path) instead
//!   of paying the enqueue/park/wake round trip. Cold all-distinct
//!   streams — previously *slower* than the flat advisor because every
//!   request bought a handoff — now beat it; lockstep single-graph
//!   clients still share worker batches.
//!
//! Responses are bit-identical to calling the backend's
//! `recommend_graph` directly (and hence to the flat
//! [`autoce::AutoCe::recommend`]): batching, caching and snapshotting all
//! preserve the underlying bits.
//!
//! # Errors
//!
//! The public surface returns the unified [`autoce::AdvisorError`]
//! regardless of backend: service refusals map from [`ServeError`]
//! (`ShuttingDown`/`WorkerFailed`), and a distributed backend's typed
//! failures (`RangeUnavailable`, protocol violations) pass through
//! untouched — a cache-hit request and a batched request fail with the
//! same variant the direct call would.

use crate::cache::{graph_fingerprint, CacheStats, EmbeddingCache};
use crate::reservoir::Reservoir;
use crate::shard::ShardedAdvisor;
use autoce::index::IndexConfig;
use autoce::online::DriftDetector;
use autoce::{validate_nonzero, AdvisorBackend, AdvisorError, BatchPredictRequest};
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_models::ModelKind;
use ce_obs::{
    Counter, Histogram, MetricsRegistry, MetricsSnapshot, Sample, SampleValue, DEPTH_BUCKETS,
    LATENCY_NS_BUCKETS,
};
use ce_storage::Dataset;
use ce_testbed::{label_dataset, MetricWeights, TestbedConfig};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
///
/// Prefer [`ServeConfig::builder`], which validates at build time (a zero
/// `max_batch` or `queue_capacity` would hang clients; see the field
/// docs). Struct-literal construction still works for this release —
/// validation then happens at [`AdvisorService::try_start`], as the same
/// typed error — but is **deprecated in favor of the builder** and will
/// stop being the documented path once downstream call sites migrate.
#[derive(Clone)]
pub struct ServeConfig {
    /// Maximum requests embedded in one stacked forward.
    pub max_batch: usize,
    /// How long the batcher waits after the first queued request for more
    /// to arrive before closing the batch. Zero (the default) is the right
    /// mode for blocking callers: the worker still yields once and
    /// re-drains before encoding — enough for concurrent clients to share
    /// forwards — but never sleeps on speculation. A nonzero deadline
    /// trades latency for occupancy with open-loop producers (pipelined
    /// submitters, network frontends).
    pub batch_deadline: Duration,
    /// Bounded request-queue capacity; submitters block when it is full
    /// (backpressure instead of unbounded memory growth).
    pub queue_capacity: usize,
    /// Embedding-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Minimum cache-missing graphs in one submission for the **calling
    /// thread** to encode the burst itself — one stacked forward against
    /// its snapshot, no queue handoff, no worker wake. Smaller miss sets
    /// still ride the micro-batch queue so lockstep single-graph clients
    /// keep sharing forwards. Inline serving uses the same encode, cache
    /// and vote code as the worker, so it never changes a bit; what it
    /// removes is the enqueue/park/wake round trip that made cold
    /// (all-distinct) request streams slower than the flat advisor.
    /// `usize::MAX` disables inline serving entirely.
    pub inline_burst_misses: usize,
    /// Admit an embedding into the cache only the **second** time its
    /// graph is encoded: the first encoding records the fingerprint (8
    /// bytes) and drops the embedding. For one-shot-heavy (cold,
    /// all-distinct) streams this stops dead entries from churning the
    /// LRU and evicting the few genuinely reused ones. Off by default:
    /// repeat-heavy traffic pays one extra miss per distinct graph under
    /// this policy, which is pure loss when nearly everything is re-asked.
    /// Never changes a recommendation — only which requests hit the cache.
    pub admit_on_second_touch: bool,
    /// Reservoir sample size bounding each online adaptation. Must be at
    /// least 1 (validated at [`ServeConfigBuilder::build`] or, for
    /// struct-literal construction, at [`AdvisorService::try_start`]); unlike
    /// `cache_capacity` there is no "disabled" mode — adaptation always
    /// trains on at least the newcomer plus one sampled entry.
    pub reservoir_capacity: usize,
    /// Seed for the reservoir's deterministic sampling.
    pub seed: u64,
    /// Metrics registry the service records into. The default
    /// ([`MetricsRegistry::disabled`]) makes every instrumentation point
    /// a no-op — recording is lock-free `fetch_add` on pre-registered
    /// atomics either way, and never touches a serving lock (see
    /// `docs/observability.md`).
    pub metrics: MetricsRegistry,
    /// Two-stage KNN index configuration, installed on the backend at
    /// [`AdvisorService::try_start`] (owned backends only — a shared backend
    /// installs its own index before being wrapped). `None` (the
    /// default) serves every query by flat scan; see `docs/knn-index.md`
    /// for when an index pays off.
    pub index: Option<IndexConfig>,
}

// Manual impl: `MetricsRegistry` is deliberately opaque (handles and
// atomics), so derive is unavailable; print whether it records instead.
impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("max_batch", &self.max_batch)
            .field("batch_deadline", &self.batch_deadline)
            .field("queue_capacity", &self.queue_capacity)
            .field("cache_capacity", &self.cache_capacity)
            .field("inline_burst_misses", &self.inline_burst_misses)
            .field("admit_on_second_touch", &self.admit_on_second_touch)
            .field("reservoir_capacity", &self.reservoir_capacity)
            .field("seed", &self.seed)
            .field("metrics_enabled", &self.metrics.is_enabled())
            .field("index", &self.index)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            batch_deadline: Duration::ZERO,
            queue_capacity: 256,
            cache_capacity: 1024,
            inline_burst_misses: 2,
            admit_on_second_touch: false,
            reservoir_capacity: 64,
            seed: 0xce5e,
            metrics: MetricsRegistry::disabled(),
            index: None,
        }
    }
}

impl ServeConfig {
    /// Builder-style construction with build-time validation: rejects the
    /// zero values that would hang clients ([`AdvisorError::InvalidConfig`])
    /// *before* a service exists, instead of panicking at first use.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }

    /// The zeros that would hang clients, checked by the builder and, for
    /// struct-literal configs, by [`AdvisorService::try_start_shared`].
    fn validate_capacities(&self) -> Result<(), AdvisorError> {
        validate_nonzero("max_batch", self.max_batch)?;
        validate_nonzero("queue_capacity", self.queue_capacity)?;
        validate_nonzero("reservoir_capacity", self.reservoir_capacity)
    }
}

/// Builder for [`ServeConfig`]; start from [`ServeConfig::builder`]
/// (defaults) and override knobs. [`Self::build`] validates.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Maximum requests embedded in one stacked forward.
    pub fn max_batch(mut self, v: usize) -> Self {
        self.cfg.max_batch = v;
        self
    }

    /// Straggler wait after the first queued request.
    pub fn batch_deadline(mut self, v: Duration) -> Self {
        self.cfg.batch_deadline = v;
        self
    }

    /// Bounded request-queue capacity.
    pub fn queue_capacity(mut self, v: usize) -> Self {
        self.cfg.queue_capacity = v;
        self
    }

    /// Embedding-cache capacity in entries (0 disables caching).
    pub fn cache_capacity(mut self, v: usize) -> Self {
        self.cfg.cache_capacity = v;
        self
    }

    /// Minimum misses in one submission for inline burst encoding.
    pub fn inline_burst_misses(mut self, v: usize) -> Self {
        self.cfg.inline_burst_misses = v;
        self
    }

    /// Second-touch cache admission policy.
    pub fn admit_on_second_touch(mut self, v: bool) -> Self {
        self.cfg.admit_on_second_touch = v;
        self
    }

    /// Reservoir sample size bounding each online adaptation.
    pub fn reservoir_capacity(mut self, v: usize) -> Self {
        self.cfg.reservoir_capacity = v;
        self
    }

    /// Seed for the reservoir's deterministic sampling.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }

    /// Metrics registry the service records into (default: disabled).
    pub fn metrics(mut self, v: MetricsRegistry) -> Self {
        self.cfg.metrics = v;
        self
    }

    /// Two-stage KNN index configuration to install on the backend at
    /// start (default: none — flat scan). Validated structurally at
    /// [`Self::build`]; the `k`-dependent cutover check runs at install,
    /// when the backend's `k` is known.
    pub fn index(mut self, v: IndexConfig) -> Self {
        self.cfg.index = Some(v);
        self
    }

    /// Validates and produces the config. `cache_capacity: 0`
    /// legitimately disables caching, but a zero `max_batch` (worker
    /// spins popping nothing), `queue_capacity` (no request is ever
    /// admitted) or `reservoir_capacity` (adaptation has nothing to
    /// sample) is rejected here, at build time.
    pub fn build(self) -> Result<ServeConfig, AdvisorError> {
        self.cfg.validate_capacities()?;
        if let Some(index) = &self.cfg.index {
            index.validate()?;
        }
        Ok(self.cfg)
    }
}

/// One recommendation query — the single input type every public
/// entrypoint lowers into before hitting the core serving path
/// ([`ServeHandle::query`]). Graphs ride as `Cow`s: owned constructors
/// move them in, [`Query::graph_refs`] borrows and clones a graph only
/// if its request actually travels the worker queue (the one place the
/// worker must outlive the borrow). Holding the burst in one value is
/// what guarantees the whole group shares cache lookups, stacked
/// forwards, and — when the backend carries one — a single index probe
/// per distinct embedding.
pub struct Query<'a> {
    graphs: Vec<Cow<'a, FeatureGraph>>,
    w: MetricWeights,
}

impl<'a> Query<'a> {
    /// A query over one owned graph.
    pub fn graph(graph: FeatureGraph, w: MetricWeights) -> Query<'static> {
        Query {
            graphs: vec![Cow::Owned(graph)],
            w,
        }
    }

    /// A query over a burst of owned graphs.
    pub fn graphs(graphs: Vec<FeatureGraph>, w: MetricWeights) -> Query<'static> {
        Query {
            graphs: graphs.into_iter().map(Cow::Owned).collect(),
            w,
        }
    }

    /// A zero-clone query over borrowed graphs.
    pub fn graph_refs(graphs: &'a [&'a FeatureGraph], w: MetricWeights) -> Query<'a> {
        Query {
            graphs: graphs.iter().map(|&g| Cow::Borrowed(g)).collect(),
            w,
        }
    }

    /// Number of graphs in the query.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when the query holds no graphs (served as an empty answer).
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The metric weighting the KNN vote runs under.
    pub fn weights(&self) -> MetricWeights {
        self.w
    }
}

impl std::fmt::Debug for Query<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query")
            .field("graphs", &self.graphs.len())
            .field("w", &self.w)
            .finish()
    }
}

/// One served recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended CE model.
    pub model: ModelKind,
    /// Averaged KNN score vector (Eq. 13) the model was chosen from.
    pub scores: Vec<f64>,
    /// Serving-snapshot generation that answered the request.
    pub generation: u64,
    /// True when the embedding came from the cache.
    pub cache_hit: bool,
}

/// Why a request could not be served *by the service front* (as opposed
/// to a backend failure, which surfaces as the corresponding
/// [`AdvisorError`] variant). Converts into [`AdvisorError`] via `From`,
/// so the public surface handles one error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service is shutting down; the request was not processed.
    ShuttingDown,
    /// The batcher worker panicked (e.g. a malformed graph blew an
    /// encoder invariant). The service is permanently failed: queued and
    /// future requests get this error instead of hanging on a reply that
    /// will never come.
    WorkerFailed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => f.write_str("advisor service is shutting down"),
            ServeError::WorkerFailed => {
                f.write_str("advisor service worker failed (panicked); service is stopped")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for AdvisorError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::ShuttingDown => AdvisorError::ShuttingDown,
            ServeError::WorkerFailed => AdvisorError::WorkerFailed,
        }
    }
}

/// Lifetime service counters (monotonic; never reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered.
    pub requests: u64,
    /// Micro-batches processed: worker batches plus client-side inline
    /// bursts (see [`ServeConfig::inline_burst_misses`]). Only cache
    /// *misses* ride batches (hits are served individually on the calling
    /// thread), so mean batch occupancy is `cache_misses / batches`, not
    /// `requests / batches`.
    pub batches: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses (each cost one encoder pass, amortized into
    /// its batch's stacked forward).
    pub cache_misses: u64,
    /// Online adaptations applied (snapshot swaps).
    pub adaptations: u64,
}

struct Stats {
    requests: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    adaptations: AtomicU64,
}

/// Pre-registered observability handles. Registration happens once at
/// service start (under the registry's own mutex — a cold path that is
/// not a serving lock); recording afterwards is lock-free `fetch_add`,
/// and with a disabled registry every handle is a no-op. Metric names
/// are stable API — the catalogue lives in `docs/observability.md`.
struct ObsHandles {
    registry: MetricsRegistry,
    /// `ce_serve_feature_extract_ns`: `extract_features` on the calling
    /// thread, per `Dataset` request (`recommend`, `adapt`).
    feature_extract_ns: Histogram,
    /// `ce_serve_adapt_label_ns`: `label_dataset` on the adapting thread,
    /// per adaptation that passed the drift test.
    adapt_label_ns: Histogram,
    /// `ce_serve_detector_fit_ns`: the drift-detector fit, once at start
    /// and once per adaptation, on the thread that builds the snapshot.
    detector_fit_ns: Histogram,
    /// `ce_serve_queue_wait_ns`: enqueue → worker-drain wait per queued
    /// request.
    queue_wait_ns: Histogram,
    /// `ce_serve_encode_ns{path}`: the stacked-forward phase.
    encode_ns_worker: Histogram,
    encode_ns_inline: Histogram,
    /// `ce_serve_vote_ns{path}`: the batched-KNN-vote phase.
    vote_ns_worker: Histogram,
    vote_ns_inline: Histogram,
    vote_ns_cache_hit: Histogram,
    /// `ce_serve_batch_depth{path}`: requests per processed micro-batch.
    batch_depth_worker: Histogram,
    batch_depth_inline: Histogram,
    /// `ce_serve_path_requests_total{path}`: which serving path answered.
    path_cache_hit: Counter,
    path_inline: Counter,
    path_worker: Counter,
    /// `ce_serve_snapshot_swaps_total`: adaptations applied.
    snapshot_swaps: Counter,
}

impl ObsHandles {
    fn new(registry: &MetricsRegistry) -> Self {
        let r = registry;
        ObsHandles {
            registry: r.clone(),
            feature_extract_ns: r.histogram("ce_serve_feature_extract_ns", &[], LATENCY_NS_BUCKETS),
            adapt_label_ns: r.histogram("ce_serve_adapt_label_ns", &[], LATENCY_NS_BUCKETS),
            detector_fit_ns: r.histogram("ce_serve_detector_fit_ns", &[], LATENCY_NS_BUCKETS),
            queue_wait_ns: r.histogram("ce_serve_queue_wait_ns", &[], LATENCY_NS_BUCKETS),
            encode_ns_worker: r.histogram(
                "ce_serve_encode_ns",
                &[("path", "worker")],
                LATENCY_NS_BUCKETS,
            ),
            encode_ns_inline: r.histogram(
                "ce_serve_encode_ns",
                &[("path", "inline")],
                LATENCY_NS_BUCKETS,
            ),
            vote_ns_worker: r.histogram(
                "ce_serve_vote_ns",
                &[("path", "worker")],
                LATENCY_NS_BUCKETS,
            ),
            vote_ns_inline: r.histogram(
                "ce_serve_vote_ns",
                &[("path", "inline")],
                LATENCY_NS_BUCKETS,
            ),
            vote_ns_cache_hit: r.histogram(
                "ce_serve_vote_ns",
                &[("path", "cache_hit")],
                LATENCY_NS_BUCKETS,
            ),
            batch_depth_worker: r.histogram(
                "ce_serve_batch_depth",
                &[("path", "worker")],
                DEPTH_BUCKETS,
            ),
            batch_depth_inline: r.histogram(
                "ce_serve_batch_depth",
                &[("path", "inline")],
                DEPTH_BUCKETS,
            ),
            path_cache_hit: r.counter("ce_serve_path_requests_total", &[("path", "cache_hit")]),
            path_inline: r.counter("ce_serve_path_requests_total", &[("path", "inline")]),
            path_worker: r.counter("ce_serve_path_requests_total", &[("path", "worker")]),
            snapshot_swaps: r.counter("ce_serve_snapshot_swaps_total", &[]),
        }
    }
}

struct Request {
    graph: FeatureGraph,
    fingerprint: u64,
    w: MetricWeights,
    reply: mpsc::Sender<Result<Recommendation, AdvisorError>>,
    /// Measures enqueue → worker-drain; dropped (recording) when the
    /// worker takes the request out of its batch. `None` under a
    /// disabled registry costs one branch.
    queue_span: Option<ce_obs::Span>,
}

struct QueueState {
    items: VecDeque<Request>,
    shutdown: bool,
}

/// Locks a service mutex, tolerating poison: the worker catches its own
/// panics, but a *client* thread can die inside the inline-burst path
/// while holding the cache lock, and the service must keep refusing (or
/// serving) cleanly instead of cascading panics through every submitter.
/// All states guarded here are safe to take mid-poison — the cache is
/// regenerable, the queue's invariants are single-field, and the admin
/// state changes in whole steps (the reservoir observes one index at a
/// time, the detector is replaced by assignment): an adaptation that died
/// half-way leaves at worst a sampled index the next adaptation's own
/// newcomer takes.
fn plock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Shared<B> {
    cfg: ServeConfig,
    /// Mirrors `QueueState::shutdown` for the lock-free fast path.
    shutting_down: AtomicBool,
    /// Set (never cleared) when the worker dies on a panic; distinguishes
    /// [`ServeError::WorkerFailed`] from an orderly shutdown.
    worker_failed: AtomicBool,
    queue: Mutex<QueueState>,
    /// Signaled when a request is queued (or shutdown begins).
    not_empty: Condvar,
    /// Signaled when queue space frees up.
    space: Condvar,
    /// The current serving snapshot; lock held only to clone/replace the
    /// `Arc`, never across a forward.
    snapshot: Mutex<Arc<B>>,
    cache: Mutex<EmbeddingCache>,
    stats: Stats,
    obs: ObsHandles,
}

impl<B> Shared<B> {
    fn current(&self) -> Arc<B> {
        plock(&self.snapshot).clone()
    }

    /// `extract_features` under the `ce_serve_feature_extract_ns` span.
    fn extract(&self, ds: &Dataset, feature: &FeatureConfig) -> FeatureGraph {
        let _extract = self.obs.feature_extract_ns.start_span();
        extract_features(ds, feature)
    }

    /// The error a refused request should carry right now.
    fn refusal(&self) -> ServeError {
        if self.worker_failed.load(Ordering::Acquire) {
            ServeError::WorkerFailed
        } else {
            ServeError::ShuttingDown
        }
    }
}

/// A cloneable client handle onto a running [`AdvisorService`].
pub struct ServeHandle<B = ShardedAdvisor> {
    shared: Arc<Shared<B>>,
}

// Manual impl: `derive(Clone)` would demand `B: Clone`, but only the
// `Arc` is cloned.
impl<B> Clone for ServeHandle<B> {
    fn clone(&self) -> Self {
        ServeHandle {
            shared: self.shared.clone(),
        }
    }
}

impl<B: AdvisorBackend + 'static> ServeHandle<B> {
    /// Recommends a model for a dataset: features are extracted on the
    /// calling thread, then the request rides [`Self::query`]. Blocks
    /// until the response arrives; applies backpressure (blocks) while the
    /// request queue is full.
    ///
    /// Extraction is the dominant cost of this call, not a cheap prelude.
    /// On the `e2e` benchmark's `dataset-cold` workload (4–10 small
    /// tables, every request a cache miss) it was 1228 µs of a 1285 µs
    /// call (0.96–0.99 of it) under hash-set statistics, ≈0.21 ms of a
    /// ≈0.23 ms call (0.94) under the dense kernels of
    /// `ce_storage::stats`, and is ≈0.12–0.14 ms of a ≈0.17 ms call
    /// (≈0.8 of it across traced runs) since those summarise a table at
    /// a time — still an order of magnitude above encode + queue + vote.
    /// Callers that re-ask about one dataset should extract once and use
    /// [`Self::recommend_graph`].
    /// `ce_serve_feature_extract_ns` times it.
    ///
    /// A dataset is all `pub` fields, so one that never met
    /// `Dataset::new` can arrive here. Its shape is checked first
    /// (`Dataset::validate_shape`: equal column lengths per table, join
    /// edges naming tables and columns that exist — no row is read), and
    /// a malformed one is [`AdvisorError::InvalidDataset`]: nothing is
    /// extracted or queued, and the service keeps answering.
    pub fn recommend(
        &self,
        ds: &Dataset,
        w: MetricWeights,
    ) -> Result<Recommendation, AdvisorError> {
        ds.validate_shape()
            .map_err(|e| AdvisorError::InvalidDataset(e.to_string()))?;
        let feature = self.shared.current().feature_config();
        let graph = self.shared.extract(ds, &feature);
        self.recommend_graph(graph, w)
    }

    /// Recommends from a pre-extracted feature graph. Thin wrapper over
    /// [`Self::query`].
    pub fn recommend_graph(
        &self,
        graph: FeatureGraph,
        w: MetricWeights,
    ) -> Result<Recommendation, AdvisorError> {
        Ok(self
            .query(Query::graph(graph, w))?
            .pop()
            .expect("one recommendation per graph"))
    }

    /// Owned-burst wrapper over [`Self::query`] (a tenant asking about
    /// several datasets, or one dataset across a weighting grid).
    pub fn recommend_graphs(
        &self,
        graphs: Vec<FeatureGraph>,
        w: MetricWeights,
    ) -> Result<Vec<Recommendation>, AdvisorError> {
        self.query(Query::graphs(graphs, w))
    }

    /// Borrowed-burst wrapper over [`Self::query`]: callers that keep
    /// their graphs alive pay **zero clones** on cache hits and
    /// inline-encoded bursts — a graph is copied only if its request
    /// actually rides the queue to the worker (which must outlive the
    /// borrow). Answers are identical to the owned form.
    pub fn recommend_graph_refs(
        &self,
        graphs: &[&FeatureGraph],
        w: MetricWeights,
    ) -> Result<Vec<Recommendation>, AdvisorError> {
        self.query(Query::graph_refs(graphs, w))
    }

    /// **The** serving path — every `recommend*` wrapper lowers into this
    /// one method, so there is exactly one place where cache lookup,
    /// inline burst encoding, queue handoff, and the backend's (possibly
    /// indexed) KNN vote are wired together. Cache hits are served **on
    /// the calling thread** against the current snapshot (no queue
    /// handoff at all — the KNN vote is microseconds, so repeat-heavy
    /// traffic never wakes the worker), bursts with at least
    /// [`ServeConfig::inline_burst_misses`] misses are encoded inline
    /// (one stacked forward, no handoff), and remaining misses ride the
    /// micro-batch queue, enqueued together so they share stacked
    /// forwards. Responses come back in input order; each is identical
    /// to a separate single-graph call. A backend failure (e.g. a dark
    /// cluster range) fails the whole burst with that typed error.
    pub fn query(&self, q: Query<'_>) -> Result<Vec<Recommendation>, AdvisorError> {
        let Query { graphs, w } = q;
        let n = graphs.len();
        // Uniform shutdown semantics: once the service is stopping, even
        // cache-servable requests are refused (the fast path never touches
        // the queue, so it must check explicitly).
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(self.shared.refusal().into());
        }
        let snap = self.shared.current();
        let fingerprints: Vec<u64> = graphs.iter().map(|g| graph_fingerprint(g)).collect();
        // Fast path: look every fingerprint up under one brief cache lock
        // (embeddings are copied out; the KNN votes run unlocked). A
        // generation mismatch means the snapshot swapped around us — then
        // nothing is trusted and everything goes through the worker.
        let mut cached: Vec<Option<Vec<f32>>> = vec![None; n];
        {
            let mut cache = plock(&self.shared.cache);
            if cache.generation() == snap.generation() {
                for (slot, &fp) in cached.iter_mut().zip(&fingerprints) {
                    *slot = cache.get(fp).map(<[f32]>::to_vec);
                }
            }
        }
        let mut out: Vec<Option<Recommendation>> = (0..n).map(|_| None).collect();
        let mut graphs: Vec<Option<Cow<'_, FeatureGraph>>> = graphs.into_iter().map(Some).collect();
        let mut hit_idx: Vec<usize> = Vec::new();
        let mut missed: Vec<usize> = Vec::new();
        for (i, slot) in cached.iter().enumerate() {
            match slot {
                Some(_) => hit_idx.push(i),
                None => missed.push(i),
            }
        }
        if !hit_idx.is_empty() {
            // One batched vote over the whole hit set: against a cluster
            // backend this is one wire frame per shard range instead of
            // one per query, and it is bit-identical to voting per query.
            let reqs: Vec<BatchPredictRequest<'_>> = hit_idx
                .iter()
                .map(|&i| BatchPredictRequest {
                    embedding: cached[i].as_deref().expect("hit embedding present"),
                    w,
                    exclude: usize::MAX,
                })
                .collect();
            let answers = {
                let _vote = self.shared.obs.vote_ns_cache_hit.start_span();
                snap.predict_batch(&reqs)?
            };
            for (&i, (model, scores)) in hit_idx.iter().zip(answers) {
                out[i] = Some(Recommendation {
                    model,
                    scores,
                    generation: snap.generation(),
                    cache_hit: true,
                });
            }
        }
        let hits = hit_idx.len() as u64;
        if hits > 0 {
            self.shared
                .stats
                .requests
                .fetch_add(hits, Ordering::Relaxed);
            self.shared
                .stats
                .cache_hits
                .fetch_add(hits, Ordering::Relaxed);
            self.shared.obs.path_cache_hit.add(hits);
        }
        if missed.len() >= self.shared.cfg.inline_burst_misses.max(1) {
            // Inline burst serving: a burst with enough misses is its own
            // micro-batch — encode it here with the same stacked forward,
            // cache fill and votes the worker would run, skipping the
            // enqueue/park/wake round trip entirely. Duplicates within the
            // burst are encoded once, exactly as in `process_batch`.
            let mut unique: Vec<usize> = Vec::with_capacity(missed.len());
            let mut pos_of: std::collections::HashMap<u64, usize> =
                std::collections::HashMap::new();
            for &i in &missed {
                pos_of.entry(fingerprints[i]).or_insert_with(|| {
                    unique.push(i);
                    unique.len() - 1
                });
            }
            let unique_graphs: Vec<&FeatureGraph> = unique
                .iter()
                .map(|&i| graphs[i].as_deref().expect("miss graph present"))
                .collect();
            let fresh = {
                let _encode = self.shared.obs.encode_ns_inline.start_span();
                snap.embed_graph_batch(&unique_graphs)
            };
            {
                // Inserts are generation-tagged: if a snapshot swap raced
                // this burst, the cache drops them (same rule as worker
                // batches).
                let mut cache = plock(&self.shared.cache);
                for (&i, emb) in unique.iter().zip(&fresh) {
                    cache.insert_ref(snap.generation(), fingerprints[i], emb);
                }
            }
            let reqs: Vec<BatchPredictRequest<'_>> = missed
                .iter()
                .map(|&i| BatchPredictRequest {
                    embedding: fresh[pos_of[&fingerprints[i]]].as_slice(),
                    w,
                    exclude: usize::MAX,
                })
                .collect();
            let answers = {
                let _vote = self.shared.obs.vote_ns_inline.start_span();
                snap.predict_batch(&reqs)?
            };
            for (&i, (model, scores)) in missed.iter().zip(answers) {
                out[i] = Some(Recommendation {
                    model,
                    scores,
                    generation: snap.generation(),
                    cache_hit: false,
                });
            }
            let stats = &self.shared.stats;
            stats
                .requests
                .fetch_add(missed.len() as u64, Ordering::Relaxed);
            stats
                .cache_misses
                .fetch_add(missed.len() as u64, Ordering::Relaxed);
            stats.batches.fetch_add(1, Ordering::Relaxed);
            self.shared.obs.path_inline.add(missed.len() as u64);
            self.shared
                .obs
                .batch_depth_inline
                .observe(missed.len() as u64);
        } else if !missed.is_empty() {
            let mut rxs = Vec::with_capacity(missed.len());
            {
                let mut q = plock(&self.shared.queue);
                for &i in &missed {
                    loop {
                        if q.shutdown {
                            return Err(self.shared.refusal().into());
                        }
                        if q.items.len() < self.shared.cfg.queue_capacity {
                            break;
                        }
                        // Backpressure: wake the worker *before* parking —
                        // a burst larger than the queue fills it mid-push,
                        // and without this wake the worker (parked on
                        // `not_empty`, which is otherwise only signaled
                        // after the full burst) would sleep forever while
                        // we wait for space: mutual deadlock. The lock is
                        // released while waiting, so the worker drains
                        // meanwhile.
                        self.shared.not_empty.notify_one();
                        q = self
                            .shared
                            .space
                            .wait(q)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    q.items.push_back(Request {
                        // Owned submissions move their graph into the
                        // request; borrowed ones clone here — the only
                        // point where the worker must outlive the borrow.
                        graph: graphs[i]
                            .take()
                            .expect("miss graph taken once")
                            .into_owned(),
                        fingerprint: fingerprints[i],
                        w,
                        reply: {
                            let (tx, rx) = mpsc::channel();
                            rxs.push(rx);
                            tx
                        },
                        queue_span: if self.shared.obs.registry.is_enabled() {
                            Some(self.shared.obs.queue_wait_ns.start_span())
                        } else {
                            None
                        },
                    });
                }
            }
            // One wake, after the lock is dropped: notifying per push while
            // holding the mutex makes the worker wake straight into a held
            // lock (one futile wake/block cycle per request).
            self.shared.not_empty.notify_one();
            // The worker only drops a sender after replying or at shutdown.
            for (&i, rx) in missed.iter().zip(rxs) {
                let answer = rx
                    .recv()
                    .map_err(|_| AdvisorError::from(self.shared.refusal()))?;
                out[i] = Some(answer?);
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect())
    }

    /// The current serving snapshot (for monitoring or direct unbatched
    /// reads; snapshots are immutable).
    pub fn snapshot(&self) -> Arc<B> {
        self.shared.current()
    }

    /// Lifetime service counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared.stats;
        ServiceStats {
            requests: s.requests.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            adaptations: s.adaptations.load(Ordering::Relaxed),
        }
    }

    /// The embedding cache's own hit/miss/insert/reject ledger (see
    /// [`CacheStats`] for how it relates to [`ServiceStats`]). Takes the
    /// cache mutex for the copy — the same brief hold a single lookup
    /// costs, on an admin path.
    pub fn cache_stats(&self) -> CacheStats {
        plock(&self.shared.cache).stats()
    }

    /// A point-in-time metrics snapshot: everything the service's
    /// registry recorded (phase histograms, path counters), the
    /// [`ServiceStats`] and [`CacheStats`] ledgers re-expressed as
    /// samples under their stable names, and — when the backend is
    /// itself instrumented, e.g. a cluster coordinator — the backend's
    /// own [`AdvisorBackend::metrics`], merged in. Works (returning the
    /// ledger samples) even under a disabled registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.shared.obs.registry.snapshot();
        let stats = self.stats();
        let cache = self.cache_stats();
        let counter = |name: &str, labels: &[(&str, &str)], v: u64| Sample {
            name: name.to_string(),
            labels: {
                let mut l: Vec<(String, String)> = labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                l.sort();
                l
            },
            value: SampleValue::Counter(v),
        };
        snap.samples.extend([
            counter("ce_serve_requests_total", &[], stats.requests),
            counter("ce_serve_batches_total", &[], stats.batches),
            counter("ce_serve_cache_hits_total", &[], stats.cache_hits),
            counter("ce_serve_cache_misses_total", &[], stats.cache_misses),
            counter("ce_serve_adaptations_total", &[], stats.adaptations),
            counter("ce_serve_cache_inserts_total", &[], cache.inserts),
            counter(
                "ce_serve_cache_rejects_total",
                &[("reason", "first_touch")],
                cache.rejected_first_touch,
            ),
            counter(
                "ce_serve_cache_rejects_total",
                &[("reason", "stale_generation")],
                cache.rejected_stale_generation,
            ),
            counter(
                "ce_serve_cache_rejects_total",
                &[("reason", "disabled")],
                cache.rejected_disabled,
            ),
            Sample {
                name: "ce_serve_cache_resident".to_string(),
                labels: Vec::new(),
                value: SampleValue::Gauge(cache.resident as u64),
            },
        ]);
        snap.normalize();
        snap.merge(&self.shared.current().metrics());
        snap
    }
}

/// Guards the admin path (adaptation): one adapter at a time, owning the
/// drift detector and the reservoir.
struct AdminState {
    detector: DriftDetector,
    reservoir: Reservoir,
}

/// The running advisor service: a worker thread micro-batching requests
/// against the current snapshot of any [`AdvisorBackend`], plus the
/// serialized admin path for online adaptation (available when the
/// backend is the in-process [`ShardedAdvisor`]; distributed backends
/// adapt through their own authority, see `ce-cluster`).
pub struct AdvisorService<B: AdvisorBackend + 'static = ShardedAdvisor> {
    shared: Arc<Shared<B>>,
    admin: Mutex<AdminState>,
    worker: Option<JoinHandle<()>>,
}

impl<B: AdvisorBackend + 'static> AdvisorService<B> {
    /// Starts the service over a backend it owns: the way in. The drift
    /// detector is fitted from the backend's RCS and the reservoir is
    /// seeded with the current membership. When [`ServeConfig::index`] is
    /// set, the two-stage KNN index is installed on the backend here — the
    /// one moment the service holds it exclusively.
    ///
    /// Returns [`AdvisorError::InvalidConfig`] — before any thread is
    /// spawned — for a zero `max_batch`, `queue_capacity` or
    /// `reservoir_capacity`, and for an index the backend rejects (e.g. a
    /// cutover below its `k`). [`ServeConfig::builder`] and
    /// [`IndexConfig::builder`] catch the structural errors earlier still.
    pub fn try_start(mut advisor: B, cfg: ServeConfig) -> Result<Self, AdvisorError> {
        if let Some(index) = &cfg.index {
            advisor.install_index(index, &cfg.metrics)?;
        }
        Self::try_start_shared(Arc::new(advisor), cfg)
    }

    /// [`Self::try_start`] for configs known to be valid; panics where it
    /// returns `Err`.
    pub fn start(advisor: B, cfg: ServeConfig) -> Self {
        Self::try_start(advisor, cfg).expect("invalid ServeConfig")
    }

    /// Starts the service over a backend the caller keeps a handle to
    /// (e.g. a cluster coordinator whose admin surface — heartbeats,
    /// traces, snapshot pushes — stays with the caller while queries ride
    /// the service). The `Arc` becomes the initial serving snapshot.
    /// [`ServeConfig::index`] is not installed here: a shared backend
    /// installs its own index before being wrapped.
    ///
    /// Returns [`AdvisorError::InvalidConfig`] for the zeros that would
    /// hang clients: a 0-batch worker spins popping nothing, a 0-capacity
    /// queue never admits a request, and a 0-capacity reservoir leaves
    /// adaptation nothing to sample (`cache_capacity: 0` legitimately
    /// disables caching). The builder rejects them earlier; struct-literal
    /// configs are checked here.
    pub fn try_start_shared(advisor: Arc<B>, cfg: ServeConfig) -> Result<Self, AdvisorError> {
        cfg.validate_capacities()?;
        Ok(Self::spawn(advisor, cfg))
    }

    /// [`Self::try_start_shared`] for configs known to be valid; panics
    /// where it returns `Err`.
    pub fn start_shared(advisor: Arc<B>, cfg: ServeConfig) -> Self {
        Self::try_start_shared(advisor, cfg).expect("invalid ServeConfig")
    }

    /// Fits the detector, seeds the reservoir and spawns the batcher over
    /// a validated config.
    fn spawn(advisor: Arc<B>, cfg: ServeConfig) -> Self {
        // Register every handle up front (the registry's own mutex, cold
        // path): nothing on the serving path ever registers.
        let obs = ObsHandles::new(&cfg.metrics);
        let detector = {
            let _fit = obs.detector_fit_ns.start_span();
            advisor.drift_detector()
        };
        let reservoir =
            Reservoir::over_initial(advisor.rcs_len(), cfg.reservoir_capacity, cfg.seed);
        let shared = Arc::new(Shared {
            cache: Mutex::new(
                EmbeddingCache::new(cfg.cache_capacity, advisor.generation())
                    .with_second_touch(cfg.admit_on_second_touch),
            ),
            obs,
            cfg,
            shutting_down: AtomicBool::new(false),
            worker_failed: AtomicBool::new(false),
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            snapshot: Mutex::new(advisor),
            stats: Stats {
                requests: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                adaptations: AtomicU64::new(0),
            },
        });
        let worker_shared = shared.clone();
        let worker = std::thread::Builder::new()
            .name("ce-serve-batcher".into())
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn batcher thread");
        AdvisorService {
            shared,
            admin: Mutex::new(AdminState {
                detector,
                reservoir,
            }),
            worker: Some(worker),
        }
    }

    /// A new client handle.
    pub fn handle(&self) -> ServeHandle<B> {
        ServeHandle {
            shared: self.shared.clone(),
        }
    }

    /// The current serving snapshot.
    pub fn snapshot(&self) -> Arc<B> {
        self.shared.current()
    }

    /// Lifetime service counters.
    pub fn stats(&self) -> ServiceStats {
        self.handle().stats()
    }

    /// The embedding cache's own ledger (see [`ServeHandle::cache_stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.handle().cache_stats()
    }

    /// A point-in-time metrics snapshot (see
    /// [`ServeHandle::metrics_snapshot`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.handle().metrics_snapshot()
    }

    /// Stops the worker: no new requests are accepted, already-queued
    /// requests are answered, then the thread exits and is joined.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        {
            let mut q = plock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.space.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl AdvisorService<ShardedAdvisor> {
    /// Online adaptation (§V-E, reservoir-bounded): if `ds` drifts past
    /// the detector threshold, labels it on the testbed, clones the
    /// current snapshot, adapts the clone against the reservoir sample,
    /// refits the detector and swaps the snapshot in. Serving continues on
    /// the old snapshot throughout; the embedding cache is cleared at the
    /// swap (a new encoder invalidates every cached embedding). Returns
    /// `true` if an adaptation happened.
    ///
    /// Only the in-process sharded backend adapts through the service —
    /// the clone-and-swap needs an owned advisor value. A cluster adapts
    /// at its authority (`push_entry` + `refresh_and_snapshot`); the
    /// service's generation-tagged cache picks the change up through
    /// [`AdvisorBackend::generation`].
    pub fn adapt(&self, ds: &Dataset, testbed: &TestbedConfig, seed: u64) -> bool {
        let mut admin = plock(&self.admin);
        let snap = self.shared.current();
        let graph = self.shared.extract(ds, &snap.config().feature);
        let x = snap.embed_graph(&graph);
        if snap.distance_to_embedding(&x) <= admin.detector.threshold() {
            return false;
        }
        let label = {
            let _label = self.shared.obs.adapt_label_ns.start_span();
            label_dataset(ds, testbed, seed)
        };
        let mut next = (*snap).clone();
        // Adapt through the service's own registry so refresh/train phase
        // timings join the serving metrics in one snapshot.
        next.set_metrics(self.shared.obs.registry.clone());
        next.adapt_with_reservoir(graph, &label, &mut admin.reservoir, seed);
        admin.detector = {
            let _fit = self.shared.obs.detector_fit_ns.start_span();
            next.drift_detector()
        };
        let generation = next.generation();
        {
            // Swap and invalidate atomically with respect to readers: the
            // cache lock is held across the snapshot swap, so no reader
            // can pair the new snapshot with pre-adaptation cache entries
            // (readers check cache.generation() against their snapshot,
            // and late inserts from in-flight batches carry the old
            // generation and are dropped).
            let mut cache = plock(&self.shared.cache);
            *plock(&self.shared.snapshot) = Arc::new(next);
            cache.clear_for(generation);
        }
        self.shared
            .stats
            .adaptations
            .fetch_add(1, Ordering::Relaxed);
        self.shared.obs.snapshot_swaps.inc();
        true
    }
}

impl<B: AdvisorBackend + 'static> Drop for AdvisorService<B> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The batcher: drain → deadline-wait → one stacked forward → respond.
fn worker_loop<B: AdvisorBackend>(shared: &Shared<B>) {
    loop {
        let mut batch: Vec<Request> = Vec::with_capacity(shared.cfg.max_batch);
        {
            let mut q = plock(&shared.queue);
            while q.items.is_empty() {
                if q.shutdown {
                    return;
                }
                q = shared
                    .not_empty
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            while batch.len() < shared.cfg.max_batch {
                match q.items.pop_front() {
                    Some(r) => batch.push(r),
                    None => break,
                }
            }
        }
        shared.space.notify_all();
        // Straggler pickup, cheapest first: yield once so clients that
        // were about to enqueue (closed-loop callers just woken by the
        // previous batch's responses) get scheduled, then re-drain. Only
        // after that spend the configured deadline in a timed wait — with
        // a zero deadline the worker never sleeps while work exists, which
        // is the right mode for blocking callers (their next request
        // arrives only after this batch answers, so waiting is pure idle).
        if batch.len() < shared.cfg.max_batch {
            std::thread::yield_now();
            let mut q = plock(&shared.queue);
            while batch.len() < shared.cfg.max_batch {
                match q.items.pop_front() {
                    Some(r) => batch.push(r),
                    None => break,
                }
            }
            drop(q);
            shared.space.notify_all();
        }
        if !shared.cfg.batch_deadline.is_zero() {
            let deadline = Instant::now() + shared.cfg.batch_deadline;
            while batch.len() < shared.cfg.max_batch {
                let mut q = plock(&shared.queue);
                while q.items.is_empty() {
                    if q.shutdown {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _) = shared
                        .not_empty
                        .wait_timeout(q, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    q = guard;
                }
                if q.items.is_empty() {
                    break;
                }
                while batch.len() < shared.cfg.max_batch {
                    match q.items.pop_front() {
                        Some(r) => batch.push(r),
                        None => break,
                    }
                }
                drop(q);
                shared.space.notify_all();
            }
        }
        // A panic while serving (a malformed graph blowing an encoder
        // invariant, say) must not strand submitters: without the catch,
        // the worker dies with the batch's reply senders *and* every
        // queued sender still alive in the abandoned queue — queued
        // submitters block on `recv` forever. Catch it, fail the service
        // loudly, and drain. The batch is borrowed (not moved) so its
        // reply senders drop *after* the failure flag is set — their
        // submitters must wake into `WorkerFailed`, not `ShuttingDown`.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_batch(shared, &mut batch)
        }));
        if outcome.is_err() {
            fail_service(shared);
            drop(batch);
            return;
        }
    }
}

/// Transitions the service into its terminal failed state after a worker
/// panic: refuse new requests, drop every queued request (each drop
/// releases a reply sender, so its blocked submitter unblocks into
/// [`ServeError::WorkerFailed`] instead of hanging), and wake everyone.
fn fail_service<B>(shared: &Shared<B>) {
    shared.worker_failed.store(true, Ordering::Release);
    shared.shutting_down.store(true, Ordering::Release);
    {
        let mut q = plock(&shared.queue);
        q.shutdown = true;
        q.items.clear();
    }
    shared.not_empty.notify_all();
    shared.space.notify_all();
}

/// Serves one micro-batch: cache lookups, one stacked forward over the
/// misses, cache fill, then **one** batched KNN vote
/// ([`AdvisorBackend::predict_batch`]) for every request — against a
/// cluster backend that is one wire frame per shard range per batch
/// instead of one per query. A backend failure (e.g. a cluster range
/// going dark mid-batch) fails the batch as a whole: every submitter
/// receives the same typed error, because every query in the batch fans
/// out to the same ranges — a partial answer would let one range's
/// failure silently skew a subset of the batch.
fn process_batch<B: AdvisorBackend>(shared: &Shared<B>, batch: &mut [Request]) {
    // The requests just left the queue: close their wait spans first so
    // queue wait never includes encode time.
    for r in batch.iter_mut() {
        drop(r.queue_span.take());
    }
    shared.obs.batch_depth_worker.observe(batch.len() as u64);
    shared.obs.path_worker.add(batch.len() as u64);
    let snap = shared.current();
    let mut embeddings: Vec<Option<Vec<f32>>> = vec![None; batch.len()];
    {
        let mut cache = plock(&shared.cache);
        // Entries are only valid for the snapshot they were computed
        // under; after a swap the batch recomputes everything.
        if cache.generation() == snap.generation() {
            for (slot, r) in embeddings.iter_mut().zip(batch.iter()) {
                *slot = cache.get(r.fingerprint).map(<[f32]>::to_vec);
            }
        }
    }
    let was_hit: Vec<bool> = embeddings.iter().map(Option::is_some).collect();
    let miss_idx: Vec<usize> = (0..batch.len()).filter(|&i| !was_hit[i]).collect();
    let hits = batch.len() - miss_idx.len();
    if !miss_idx.is_empty() {
        // Duplicate graphs within one batch (N clients asking about the
        // same dataset in lockstep) are encoded once and fanned back out.
        let mut unique: Vec<usize> = Vec::with_capacity(miss_idx.len());
        let mut pos_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for &i in &miss_idx {
            pos_of.entry(batch[i].fingerprint).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
        }
        let graphs: Vec<&FeatureGraph> = unique.iter().map(|&i| &batch[i].graph).collect();
        let fresh = {
            let _encode = shared.obs.encode_ns_worker.start_span();
            snap.embed_graph_batch(&graphs)
        };
        {
            let mut cache = plock(&shared.cache);
            for (&i, emb) in unique.iter().zip(&fresh) {
                cache.insert_ref(snap.generation(), batch[i].fingerprint, emb);
            }
        }
        for &i in &miss_idx {
            embeddings[i] = Some(fresh[pos_of[&batch[i].fingerprint]].clone());
        }
    }
    let stats = &shared.stats;
    stats
        .requests
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.cache_hits.fetch_add(hits as u64, Ordering::Relaxed);
    stats
        .cache_misses
        .fetch_add(miss_idx.len() as u64, Ordering::Relaxed);
    let reqs: Vec<BatchPredictRequest<'_>> = batch
        .iter()
        .zip(&embeddings)
        .map(|(r, emb)| BatchPredictRequest {
            embedding: emb.as_deref().expect("every request embedded"),
            w: r.w,
            exclude: usize::MAX,
        })
        .collect();
    let answers = {
        let _vote = shared.obs.vote_ns_worker.start_span();
        snap.predict_batch(&reqs)
    };
    match answers {
        Ok(answers) => {
            for (i, (r, (model, scores))) in batch.iter().zip(answers).enumerate() {
                // A dropped receiver (client gave up) is not an error.
                let _ = r.reply.send(Ok(Recommendation {
                    model,
                    scores,
                    generation: snap.generation(),
                    cache_hit: was_hit[i],
                }));
            }
        }
        Err(e) => {
            for r in batch {
                let _ = r.reply.send(Err(e.clone()));
            }
        }
    }
}
