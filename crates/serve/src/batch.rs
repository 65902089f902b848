//! The concurrent advisor service: micro-batched requests over a snapshot
//! of any [`AdvisorBackend`].
//!
//! # Design
//!
//! * **Backend-generic** — [`AdvisorService<B>`] fronts any
//!   [`AdvisorBackend`]: the in-process [`AutoCe`] at any shard count (the
//!   default type parameter, so existing code keeps reading
//!   `AdvisorService`) or `ce-cluster`'s coordinator. The
//!   batching, caching and snapshot machinery below is written once
//!   against the trait; a cluster behind the service gets one taped
//!   query fan-out per *batch* instead of per request.
//! * **Micro-batching** — lone misses that meet a busy front (see below)
//!   go into a bounded queue; a single worker drains it into batches of at
//!   most [`ServeConfig::max_batch`], waiting up to
//!   [`ServeConfig::batch_deadline`] after the first request for
//!   stragglers. Each batch's cache-missing graphs run as **one** stacked
//!   forward ([`AdvisorBackend::embed_graph_batch`]) — the whole point:
//!   per-graph kernel dispatch is what makes per-request serving slow.
//! * **Snapshot reads** — every pipeline run serves from an `Arc<B>`
//!   snapshot. Online adaptation builds a *new* advisor value and swaps the `Arc`
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
//! * **Inline miss serving** — a submission's cache misses are encoded
//!   and voted on the calling thread, with no enqueue/park/wake round trip,
//!   with one exception: a *lone* miss that arrives while the front is busy
//!   rides the queue, so concurrent single-graph clients still share
//!   stacked forwards. The front is idle when nothing is queued and no
//!   pipeline run (a worker batch or an inline lone miss) is in flight —
//!   observed under the queue lock, not configured. A single closed-loop
//!   client therefore never pays a handoff; two or more misses in one
//!   submission are already their own micro-batch and never queue.
//! * **One pipeline** — the cache-hit, inline and worker paths run the
//!   same three steps (`lookup` → `encode_misses` → `vote`); they differ
//!   only in which thread runs them and in the `path` label their metrics
//!   carry.
//!
//! Responses are bit-identical to calling the backend's
//! `recommend_graph` directly (and hence to the flat
//! [`autoce::AutoCe::recommend`]): batching, caching and snapshotting all
//! preserve the underlying bits.
//!
//! # Errors
//!
//! The public surface returns the unified [`autoce::AdvisorError`]
//! regardless of backend: the service's own refusals are `ShuttingDown`,
//! `WorkerFailed` and `InvalidDataset` (a malformed dataset or feature
//! graph, refused before it is fingerprinted), and a distributed backend's
//! typed failures (`RangeUnavailable`, protocol violations) pass through
//! untouched — a
//! cache-hit request and a batched request fail with the same variant the
//! direct call would.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::cache::{graph_fingerprint, CacheStats, EmbeddingCache};
use autoce::index::IndexConfig;
use autoce::online::{DriftDetector, Reservoir};
use autoce::{validate_nonzero, AdvisorBackend, AdvisorError, AutoCe, BatchPredictRequest};
use ce_features::{extract_features, FeatureConfig, FeatureGraph};
use ce_models::ModelKind;
use ce_obs::{
    Counter, Histogram, MetricsRegistry, MetricsSnapshot, Sample, SampleValue, DEPTH_BUCKETS,
    LATENCY_NS_BUCKETS,
};
use ce_storage::Dataset;
use ce_testbed::{label_dataset, MetricWeights, TestbedConfig};
use std::borrow::{Borrow, Cow};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs: a plain struct, written as a literal over
/// [`ServeConfig::default`]. [`AdvisorService::try_start`] and
/// [`AdvisorService::try_start_shared`] check it before anything starts
/// (a zero `max_batch` or `queue_capacity` would hang clients; see the
/// field docs) and answer [`AdvisorError::InvalidConfig`].
#[derive(Clone)]
pub struct ServeConfig {
    /// Maximum requests embedded in one stacked forward.
    pub max_batch: usize,
    /// How long the batcher waits after the first queued request for more
    /// to arrive before closing the batch. It applies to queued requests
    /// only — lone misses that met a busy front; misses served on the
    /// calling thread never wait. Zero (the default) is the right mode for
    /// blocking callers: the worker still yields once and re-drains before
    /// encoding — enough for concurrent clients to share forwards — but
    /// never sleeps on speculation. A nonzero deadline trades latency for
    /// occupancy with open-loop producers (pipelined submitters, network
    /// frontends).
    pub batch_deadline: Duration,
    /// Bounded request-queue capacity; submitters block when it is full
    /// (backpressure instead of unbounded memory growth).
    pub queue_capacity: usize,
    /// Embedding-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Reservoir sample size bounding each online adaptation. Must be at
    /// least 1 (validated at [`AdvisorService::try_start`]); unlike
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
            reservoir_capacity: 64,
            seed: 0xce5e,
            metrics: MetricsRegistry::disabled(),
            index: None,
        }
    }
}

impl ServeConfig {
    /// Every check the service runs before it starts: a zero `max_batch`
    /// (the worker spins popping nothing), `queue_capacity` (no request is
    /// ever admitted) or `reservoir_capacity` (adaptation has nothing to
    /// sample), and a structurally invalid index. `cache_capacity: 0`
    /// legitimately disables caching.
    fn validate(&self) -> Result<(), AdvisorError> {
        validate_nonzero("max_batch", self.max_batch)?;
        validate_nonzero("queue_capacity", self.queue_capacity)?;
        validate_nonzero("reservoir_capacity", self.reservoir_capacity)?;
        match &self.index {
            Some(index) => index.validate(),
            None => Ok(()),
        }
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

/// Lifetime service counters (monotonic; never reset).
///
/// One counting rule covers every serving path, and the
/// `ce_serve_path_requests_total{path}` counters follow it too: a request
/// is counted when its KNN vote is asked for, whether or not the backend
/// then answers. A request refused before that (shutdown, a malformed
/// dataset or feature graph) is not counted; one whose vote fails
/// (`EmptyRcs`, a dark cluster range) is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests whose vote was asked for.
    pub requests: u64,
    /// Micro-batches processed: worker batches plus inline runs (a
    /// submission's misses encoded on the calling thread). Cache hits on
    /// the calling thread ride no batch, so mean batch occupancy is
    /// `cache_misses / batches`, not `requests / batches`.
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
    /// `ce_serve_encode_ns{path}`: the stacked-forward phase, indexed by
    /// the batched [`Path`]s.
    encode_ns: [Histogram; 2],
    /// `ce_serve_batch_depth{path}`: requests per micro-batch, indexed by
    /// the batched [`Path`]s.
    batch_depth: [Histogram; 2],
    /// `ce_serve_vote_ns{path}`: the batched-KNN-vote phase, per [`Path`].
    vote_ns: [Histogram; 3],
    /// `ce_serve_path_requests_total{path}`: which path ran the request.
    path_requests: [Counter; 3],
    /// `ce_serve_snapshot_swaps_total`: adaptations applied.
    snapshot_swaps: Counter,
}

impl ObsHandles {
    fn new(registry: &MetricsRegistry) -> Self {
        let r = registry;
        let per_path = |name: &str, buckets: &'static [u64], path: Path| {
            r.histogram(name, &[("path", path.label())], buckets)
        };
        ObsHandles {
            registry: r.clone(),
            feature_extract_ns: r.histogram("ce_serve_feature_extract_ns", &[], LATENCY_NS_BUCKETS),
            adapt_label_ns: r.histogram("ce_serve_adapt_label_ns", &[], LATENCY_NS_BUCKETS),
            detector_fit_ns: r.histogram("ce_serve_detector_fit_ns", &[], LATENCY_NS_BUCKETS),
            queue_wait_ns: r.histogram("ce_serve_queue_wait_ns", &[], LATENCY_NS_BUCKETS),
            encode_ns: BATCHED.map(|p| per_path("ce_serve_encode_ns", LATENCY_NS_BUCKETS, p)),
            batch_depth: BATCHED.map(|p| per_path("ce_serve_batch_depth", DEPTH_BUCKETS, p)),
            vote_ns: PATHS.map(|p| per_path("ce_serve_vote_ns", LATENCY_NS_BUCKETS, p)),
            path_requests: PATHS
                .map(|p| r.counter("ce_serve_path_requests_total", &[("path", p.label())])),
            snapshot_swaps: r.counter("ce_serve_snapshot_swaps_total", &[]),
        }
    }
}

/// Which serving path ran a request through the shared pipeline — the
/// `path` label of the phase metrics. The two batched paths come first so
/// they index the encode and depth handles.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    /// A submission's misses, encoded on the calling thread: two or more,
    /// or a lone one on an idle front.
    Inline,
    /// A micro-batch drained from the queue by the worker: lone misses
    /// that met a busy front.
    Worker,
    /// Cache hits, voted on the calling thread.
    CacheHit,
}

const BATCHED: [Path; 2] = [Path::Inline, Path::Worker];
const PATHS: [Path; 3] = [Path::Inline, Path::Worker, Path::CacheHit];

impl Path {
    fn label(self) -> &'static str {
        match self {
            Path::Inline => "inline",
            Path::Worker => "worker",
            Path::CacheHit => "cache_hit",
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
    /// Pipeline runs holding the front busy: worker batches and inline
    /// lone misses. With `items`, what a lone miss reads to choose between
    /// the calling thread and the queue.
    in_flight: usize,
}

impl QueueState {
    /// Counts one more run in flight until the returned guard drops.
    fn enter<'a>(&mut self, queue: &'a Mutex<QueueState>) -> Busy<'a> {
        self.in_flight += 1;
        Busy(queue)
    }
}

/// One pipeline run holding the front busy ([`QueueState::in_flight`]).
/// Dropping it frees the front — also while unwinding, so a caller that
/// panics mid-run cannot wedge every later lone miss onto the queue.
struct Busy<'a>(&'a Mutex<QueueState>);

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        plock(self.0).in_flight -= 1;
    }
}

/// Locks a service mutex, tolerating poison: the worker catches its own
/// panics, but a *client* thread can die inside the inline path while
/// holding the cache lock, and the service must keep refusing (or
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
    /// The backend's [`AdvisorBackend::vertex_dim`], read once at start:
    /// no adaptation changes the encoder's shape.
    vertex_dim: usize,
    /// Mirrors `QueueState::shutdown` for the lock-free fast path.
    shutting_down: AtomicBool,
    /// Set (never cleared) when the worker dies on a panic; distinguishes
    /// [`AdvisorError::WorkerFailed`] from an orderly shutdown.
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
    fn refusal(&self) -> AdvisorError {
        if self.worker_failed.load(Ordering::Acquire) {
            AdvisorError::WorkerFailed
        } else {
            AdvisorError::ShuttingDown
        }
    }

    /// Claims the front for a lone miss if it is idle — nothing queued, no
    /// run in flight — in the critical section that checks it. `None` when
    /// busy: the miss rides the queue and batches with whoever is there.
    /// Refuses as [`Self::enqueue`] does once the service is stopping.
    fn claim_idle(&self) -> Result<Option<Busy<'_>>, AdvisorError> {
        let mut q = plock(&self.queue);
        if q.shutdown {
            return Err(self.refusal());
        }
        Ok((q.items.is_empty() && q.in_flight == 0).then(|| q.enter(&self.queue)))
    }

    /// Moves queued requests into `batch` up to `max_batch`, releases the
    /// queue lock, and wakes submitters parked on a full queue.
    fn drain(&self, mut q: MutexGuard<'_, QueueState>, batch: &mut Vec<Request>) {
        let take = (self.cfg.max_batch - batch.len()).min(q.items.len());
        batch.extend(q.items.drain(..take));
        drop(q);
        self.space.notify_all();
    }
}

/// The serving pipeline, written once: every path — cache hits on the
/// calling thread, inline bursts, worker batches — is `lookup` → (for
/// misses) `encode_misses` → `vote`.
impl<B: AdvisorBackend> Shared<B> {
    /// Each fingerprint's cached embedding, copied out under one brief
    /// cache-lock hold (the votes run unlocked). Entries are only valid for
    /// the snapshot they were computed under: after a swap the cache is not
    /// consulted and every request misses.
    fn lookup(&self, snap: &B, fps: &[u64]) -> Vec<Option<Vec<f32>>> {
        let mut slots = vec![None; fps.len()];
        let mut cache = plock(&self.cache);
        if cache.generation() == snap.generation() {
            for (slot, &fp) in slots.iter_mut().zip(fps) {
                *slot = cache.get(fp).map(<[f32]>::to_vec);
            }
        }
        slots
    }

    /// Every slot's embedding: the cached ones as they are, the empty ones
    /// from one stacked forward over the distinct missing fingerprints (N
    /// clients asking about one dataset in lockstep, or a burst repeating a
    /// graph, encode it once), then the cache fill. Inserts are
    /// generation-tagged, so if a snapshot swap raced the forward the cache
    /// drops them. A backend answering fewer embeddings than it was asked
    /// for is [`AdvisorError::Protocol`].
    fn encode_misses<G: Borrow<FeatureGraph>>(
        &self,
        snap: &B,
        graphs: &[G],
        fps: &[u64],
        slots: Vec<Option<Vec<f32>>>,
        path: Path,
    ) -> Result<Vec<Vec<f32>>, AdvisorError> {
        let mut first: HashMap<u64, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            if slot.is_none() {
                first.entry(fps[i]).or_insert_with(|| {
                    unique.push(i);
                    i
                });
            }
        }
        if unique.is_empty() {
            return Ok(slots.into_iter().flatten().collect());
        }
        let batch: Vec<&FeatureGraph> = unique.iter().map(|&i| graphs[i].borrow()).collect();
        let mut fresh = {
            let _encode = self.obs.encode_ns[path as usize].start_span();
            snap.embed_graph_batch(&batch)
        }
        .into_iter();
        let mut embedded: Vec<Vec<f32>> = Vec::with_capacity(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            let embedding = match slot {
                Some(cached) => cached,
                None => match first[&fps[i]] {
                    f if f < i => embedded[f].clone(),
                    _ => fresh.next().ok_or_else(|| {
                        AdvisorError::Protocol(format!(
                            "embed_graph_batch answered fewer than {} embeddings",
                            batch.len()
                        ))
                    })?,
                },
            };
            embedded.push(embedding);
        }
        let generation = snap.generation();
        let mut cache = plock(&self.cache);
        for &i in &unique {
            cache.insert_ref(generation, fps[i], &embedded[i]);
        }
        Ok(embedded)
    }

    /// One [`AdvisorBackend::predict_batch`] over `reqs` — against a
    /// cluster backend one wire frame per shard range, bit-identical to
    /// voting per query — handing request `j`'s answer to `put(j, ..)`.
    /// The requests are counted on `path`'s ledger first: a request is
    /// counted when its vote is asked for (see [`ServiceStats`]). A backend
    /// failure fails the whole vote with that typed error, because every
    /// query fans out to the same ranges — a partial answer would let one
    /// range's failure silently skew a subset; an answer count other than
    /// the request count is [`AdvisorError::Protocol`], before any `put`.
    fn vote(
        &self,
        snap: &B,
        reqs: &[BatchPredictRequest<'_>],
        hit: impl Fn(usize) -> bool,
        path: Path,
        mut put: impl FnMut(usize, Recommendation),
    ) -> Result<(), AdvisorError> {
        let n = reqs.len() as u64;
        let hits = (0..reqs.len()).filter(|&j| hit(j)).count() as u64;
        let stats = &self.stats;
        stats.requests.fetch_add(n, Ordering::Relaxed);
        if hits > 0 {
            stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if hits < n {
            stats.cache_misses.fetch_add(n - hits, Ordering::Relaxed);
        }
        self.obs.path_requests[path as usize].add(n);
        if path != Path::CacheHit {
            stats.batches.fetch_add(1, Ordering::Relaxed);
            self.obs.batch_depth[path as usize].observe(n);
        }
        let answers = {
            let _vote = self.obs.vote_ns[path as usize].start_span();
            snap.predict_batch(reqs)?
        };
        if answers.len() != reqs.len() {
            return Err(AdvisorError::Protocol(format!(
                "predict_batch answered {} of {} queries",
                answers.len(),
                reqs.len()
            )));
        }
        let generation = snap.generation();
        for (j, (model, scores)) in answers.into_iter().enumerate() {
            put(
                j,
                Recommendation {
                    model,
                    scores,
                    generation,
                    cache_hit: hit(j),
                },
            );
        }
        Ok(())
    }

    /// Hands one cache miss to the worker and parks on its reply.
    fn enqueue(
        &self,
        graph: FeatureGraph,
        fingerprint: u64,
        w: MetricWeights,
    ) -> Result<Recommendation, AdvisorError> {
        let (reply, rx) = mpsc::channel();
        {
            let mut q = plock(&self.queue);
            loop {
                if q.shutdown {
                    return Err(self.refusal());
                }
                if q.items.len() < self.cfg.queue_capacity {
                    break;
                }
                // Backpressure: wake the worker *before* parking. Draining
                // the full queue is what frees our slot, so this submitter
                // makes sure the worker is awake rather than relying on the
                // wakes of whoever filled it. The lock is released while
                // waiting, so the worker drains meanwhile.
                self.not_empty.notify_one();
                q = self
                    .space
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            q.items.push_back(Request {
                graph,
                fingerprint,
                w,
                reply,
                queue_span: self
                    .obs
                    .registry
                    .is_enabled()
                    .then(|| self.obs.queue_wait_ns.start_span()),
            });
        }
        // Wake after the lock is dropped: notifying while holding the mutex
        // makes the worker wake straight into a held lock.
        self.not_empty.notify_one();
        // The worker only drops a sender after replying or at shutdown.
        rx.recv().map_err(|_| self.refusal())?
    }
}

/// The vote request for one embedding.
fn request(embedding: &[f32], w: MetricWeights) -> BatchPredictRequest<'_> {
    BatchPredictRequest {
        embedding,
        w,
        exclude: usize::MAX,
    }
}

/// The shape the encoder takes, checked before anything reads the graph:
/// every vertex row `dim` wide and an n × n edge matrix for n vertices
/// (zero vertices is valid). Anything else would panic inside the stacked
/// forward, on whichever thread runs it.
fn check_graph(g: &FeatureGraph, dim: usize) -> Result<(), String> {
    let n = g.vertices.len();
    if let Some(row) = g.vertices.iter().find(|row| row.len() != dim) {
        return Err(format!(
            "a vertex row is {} wide, the encoder takes {dim}",
            row.len()
        ));
    }
    if g.edges.len() != n || g.edges.iter().any(|row| row.len() != n) {
        return Err(format!("the edge matrix is not {n} × {n}"));
    }
    Ok(())
}

/// A cloneable client handle onto a running [`AdvisorService`].
pub struct ServeHandle<B = AutoCe> {
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
        self.query(Query::graph(graph, w))?
            .pop()
            .ok_or_else(|| AdvisorError::Protocol("a one-graph query answered nothing".into()))
    }

    /// **The** serving entry point — [`Self::recommend`] and
    /// [`Self::recommend_graph`] lower into it, and bursts call it with
    /// [`Query::graphs`] (owned) or [`Query::graph_refs`] (borrowed: a
    /// graph is cloned only if its request rides the queue to the worker,
    /// which must outlive the borrow). Every graph's shape is checked
    /// first: a vertex row not [`AdvisorBackend::vertex_dim`] wide or an
    /// edge matrix not n × n is [`AdvisorError::InvalidDataset`], and
    /// nothing of the query is served. Every fingerprint is looked up once;
    /// cache hits are voted **on the calling thread** against the current
    /// snapshot (the KNN vote is microseconds, so repeat-heavy traffic
    /// never wakes the worker). The misses are encoded and voted on the
    /// calling thread too (one stacked forward, no handoff) — unless a lone
    /// miss meets a busy front (something queued, or a worker batch or
    /// another inline lone miss in flight): that one rides the micro-batch
    /// queue, so concurrent single-graph clients share forwards. Responses
    /// come back in input order; each is identical to a separate
    /// single-graph call. A backend failure (e.g. a dark cluster range)
    /// fails the whole burst with that typed error.
    pub fn query(&self, q: Query<'_>) -> Result<Vec<Recommendation>, AdvisorError> {
        let Query { mut graphs, w } = q;
        let shared = &*self.shared;
        // Uniform shutdown semantics: once the service is stopping, even
        // cache-servable requests are refused (the fast path never touches
        // the queue, so it must check explicitly).
        if shared.shutting_down.load(Ordering::Acquire) {
            return Err(shared.refusal());
        }
        for (i, g) in graphs.iter().enumerate() {
            check_graph(g, shared.vertex_dim)
                .map_err(|why| AdvisorError::InvalidDataset(format!("feature graph {i}: {why}")))?;
        }
        let snap = shared.current();
        let fps: Vec<u64> = graphs.iter().map(|g| graph_fingerprint(g)).collect();
        let slots = shared.lookup(&snap, &fps);
        let mut out: Vec<Option<Recommendation>> = vec![None; graphs.len()];
        let (hits, mut missed): (Vec<usize>, Vec<usize>) =
            (0..graphs.len()).partition(|&i| slots[i].is_some());
        if !hits.is_empty() {
            let mut reqs = Vec::with_capacity(hits.len());
            reqs.extend(slots.iter().flatten().map(|e| request(e, w)));
            shared.vote(
                &snap,
                &reqs,
                |_| true,
                Path::CacheHit,
                |j, rec| out[hits[j]] = Some(rec),
            )?;
        }
        // A lone miss runs here only on an idle front, and holds it busy
        // until its run below is answered (or unwinds).
        let lone = match missed[..] {
            [i] => Some(i),
            _ => None,
        };
        let busy = match lone {
            Some(_) => shared.claim_idle()?,
            None => None,
        };
        if let (Some(i), None) = (lone, &busy) {
            // Owned submissions move their graph into the request; borrowed
            // ones clone here — the only point where the worker must
            // outlive the borrow.
            let graph = graphs.swap_remove(i).into_owned();
            out[i] = Some(shared.enqueue(graph, fps[i], w)?);
            missed.clear();
        }
        if !missed.is_empty() {
            // The worker's steps, run here, without the enqueue/park/wake
            // round trip.
            let embedded = shared.encode_misses(&snap, &graphs, &fps, slots, Path::Inline)?;
            let reqs: Vec<_> = missed.iter().map(|&i| request(&embedded[i], w)).collect();
            shared.vote(
                &snap,
                &reqs,
                |_| false,
                Path::Inline,
                |j, rec| out[missed[j]] = Some(rec),
            )?;
        }
        let mut recs = Vec::with_capacity(out.len());
        for rec in out {
            recs.push(
                rec.ok_or_else(|| AdvisorError::Protocol("a request went unanswered".into()))?,
            );
        }
        Ok(recs)
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
            // Retired with second-touch admission: always 0.
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
/// backend is the in-process [`AutoCe`]; distributed backends adapt
/// through their own authority, see `ce-cluster`).
pub struct AdvisorService<B: AdvisorBackend + 'static = AutoCe> {
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
    /// Returns [`AdvisorError::InvalidConfig`] — before anything is
    /// installed or any thread is spawned — for a zero `max_batch`,
    /// `queue_capacity` or `reservoir_capacity`, for a structurally invalid
    /// index, and for an index the backend rejects (e.g. a cutover below
    /// its `k`).
    pub fn try_start(mut advisor: B, cfg: ServeConfig) -> Result<Self, AdvisorError> {
        cfg.validate()?;
        if let Some(index) = &cfg.index {
            advisor.install_index(index, &cfg.metrics)?;
        }
        Ok(Self::spawn(Arc::new(advisor), cfg))
    }

    /// [`Self::try_start`] for configs known to be valid; panics where it
    /// returns `Err`.
    // Audited: the documented panic of the infallible constructor, before
    // any request exists; `try_start` is the typed way in.
    #[allow(clippy::expect_used)]
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
    /// Returns [`AdvisorError::InvalidConfig`] for the same config checks
    /// as [`Self::try_start`] (the index is checked but not installed).
    pub fn try_start_shared(advisor: Arc<B>, cfg: ServeConfig) -> Result<Self, AdvisorError> {
        cfg.validate()?;
        Ok(Self::spawn(advisor, cfg))
    }

    /// [`Self::try_start_shared`] for configs known to be valid; panics
    /// where it returns `Err`.
    // Audited: as `start`.
    #[allow(clippy::expect_used)]
    pub fn start_shared(advisor: Arc<B>, cfg: ServeConfig) -> Self {
        Self::try_start_shared(advisor, cfg).expect("invalid ServeConfig")
    }

    /// Fits the detector, seeds the reservoir and spawns the batcher over
    /// a validated config.
    // Audited: the batcher's spawn fails only when the OS refuses a
    // thread, at start, before any request exists.
    #[allow(clippy::expect_used)]
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
            cache: Mutex::new(EmbeddingCache::new(
                cfg.cache_capacity,
                advisor.generation(),
            )),
            obs,
            cfg,
            vertex_dim: advisor.vertex_dim(),
            shutting_down: AtomicBool::new(false),
            worker_failed: AtomicBool::new(false),
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                shutdown: false,
                in_flight: 0,
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

impl AdvisorService<AutoCe> {
    /// Online adaptation (§V-E, reservoir-bounded): if `ds` drifts past
    /// the detector threshold, labels it on the testbed, clones the
    /// current snapshot, adapts the clone against the reservoir sample,
    /// refits the detector and swaps the snapshot in. Serving continues on
    /// the old snapshot throughout; the embedding cache is cleared at the
    /// swap (a new encoder invalidates every cached embedding). Returns
    /// `true` if an adaptation happened.
    ///
    /// Only the in-process backend adapts through the service —
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

/// The batcher: drain → deadline-wait → one pipeline run → respond. The
/// front is busy from the first drain until the batch's vote returns, so
/// lone misses arriving meanwhile queue up behind it; it is free again
/// before the first reply goes out, so a client just answered finds it
/// idle for its next lone miss.
fn worker_loop<B: AdvisorBackend>(shared: &Shared<B>) {
    let max_batch = shared.cfg.max_batch;
    loop {
        let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
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
        let busy = q.enter(&shared.queue);
        shared.drain(q, &mut batch);
        // Straggler pickup, cheapest first: yield once so clients that
        // were about to enqueue (closed-loop callers just woken by the
        // previous batch's responses) get scheduled, then re-drain. Only
        // after that spend the configured deadline in a timed wait — with
        // a zero deadline the worker never sleeps while work exists, which
        // is the right mode for blocking callers (their next request
        // arrives only after this batch answers, so waiting is pure idle).
        if batch.len() < max_batch {
            std::thread::yield_now();
            shared.drain(plock(&shared.queue), &mut batch);
        }
        if !shared.cfg.batch_deadline.is_zero() {
            let deadline = Instant::now() + shared.cfg.batch_deadline;
            while batch.len() < max_batch {
                let mut q = plock(&shared.queue);
                while q.items.is_empty() {
                    let now = Instant::now();
                    if q.shutdown || now >= deadline {
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
                shared.drain(q, &mut batch);
            }
        }
        // A panic while serving (a backend invariant blowing up, say) must
        // not strand submitters: without the catch,
        // the worker dies with the batch's reply senders *and* every
        // queued sender still alive in the abandoned queue — queued
        // submitters block on `recv` forever. Catch it, fail the service
        // loudly, and drain. The batch is borrowed (not moved) so its
        // reply senders drop *after* the failure flag is set — their
        // submitters must wake into `WorkerFailed`, not `ShuttingDown`.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_batch(shared, &mut batch, busy)
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
/// [`AdvisorError::WorkerFailed`] instead of hanging), and wake everyone.
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

/// Serves one micro-batch through the shared pipeline: lookup, one
/// stacked forward over the misses, then **one** vote for every request
/// (each with its own weights; a request that hits the cache here is voted
/// with the rest). A vote failure reaches every submitter in the batch as
/// the same typed error. The worker's `busy` claim is released before any
/// reply is sent.
fn process_batch<B: AdvisorBackend>(shared: &Shared<B>, batch: &mut [Request], busy: Busy<'_>) {
    // The requests just left the queue: close their wait spans first so
    // queue wait never includes encode time.
    for r in batch.iter_mut() {
        drop(r.queue_span.take());
    }
    let batch = &*batch;
    let snap = shared.current();
    let fps: Vec<u64> = batch.iter().map(|r| r.fingerprint).collect();
    let slots = shared.lookup(&snap, &fps);
    let hit: Vec<bool> = slots.iter().map(Option::is_some).collect();
    let graphs: Vec<&FeatureGraph> = batch.iter().map(|r| &r.graph).collect();
    let mut busy = Some(busy);
    // A dropped receiver (client gave up) is not an error.
    let voted = (shared.encode_misses(&snap, &graphs, &fps, slots, Path::Worker)).and_then(|e| {
        let reqs: Vec<_> = batch.iter().zip(&e).map(|(r, e)| request(e, r.w)).collect();
        shared.vote(
            &snap,
            &reqs,
            |j| hit[j],
            Path::Worker,
            |j, rec| {
                drop(busy.take());
                let _ = batch[j].reply.send(Ok(rec));
            },
        )
    });
    if let Err(e) = voted {
        drop(busy);
        for r in batch {
            let _ = r.reply.send(Err(e.clone()));
        }
    }
}
