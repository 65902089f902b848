//! The concurrent advisor service: micro-batched requests over a snapshot
//! of any [`AdvisorBackend`].
//!
//! # Design
//!
//! * **Backend-generic** — [`AdvisorService<B>`] fronts any
//!   [`AdvisorBackend`]: the in-process [`AutoCe`] at any shard count (the
//!   default type parameter) or `ce-cluster`'s coordinator. The batching,
//!   caching and snapshot machinery below is written once against the
//!   trait; a cluster behind the service gets one taped query fan-out per
//!   *batch* instead of per request.
//! * **Admission** — a submission's misses run on the calling thread,
//!   except a *lone* miss on a busy front: one worker batches those (up to
//!   [`ServeConfig::max_batch`], within [`ServeConfig::batch_deadline`])
//!   into **one** stacked forward ([`AdvisorBackend::embed_graph_batch`]).
//!   The rule and the service's lifecycle live only in the private
//!   `FrontState` (`front.rs`).
//! * **Snapshot reads** — every pipeline run serves from an `Arc<B>`
//!   snapshot. Online adaptation builds a *new* advisor value and swaps
//!   the `Arc` under a momentary lock; in-flight batches keep reading the
//!   old snapshot, so serving never blocks behind a refresh (a flat
//!   advisor under a lock gives the same consistency, but blocks).
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
//! * **One pipeline** — the cache-hit, inline and worker paths run the
//!   same three steps (`lookup` → `encode_misses` → `vote`); they differ
//!   only in which thread runs them and in the `path` label their metrics
//!   carry. A queued request was looked up at admission, so the worker
//!   starts at `encode_misses`.
//!
//! Responses are bit-identical to asking the backend directly — its
//! `embed_graph`, then its `predict_from_embedding` (and hence to the flat
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
//! untouched — a cache-hit request and a batched request fail with the
//! same variant the direct call would.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::cache::{graph_fingerprint, CacheStats, EmbeddingCache};
use crate::front::{Claim, Fill, FrontState, Work};
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
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs: a plain struct, written as a literal over
/// [`ServeConfig::default`]. [`AdvisorService::try_start`] and
/// [`AdvisorService::try_start_shared`] check it before anything starts
/// (a zero `max_batch` or `queue_capacity` would hang clients; see the
/// field docs) and answer [`AdvisorError::InvalidConfig`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum requests the worker drains into one batch (one stacked
    /// forward). It bounds worker batches only: a submission's own misses
    /// are served on its thread as one stacked forward whatever their
    /// number (`tests/pipeline_golden.rs` sends a 10-graph burst under
    /// `max_batch: 4`).
    pub max_batch: usize,
    /// How long the batcher waits after the first queued request (a lone
    /// miss that met a busy front) for more before closing the batch. Zero
    /// (the default) suits blocking callers: the worker still yields once
    /// and re-drains, enough for concurrent clients to share forwards, but
    /// never sleeps on speculation. A nonzero deadline trades latency for
    /// occupancy with open-loop producers; one too far to represent has no
    /// timeout (the batch closes at `max_batch` or at shutdown).
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

#[derive(Default)]
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
/// and with a disabled registry every handle is a no-op. Each field is the
/// metric `ce_serve_<field>` (`path`-labelled ones indexed by [`Path`]);
/// names are stable API, catalogued in `docs/observability.md`.
struct ObsHandles {
    registry: MetricsRegistry,
    feature_extract_ns: Histogram,
    adapt_label_ns: Histogram,
    detector_fit_ns: Histogram,
    queue_wait_ns: Histogram,
    encode_ns: [Histogram; 2],
    batch_depth: [Histogram; 2],
    vote_ns: [Histogram; 3],
    path_requests: [Counter; 3],
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
    /// A submission's misses, encoded on the calling thread.
    Inline,
    /// A worker batch of queued lone misses.
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

/// One pipeline run holding the front busy until this guard drops — also
/// while unwinding, so a caller that panics mid-run cannot wedge every
/// later lone miss onto the queue.
struct Busy<'a>(&'a Mutex<FrontState<Request>>);

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        plock(self.0).release();
    }
}

/// Locks a service mutex, tolerating poison: a *client* thread can die
/// inside the inline path while holding a lock, and the service must keep
/// refusing (or serving) cleanly instead of cascading panics through every
/// submitter. All states guarded here are safe to take mid-poison — the
/// cache is regenerable, the front changes only in whole transitions, and
/// the admin state in whole steps (the reservoir observes one index at a
/// time, the detector is replaced by assignment).
fn plock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared<B> {
    cfg: ServeConfig,
    /// The backend's [`AdvisorBackend::vertex_dim`], read once at start:
    /// no adaptation changes the encoder's shape.
    vertex_dim: usize,
    /// The admission rule and lifecycle; see [`crate::front`].
    front: Mutex<FrontState<Request>>,
    /// [`FrontState::open`], read without the front's lock.
    open: Arc<AtomicBool>,
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
}

/// The serving pipeline, written once: every path — cache hits on the
/// calling thread, inline bursts, worker batches — is `lookup` → (for
/// misses) `encode_misses` → `vote`, the worker's lookup being the one
/// its requests had at admission.
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
        let mut make = || Request {
            graph,
            fingerprint,
            w,
            reply,
            queue_span: self
                .obs
                .registry
                .is_enabled()
                .then(|| self.obs.queue_wait_ns.start_span()),
        };
        let mut q = plock(&self.front);
        while let Some(again) = q.enqueue(make)? {
            // Backpressure: wake the worker *before* parking. Draining the
            // full queue is what frees our slot, so this submitter makes
            // sure the worker is awake rather than relying on the wakes of
            // whoever filled it. The lock is released while waiting.
            make = again;
            self.not_empty.notify_one();
            q = self.space.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        // Wake after the lock is dropped: notifying while holding the mutex
        // makes the worker wake straight into a held lock.
        drop(q);
        self.not_empty.notify_one();
        // The worker drops a sender unanswered only when it has died
        // (`FrontState::fail`, or a batch unwinding).
        rx.recv().map_err(|_| AdvisorError::WorkerFailed)?
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
    /// Extraction is the dominant cost of this call (≈0.8 of it on the
    /// `e2e` benchmark's `dataset-cold` workload, timed by
    /// `ce_serve_feature_extract_ns`): callers that re-ask about one
    /// dataset should extract once and use [`Self::recommend_graph`].
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
    /// snapshot, and the misses are encoded and voted there too (one
    /// stacked forward, no handoff) unless the front's admission rule
    /// queues a lone miss for the worker (see the module docs). Responses
    /// come back in input order; each is identical to a separate
    /// single-graph call. A backend failure (e.g. a dark cluster range)
    /// fails the whole burst with that typed error.
    pub fn query(&self, q: Query<'_>) -> Result<Vec<Recommendation>, AdvisorError> {
        let Query { mut graphs, w } = q;
        let shared = &*self.shared;
        // Uniform shutdown semantics: once the service is stopping, even
        // cache-servable requests are refused.
        if !shared.open.load(Ordering::Acquire) {
            plock(&shared.front).submit()?;
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
        let claim = match missed[..] {
            [i] => Some((i, plock(&shared.front).claim()?)),
            _ => None,
        };
        let _busy = matches!(claim, Some((_, Claim::Inline))).then(|| Busy(&shared.front));
        if let Some((i, Claim::Queue)) = claim {
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
        out.into_iter()
            .map(|rec| {
                rec.ok_or_else(|| AdvisorError::Protocol("a request went unanswered".into()))
            })
            .collect()
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
        let (stats, cache) = (self.stats(), self.cache_stats());
        let sample = |name: &str, reason: Option<&str>, value| Sample {
            name: name.to_string(),
            labels: Vec::from_iter(reason.map(|r| ("reason".to_string(), r.to_string()))),
            value,
        };
        let counter = |name, v| sample(name, None, SampleValue::Counter(v));
        const REJECTS: &str = "ce_serve_cache_rejects_total";
        let rejects = |why, v| sample(REJECTS, Some(why), SampleValue::Counter(v));
        snap.samples.extend([
            counter("ce_serve_requests_total", stats.requests),
            counter("ce_serve_batches_total", stats.batches),
            counter("ce_serve_cache_hits_total", stats.cache_hits),
            counter("ce_serve_cache_misses_total", stats.cache_misses),
            counter("ce_serve_adaptations_total", stats.adaptations),
            counter("ce_serve_cache_inserts_total", cache.inserts),
            // Retired with second-touch admission: always 0.
            rejects("first_touch", cache.rejected_first_touch),
            rejects("stale_generation", cache.rejected_stale_generation),
            rejects("disabled", cache.rejected_disabled),
            sample(
                "ce_serve_cache_resident",
                None,
                SampleValue::Gauge(cache.resident as u64),
            ),
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
        let front = FrontState::new(&cfg);
        let shared = Arc::new(Shared {
            cache: Mutex::new(EmbeddingCache::new(
                cfg.cache_capacity,
                advisor.generation(),
            )),
            obs,
            cfg,
            vertex_dim: advisor.vertex_dim(),
            open: front.open(),
            front: Mutex::new(front),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            snapshot: Mutex::new(advisor),
            stats: Stats::default(),
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

    /// Stops the worker: no new requests are accepted, already-queued
    /// requests are answered, then the thread exits and is joined.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        plock(&self.shared.front).close();
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

/// The batcher: one batch after another until the front closes. A panic in
/// it (a backend invariant blowing up, say) fails the front, which refuses
/// every later request and hands back the queued ones. Their reply senders
/// drop, and the batch's only then (it lives outside the unwind guard): a
/// submitter woken so reads `WorkerFailed` from a front that already says so.
fn worker_loop<B: AdvisorBackend>(shared: &Shared<B>) {
    let mut batch = Vec::with_capacity(shared.cfg.max_batch);
    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        while let Some(busy) = next_batch(shared, &mut batch) {
            process_batch(shared, &mut batch, busy);
            batch.clear();
        }
    }));
    if served.is_err() {
        drop(plock(&shared.front).fail());
        shared.space.notify_all();
    }
}

/// Fills the next batch through [`FrontState::drain`], the front busy
/// from its first take until the batch is voted; `None` once the front
/// closed with nothing queued. Straggler pickup goes cheapest first: one
/// yield lets closed-loop clients just answered enqueue, so a zero
/// deadline never sleeps while work exists; only then does a nonzero one
/// wait — without timeout if it is too far to represent.
fn next_batch<'a, B>(shared: &'a Shared<B>, batch: &mut Vec<Request>) -> Option<Busy<'a>> {
    let (mut fill, mut busy) = (Fill::Empty, None);
    // The straggling batch's deadline, unless too far to represent.
    let mut until = None;
    let mut q = plock(&shared.front);
    loop {
        if let Fill::Straggling { passed } = &mut fill {
            *passed = until.is_some_and(|t| Instant::now() >= t);
        }
        let (next, wake_submitters) = q.drain(batch, fill);
        match next {
            Work::Exit => return None,
            Work::Sleep => {
                q = match until {
                    Some(t) => {
                        let left = t.saturating_duration_since(Instant::now());
                        let waited = shared.not_empty.wait_timeout(q, left);
                        waited.unwrap_or_else(PoisonError::into_inner).0
                    }
                    None => (shared.not_empty.wait(q)).unwrap_or_else(PoisonError::into_inner),
                };
                continue;
            }
            _ => {}
        }
        busy.get_or_insert_with(|| Busy(&shared.front));
        drop(q);
        if wake_submitters {
            shared.space.notify_all();
        }
        fill = match next {
            Work::Run => return busy,
            Work::Yield => {
                std::thread::yield_now();
                Fill::Yielded
            }
            _ => {
                until = until.or_else(|| Instant::now().checked_add(shared.cfg.batch_deadline));
                Fill::Straggling { passed: false }
            }
        };
        q = plock(&shared.front);
    }
}

/// Serves one micro-batch through the shared pipeline: one stacked forward
/// over its distinct graphs, then **one** vote for every request (each with
/// its own weights). Every queued request already missed the cache at
/// admission, so the batch is not looked up again: one cache-lock hold and
/// one `CacheStats::misses` count per request. The cost is that a graph
/// cached between a request's admission and its drain (say, by a lockstep
/// client's inline run) is encoded again and answered `cache_hit: false`;
/// answers are unchanged. A vote failure reaches every submitter in the
/// batch as the same typed error. The worker's `busy` claim is released
/// before any reply is sent.
fn process_batch<B: AdvisorBackend>(shared: &Shared<B>, batch: &mut [Request], busy: Busy<'_>) {
    // The requests just left the queue: close their wait spans first so
    // queue wait never includes encode time.
    for r in batch.iter_mut() {
        drop(r.queue_span.take());
    }
    let batch = &*batch;
    let snap = shared.current();
    let fps: Vec<u64> = batch.iter().map(|r| r.fingerprint).collect();
    let graphs: Vec<&FeatureGraph> = batch.iter().map(|r| &r.graph).collect();
    let slots = vec![None; batch.len()];
    let mut busy = Some(busy);
    // A dropped receiver (client gave up) is not an error.
    let voted = (shared.encode_misses(&snap, &graphs, &fps, slots, Path::Worker)).and_then(|e| {
        let reqs: Vec<_> = batch.iter().zip(&e).map(|(r, e)| request(e, r.w)).collect();
        shared.vote(
            &snap,
            &reqs,
            |_| false,
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
