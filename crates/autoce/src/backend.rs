//! The unified advisor query surface: [`AdvisorBackend`] and the shared
//! error taxonomy [`AdvisorError`].
//!
//! The in-process [`AutoCe`](crate::AutoCe) (at any shard count) and the
//! cross-process cluster coordinator (`ce-cluster`) answer the same
//! questions — embed a feature graph, KNN-vote over the RCS. This trait
//! captures that query surface once, and only what a serving front calls,
//! so serving machinery (micro-batching, embedding caches, benchmarks,
//! parity tests) can be written one time and run against either backend.
//! Absorbing a new entry is an owner's operation, not a query: each
//! backend keeps its own (`AutoCe::push_entry`, the coordinator's
//! `push_entry`).
//!
//! # Determinism obligations
//!
//! Every implementation must be **bit-deterministic**: for the same RCS
//! state, `predict_batch` returns the same `(ModelKind, Vec<f64>)`
//! bits regardless of shard count, replica choice, thread count, or
//! transport. Concretely, implementations must preserve the two
//! load-bearing contracts:
//!
//! * neighbor order is [`knn_order`](crate::knn_order) — ascending
//!   distance, ties by ascending global RCS index (a strict total
//!   order);
//! * the vote is [`knn_vote`](crate::knn_vote) — scores averaged in that
//!   order, each contribution divided by `k` before accumulation, score
//!   ties resolved to the lowest model index.
//!
//! An implementation that cannot answer (a distributed backend with a
//! whole replica range down, say) must fail with a typed
//! [`AdvisorError`], never a panic and never silently degraded bits.
//!
//! See `docs/advisor-api.md` for the full contract, including the
//! snapshot/epoch rules distributed implementations follow.

use crate::online::DriftDetector;
use ce_features::{FeatureConfig, FeatureGraph};
use ce_models::ModelKind;
use ce_obs::MetricsSnapshot;
use ce_testbed::MetricWeights;

/// The unified advisor error taxonomy. Every backend and serving front
/// (`ce-serve`, `ce-cluster`'s coordinator) returns it directly, so code
/// generic over [`AdvisorBackend`] handles one type — with failure modes
/// as typed variants, never panics or stringly-typed catch-alls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdvisorError {
    /// A distributed backend found every replica of `range` unreachable
    /// or unusable. Transient by design: retries after recovery succeed.
    RangeUnavailable {
        /// The dark shard range.
        range: usize,
    },
    /// A peer answered something protocol-violating that retries cannot
    /// fix.
    Protocol(String),
    /// The serving front is shutting down; the request was not processed.
    ShuttingDown,
    /// The serving front's worker failed (panicked); the service is
    /// permanently stopped.
    WorkerFailed,
    /// A configuration was rejected by the code that takes it, before
    /// anything started (service start, coordinator construction, index
    /// install).
    InvalidConfig(String),
    /// The RCS holds no entry the query may select (it is empty, or its
    /// only entry is the excluded one); nothing was computed or sent.
    EmptyRcs,
    /// A request's dataset or feature graph is malformed — columns of
    /// unequal length in one table, or a join edge naming a table or column
    /// that does not exist (`Dataset::validate_shape`), nothing extracted or
    /// sent; a feature graph whose vertex rows are not
    /// [`AdvisorBackend::vertex_dim`] wide or whose edge matrix is not
    /// n × n for its n vertices, nothing encoded; or a query embedding
    /// holding a NaN or ±∞ (a non-finite feature reached the encoder;
    /// `knn::select_batch`), nothing scanned or sent.
    InvalidDataset(String),
}

impl std::fmt::Display for AdvisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdvisorError::RangeUnavailable { range } => {
                write!(f, "no live replica for shard range {range}")
            }
            AdvisorError::Protocol(d) => write!(f, "protocol violation: {d}"),
            AdvisorError::ShuttingDown => f.write_str("advisor service is shutting down"),
            AdvisorError::WorkerFailed => {
                f.write_str("advisor service worker failed; service is stopped")
            }
            AdvisorError::InvalidConfig(d) => write!(f, "invalid configuration: {d}"),
            AdvisorError::EmptyRcs => {
                f.write_str("no selectable RCS entry (empty or all excluded)")
            }
            AdvisorError::InvalidDataset(d) => write!(f, "invalid dataset: {d}"),
        }
    }
}

impl std::error::Error for AdvisorError {}

/// One query in a [`AdvisorBackend::predict_batch`] call: the embedding
/// to vote from, the metric weights, and the global RCS index to exclude
/// (`usize::MAX` excludes nothing) — the same triple
/// [`AdvisorBackend::predict_excluding`] takes, borrowed so a batcher can
/// hand out slices of embeddings it already owns.
#[derive(Debug, Clone, Copy)]
pub struct BatchPredictRequest<'a> {
    /// Query embedding bits.
    pub embedding: &'a [f32],
    /// Metric weights for the vote.
    pub w: MetricWeights,
    /// Global RCS index to exclude (`usize::MAX` = none).
    pub exclude: usize,
}

/// The advisor query surface both backends implement: the in-process
/// [`AutoCe`](crate::AutoCe) (sharded or not) and `ce-cluster`'s
/// `ClusterCoordinator`. See the module docs for the determinism
/// obligations implementations carry.
///
/// The trait holds what a serving front generic over the backend calls,
/// and nothing else: seven required methods and five provided ones. Every
/// method takes `&self` (backends needing internal state — wire
/// connections, retry randomness — use interior mutability) so a backend
/// can serve from behind an `Arc`; [`Self::install_index`] alone takes
/// `&mut self`, before the backend is shared. Mutation is an owner's
/// concern and has no trait method: `AutoCe` owners push, adapt and
/// refresh through its inherent methods, a cluster through the
/// coordinator's `&self` admin operations, and a serving front that
/// adapts online builds a new backend value and swaps snapshots.
pub trait AdvisorBackend: Send + Sync {
    /// Number of RCS entries backing recommendations.
    fn rcs_len(&self) -> usize;

    /// Monotonic generation of the *encoder* state: bumps exactly when an
    /// adaptation changes the encoder (and therefore invalidates every
    /// cached query embedding). Pushes and embedding refreshes reuse the
    /// encoder, so they do not bump it.
    fn generation(&self) -> u64;

    /// The feature-extraction configuration queries must be prepared
    /// with (owned: backends behind locks cannot lend references).
    fn feature_config(&self) -> FeatureConfig;

    /// Width of every vertex row the encoder takes: `feature_config()`'s
    /// [`FeatureConfig::vertex_dim`] for an advisor trained on extracted
    /// features, the encoder's own input width for one built from parts.
    /// A serving front refuses graphs of any other width before they reach
    /// the encoder.
    fn vertex_dim(&self) -> usize;

    /// Encodes a batch of feature graphs — the one encode every backend
    /// implements, and the micro-batcher's entry point. Must be
    /// bit-identical to encoding each graph alone.
    fn embed_graph_batch(&self, graphs: &[&FeatureGraph]) -> Vec<Vec<f32>>;

    /// Encodes one feature graph: [`Self::embed_graph_batch`] over a batch
    /// of one, so the two agree by construction.
    fn embed_graph(&self, g: &FeatureGraph) -> Vec<f32> {
        self.embed_graph_batch(std::slice::from_ref(&g))
            .pop()
            .unwrap_or_default()
    }

    /// KNN prediction for a batch of queries, each excluding one global RCS
    /// index (`usize::MAX` excludes nothing): the steps of [`crate::knn`],
    /// and the one predict every backend implements — the batcher's entry
    /// point for the vote half of a request, the way
    /// [`Self::embed_graph_batch`] is for the encode half. Answers come back
    /// in submission order, each **bit-identical** to the same query asked
    /// alone (the determinism contract lives here; see the module docs).
    /// In-process backends share one scratch across the batch; distributed
    /// ones send one wire frame per shard range per batch. A batch either
    /// answers in full or fails as a whole with the first error — partial
    /// answers would let one range's failure silently skew a subset of the
    /// batch. Refused before anything is scanned or sent, never a panic: an
    /// RCS with nothing some query may select is [`AdvisorError::EmptyRcs`],
    /// a query embedding holding a NaN or ±∞ is
    /// [`AdvisorError::InvalidDataset`].
    fn predict_batch(
        &self,
        queries: &[BatchPredictRequest<'_>],
    ) -> Result<Vec<(ModelKind, Vec<f64>)>, AdvisorError>;

    /// KNN prediction from one embedding: [`Self::predict_batch`] over a
    /// batch of one.
    fn predict_excluding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
        exclude: usize,
    ) -> Result<(ModelKind, Vec<f64>), AdvisorError> {
        let query = BatchPredictRequest {
            embedding,
            w,
            exclude,
        };
        self.predict_batch(std::slice::from_ref(&query))?
            .pop()
            .ok_or_else(|| AdvisorError::Protocol("a batch of one answered nothing".into()))
    }

    /// KNN prediction from an embedding (no exclusion).
    fn predict_from_embedding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
    ) -> Result<(ModelKind, Vec<f64>), AdvisorError> {
        self.predict_excluding(embedding, w, usize::MAX)
    }

    /// Fits a drift detector over the current RCS membership in global
    /// index order, through the partitions (and indexes) the backend
    /// serves from ([`DriftDetector::from_partitions`]).
    fn drift_detector(&self) -> DriftDetector;

    /// Installs a two-stage KNN index configuration
    /// ([`crate::index::IndexConfig`]) on backends that scan embeddings
    /// locally; counters land in `metrics`. Purely a performance knob —
    /// the bit-determinism contract above holds with or without an index
    /// (indexed answers are provably the flat scan's, an inadmissible
    /// probe widens, a stale index is bypassed). The default ignores the request:
    /// backends whose scans happen remotely (the cluster coordinator's
    /// shard servers hold their own operator-side index config) have
    /// nothing to install here.
    fn install_index(
        &mut self,
        cfg: &crate::index::IndexConfig,
        metrics: &ce_obs::MetricsRegistry,
    ) -> Result<(), AdvisorError> {
        let _ = (cfg, metrics);
        Ok(())
    }

    /// Observability hook: a point-in-time [`MetricsSnapshot`] of
    /// whatever this backend instruments. Strictly a read-only side
    /// channel — implementations must not take serving locks, change any
    /// float association, or append to deterministic event traces to
    /// answer it. The default (and [`AutoCe`](crate::AutoCe)) reports
    /// nothing; instrumented tiers (`ce-serve`, `ce-cluster`) override it.
    /// See `docs/observability.md` for the metric name catalogue.
    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::empty()
    }
}

/// The "must be at least 1" check shared by every config validator
/// (`IndexConfig`, `ServeConfig`, `ClusterConfig`): one place for the
/// wording, so each rejects a zero knob before first use with the same
/// message.
pub fn validate_nonzero(name: &str, value: usize) -> Result<(), AdvisorError> {
    if value == 0 {
        return Err(AdvisorError::InvalidConfig(format!(
            "{name} must be at least 1"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{AutoCe, AutoCeConfig, RcsEntry};
    use ce_gnn::{DmlConfig, GinEncoder};

    fn tiny_advisor() -> AutoCe {
        let entries: Vec<RcsEntry> = (0..5)
            .map(|i| {
                let v = i as f32 * 0.3;
                RcsEntry {
                    name: format!("e{i}"),
                    graph: FeatureGraph {
                        vertices: vec![vec![v, 1.0 - v, 0.5, 0.25]],
                        edges: vec![vec![0.0]],
                    },
                    embedding: vec![v, v * v, 1.0 - v],
                    kinds: vec![ModelKind::Postgres, ModelKind::LwXgb],
                    sa: vec![(i % 2) as f64, 1.0 - (i % 2) as f64],
                    se: vec![0.5, 0.5],
                }
            })
            .collect();
        let config = AutoCeConfig {
            k: 2,
            incremental: None,
            dml: DmlConfig {
                hidden: vec![8],
                embed_dim: 3,
                ..DmlConfig::default()
            },
            ..AutoCeConfig::default()
        };
        AutoCe::from_parts(config, GinEncoder::new(4, &[8], 3, 7), entries)
    }

    #[test]
    fn trait_surface_matches_inherent_methods() {
        let advisor = tiny_advisor();
        let backend: &dyn AdvisorBackend = &advisor;
        let w = MetricWeights::new(0.7);
        let x = vec![0.2f32, 0.1, 0.6];
        let one = BatchPredictRequest {
            embedding: &x,
            w,
            exclude: 1,
        };
        assert_eq!(
            backend.predict_excluding(&x, w, 1),
            Ok(advisor.predict_batch(&[one]).expect("flat never fails")[0].clone())
        );
        assert_eq!(
            backend
                .predict_from_embedding(&x, w)
                .expect("flat never fails"),
            advisor.predict_from_embedding(&x, w)
        );
        assert_eq!(backend.rcs_len(), advisor.len());
        let g = advisor.entry(0).graph.clone();
        assert_eq!(backend.embed_graph(&g), advisor.encoder().encode(&g));
        assert_eq!(
            backend.embed_graph_batch(&[&g, &g]),
            vec![backend.embed_graph(&g), backend.embed_graph(&g)]
        );
        let voted = backend.predict_from_embedding(&backend.embed_graph(&g), w);
        assert_eq!(
            voted.expect("flat never fails").0,
            advisor.recommend_graph(&g, w)
        );
    }

    /// The drift signal: the owner's `distance_to_embedding` is zero on a
    /// member and positive away from the RCS.
    #[test]
    fn distance_to_nearest_hits_zero_on_members() {
        let advisor = tiny_advisor();
        let member = advisor.entry(2).embedding.clone();
        assert_eq!(advisor.distance_to_embedding(&member), 0.0);
        assert!(advisor.distance_to_embedding(&[9.0, 9.0, 9.0]) > 1.0);
    }

    /// The owner's push returns the new entry's global index.
    #[test]
    fn push_hook_returns_the_new_global_index() {
        let mut advisor = tiny_advisor();
        let before = advisor.len();
        let label = ce_testbed::DatasetLabel {
            dataset: "new".into(),
            performances: advisor
                .entry(0)
                .kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| ce_testbed::ModelPerformance {
                    kind,
                    qerror_mean: 1.0 + i as f64,
                    qerror_p50: 1.0,
                    qerror_p95: 1.0,
                    qerror_p99: 1.0,
                    latency_mean_us: 10.0,
                    train_time_ms: 1.0,
                })
                .collect(),
        };
        let g = advisor.entry(0).graph.clone();
        assert_eq!(advisor.push_entry(g, &label), before);
        assert_eq!(advisor.len(), before + 1);
    }

    #[test]
    fn error_display_is_stable() {
        assert_eq!(
            AdvisorError::RangeUnavailable { range: 3 }.to_string(),
            "no live replica for shard range 3"
        );
        assert_eq!(
            AdvisorError::EmptyRcs.to_string(),
            "no selectable RCS entry (empty or all excluded)"
        );
        assert!(validate_nonzero("max_batch", 0).is_err());
        assert!(validate_nonzero("max_batch", 1).is_ok());
    }
}
