//! # ce-serve — the advisor service
//!
//! The Stage-4 serving path of AutoCE (embed → KNN over the RCS, Eq. 13)
//! scaled to heavy multi-user traffic, in front of any
//! [`autoce::AdvisorBackend`] — the in-process [`autoce::AutoCe`] at any
//! shard count (the default backend) or `ce-cluster`'s coordinator:
//!
//! * [`batch`]: the concurrent service — a submission's cache misses run
//!   on the calling thread in one stacked forward, except that a worker
//!   micro-batches lone misses meeting a busy front (that rule and the
//!   lifecycle live in one private state machine, `FrontState`); reads
//!   come from immutable snapshots, and online adaptation (§V-E) swaps in
//!   one adapted over a [`Reservoir`] sample of the RCS. Its public
//!   surface returns the unified [`autoce::AdvisorError`].
//! * [`cache`]: an LRU embedding cache keyed by feature-graph fingerprint;
//!   hits skip the encoder entirely and never change a recommendation.
//!
//! ```no_run
//! use autoce::AutoCe;
//! use ce_serve::{AdvisorService, ServeConfig};
//! # fn advisor() -> AutoCe { unimplemented!() }
//! let sharded = AutoCe::from_advisor(&advisor(), 4);
//! let service = AdvisorService::try_start(sharded, ServeConfig::default())?;
//! let handle = service.handle(); // Clone one per client thread.
//! # Ok::<(), autoce::AdvisorError>(())
//! ```

pub mod batch;
pub mod cache;
mod front;

pub use batch::{AdvisorService, Query, Recommendation, ServeConfig, ServeHandle, ServiceStats};
// Index surface: what callers need to configure `ServeConfig::index`.
pub use autoce::index::{IndexConfig, IndexConfigBuilder, QuantMode};
pub use autoce::online::Reservoir;
pub use cache::{graph_fingerprint, Admission, CacheStats, EmbeddingCache};
// Observability surface: what callers need to configure
// `ServeConfig::metrics` and read `ServeHandle::metrics_snapshot`.
pub use ce_obs::{MetricsRegistry, MetricsSnapshot};
// The former sharded advisor's name, kept for the e2e benchmark until it
// names `AutoCe` itself.
pub use autoce::AutoCe as ShardedAdvisor;
