//! # ce-serve — the sharded advisor service
//!
//! The Stage-4 serving path of AutoCE (embed → KNN over the RCS, Eq. 13)
//! scaled to heavy multi-user traffic:
//!
//! * [`shard`]: the RCS distributed across [`AdvisorShard`]s — each shard
//!   owns its entries and packed stacked-serving chunks and answers
//!   partial-KNN top-k queries; a fixed-order merge reproduces the flat
//!   advisor **bit-identically for any shard count** (explicit distance-
//!   and score-tie-breaking, same neighbor order, same float evaluation
//!   order).
//! * [`batch`]: the concurrent service — requests from any number of
//!   client threads are micro-batched (bounded queue + batch deadline)
//!   into single stacked forwards, served from immutable snapshots so a
//!   refresh never blocks a read. The service is generic over
//!   [`autoce::AdvisorBackend`], so the same machinery fronts the flat
//!   advisor, the sharded advisor (default), or `ce-cluster`'s
//!   coordinator; its public surface returns the unified
//!   [`autoce::AdvisorError`].
//! * [`cache`]: an LRU embedding cache keyed by feature-graph fingerprint;
//!   hits skip the encoder entirely and never change a recommendation.
//! * [`reservoir`]: online adaptation (§V-E) bounded by reservoir
//!   sampling — a drifted dataset triggers an incremental DML update
//!   against a fixed-size deterministic sample of the RCS instead of the
//!   full set, with the embedding refresh routed per shard.
//!
//! ```no_run
//! use autoce::AutoCe;
//! use ce_serve::{AdvisorService, ServeConfig, ShardedAdvisor};
//! # fn advisor() -> AutoCe { unimplemented!() }
//! let sharded = ShardedAdvisor::from_advisor(&advisor(), 4);
//! let service = AdvisorService::try_start(sharded, ServeConfig::default())?;
//! let handle = service.handle(); // Clone one per client thread.
//! # Ok::<(), autoce::AdvisorError>(())
//! ```

pub mod batch;
pub mod cache;
pub mod reservoir;
pub mod shard;

pub use batch::{
    AdvisorService, Query, Recommendation, ServeConfig, ServeConfigBuilder, ServeError,
    ServeHandle, ServiceStats,
};
// Index surface: what callers need to configure `ServeConfig::index`.
pub use autoce::index::{IndexConfig, IndexConfigBuilder, QuantMode};
pub use cache::{graph_fingerprint, Admission, CacheStats, EmbeddingCache};
// Observability surface: what callers need to configure
// `ServeConfig::metrics` and read `ServeHandle::metrics_snapshot`.
pub use ce_obs::{MetricsRegistry, MetricsSnapshot};
pub use reservoir::{adapt_online_bounded, Reservoir};
pub use shard::{AdvisorShard, ShardedAdvisor};
