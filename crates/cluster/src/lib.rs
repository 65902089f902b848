//! # ce-cluster — cross-process sharded advisor serving
//!
//! Takes `ce-serve`'s in-process [`ShardedAdvisor`] across process
//! boundaries: a [`ClusterCoordinator`] owns the authority advisor and
//! fans partial top-k queries out to replicated shard-server processes
//! over loopback TCP, merging answers **bit-identically** to the flat
//! advisor — with any number of replicas down short of a whole range.
//!
//! * [`protocol`]: the explicit versioned wire protocol (PtoDesc-style
//!   numbered step enum, epoch-tagged tables, structured NACKs) over the
//!   compact binary codec in `serde::bin`.
//! * [`transport`]: the `Conn`/`Connector` round-trip abstraction with
//!   per-request deadlines; TCP for production, [`sim`] for tests.
//! * [`server`]: the shard-server state machine and TCP serving loop —
//!   two live epochs, version-pinned queries, NACK-don't-crash.
//! * [`coordinator`]: authority-first mutation, bounded retry with seeded
//!   exponential backoff, NACK-triggered reload, replica failover, epoch
//!   snapshot swaps.
//! * [`health`]: per-replica health records and the explicit
//!   degraded-mode report.
//! * [`fault`] + [`sim`]: deterministic fault-injection plans and the
//!   in-process network that executes them — same seed, same workload →
//!   same failure sequence → same coordinator event trace.
//!
//! See `docs/cluster-protocol.md` for the wire contract and the failover
//! state machine.

pub mod coordinator;
pub mod fault;
pub mod health;
pub mod protocol;
pub mod server;
pub mod sim;
pub mod transport;

pub use coordinator::{ClusterConfig, ClusterConfigBuilder, ClusterCoordinator, ClusterError};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use health::{ClusterHealth, ReplicaHealth, ReplicaStatus};
pub use protocol::{
    BatchQuery, EpochTable, Frame, Message, MetricsReply, MetricsRequest, NackCode, QueryBatch,
    Step, TopKBatch, PROTOCOL_VERSION, PTO_ID, PTO_NAME,
};
// Observability surface: the registry/snapshot types cluster callers need
// to configure `ClusterConfig::metrics` and read aggregations.
pub use ce_obs::{MetricsRegistry, MetricsSnapshot};
pub use server::{
    maybe_run_shard_server_from_args, shard_server_main, spawn_shard_process, ShardState,
    READY_LINE_PREFIX,
};
pub use sim::SimNet;
pub use transport::{Conn, Connector, TcpConnector, WireError};

// Re-exported so cluster users need not depend on ce-serve directly for
// the common path.
pub use ce_serve::ShardedAdvisor;

/// One `name{step=…}` counter per defined step, indexed by wire number
/// (a retired number holds an unregistered no-op handle).
pub(crate) fn per_step_counters(registry: &MetricsRegistry, name: &str) -> Vec<ce_obs::Counter> {
    let mut out = Vec::new();
    for step in Step::all() {
        out.resize(step as usize + 1, ce_obs::Counter::default());
        out[step as usize] = registry.counter(name, &[("step", step.name())]);
    }
    out
}
