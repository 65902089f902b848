//! # ce-cluster — cross-process sharded advisor serving
//!
//! Takes the in-process advisor ([`autoce::AutoCe`], dealt over shard
//! ranges) across process boundaries: a [`ClusterCoordinator`] owns it as
//! the authority and fans partial top-k queries out to replicated
//! shard-server processes over loopback TCP, merging answers
//! **bit-identically** to the one-shard advisor — with any number of
//! replicas down short of a whole range.
//!
//! * [`protocol`]: the explicit versioned wire protocol — one PtoDesc-style
//!   step table whose rows declare each step and its message, fields in
//!   wire order, with the codec derived from the row (epoch-tagged tables,
//!   structured NACKs) over the compact binary codec in `serde::bin`, and
//!   the one frame reader both ends cut a byte stream with.
//! * [`transport`]: the `Conn`/`Connector` round-trip abstraction with
//!   per-request deadlines; TCP for production, a simulated network for
//!   tests (below).
//! * [`server`]: the shard-server state machine and TCP serving loop —
//!   two live epochs, version-pinned queries, NACK-don't-crash.
//! * [`coordinator`]: authority-first mutation, bounded retry with seeded
//!   exponential backoff, NACK-triggered reload, replica failover, epoch
//!   snapshot swaps.
//! * [`health`]: per-replica health records and the explicit
//!   degraded-mode report.
//!
//! See `docs/cluster-protocol.md` for the wire contract and the failover
//! state machine.
//!
//! # Fault harness
//!
//! The deterministic fault harness — `src/fault.rs` (fault schedules) and
//! `src/sim.rs` (the simulated network that executes them, `over_sim` and
//! `no_sleep`) — compiles into test targets only: this crate's unit tests
//! declare it under `#[cfg(test)]`, and integration tests mount the files
//! by `#[path]` from `tests/common/mod.rs`. It plugs in through
//! [`Connector`] and [`ClusterCoordinator::try_new`]. None of it is public:
//!
//! ```compile_fail,E0432
//! use ce_cluster::SimNet;
//! ```
//!
//! ```compile_fail,E0432
//! use ce_cluster::FaultPlan;
//! ```
//!
//! ```compile_fail,E0599
//! let _ = ce_cluster::ClusterConfig::no_sleep();
//! ```
//!
//! ```compile_fail,E0599
//! let _ = ce_cluster::ClusterCoordinator::over_sim;
//! ```

// Lets the harness files name this crate by the path their other mounts use.
extern crate self as ce_cluster;

pub mod coordinator;
pub mod health;
pub mod protocol;
pub mod server;
pub mod transport;

pub use coordinator::{ClusterConfig, ClusterCoordinator};
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
pub use transport::{Conn, Connector, TcpConnector, WireError};

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

// The fault harness and the workspace's synthetic advisors, for this
// crate's unit tests (see "Fault harness" above).

/// Expands a harness file's own unit tests in this crate only: a test
/// target that mounts the file by `#[path]` defines a `unit_tests!` that
/// drops them, so each of those tests is compiled into one target.
#[cfg(test)]
macro_rules! unit_tests {
    ($($item:item)*) => { $($item)* };
}

#[cfg(test)]
mod fault;
#[cfg(test)]
#[allow(dead_code)] // the coordinator's tests use `synthetic_flat` only
#[path = "../../autoce/src/fixtures.rs"]
mod fixtures;
#[cfg(test)]
mod sim;
