//! The cluster coordinator: the authority copy of the sharded advisor
//! plus the replicated wire fan-out.
//!
//! # Authority-first discipline
//!
//! The coordinator owns a full [`ShardedAdvisor`] (the *authority*):
//! every mutation — push, embedding refresh, epoch advance — applies to
//! the authority first, and remote shard tables are pure derived state
//! (`(ids, embeddings)` projections of one authority range). Any replica
//! inconsistency, however it arose (missed push, restart, torn frame), is
//! repaired the same way: reload the authority's current table. That one
//! rule makes failure handling boring, which is the point.
//!
//! # Pipelined range fan-out
//!
//! A prediction needs one partial top-k answer per shard range, and there
//! is one routine that gets them: a batch of queries (a single query is a
//! batch of one) rides one `QueryBatch` frame per range. Paying the round
//! trips serially sums them; the coordinator instead issues the frame to
//! every range's first candidate replica (all sends, fixed range order),
//! then collects the answers in the same fixed order (all recvs), so the
//! per-range round trips overlap on the wire. Any optimistic failure —
//! transport error or NACK — is traced and repaired, and that range falls
//! back to the full bounded retry/failover loop; *which* attempt produced
//! the answer cannot change a bit of it.
//!
//! # Replica demotion
//!
//! A replica whose dead-streak reaches [`ClusterConfig::demote_after`] is
//! **demoted**: the query/push/snapshot paths stop selecting it, so a
//! degraded cluster stops paying a refused dial on every request. Only
//! [`ClusterCoordinator::heartbeat`] and [`ClusterCoordinator::bootstrap`]
//! still touch demoted replicas, and any successful round trip
//! re-promotes (heartbeat's stale-table check then reloads a replica that
//! restarted empty). Last-hope exception: if *every* replica of a range
//! is demoted, the query path considers all of them rather than failing
//! without trying. Both transitions are traced (`demote …` /
//! `repromote …`).
//!
//! # Determinism and the event trace
//!
//! Each range lane buffers its events in a private sub-trace;
//! public operations drain the lanes into the global trace in fixed range
//! order when they finish. The merged trace is therefore a deterministic
//! function of (workload, fault plan, seed) — byte-for-byte reproducible
//! across runs and unchanged by how the pipelined phases interleave on
//! the wire.
//!
//! # Bit-identity under failure
//!
//! Partial top-k answers come off the wire, but every float they carry
//! was computed by the same [`knn::partial_topk`] the in-process
//! [`ShardedAdvisor`] calls, over embedding bits that traveled
//! bit-exactly, in the same slot order. The merge and vote
//! ([`knn::merge_vote`]) run coordinator-side on authority metadata.
//! Replicas of a range hold identical tables (they NACK rather than serve
//! stale ones), so *which* replica answers — first choice, retry,
//! failover, or a freshly re-promoted one — cannot change a single bit of
//! the recommendation. Only when every replica of some range is
//! unreachable does the coordinator fail, explicitly, with
//! [`ClusterError::RangeUnavailable`].
//!
//! # Concurrency
//!
//! All public methods take `&self`: the coordinator serializes itself
//! behind one internal mutex, so it can sit behind `ce-serve`'s
//! micro-batcher as an [`AdvisorBackend`] (shared via `Arc`) like any
//! other backend. Operations still execute one at a time — that is what
//! keeps retries, failover and the event trace strictly ordered, and
//! therefore reproducible; the concurrency story (batching many client
//! threads into few coordinator calls) lives a layer up.

use crate::health::{ClusterHealth, ReplicaHealth};
use crate::per_step_counters;
use crate::protocol::{
    EpochAck, EpochTable, Frame, Load, LoadAck, Message, MetricsReply, MetricsRequest, Nack,
    NackCode, Ping, Pong, Push, PushAck, QueryBatch, SnapshotEpoch, Step, TopKBatch, HEADER_LEN,
};
use crate::transport::{Conn, Connector, WireError};
use autoce::{knn, validate_nonzero, AdvisorBackend, AdvisorError, BatchPredictRequest};
use ce_features::{FeatureConfig, FeatureGraph};
use ce_models::ModelKind;
use ce_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot, Span, LATENCY_NS_BUCKETS};
use ce_serve::ShardedAdvisor;
use ce_testbed::{DatasetLabel, MetricWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Robustness knobs for the wire fan-out. Prefer [`ClusterConfig::builder`],
/// which rejects nonsensical combinations at build time; the struct-literal
/// form keeps working but performs no validation.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-request round-trip deadline.
    pub request_deadline: Duration,
    /// Attempts per replica before failing over to the next one.
    pub max_attempts_per_replica: u32,
    /// Base of the exponential backoff between retries.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Consecutive failures after which a replica is demoted out of
    /// regular traffic (see the module docs). Re-promotion happens on any
    /// successful round trip — in practice via [`ClusterCoordinator::heartbeat`].
    pub demote_after: u32,
    /// Seed for backoff jitter (jitter is deterministic given the seed
    /// and the failure sequence — it never appears in the event trace).
    pub seed: u64,
    /// Metrics registry the coordinator records into (default: disabled —
    /// every handle is a no-op). Recording is a strictly read-only side
    /// channel: it never takes a lock beyond the coordinator mutex the
    /// caller already holds, never routes through the transport, and
    /// never appends an event-trace line, so fault-plan step arithmetic
    /// and trace bytes are identical with metrics on or off. Under
    /// `SimNet`, pass [`MetricsRegistry::new_logical`] so RTT spans count
    /// logical ticks instead of wall time and exposition replays
    /// byte-equal.
    pub metrics: MetricsRegistry,
    /// Two-stage KNN index configuration for the coordinator's
    /// **authority** advisor (installed at construction). Shard servers
    /// carry their own operator-side knob ([`crate::server::ShardState::set_index_config`]);
    /// nothing index-related crosses the wire, and indexed and flat
    /// answers are bit-identical, so the two knobs need not agree.
    pub index: Option<autoce::index::IndexConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            request_deadline: Duration::from_secs(2),
            max_attempts_per_replica: 3,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            demote_after: 3,
            seed: 0xc105,
            metrics: MetricsRegistry::disabled(),
            index: None,
        }
    }
}

impl ClusterConfig {
    /// A config with zero backoff sleeps — what the deterministic
    /// gauntlet uses so fault sweeps run at memory speed.
    pub fn no_sleep() -> Self {
        ClusterConfig {
            backoff_base: Duration::ZERO,
            backoff_max: Duration::ZERO,
            ..ClusterConfig::default()
        }
    }

    /// Validated construction: rejects impossible knob combinations when
    /// the config is built instead of when the first request fails.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig::default(),
        }
    }
}

/// Builder for [`ClusterConfig`]; see [`ClusterConfig::builder`].
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Sets the per-request round-trip deadline.
    pub fn request_deadline(mut self, d: Duration) -> Self {
        self.cfg.request_deadline = d;
        self
    }

    /// Sets the attempts per replica before failover.
    pub fn max_attempts_per_replica(mut self, n: u32) -> Self {
        self.cfg.max_attempts_per_replica = n;
        self
    }

    /// Sets the backoff base.
    pub fn backoff_base(mut self, d: Duration) -> Self {
        self.cfg.backoff_base = d;
        self
    }

    /// Sets the backoff ceiling.
    pub fn backoff_max(mut self, d: Duration) -> Self {
        self.cfg.backoff_max = d;
        self
    }

    /// Sets the demotion dead-streak threshold.
    pub fn demote_after(mut self, n: u32) -> Self {
        self.cfg.demote_after = n;
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the metrics registry (see [`ClusterConfig::metrics`]).
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.cfg.metrics = registry;
        self
    }

    /// Sets the authority-side KNN index configuration (see
    /// [`ClusterConfig::index`]). Structural validation runs at
    /// [`Self::build`]; the `k`-dependent cutover check runs at
    /// coordinator construction, when the authority's `k` is known.
    pub fn index(mut self, cfg: autoce::index::IndexConfig) -> Self {
        self.cfg.index = Some(cfg);
        self
    }

    /// Zeroes the backoff sleeps (deterministic-gauntlet mode).
    pub fn no_sleep(mut self) -> Self {
        self.cfg.backoff_base = Duration::ZERO;
        self.cfg.backoff_max = Duration::ZERO;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<ClusterConfig, AdvisorError> {
        validate_nonzero(
            "max_attempts_per_replica",
            self.cfg.max_attempts_per_replica as usize,
        )?;
        validate_nonzero("demote_after", self.cfg.demote_after as usize)?;
        if self.cfg.request_deadline.is_zero() && self.cfg.max_attempts_per_replica > 1 {
            return Err(AdvisorError::InvalidConfig(
                "request_deadline must be non-zero when retries are configured \
                 (every retry would time out instantly)"
                    .into(),
            ));
        }
        if let Some(index) = &self.cfg.index {
            index.validate()?;
        }
        Ok(self.cfg)
    }
}

/// A terminal cluster failure (retries and failover already exhausted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Every replica of `range` is unreachable or unusable.
    RangeUnavailable {
        /// The dark range.
        range: usize,
    },
    /// A peer answered something protocol-violating that retries cannot
    /// fix.
    Protocol(String),
    /// The authority holds no RCS entry a query may select (empty, or its
    /// only entry excluded); nothing was sent.
    EmptyRcs,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::RangeUnavailable { range } => {
                write!(f, "no live replica for shard range {range}")
            }
            ClusterError::Protocol(d) => write!(f, "protocol violation: {d}"),
            ClusterError::EmptyRcs => {
                f.write_str("no selectable RCS entry (empty or all excluded)")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClusterError> for AdvisorError {
    fn from(e: ClusterError) -> Self {
        match e {
            ClusterError::RangeUnavailable { range } => AdvisorError::RangeUnavailable { range },
            ClusterError::Protocol(d) => AdvisorError::Protocol(d),
            ClusterError::EmptyRcs => AdvisorError::EmptyRcs,
        }
    }
}

struct Replica {
    connector: Box<dyn Connector>,
    conn: Option<Box<dyn Conn>>,
    health: ReplicaHealth,
}

/// One lane's metrics handles, registered once at construction (the cold
/// path) so every recording site is a plain `fetch_add` under the
/// coordinator mutex the caller already holds — never a registry lock,
/// never a transport call, never a trace line.
struct LaneObs {
    /// `ce_cluster_rtt_ns{range}`: completed round-trip attempts (success
    /// or wire failure), optimistic and retried alike.
    rtt_ns: Histogram,
    /// `ce_cluster_retries_total{range}`: second-and-later attempts on the
    /// same replica.
    retries: Counter,
    /// `ce_cluster_backoffs_total{range}`: actual backoff sleeps (zero
    /// under `no_sleep` configs — the counter reports real waiting, not
    /// retry pressure; see `retries` for that).
    backoffs: Counter,
    /// `ce_cluster_failovers_total{range}`.
    failovers: Counter,
    /// `ce_cluster_reloads_total{range}`.
    reloads: Counter,
    /// `ce_cluster_demotes_total{range}` / `ce_cluster_repromotes_total{range}`.
    demotes: Counter,
    repromotes: Counter,
    /// `ce_cluster_replica_failures_total{range}`: every failed
    /// dial/send/recv, pre-demotion.
    replica_failures: Counter,
    /// `ce_cluster_nacks_total{range,code}`, indexed by `NackCode as u16 - 1`.
    nacks: [Counter; 4],
    /// `ce_cluster_wire_bytes_out_total{step}` / `_in_total{step}`,
    /// indexed by step number. The cells are shared across lanes (same
    /// key → same cell), so these count cluster-wide wire traffic.
    bytes_out: Vec<Counter>,
    bytes_in: Vec<Counter>,
}

impl LaneObs {
    fn new(reg: &MetricsRegistry, range: usize) -> Self {
        let rs = range.to_string();
        let labels = [("range", rs.as_str())];
        let c = |name: &str| reg.counter(name, &labels);
        let nack =
            |code: &str| reg.counter("ce_cluster_nacks_total", &[("range", &rs), ("code", code)]);
        LaneObs {
            rtt_ns: reg.histogram("ce_cluster_rtt_ns", &labels, LATENCY_NS_BUCKETS),
            retries: c("ce_cluster_retries_total"),
            backoffs: c("ce_cluster_backoffs_total"),
            failovers: c("ce_cluster_failovers_total"),
            reloads: c("ce_cluster_reloads_total"),
            demotes: c("ce_cluster_demotes_total"),
            repromotes: c("ce_cluster_repromotes_total"),
            replica_failures: c("ce_cluster_replica_failures_total"),
            nacks: [
                nack("stale_table"),
                nack("malformed"),
                nack("no_table"),
                nack("version_skew"),
            ],
            bytes_out: per_step_counters(reg, "ce_cluster_wire_bytes_out_total"),
            bytes_in: per_step_counters(reg, "ce_cluster_wire_bytes_in_total"),
        }
    }

    fn nack(&self, code: NackCode) {
        self.nacks[code as u16 as usize - 1].inc();
    }
}

/// One shard range's replica set plus everything range-scoped: health,
/// demotion state, a private sub-trace, the lane's backoff jitter stream,
/// and the cached repair (`Load`) frame.
struct RangeLane {
    /// Fixed preference order within the range.
    replicas: Vec<Replica>,
    /// Per-lane jitter stream (seeded from the config seed and the range
    /// index, so lanes stay independent of each other's failure counts).
    rng: StdRng,
    /// Buffered events; drained into the global trace in fixed range
    /// order at the end of each public operation.
    sub: Vec<String>,
    /// Cached repair frame keyed by `(epoch, version)` — rebuilding the
    /// full table frame on every reload would re-encode the whole range.
    /// The key is self-validating: any authority mutation changes the
    /// version (push) or the epoch (snapshot).
    load_frame: Option<(u64, u64, Frame)>,
    /// Metrics handles (no-ops when the registry is disabled).
    obs: LaneObs,
    /// RTT span of the in-flight request, opened by [`Self::raw_send`]
    /// and closed (recorded) by [`Self::raw_recv`]. At most one request
    /// is ever in flight per lane.
    rtt_span: Option<Span>,
}

impl RangeLane {
    /// Records a failed dial/send/recv and applies the demotion
    /// transition when the dead-streak reaches the threshold.
    fn record_failure(&mut self, range: usize, cfg: &ClusterConfig, r: usize) {
        self.obs.replica_failures.inc();
        let h = &mut self.replicas[r].health;
        h.record_failure();
        if !h.demoted && h.consecutive_failures >= u64::from(cfg.demote_after) {
            h.demoted = true;
            let streak = h.consecutive_failures;
            self.obs.demotes.inc();
            self.sub
                .push(format!("demote range={range} r={r} streak={streak}"));
        }
    }

    /// Records a successful round trip; a demoted replica that answers is
    /// re-promoted on the spot.
    fn record_success(&mut self, range: usize, r: usize) {
        let h = &mut self.replicas[r].health;
        h.record_success();
        if h.demoted {
            h.demoted = false;
            self.obs.repromotes.inc();
            self.sub.push(format!("repromote range={range} r={r}"));
        }
    }

    /// Issues `frame` to replica `r`, dialing first if needed. Failures
    /// poison the connection and are recorded; the reply (or the wire
    /// failure) is collected by [`Self::raw_recv`].
    fn raw_send(
        &mut self,
        range: usize,
        cfg: &ClusterConfig,
        r: usize,
        frame: &Frame,
    ) -> Result<(), WireError> {
        if self.replicas[r].conn.is_none() {
            match self.replicas[r].connector.connect() {
                Ok(conn) => self.replicas[r].conn = Some(conn),
                Err(e) => {
                    self.sub.push(format!("dial-err range={range} r={r}: {e}"));
                    self.record_failure(range, cfg, r);
                    return Err(e);
                }
            }
        }
        let res = self.replicas[r]
            .conn
            .as_mut()
            .expect("dialed above")
            .send(frame, cfg.request_deadline);
        match &res {
            Ok(()) => {
                self.obs.bytes_out[frame.step as u16 as usize]
                    .add((HEADER_LEN + frame.payload.len()) as u64);
                self.rtt_span = Some(self.obs.rtt_ns.start_span());
            }
            Err(e) => {
                self.replicas[r].conn = None;
                self.sub.push(format!("send-err range={range} r={r}: {e}"));
                self.record_failure(range, cfg, r);
            }
        }
        res
    }

    /// Collects the answer to the last [`Self::raw_send`] on replica `r`.
    fn raw_recv(
        &mut self,
        range: usize,
        cfg: &ClusterConfig,
        r: usize,
    ) -> Result<Frame, WireError> {
        let Some(conn) = self.replicas[r].conn.as_mut() else {
            return Err(WireError::Closed("recv without a live connection".into()));
        };
        let res = conn.recv(cfg.request_deadline);
        // Dropping the span records the attempt's round trip — completed
        // and failed attempts alike, so the histogram reflects what the
        // wire actually cost, not only the happy path.
        drop(self.rtt_span.take());
        match res {
            Ok(reply) => {
                self.obs.bytes_in[reply.step as u16 as usize]
                    .add((HEADER_LEN + reply.payload.len()) as u64);
                self.record_success(range, r);
                Ok(reply)
            }
            Err(e) => {
                self.replicas[r].conn = None;
                self.sub.push(format!("call-err range={range} r={r}: {e}"));
                self.record_failure(range, cfg, r);
                Err(e)
            }
        }
    }

    /// One full round trip to replica `r`.
    fn raw_call(
        &mut self,
        range: usize,
        cfg: &ClusterConfig,
        r: usize,
        frame: &Frame,
    ) -> Result<Frame, WireError> {
        self.raw_send(range, cfg, r, frame)?;
        self.raw_recv(range, cfg, r)
    }

    /// Preference-ordered candidate replicas: demoted ones are skipped so
    /// a degraded cluster stops paying a refused dial per request —
    /// unless *all* replicas are demoted, in which case every one is a
    /// candidate (last hope beats certain failure).
    fn candidates(&self) -> Vec<usize> {
        let live: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| !self.replicas[r].health.demoted)
            .collect();
        if live.is_empty() {
            (0..self.replicas.len()).collect()
        } else {
            live
        }
    }

    fn backoff(&mut self, cfg: &ClusterConfig, attempt: u32) {
        let base = cfg.backoff_base;
        if base.is_zero() {
            return;
        }
        self.obs.backoffs.inc();
        let exp = base.saturating_mul(1u32 << attempt.min(10));
        let capped = exp.min(cfg.backoff_max);
        // Up to +50% seeded jitter, deterministic per lane.
        let jitter = self.rng.gen_range(0..256u64) as f64 / 512.0;
        std::thread::sleep(capped.mul_f64(1.0 + jitter));
    }

    /// Reloads replica `r` from the lane's cached `Load` frame (primed by
    /// the coordinator against the authority before any operation that
    /// may need repair). This is both bootstrap and *the* repair action.
    fn load_replica(
        &mut self,
        range: usize,
        cfg: &ClusterConfig,
        r: usize,
    ) -> Result<(), WireError> {
        let (epoch, version, frame) = self
            .load_frame
            .clone()
            .expect("load frame primed before any repair path");
        let reply = self.raw_call(range, cfg, r, &frame)?;
        let ack = LoadAck::from_frame(&reply).map_err(|e| WireError::Frame(e.to_string()))?;
        if (ack.epoch, ack.version) != (epoch, version) {
            return Err(WireError::Frame(format!(
                "load ack mismatch: want ({epoch},{version}), got ({},{})",
                ack.epoch, ack.version
            )));
        }
        self.replicas[r].health.record_reload();
        self.obs.reloads.inc();
        self.sub.push(format!(
            "reload range={range} r={r} epoch={epoch} v={version}"
        ));
        Ok(())
    }

    /// Reacts to a NACK answer from replica `r`: trace it, then apply the
    /// one repair action its code calls for (reload for table mismatches,
    /// re-dial for a damaged request). A `VersionSkew` NACK has no repair
    /// and is the caller's terminal error.
    fn on_nack(
        &mut self,
        range: usize,
        cfg: &ClusterConfig,
        r: usize,
        reply: &Frame,
    ) -> Result<(), ClusterError> {
        match Nack::from_frame(reply) {
            Ok(nack) => {
                self.obs.nack(nack.code);
                self.sub.push(format!(
                    "nack range={range} r={r} {:?}: {}",
                    nack.code, nack.detail
                ));
                match nack.code {
                    NackCode::StaleTable | NackCode::NoTable => {
                        let _ = self.load_replica(range, cfg, r);
                    }
                    NackCode::Malformed => {
                        // Our request arrived damaged — drop the conn and
                        // resend over a fresh one.
                        self.replicas[r].conn = None;
                    }
                    NackCode::VersionSkew => {
                        // The peer speaks another protocol version: no
                        // repair applies and a retry would skew again.
                        // Fail typed, at once — retrying to range-dark
                        // would turn an operator's pin into an outage.
                        return Err(ClusterError::Protocol(format!(
                            "range {range} replica {r} refused the wire version: {}",
                            nack.detail
                        )));
                    }
                }
            }
            Err(e) => {
                self.sub.push(format!("bad-nack range={range} r={r}: {e}"));
                self.replicas[r].conn = None;
            }
        }
        Ok(())
    }

    /// The retry/failover loop of this lane: bounded retries with backoff
    /// per candidate replica (demotion-aware), NACK-triggered repair, then
    /// failover to the next candidate. Returns the first non-NACK answer.
    fn call_range(
        &mut self,
        range: usize,
        cfg: &ClusterConfig,
        frame: &Frame,
    ) -> Result<Frame, ClusterError> {
        for (i, r) in self.candidates().into_iter().enumerate() {
            if i > 0 {
                self.obs.failovers.inc();
                self.sub.push(format!("failover range={range} to r={r}"));
            }
            for attempt in 0..cfg.max_attempts_per_replica {
                if attempt > 0 {
                    self.obs.retries.inc();
                }
                let reply = match self.raw_call(range, cfg, r, frame) {
                    Ok(reply) => reply,
                    Err(_) => {
                        // raw_call already traced and recorded the failure.
                        self.backoff(cfg, attempt);
                        continue;
                    }
                };
                if reply.step != Step::ShardSendNack {
                    return Ok(reply);
                }
                self.on_nack(range, cfg, r, &reply)?;
                self.backoff(cfg, attempt);
            }
        }
        self.sub.push(format!("range-dark range={range}"));
        Err(ClusterError::RangeUnavailable { range })
    }

    /// Best-effort metrics fetch from replica `r` over
    /// [`Step::CoordSendMetrics`]. Deliberately outside the normal call
    /// discipline: no retries, no health transitions, no trace lines and
    /// no wire-byte accounting — observing the cluster must not change
    /// how the cluster is observed to behave. Any failure (down replica,
    /// NACK, corrupt snapshot) just yields `None`.
    fn fetch_metrics(&mut self, cfg: &ClusterConfig, r: usize) -> Option<MetricsSnapshot> {
        if self.replicas[r].conn.is_none() {
            self.replicas[r].conn = self.replicas[r].connector.connect().ok();
        }
        let conn = self.replicas[r].conn.as_mut()?;
        let frame = MetricsRequest.into_frame();
        if conn.send(&frame, cfg.request_deadline).is_err() {
            self.replicas[r].conn = None;
            return None;
        }
        let reply = match conn.recv(cfg.request_deadline) {
            Ok(f) => f,
            Err(_) => {
                self.replicas[r].conn = None;
                return None;
            }
        };
        let reply = MetricsReply::from_frame(&reply).ok()?;
        MetricsSnapshot::from_bytes(&reply.snapshot).ok()
    }
}

/// Everything behind the coordinator's mutex; see [`ClusterCoordinator`].
struct CoordInner {
    authority: ShardedAdvisor,
    cfg: ClusterConfig,
    /// Current serving epoch (the generation tag extended to the wire).
    epoch: u64,
    /// `lanes[range]`, fixed range order.
    lanes: Vec<RangeLane>,
    ping_nonce: u64,
    trace: Vec<String>,
}

impl CoordInner {
    fn make_table(&self, range: usize) -> EpochTable {
        let shard = &self.authority.shards()[range];
        EpochTable {
            epoch: self.epoch,
            ids: shard.ids().iter().map(|&id| id as u64).collect(),
            embeddings: shard
                .entries()
                .iter()
                .map(|e| e.embedding.clone())
                .collect(),
        }
    }

    /// Re-derives lane `range`'s cached `Load` frame when its
    /// `(epoch, version)` key no longer matches the authority.
    fn prime_load_frame(&mut self, range: usize) {
        let version = self.authority.shards()[range].len() as u64;
        if matches!(&self.lanes[range].load_frame,
                    Some((e, v, _)) if (*e, *v) == (self.epoch, version))
        {
            return;
        }
        let table = self.make_table(range);
        debug_assert_eq!(table.version(), version);
        self.lanes[range].load_frame = Some((self.epoch, version, Load(table).into_frame()));
    }

    /// Drains every lane's sub-trace into the global trace, fixed range
    /// order — the deterministic merge point described in the module docs.
    fn merge_trace(&mut self) {
        let trace = &mut self.trace;
        for lane in &mut self.lanes {
            trace.append(&mut lane.sub);
        }
    }

    fn health(&self) -> ClusterHealth {
        ClusterHealth {
            ranges: self
                .lanes
                .iter()
                .map(|lane| lane.replicas.iter().map(|r| r.health.clone()).collect())
                .collect(),
        }
    }

    fn bootstrap(&mut self) -> Result<(), ClusterError> {
        for range in 0..self.lanes.len() {
            self.prime_load_frame(range);
            let lane = &mut self.lanes[range];
            let mut live = 0usize;
            // All replicas, demoted included: bootstrap doubles as a
            // whole-cluster resync and re-promotion pass.
            for r in 0..lane.replicas.len() {
                if lane.load_replica(range, &self.cfg, r).is_ok() {
                    live += 1;
                }
            }
            if live == 0 {
                lane.sub.push(format!("range-dark range={range}"));
                return Err(ClusterError::RangeUnavailable { range });
            }
        }
        Ok(())
    }

    /// The wire fan-out — the coordinator's one query routine. One
    /// [`QueryBatch`] frame per non-empty range carries the whole batch (a
    /// single query is a batch of one), so a B-deep batch over R ranges
    /// pays R round trips instead of B×R. The per-query clamp
    /// ([`knn::select_k`]) and the merge and vote ([`knn::merge_vote`])
    /// are the calls [`ShardedAdvisor::predict_excluding`] makes around
    /// its in-process scans. Full answers or a typed error, never a
    /// partial merge.
    fn predict_batch(
        &mut self,
        queries: &[BatchPredictRequest<'_>],
    ) -> Result<Vec<(ModelKind, Vec<f64>)>, ClusterError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let len = self.authority.len();
        let k = self.authority.config().k;
        // Per-query clamp (k depends on each query's exclusion). A query
        // with nothing to select fails the whole batch here, before any
        // frame is built.
        let ks: Vec<usize> = (queries.iter())
            .map(|q| knn::select_k(k, len, q.exclude).map_err(|_| ClusterError::EmptyRcs))
            .collect::<Result<_, _>>()?;
        let ranges = self.lanes.len();

        // The ranges' frames differ only in their pin: the query section
        // is encoded once, from the borrowed embeddings. An exclusion
        // outside the RCS travels as "none".
        let mut tail = Vec::new();
        QueryBatch::encode_queries(
            queries.iter().zip(&ks).map(|(q, &k)| {
                let exclude = if q.exclude < len {
                    q.exclude as u64
                } else {
                    u64::MAX
                };
                (q.embedding, k as u64, exclude)
            }),
            &mut tail,
        );
        // An empty shard's partial top-k is empty; skip the trip entirely.
        let mut frames: Vec<Option<Frame>> = Vec::with_capacity(ranges);
        for range in 0..ranges {
            let shard_len = self.authority.shards()[range].len() as u64;
            frames.push(
                (shard_len > 0).then(|| QueryBatch::frame_with_tail(self.epoch, shard_len, &tail)),
            );
            // A NACK in the collect phase may need the repair frame.
            self.prime_load_frame(range);
        }

        // Issue phase: optimistically send each range's frame to its
        // first candidate replica, in fixed range order, so the round
        // trips overlap instead of summing.
        let mut issued: Vec<Option<usize>> = vec![None; ranges];
        for range in 0..ranges {
            let Some(frame) = frames[range].as_ref() else {
                continue;
            };
            let lane = &mut self.lanes[range];
            let r = lane.candidates()[0];
            if lane.raw_send(range, &self.cfg, r, frame).is_ok() {
                issued[range] = Some(r);
            }
        }

        // Collect phase, fixed range order; one partial list per query
        // accumulates across ranges. Any optimistic failure is handled
        // (health, trace, repair) and the range falls back to the full
        // retry/failover loop.
        let mut merged: Vec<Vec<(usize, f32)>> = vec![Vec::new(); queries.len()];
        for range in 0..ranges {
            let Some(frame) = frames[range].as_ref() else {
                continue;
            };
            let lane = &mut self.lanes[range];
            let mut fast = None;
            if let Some(r) = issued[range] {
                match lane.raw_recv(range, &self.cfg, r) {
                    Ok(f) if f.step != Step::ShardSendNack => fast = Some(f),
                    Ok(f) => lane.on_nack(range, &self.cfg, r, &f)?,
                    Err(_) => {}
                }
            }
            let reply = match fast {
                Some(f) => f,
                None => lane.call_range(range, &self.cfg, frame)?,
            };
            let tb =
                TopKBatch::from_frame(&reply).map_err(|e| ClusterError::Protocol(e.to_string()))?;
            if tb.lists.len() != queries.len() {
                // Never a partial merge: a count mismatch is a protocol
                // violation, not a short answer.
                return Err(ClusterError::Protocol(format!(
                    "batched reply carries {} lists for {} queries",
                    tb.lists.len(),
                    queries.len()
                )));
            }
            for (m, list) in merged.iter_mut().zip(&tb.lists) {
                m.extend(list.iter().map(|&(id, d)| (id as usize, d)));
            }
        }

        Ok((queries.iter().zip(ks).zip(merged))
            .map(|((q, k), m)| knn::merge_vote(m, k, q.w, |id| self.authority.entry(id)))
            .collect())
    }

    fn push_entry(
        &mut self,
        graph: FeatureGraph,
        label: &DatasetLabel,
    ) -> Result<usize, ClusterError> {
        let global = self.authority.push_entry(graph, label);
        let range = self
            .authority
            .shards()
            .iter()
            .position(|s| s.ids().last() == Some(&global))
            .expect("pushed entry must land in some shard");
        let version_before = (self.authority.shards()[range].len() - 1) as u64;
        let push = Push {
            epoch: self.epoch,
            version: version_before,
            id: global as u64,
            embedding: self.authority.entry(global).embedding.clone(),
        };
        let frame = push.into_frame();
        // Prime *after* the authority push so repair reloads carry the
        // post-push table.
        self.prime_load_frame(range);
        let epoch = self.epoch;
        let lane = &mut self.lanes[range];
        // Candidates only: a demoted replica misses the push and is
        // resynced by the reload that follows its re-promotion.
        for r in lane.candidates() {
            let synced = match lane.raw_call(range, &self.cfg, r, &frame) {
                Ok(reply) => matches!(
                    PushAck::from_frame(&reply),
                    Ok(ack) if ack.epoch == epoch && ack.version == version_before + 1
                ),
                Err(_) => false,
            };
            if synced {
                lane.sub.push(format!(
                    "push range={range} r={r} id={global} v={}",
                    version_before + 1
                ));
            } else {
                // A push retry is not idempotent (the shard may have
                // applied it before losing the ack); reload is.
                let _ = lane.load_replica(range, &self.cfg, r);
            }
        }
        Ok(global)
    }

    fn refresh_and_snapshot(&mut self) -> Result<u64, ClusterError> {
        self.authority.refresh_embeddings();
        self.epoch += 1;
        self.trace.push(format!("snapshot-epoch {}", self.epoch));
        for range in 0..self.lanes.len() {
            self.prime_load_frame(range);
            let table = self.make_table(range);
            let (epoch, version) = (table.epoch, table.version());
            let frame = SnapshotEpoch(table).into_frame();
            let lane = &mut self.lanes[range];
            let mut staged = 0usize;
            for r in lane.candidates() {
                let ok = match lane.raw_call(range, &self.cfg, r, &frame) {
                    Ok(reply) => matches!(
                        EpochAck::from_frame(&reply),
                        Ok(ack) if (ack.epoch, ack.version) == (epoch, version)
                    ),
                    Err(_) => false,
                };
                if ok {
                    staged += 1;
                    lane.sub
                        .push(format!("epoch-ack range={range} r={r} epoch={epoch}"));
                } else if lane.load_replica(range, &self.cfg, r).is_ok() {
                    // Reload carries the new epoch's table, so it counts.
                    staged += 1;
                }
            }
            if staged == 0 {
                lane.sub.push(format!("range-dark range={range}"));
                return Err(ClusterError::RangeUnavailable { range });
            }
        }
        Ok(self.epoch)
    }

    fn heartbeat(&mut self) -> ClusterHealth {
        for range in 0..self.lanes.len() {
            self.prime_load_frame(range);
            let want_version = self.authority.shards()[range].len() as u64;
            let epoch = self.epoch;
            let lane = &mut self.lanes[range];
            // All replicas, demoted included: the heartbeat is the
            // re-promotion path.
            for r in 0..lane.replicas.len() {
                self.ping_nonce += 1;
                let nonce = self.ping_nonce;
                // raw_call failures already record health + trace; only a
                // successful reply needs inspecting here.
                if let Ok(reply) = lane.raw_call(range, &self.cfg, r, &Ping { nonce }.into_frame())
                {
                    match Pong::from_frame(&reply) {
                        Ok(pong)
                            if pong.nonce == nonce
                                && pong.epoch == epoch
                                && pong.version == want_version => {}
                        Ok(_) => {
                            lane.sub.push(format!("stale-pong range={range} r={r}"));
                            let _ = lane.load_replica(range, &self.cfg, r);
                        }
                        Err(e) => {
                            lane.sub.push(format!("bad-pong range={range} r={r}: {e}"));
                            lane.replicas[r].conn = None;
                        }
                    }
                }
            }
        }
        self.health()
    }

    fn shutdown_cluster(&mut self) {
        let frame = crate::protocol::Shutdown.into_frame();
        for range in 0..self.lanes.len() {
            let lane = &mut self.lanes[range];
            for r in 0..lane.replicas.len() {
                let _ = lane.raw_call(range, &self.cfg, r, &frame);
                lane.replicas[r].conn = None;
            }
        }
    }
}

/// The coordinator. All methods take `&self` (one internal mutex
/// serializes operations — see the module docs), so a shared
/// `Arc<ClusterCoordinator>` can sit behind `ce-serve`'s micro-batcher as
/// an [`AdvisorBackend`] like any in-process backend.
pub struct ClusterCoordinator {
    inner: Mutex<CoordInner>,
    /// Clone of the config's registry, held outside the mutex so
    /// [`Self::metrics`] exposes local counters without touching the
    /// serving lock.
    metrics: MetricsRegistry,
}

impl ClusterCoordinator {
    /// Tolerates mutex poisoning: a panic mid-operation leaves at worst a
    /// stale replica or an unmerged sub-trace, and both are repaired by
    /// the same reload/merge discipline as any other inconsistency.
    fn lock(&self) -> MutexGuard<'_, CoordInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Builds a coordinator over `authority` with `connectors[range][r]`
    /// dialing the replicas of each authority shard range, rejecting an
    /// invalid topology (mismatched range count, a range with zero
    /// replicas) at build time. Call [`Self::bootstrap`] before serving.
    pub fn try_new(
        mut authority: ShardedAdvisor,
        connectors: Vec<Vec<Box<dyn Connector>>>,
        cfg: ClusterConfig,
    ) -> Result<Self, AdvisorError> {
        if let Some(index) = &cfg.index {
            authority.install_index(index, &cfg.metrics)?;
        }
        if connectors.len() != authority.num_shards() {
            return Err(AdvisorError::InvalidConfig(format!(
                "replica sets ({}) must match authority shard ranges ({})",
                connectors.len(),
                authority.num_shards()
            )));
        }
        if let Some(range) = connectors.iter().position(|r| r.is_empty()) {
            return Err(AdvisorError::InvalidConfig(format!(
                "range {range} has zero replicas; every range needs at least one"
            )));
        }
        let lanes = connectors
            .into_iter()
            .enumerate()
            .map(|(range, conns)| RangeLane {
                replicas: conns
                    .into_iter()
                    .map(|connector| Replica {
                        health: ReplicaHealth::new(connector.label()),
                        connector,
                        conn: None,
                    })
                    .collect(),
                // splitmix-style spread so lane streams differ even for
                // adjacent ranges under any seed.
                rng: StdRng::seed_from_u64(
                    cfg.seed ^ (range as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                sub: Vec::new(),
                load_frame: None,
                obs: LaneObs::new(&cfg.metrics, range),
                rtt_span: None,
            })
            .collect();
        let metrics = cfg.metrics.clone();
        Ok(ClusterCoordinator {
            inner: Mutex::new(CoordInner {
                authority,
                cfg,
                epoch: 0,
                lanes,
                ping_nonce: 0,
                trace: Vec::new(),
            }),
            metrics,
        })
    }

    /// [`Self::try_new`] that panics on an invalid topology — the
    /// historical constructor shape, kept for call sites that construct
    /// from static topology.
    pub fn new(
        authority: ShardedAdvisor,
        connectors: Vec<Vec<Box<dyn Connector>>>,
        cfg: ClusterConfig,
    ) -> Self {
        Self::try_new(authority, connectors, cfg).expect("valid cluster topology")
    }

    /// Convenience: a coordinator over a [`crate::sim::SimNet`] with
    /// `replicas_per_range` replicas per authority range, numbered
    /// `range * replicas_per_range + r` on the net (the flat numbering
    /// [`crate::fault::FaultEvent::replica`] uses).
    pub fn over_sim(
        authority: ShardedAdvisor,
        net: &crate::sim::SimNet,
        replicas_per_range: usize,
        cfg: ClusterConfig,
    ) -> Self {
        let ranges = authority.num_shards();
        let connectors = (0..ranges)
            .map(|range| {
                (0..replicas_per_range)
                    .map(|r| {
                        Box::new(net.connector(range * replicas_per_range + r))
                            as Box<dyn Connector>
                    })
                    .collect()
            })
            .collect();
        ClusterCoordinator::new(authority, connectors, cfg)
    }

    /// Current serving epoch.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Encoder generation of the authority (bumps only on adaptation —
    /// the cache-invalidation signal, not the epoch).
    pub fn generation(&self) -> u64 {
        self.lock().authority.generation()
    }

    /// Number of RCS entries in the authority.
    pub fn rcs_len(&self) -> usize {
        self.lock().authority.len()
    }

    /// Embeds a feature graph on the authority encoder.
    pub fn embed_graph(&self, g: &FeatureGraph) -> Vec<f32> {
        self.lock().authority.embed_graph(g)
    }

    /// A snapshot of the ordered event trace so far (wall-clock free:
    /// dials, failures, reloads, failovers, demotions, snapshots — same
    /// seed and same fault plan give the same trace, byte for byte).
    pub fn trace(&self) -> Vec<String> {
        self.lock().trace.clone()
    }

    /// Drains the event trace.
    pub fn take_trace(&self) -> Vec<String> {
        std::mem::take(&mut self.lock().trace)
    }

    /// Point-in-time health snapshot.
    pub fn health(&self) -> ClusterHealth {
        self.lock().health()
    }

    /// Loads every replica with its range's table and verifies at least
    /// one live replica per range. Idempotent; also usable as a
    /// whole-cluster resync (and, for demoted replicas, re-promotion).
    pub fn bootstrap(&self) -> Result<(), ClusterError> {
        let mut inner = self.lock();
        let out = inner.bootstrap();
        inner.merge_trace();
        out
    }

    /// KNN prediction excluding one global RCS index: [`Self::predict_batch`]
    /// with a batch of one. Bit-identical to
    /// [`ShardedAdvisor::predict_excluding`] on the authority (see the
    /// module docs).
    pub fn predict_excluding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
        exclude: usize,
    ) -> Result<(ModelKind, Vec<f64>), ClusterError> {
        let query = BatchPredictRequest {
            embedding,
            w,
            exclude,
        };
        let mut answers = self.predict_batch(&[query])?;
        Ok(answers.pop().expect("one answer per query"))
    }

    /// KNN prediction from an embedding (no exclusion).
    pub fn predict_from_embedding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
    ) -> Result<(ModelKind, Vec<f64>), ClusterError> {
        self.predict_excluding(embedding, w, usize::MAX)
    }

    /// KNN prediction over the wire via the pipelined range fan-out: one
    /// `QueryBatch` frame per shard range carries the whole batch, so the
    /// per-range round trip is paid once per *batch* instead of once per
    /// query. Each answer is bit-identical to
    /// [`ShardedAdvisor::predict_excluding`] on the authority for that
    /// query alone. An RCS with nothing a query may select is
    /// [`ClusterError::EmptyRcs`] for the whole batch, with nothing sent;
    /// a peer on another protocol version is [`ClusterError::Protocol`] at
    /// once — no retry, no failover.
    pub fn predict_batch(
        &self,
        queries: &[BatchPredictRequest<'_>],
    ) -> Result<Vec<(ModelKind, Vec<f64>)>, ClusterError> {
        let mut inner = self.lock();
        let out = inner.predict_batch(queries);
        inner.merge_trace();
        out
    }

    /// Full recommendation from a feature graph: embed on the authority
    /// encoder, KNN over the wire.
    pub fn recommend_graph(
        &self,
        g: &FeatureGraph,
        w: MetricWeights,
    ) -> Result<ModelKind, ClusterError> {
        let x = self.embed_graph(g);
        self.predict_from_embedding(&x, w).map(|(m, _)| m)
    }

    /// Adds a freshly labeled dataset: authority first, then a
    /// version-guarded [`Push`] to every candidate replica of the
    /// receiving range. Replicas that miss the push (down, demoted, NACK,
    /// lost ack) are resynced by reload — immediately when possible,
    /// otherwise lazily by the next query's NACK or their re-promotion
    /// heartbeat. Returns the new global RCS index.
    pub fn push_entry(
        &self,
        graph: FeatureGraph,
        label: &DatasetLabel,
    ) -> Result<usize, ClusterError> {
        let mut inner = self.lock();
        let out = inner.push_entry(graph, label);
        inner.merge_trace();
        out
    }

    /// Refreshes every authority embedding and stages the result as a new
    /// epoch on all candidate replicas ([`SnapshotEpoch`]): shards keep
    /// the previous epoch serving while the swap propagates, and the
    /// coordinator pins queries to the new epoch only once every range
    /// has at least one replica confirmed on it. Returns the new epoch.
    pub fn refresh_and_snapshot(&self) -> Result<u64, ClusterError> {
        let mut inner = self.lock();
        let out = inner.refresh_and_snapshot();
        inner.merge_trace();
        out
    }

    /// Pings every replica once — demoted ones included; this is the
    /// re-promotion path — recording health and proactively reloading any
    /// replica that answers with a stale or missing table. Returns the
    /// post-probe health snapshot — callers should surface
    /// [`ClusterHealth::report`] when it is degraded.
    pub fn heartbeat(&self) -> ClusterHealth {
        let mut inner = self.lock();
        let out = inner.heartbeat();
        inner.merge_trace();
        out
    }

    /// Sends a clean shutdown to every replica (best effort).
    pub fn shutdown_cluster(&self) {
        let mut inner = self.lock();
        inner.shutdown_cluster();
        inner.merge_trace();
    }

    /// The coordinator's *local* metrics snapshot — per-range RTT,
    /// retries, failovers, NACKs, reloads, demotions, wire bytes per
    /// step. Reads only pre-registered atomics; does **not** take the
    /// coordinator mutex and sends nothing over the wire, so it is safe
    /// to call from a scrape thread while requests are in flight.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Cluster-wide aggregation: the local snapshot merged with every
    /// replica's shard snapshot, fetched over [`Step::CoordSendMetrics`]
    /// and tagged with `range`/`replica` labels before merging. Replicas
    /// that are down or answer a NACK or a corrupt snapshot are skipped,
    /// never an error. Unlike
    /// [`Self::metrics`] this serializes behind the coordinator mutex and
    /// does cross the wire — under `SimNet` the fetches advance the
    /// simulated step counter like any other frames, so call it after a
    /// scripted fault workload, not in the middle of one.
    pub fn cluster_metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let mut inner = self.lock();
        let cfg = inner.cfg.clone();
        for range in 0..inner.lanes.len() {
            let lane = &mut inner.lanes[range];
            for r in 0..lane.replicas.len() {
                if let Some(shard) = lane.fetch_metrics(&cfg, r) {
                    snap.merge(
                        &shard
                            .with_label("range", &range.to_string())
                            .with_label("replica", &r.to_string()),
                    );
                }
            }
        }
        snap
    }
}

impl AdvisorBackend for ClusterCoordinator {
    fn rcs_len(&self) -> usize {
        ClusterCoordinator::rcs_len(self)
    }

    /// Epochs track *refreshes* on the wire; the encoder only changes
    /// through the authority's adaptation path, so the authority's
    /// generation is the correct cache-invalidation signal.
    fn generation(&self) -> u64 {
        ClusterCoordinator::generation(self)
    }

    fn feature_config(&self) -> FeatureConfig {
        self.lock().authority.config().feature
    }

    fn embed_graph(&self, g: &FeatureGraph) -> Vec<f32> {
        ClusterCoordinator::embed_graph(self, g)
    }

    fn embed_graph_batch(&self, graphs: &[&FeatureGraph]) -> Vec<Vec<f32>> {
        self.lock().authority.embed_graph_batch(graphs)
    }

    fn predict_excluding(
        &self,
        embedding: &[f32],
        w: MetricWeights,
        exclude: usize,
    ) -> Result<(ModelKind, Vec<f64>), AdvisorError> {
        ClusterCoordinator::predict_excluding(self, embedding, w, exclude)
            .map_err(AdvisorError::from)
    }

    /// Overrides the per-query default with the wire fan-out itself: this
    /// is where `ce-serve`'s micro-batcher stops paying one round trip
    /// per request.
    fn predict_batch(
        &self,
        queries: &[BatchPredictRequest<'_>],
    ) -> Result<Vec<(ModelKind, Vec<f64>)>, AdvisorError> {
        ClusterCoordinator::predict_batch(self, queries).map_err(AdvisorError::from)
    }

    fn distance_to_nearest(&self, x: &[f32]) -> f32 {
        self.lock().authority.distance_to_embedding(x)
    }

    fn drift_detector(&self) -> autoce::online::DriftDetector {
        self.lock().authority.drift_detector()
    }

    fn push_entry(
        &mut self,
        graph: FeatureGraph,
        label: &DatasetLabel,
    ) -> Result<usize, AdvisorError> {
        ClusterCoordinator::push_entry(self, graph, label).map_err(AdvisorError::from)
    }

    fn refresh(&mut self) -> Result<u64, AdvisorError> {
        self.refresh_and_snapshot().map_err(AdvisorError::from)
    }

    /// The local coordinator snapshot (lock-free; see
    /// [`ClusterCoordinator::metrics`]). `ce-serve`'s
    /// `ServeHandle::metrics_snapshot` merges this into its own, so a
    /// service fronting a cluster reports both layers in one exposition.
    /// For shard-side data too, call
    /// [`ClusterCoordinator::cluster_metrics`] explicitly — the trait
    /// hook must stay side-effect free and off the wire.
    fn metrics(&self) -> MetricsSnapshot {
        ClusterCoordinator::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::sim::SimNet;
    use autoce::fixtures::synthetic_flat;

    fn queries() -> Vec<Vec<f32>> {
        vec![
            vec![0.0f32, 0.0, 0.0],
            vec![1.3, 0.4, -0.2],
            vec![2.5, 6.25, -1.5],
        ]
    }

    #[test]
    fn healthy_cluster_matches_in_process_sharded_advisor() {
        let flat = synthetic_flat(11, 3);
        let w = MetricWeights::new(0.7);
        for ranges in [1usize, 3] {
            let sharded = ShardedAdvisor::from_advisor(&flat, ranges);
            let net = SimNet::new(ranges * 2, FaultPlan::none());
            let coord =
                ClusterCoordinator::over_sim(sharded.clone(), &net, 2, ClusterConfig::no_sleep());
            coord.bootstrap().expect("bootstrap");
            for x in queries() {
                for exclude in [usize::MAX, 0, 10] {
                    let want = sharded.predict_excluding(&x, w, exclude);
                    let got = coord.predict_excluding(&x, w, exclude).expect("predict");
                    assert_eq!(want, got, "ranges={ranges} exclude={exclude}");
                }
            }
            assert!(!coord.health().degraded(), "no failures on a healthy net");
        }
    }

    #[test]
    fn failover_is_bit_identical_and_reported() {
        let flat = synthetic_flat(9, 3);
        let w = MetricWeights::new(0.5);
        let sharded = ShardedAdvisor::from_advisor(&flat, 2);
        // Replica 0 of range 0 dies right after bootstrap (4 replicas ×
        // (dial + load) = 8 steps) and never comes back.
        let plan = FaultPlan::none().with_kill(9, 0);
        let net = SimNet::new(4, plan);
        let coord =
            ClusterCoordinator::over_sim(sharded.clone(), &net, 2, ClusterConfig::no_sleep());
        coord.bootstrap().expect("bootstrap");
        for x in queries() {
            let want = sharded.predict_from_embedding(&x, w);
            let got = coord.predict_from_embedding(&x, w).expect("predict");
            assert_eq!(want, got, "failover must not change a bit");
        }
        let health = coord.health();
        assert!(health.degraded(), "the dead replica must be reported");
        assert!(!health.any_range_dark(), "its sibling still serves");
        assert!(
            coord.trace().iter().any(|l| l.starts_with("failover")),
            "trace records the failover: {:?}",
            coord.trace()
        );
    }

    #[test]
    fn all_replicas_down_is_an_explicit_error() {
        let flat = synthetic_flat(5, 2);
        let sharded = ShardedAdvisor::from_advisor(&flat, 1);
        // Both replicas die after bootstrap (2 × (dial + load) = 4 steps).
        let plan = FaultPlan::none().with_kill(5, 0).with_kill(5, 1);
        let net = SimNet::new(2, plan);
        let coord = ClusterCoordinator::over_sim(sharded, &net, 2, ClusterConfig::no_sleep());
        coord.bootstrap().expect("bootstrap");
        let got = coord.predict_from_embedding(&[0.0, 0.0, 0.0], MetricWeights::new(0.5));
        assert_eq!(got, Err(ClusterError::RangeUnavailable { range: 0 }));
        assert!(coord.health().any_range_dark());
        assert!(coord.health().report().contains("DARK"));
    }

    #[test]
    fn push_and_snapshot_keep_replicas_in_lockstep() {
        let flat = synthetic_flat(6, 2);
        let sharded = ShardedAdvisor::from_advisor(&flat, 2);
        let mut mirror = sharded.clone();
        let net = SimNet::new(4, FaultPlan::none());
        let coord = ClusterCoordinator::over_sim(sharded, &net, 2, ClusterConfig::no_sleep());
        coord.bootstrap().expect("bootstrap");
        let label = DatasetLabel {
            dataset: "new".into(),
            performances: mirror.shards()[0].entries()[0]
                .kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| ce_testbed::ModelPerformance {
                    kind,
                    qerror_mean: 1.0 + i as f64,
                    qerror_p50: 1.0,
                    qerror_p95: 1.0,
                    qerror_p99: 1.0,
                    latency_mean_us: 10.0 * (i + 1) as f64,
                    train_time_ms: 1.0,
                })
                .collect(),
        };
        let graph = FeatureGraph {
            vertices: vec![vec![0.3, 0.3, 0.3, 0.3]],
            edges: vec![vec![0.0]],
        };
        let id = coord.push_entry(graph.clone(), &label).expect("push");
        assert_eq!(id, mirror.push_entry(graph, &label));
        let w = MetricWeights::new(0.7);
        for x in queries() {
            assert_eq!(
                mirror.predict_from_embedding(&x, w),
                coord.predict_from_embedding(&x, w).expect("predict"),
                "post-push answers must match the in-process mirror"
            );
        }
        // Epoch swap: refresh embeddings on both, then compare again.
        mirror.refresh_embeddings();
        let epoch = coord.refresh_and_snapshot().expect("snapshot");
        assert_eq!(epoch, 1);
        for x in queries() {
            assert_eq!(
                mirror.predict_from_embedding(&x, w),
                coord.predict_from_embedding(&x, w).expect("predict"),
                "post-snapshot answers must match"
            );
        }
        assert!(!coord.heartbeat().degraded());
    }

    #[test]
    fn dead_replica_is_demoted_and_heartbeat_repromotes() {
        let flat = synthetic_flat(9, 3);
        let w = MetricWeights::new(0.5);
        let sharded = ShardedAdvisor::from_advisor(&flat, 1);
        // Bootstrap: 2 × (dial + load) = steps 1-4. Replica 0 dies at the
        // first post-bootstrap interaction (step 5) and restarts — empty —
        // just before the heartbeat's re-dial (step 11; see the step
        // arithmetic in the comments below).
        let plan = FaultPlan::none().with_kill(5, 0).with_restart(11, 0);
        let net = SimNet::new(2, plan);
        let coord =
            ClusterCoordinator::over_sim(sharded.clone(), &net, 2, ClusterConfig::no_sleep());
        coord.bootstrap().expect("bootstrap");

        // Query 1: optimistic send to r=0 executes at step 5 (killed →
        // parked error, streak 1), fallback dials r=0 three more times
        // (steps 6-8 → streak 4, demotion at streak 3), fails over to r=1
        // (step 9, cached conn) and still answers bit-identically.
        let x = &queries()[0];
        let want = sharded.predict_from_embedding(x, w);
        assert_eq!(coord.predict_from_embedding(x, w).expect("predict"), want);
        let trace = coord.trace();
        assert!(
            trace.iter().any(|l| l == "demote range=0 r=0 streak=3"),
            "demotion must be traced: {trace:?}"
        );
        assert!(coord.health().ranges[0][0].demoted);
        assert!(coord.health().report().contains("(demoted)"));

        // Query 2 (step 10): the demoted replica is skipped — degraded
        // mode stops paying a refused dial per request.
        let failures_before = coord.health().ranges[0][0].total_failures;
        assert_eq!(coord.predict_from_embedding(x, w).expect("predict"), want);
        assert_eq!(
            coord.health().ranges[0][0].total_failures,
            failures_before,
            "a demoted replica must not be dialed by the query path"
        );

        // Heartbeat: the re-dial of r=0 lands at step 11 where the
        // restart applies — the ping succeeds (re-promotion), the pong
        // exposes the empty table (stale-pong), and the reload repairs it.
        coord.heartbeat();
        let trace = coord.trace();
        assert!(
            trace.iter().any(|l| l == "repromote range=0 r=0"),
            "re-promotion must be traced: {trace:?}"
        );
        assert!(
            trace
                .iter()
                .any(|l| l.starts_with("stale-pong range=0 r=0")),
            "restarted-empty replica must be caught stale: {trace:?}"
        );
        assert!(!coord.health().ranges[0][0].demoted);

        // Replica 0 is first candidate again and serves bit-identically.
        for x in queries() {
            assert_eq!(
                coord.predict_from_embedding(&x, w).expect("predict"),
                sharded.predict_from_embedding(&x, w)
            );
        }
        assert!(!coord.health().any_range_dark());
    }

    #[test]
    fn builder_validates_at_build_time() {
        assert!(matches!(
            ClusterConfig::builder().max_attempts_per_replica(0).build(),
            Err(AdvisorError::InvalidConfig(_))
        ));
        assert!(matches!(
            ClusterConfig::builder().demote_after(0).build(),
            Err(AdvisorError::InvalidConfig(_))
        ));
        assert!(matches!(
            ClusterConfig::builder()
                .request_deadline(Duration::ZERO)
                .build(),
            Err(AdvisorError::InvalidConfig(_)),
        ));
        // Zero deadline without retries is allowed (nothing to burn).
        assert!(ClusterConfig::builder()
            .request_deadline(Duration::ZERO)
            .max_attempts_per_replica(1)
            .build()
            .is_ok());
        let cfg = ClusterConfig::builder()
            .demote_after(2)
            .seed(7)
            .no_sleep()
            .build()
            .expect("valid");
        assert_eq!((cfg.demote_after, cfg.seed), (2, 7));
        assert!(cfg.backoff_base.is_zero());
    }

    #[test]
    fn try_new_rejects_zero_replica_ranges() {
        let flat = synthetic_flat(4, 2);
        let sharded = ShardedAdvisor::from_advisor(&flat, 2);
        let net = SimNet::new(1, FaultPlan::none());
        let connectors: Vec<Vec<Box<dyn Connector>>> =
            vec![vec![Box::new(net.connector(0))], vec![]];
        assert!(matches!(
            ClusterCoordinator::try_new(sharded, connectors, ClusterConfig::no_sleep()),
            Err(AdvisorError::InvalidConfig(_))
        ));
    }

    #[test]
    fn metrics_are_a_read_only_side_channel() {
        let flat = synthetic_flat(9, 3);
        let w = MetricWeights::new(0.5);
        // Same scripted fault sequence as the failover test: replica 0 of
        // range 0 dies after bootstrap.
        let run = |metrics: MetricsRegistry| {
            let sharded = ShardedAdvisor::from_advisor(&flat, 2);
            let plan = FaultPlan::none().with_kill(9, 0);
            let net = SimNet::new(4, plan);
            let cfg = ClusterConfig::builder()
                .no_sleep()
                .metrics(metrics)
                .build()
                .expect("valid config");
            let coord = ClusterCoordinator::over_sim(sharded, &net, 2, cfg);
            coord.bootstrap().expect("bootstrap");
            let answers: Vec<_> = queries()
                .iter()
                .map(|x| coord.predict_from_embedding(x, w).expect("predict"))
                .collect();
            (coord, answers)
        };

        let (instrumented, a1) = run(MetricsRegistry::new_logical());
        let (bare, a2) = run(MetricsRegistry::disabled());
        // Enabling metrics changes no answer bit and no trace byte.
        assert_eq!(a1, a2);
        assert_eq!(instrumented.trace(), bare.trace());
        assert!(bare.metrics().is_empty(), "disabled registry stays empty");

        // Local snapshot: the scripted failure shows up as counters.
        let local = instrumented.metrics();
        assert!(local.counter("ce_cluster_replica_failures_total", &[("range", "0")]) > 0);
        assert!(local.counter("ce_cluster_failovers_total", &[("range", "0")]) > 0);
        assert!(local.counter("ce_cluster_retries_total", &[("range", "0")]) > 0);
        let (rtt_sum, rtt_count) = local.histogram_totals("ce_cluster_rtt_ns", &[("range", "1")]);
        assert!(rtt_count > 0 && rtt_sum > 0, "logical RTT spans recorded");
        assert!(
            local.counter(
                "ce_cluster_wire_bytes_out_total",
                &[("step", "coord_send_query_batch")]
            ) > 0
        );
        assert!(
            local.counter(
                "ce_cluster_wire_bytes_in_total",
                &[("step", "shard_send_topk_batch")]
            ) > 0
        );

        // Cluster-wide aggregation pulls shard snapshots, tagged per
        // replica; the dead replica is skipped silently.
        let cluster = instrumented.cluster_metrics();
        assert!(
            cluster.counter(
                "ce_shard_requests_total",
                &[
                    ("step", "coord_send_query_batch"),
                    ("range", "1"),
                    ("replica", "0")
                ],
            ) > 0,
            "shard-side samples carry range/replica tags:\n{}",
            cluster.render_prometheus()
        );
        // Aggregation is itself side-effect free on the trace.
        assert_eq!(instrumented.trace(), bare.trace());
    }

    #[test]
    fn coordinator_serves_through_the_backend_trait() {
        let flat = synthetic_flat(7, 3);
        let w = MetricWeights::new(0.6);
        let sharded = ShardedAdvisor::from_advisor(&flat, 2);
        let net = SimNet::new(4, FaultPlan::none());
        let coord =
            ClusterCoordinator::over_sim(sharded.clone(), &net, 2, ClusterConfig::no_sleep());
        coord.bootstrap().expect("bootstrap");
        let backend: &dyn AdvisorBackend = &coord;
        assert_eq!(backend.rcs_len(), 7);
        assert_eq!(backend.generation(), sharded.generation());
        for x in queries() {
            assert_eq!(
                backend.predict_from_embedding(&x, w).expect("predict"),
                sharded.predict_from_embedding(&x, w),
                "trait path must be the same wire path"
            );
        }
    }

    /// A replica that answers every frame with one fixed NACK, counting
    /// the frames it was sent.
    struct NackingConnector {
        code: NackCode,
        sent: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Connector for NackingConnector {
        fn connect(&mut self) -> Result<Box<dyn Conn>, WireError> {
            Ok(Box::new(NackingConnector {
                code: self.code,
                sent: self.sent.clone(),
            }))
        }

        fn label(&self) -> String {
            "nacking".into()
        }
    }

    impl Conn for NackingConnector {
        fn send(&mut self, _frame: &Frame, _deadline: Duration) -> Result<(), WireError> {
            self.sent.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }

        fn recv(&mut self, _deadline: Duration) -> Result<Frame, WireError> {
            Ok(Nack {
                code: self.code,
                detail: "unsupported protocol version 7".into(),
            }
            .into_frame())
        }
    }

    #[test]
    fn version_skew_nack_is_a_typed_error_after_one_attempt() {
        let flat = synthetic_flat(5, 2);
        let sharded = ShardedAdvisor::from_advisor(&flat, 1);
        let sent = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        // Two replicas, both skewed: a failover would show as a second
        // frame.
        let connectors: Vec<Vec<Box<dyn Connector>>> = vec![(0..2)
            .map(|_| {
                Box::new(NackingConnector {
                    code: NackCode::VersionSkew,
                    sent: sent.clone(),
                }) as Box<dyn Connector>
            })
            .collect()];
        let coord = ClusterCoordinator::new(sharded, connectors, ClusterConfig::no_sleep());
        let got = coord.predict_from_embedding(&[0.0, 0.0, 0.0], MetricWeights::new(0.5));
        assert!(
            matches!(got, Err(ClusterError::Protocol(_))),
            "a version pin is policy, not an outage: {got:?}"
        );
        assert_eq!(
            sent.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "exactly one attempt: no retry, no failover, no repair"
        );
        let trace = coord.trace();
        assert!(
            trace
                .iter()
                .any(|l| l.starts_with("nack range=0 r=0 VersionSkew")),
            "the skew NACK must be traced: {trace:?}"
        );
        assert!(
            !trace.iter().any(|l| l.starts_with("failover")
                || l.starts_with("reload")
                || l.starts_with("range-dark")),
            "skew earns no repair line: {trace:?}"
        );
    }

    #[test]
    fn nothing_selectable_fails_the_whole_batch_before_any_frame() {
        let w = MetricWeights::new(0.5);
        let x = [0.0f32, 0.0, 0.0];
        let only = BatchPredictRequest {
            embedding: &x,
            w,
            exclude: usize::MAX,
        };
        // One entry: excluding it leaves nothing, and one such query
        // fails its whole batch.
        let sharded = ShardedAdvisor::from_advisor(&synthetic_flat(1, 2), 1);
        let net = SimNet::new(1, FaultPlan::none());
        let coord = ClusterCoordinator::over_sim(sharded, &net, 1, ClusterConfig::no_sleep());
        coord.bootstrap().expect("bootstrap");
        let steps = net.step();
        let excluded = BatchPredictRequest { exclude: 0, ..only };
        assert_eq!(
            coord.predict_batch(&[only, excluded]),
            Err(ClusterError::EmptyRcs)
        );
        assert_eq!(
            coord.predict_excluding(&x, w, 0),
            Err(ClusterError::EmptyRcs)
        );
        assert_eq!(net.step(), steps, "nothing may reach the wire");
        assert!(coord.predict_batch(&[only]).is_ok());
        let backend: &dyn AdvisorBackend = &coord;
        assert_eq!(
            backend.predict_excluding(&x, w, 0),
            Err(AdvisorError::EmptyRcs)
        );
        // No entry at all.
        let sharded = ShardedAdvisor::from_advisor(&synthetic_flat(0, 2), 1);
        let net = SimNet::new(1, FaultPlan::none());
        let coord = ClusterCoordinator::over_sim(sharded, &net, 1, ClusterConfig::no_sleep());
        coord.bootstrap().expect("bootstrap");
        assert_eq!(coord.predict_batch(&[only]), Err(ClusterError::EmptyRcs));
    }
}
