//! The cluster coordinator: the authority copy of the advisor plus the
//! replicated wire fan-out.
//!
//! # Authority-first discipline
//!
//! The coordinator owns a full, sharded [`AutoCe`] (the *authority*):
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
//! [`AutoCe`] calls, over embedding bits that traveled
//! bit-exactly, in the same slot order. The merge and vote
//! ([`knn::merge_vote`]) run coordinator-side on authority metadata.
//! Replicas of a range hold identical tables (they NACK rather than serve
//! stale ones), so *which* replica answers — first choice, retry,
//! failover, or a freshly re-promoted one — cannot change a single bit of
//! the recommendation. Only when every replica of some range is
//! unreachable does the coordinator fail, explicitly, with
//! [`AdvisorError::RangeUnavailable`].
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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::health::{ClusterHealth, ReplicaHealth};
use crate::per_step_counters;
use crate::protocol::{
    EpochAck, EpochTable, Frame, Load, LoadAck, Message, MetricsReply, MetricsRequest, Nack,
    NackCode, Ping, Pong, Push, PushAck, QueryBatch, SnapshotEpoch, Step, TopKBatch,
};
use crate::transport::{Conn, Connector, WireError};
use autoce::{knn, validate_nonzero, AdvisorBackend, AdvisorError, AutoCe, BatchPredictRequest};
use ce_features::{FeatureConfig, FeatureGraph};
use ce_models::ModelKind;
use ce_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot, Span, LATENCY_NS_BUCKETS};
use ce_testbed::DatasetLabel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Lines the coordinator's event trace keeps: the newest ones, so a trace
/// nobody drains stays bounded. The longest trace a test takes between two
/// drains is 123 lines (a gauntlet run).
const TRACE_CAP: usize = 1024;

/// Robustness knobs for the wire fan-out: a plain struct, written as a
/// literal over [`ClusterConfig::default`].
/// [`ClusterCoordinator::try_new`] checks it before anything is built and
/// answers [`AdvisorError::InvalidConfig`] for a combination that cannot
/// work.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-request round-trip deadline. Must be non-zero when
    /// `max_attempts_per_replica` allows retries.
    pub request_deadline: Duration,
    /// Attempts per replica before failing over to the next one; at
    /// least 1.
    pub max_attempts_per_replica: u32,
    /// Base of the exponential backoff between retries.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Consecutive failures after which a replica is demoted out of
    /// regular traffic (see the module docs); at least 1. Re-promotion
    /// happens on any successful round trip — in practice via
    /// [`ClusterCoordinator::heartbeat`].
    pub demote_after: u32,
    /// Seed for backoff jitter (jitter is deterministic given the seed
    /// and the failure sequence — it never appears in the event trace).
    pub seed: u64,
    /// Metrics registry the coordinator records into (default: disabled —
    /// every handle is a no-op). Recording is a strictly read-only side
    /// channel: it never takes a lock beyond the coordinator mutex the
    /// caller already holds, never routes through the transport, and
    /// never appends an event-trace line, so fault-plan step arithmetic
    /// and trace bytes are identical with metrics on or off. Under the
    /// test harness's simulated network, pass
    /// [`MetricsRegistry::new_logical`] so RTT spans count logical ticks
    /// instead of wall time and exposition replays byte-equal.
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
    /// Every check [`ClusterCoordinator::try_new`] runs on the config
    /// before it builds anything: a zero attempt budget would turn the
    /// first fault into a dark range with no retry and no failover, a zero
    /// demotion threshold would demote a replica on its first failure,
    /// a zero deadline would time every retry out at once, and the index
    /// must be structurally valid.
    fn validate(&self) -> Result<(), AdvisorError> {
        validate_nonzero(
            "max_attempts_per_replica",
            self.max_attempts_per_replica as usize,
        )?;
        validate_nonzero("demote_after", self.demote_after as usize)?;
        if self.request_deadline.is_zero() && self.max_attempts_per_replica > 1 {
            return Err(AdvisorError::InvalidConfig(
                "request_deadline must be non-zero when retries are configured \
                 (every retry would time out instantly)"
                    .into(),
            ));
        }
        match &self.index {
            Some(index) => index.validate(),
            None => Ok(()),
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
    /// under a zero-backoff config — the counter reports real waiting, not
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
    /// version (push) or the epoch (snapshot). Built with the lane, and
    /// re-derived by [`CoordInner::prime_load_frame`] before any operation
    /// that may need repair.
    load_frame: (u64, u64, Frame),
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
        let mut conn = match self.replicas[r].conn.take() {
            Some(conn) => conn,
            None => match self.replicas[r].connector.connect() {
                Ok(conn) => conn,
                Err(e) => {
                    self.sub.push(format!("dial-err range={range} r={r}: {e}"));
                    self.record_failure(range, cfg, r);
                    return Err(e);
                }
            },
        };
        let res = conn.send(frame, cfg.request_deadline);
        match &res {
            Ok(()) => {
                self.replicas[r].conn = Some(conn);
                self.obs.bytes_out[frame.step as u16 as usize].add(frame.wire_len() as u64);
                self.rtt_span = Some(self.obs.rtt_ns.start_span());
            }
            Err(e) => {
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
                self.obs.bytes_in[reply.step as u16 as usize].add(reply.wire_len() as u64);
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

    /// Reloads replica `r` from the lane's cached `Load` frame. This is
    /// both bootstrap and *the* repair action.
    fn load_replica(
        &mut self,
        range: usize,
        cfg: &ClusterConfig,
        r: usize,
    ) -> Result<(), WireError> {
        let (epoch, version, frame) = self.load_frame.clone();
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
    ) -> Result<(), AdvisorError> {
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
                        return Err(AdvisorError::Protocol(format!(
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
    ) -> Result<Frame, AdvisorError> {
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
        Err(AdvisorError::RangeUnavailable { range })
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
        let frame = MetricsRequest {}.into_frame();
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
    authority: AutoCe,
    cfg: ClusterConfig,
    /// Current serving epoch (the generation tag extended to the wire).
    epoch: u64,
    /// `lanes[range]`, fixed range order.
    lanes: Vec<RangeLane>,
    ping_nonce: u64,
    /// The event trace since the last drain, its newest [`TRACE_CAP`]
    /// lines.
    trace: VecDeque<String>,
}

/// The authority's shard `range` as the table a replica serves at `epoch`.
fn epoch_table(authority: &AutoCe, epoch: u64, range: usize) -> EpochTable {
    let shard = &authority.shards()[range];
    EpochTable {
        epoch,
        ids: shard.ids().iter().map(|&id| id as u64).collect(),
        embeddings: shard
            .entries()
            .iter()
            .map(|e| e.embedding.clone())
            .collect(),
    }
}

/// Lane `range`'s repair frame at `epoch`, keyed `(epoch, version)`.
fn load_frame(authority: &AutoCe, epoch: u64, range: usize) -> (u64, u64, Frame) {
    let table = epoch_table(authority, epoch, range);
    (epoch, table.version(), Load { table }.into_frame())
}

impl CoordInner {
    /// Re-derives lane `range`'s cached `Load` frame when its
    /// `(epoch, version)` key no longer matches the authority.
    fn prime_load_frame(&mut self, range: usize) {
        let version = self.authority.shards()[range].len() as u64;
        let (epoch, cached, _) = &self.lanes[range].load_frame;
        if (*epoch, *cached) != (self.epoch, version) {
            self.lanes[range].load_frame = load_frame(&self.authority, self.epoch, range);
        }
    }

    /// Drains every lane's sub-trace into the global trace, fixed range
    /// order — the deterministic merge point described in the module docs.
    fn merge_trace(&mut self) {
        for lane in &mut self.lanes {
            self.trace.extend(lane.sub.drain(..));
        }
        self.cap_trace();
    }

    /// Drops the global trace's oldest lines beyond [`TRACE_CAP`]: nothing
    /// in production drains it, and a long-lived coordinator that adapts
    /// adds lines on every push and snapshot.
    fn cap_trace(&mut self) {
        let over = self.trace.len().saturating_sub(TRACE_CAP);
        self.trace.drain(..over);
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

    fn bootstrap(&mut self) -> Result<(), AdvisorError> {
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
                return Err(AdvisorError::RangeUnavailable { range });
            }
        }
        Ok(())
    }

    /// The wire fan-out — the coordinator's one query routine. One
    /// [`QueryBatch`] frame per non-empty range carries the whole batch (a
    /// single query is a batch of one), so a B-deep batch over R ranges
    /// pays R round trips instead of B×R. The batch clamp
    /// ([`knn::select_batch`]) and the merge and vote ([`knn::merge_vote`])
    /// are the calls `AutoCe::predict_batch` makes around its
    /// in-process scans. Full answers or a typed error, never a partial
    /// merge.
    fn predict_batch(
        &mut self,
        queries: &[BatchPredictRequest<'_>],
    ) -> Result<Vec<(ModelKind, Vec<f64>)>, AdvisorError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let len = self.authority.len();
        // Per-query clamp (k depends on each query's exclusion) and finite
        // check. A query with nothing to select, or a non-finite one, fails
        // the whole batch here, before any frame is built.
        let ks = knn::select_batch(self.authority.config().k, len, queries)?;
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

        // Collect phase, fixed range order. A range that fails the batch
        // leaves the later ranges' optimistic requests unanswered; a
        // connection keeps no in-flight state (a TCP stream would hand such
        // a reply to the next call, where a batch of the same shape passes
        // the contract check), so their connections are dropped first.
        let mut replies = Vec::with_capacity(ranges);
        for range in 0..ranges {
            let Some(frame) = frames[range].as_ref() else {
                continue;
            };
            match self.collect(range, frame, issued[range], queries, &ks) {
                Ok(tb) => replies.push(tb),
                Err(e) => {
                    let later = self.lanes[range + 1..].iter_mut().zip(&issued[range + 1..]);
                    for (lane, r) in later {
                        if let Some(r) = *r {
                            lane.replicas[r].conn = None;
                            lane.rtt_span = None;
                        }
                    }
                    return Err(e);
                }
            }
        }

        // One candidate buffer for the batch: query `j`'s lists from every
        // range, merged in place.
        let mut cands = Vec::new();
        (queries.iter().zip(ks).enumerate())
            .map(|(j, (q, k))| {
                cands.clear();
                for tb in &replies {
                    cands.extend(tb.lists[j].iter().map(|&(id, d)| (id as usize, d)));
                }
                knn::merge_vote(&mut cands, k, q.w, |id| self.authority.entry(id))
            })
            .collect()
    }

    /// One range's answer to the batch: the reply to the optimistic request
    /// issued to replica `issued`, if any, else the range's full
    /// retry/failover loop (an optimistic failure is handled first —
    /// health, trace, repair), checked against the contract.
    fn collect(
        &mut self,
        range: usize,
        frame: &Frame,
        issued: Option<usize>,
        queries: &[BatchPredictRequest<'_>],
        ks: &[usize],
    ) -> Result<TopKBatch, AdvisorError> {
        let lane = &mut self.lanes[range];
        let mut fast = None;
        if let Some(r) = issued {
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
            TopKBatch::from_frame(&reply).map_err(|e| AdvisorError::Protocol(e.to_string()))?;
        self.check_reply(range, queries, ks, &tb)?;
        Ok(tb)
    }

    /// The shard-reply contract, checked before anything is merged: one
    /// list per query; each of exactly `min(k, range_len − [exclude ∈
    /// range])` entries — what [`knn::partial_topk`] answers; every id owned
    /// by the replying range (one directory read) and not the excluded one;
    /// no NaN distance. Anything else is a protocol violation, never a
    /// partial merge, a short vote or an index panic under the lock.
    fn check_reply(
        &self,
        range: usize,
        queries: &[BatchPredictRequest<'_>],
        ks: &[usize],
        tb: &TopKBatch,
    ) -> Result<(), AdvisorError> {
        if tb.lists.len() != queries.len() {
            return Err(AdvisorError::Protocol(format!(
                "batched reply carries {} lists for {} queries",
                tb.lists.len(),
                queries.len()
            )));
        }
        let authority = &self.authority;
        let range_len = authority.shards()[range].len();
        for ((q, &k), list) in queries.iter().zip(ks).zip(&tb.lists) {
            let excluded = authority.shard_of(q.exclude) == Some(range);
            let want = k.min(range_len - usize::from(excluded));
            if list.len() != want {
                return Err(AdvisorError::Protocol(format!(
                    "range {range} answered {} neighbours where the contract is {want}",
                    list.len()
                )));
            }
            let foreign = |&&(id, d): &&(u64, f32)| {
                let id = usize::try_from(id).unwrap_or(usize::MAX);
                d.is_nan() || id == q.exclude || authority.shard_of(id) != Some(range)
            };
            if let Some((id, d)) = list.iter().find(foreign) {
                return Err(AdvisorError::Protocol(format!(
                    "range {range} answered id {id} at distance {d}: not a selectable member it owns"
                )));
            }
        }
        Ok(())
    }

    fn push_entry(
        &mut self,
        graph: FeatureGraph,
        label: &DatasetLabel,
    ) -> Result<usize, AdvisorError> {
        let global = self.authority.push_entry(graph, label);
        let range = self.authority.shard_of(global).ok_or_else(|| {
            AdvisorError::Protocol(format!("the authority placed entry {global} in no range"))
        })?;
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

    fn refresh_and_snapshot(&mut self) -> Result<u64, AdvisorError> {
        self.authority.refresh_embeddings();
        self.epoch += 1;
        self.trace
            .push_back(format!("snapshot-epoch {}", self.epoch));
        self.cap_trace();
        for range in 0..self.lanes.len() {
            self.prime_load_frame(range);
            let table = epoch_table(&self.authority, self.epoch, range);
            let (epoch, version) = (table.epoch, table.version());
            let frame = SnapshotEpoch { table }.into_frame();
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
                return Err(AdvisorError::RangeUnavailable { range });
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
        let frame = crate::protocol::Shutdown {}.into_frame();
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
    /// [`AdvisorBackend::metrics`] exposes local counters without touching the
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
    /// dialing the replicas of each authority shard range. Checks the
    /// config first (see [`ClusterConfig`]'s field docs), then installs
    /// its index on the authority and checks the topology (mismatched
    /// range count, a range with zero replicas): any failure is
    /// [`AdvisorError::InvalidConfig`], before anything is built. Call
    /// [`Self::bootstrap`] before serving.
    pub fn try_new(
        mut authority: AutoCe,
        connectors: Vec<Vec<Box<dyn Connector>>>,
        cfg: ClusterConfig,
    ) -> Result<Self, AdvisorError> {
        cfg.validate()?;
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
                load_frame: load_frame(&authority, 0, range),
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
                trace: VecDeque::new(),
            }),
            metrics,
        })
    }

    /// [`Self::try_new`] that panics on an invalid config or topology —
    /// the historical constructor shape, kept for call sites that
    /// construct from static topology.
    #[allow(clippy::expect_used)] // Panicking on a bad config is this constructor's contract.
    pub fn new(
        authority: AutoCe,
        connectors: Vec<Vec<Box<dyn Connector>>>,
        cfg: ClusterConfig,
    ) -> Self {
        Self::try_new(authority, connectors, cfg).expect("valid cluster config and topology")
    }

    /// Current serving epoch.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Drains the ordered event trace: the newest 1024 lines since the
    /// last drain (wall-clock free: dials, failures, reloads,
    /// failovers, demotions, snapshots — same seed and same fault plan
    /// give the same trace, byte for byte).
    pub fn take_trace(&self) -> Vec<String> {
        std::mem::take(&mut self.lock().trace).into()
    }

    /// Point-in-time health snapshot.
    pub fn health(&self) -> ClusterHealth {
        self.lock().health()
    }

    /// Loads every replica with its range's table and verifies at least
    /// one live replica per range. Idempotent; also usable as a
    /// whole-cluster resync (and, for demoted replicas, re-promotion).
    pub fn bootstrap(&self) -> Result<(), AdvisorError> {
        let mut inner = self.lock();
        let out = inner.bootstrap();
        inner.merge_trace();
        out
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
    ) -> Result<usize, AdvisorError> {
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
    pub fn refresh_and_snapshot(&self) -> Result<u64, AdvisorError> {
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

    /// Cluster-wide aggregation: the local snapshot merged with every
    /// replica's shard snapshot, fetched over [`Step::CoordSendMetrics`]
    /// and tagged with `range`/`replica` labels before merging. Replicas
    /// that are down or answer a NACK or a corrupt snapshot are skipped,
    /// never an error. Unlike
    /// [`AdvisorBackend::metrics`] this serializes behind the coordinator mutex and
    /// does cross the wire — under the test harness's simulated network the
    /// fetches advance its step counter like any other frames, so call it
    /// after a scripted fault workload, not in the middle of one.
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
    /// Number of RCS entries in the authority.
    fn rcs_len(&self) -> usize {
        self.lock().authority.len()
    }

    /// Epochs track *refreshes* on the wire; the encoder only changes
    /// through the authority's adaptation path, so the authority's
    /// generation is the correct cache-invalidation signal.
    fn generation(&self) -> u64 {
        self.lock().authority.generation()
    }

    fn feature_config(&self) -> FeatureConfig {
        self.lock().authority.config().feature
    }

    fn vertex_dim(&self) -> usize {
        self.lock().authority.vertex_dim()
    }

    /// Embeds on the authority encoder.
    fn embed_graph_batch(&self, graphs: &[&FeatureGraph]) -> Vec<Vec<f32>> {
        self.lock().authority.embed_graph_batch(graphs)
    }

    /// KNN prediction over the wire via the pipelined range fan-out: one
    /// `QueryBatch` frame per shard range carries the whole batch, so the
    /// per-range round trip is paid once per *batch* instead of once per
    /// query — this is where `ce-serve`'s micro-batcher stops paying one
    /// round trip per request. Each answer is bit-identical to
    /// [`AutoCe`]'s on the authority for that query alone. An RCS
    /// with nothing a query may select is [`AdvisorError::EmptyRcs`] for
    /// the whole batch, with nothing sent; a peer on another protocol
    /// version is [`AdvisorError::Protocol`] at once — no retry, no
    /// failover.
    fn predict_batch(
        &self,
        queries: &[BatchPredictRequest<'_>],
    ) -> Result<Vec<(ModelKind, Vec<f64>)>, AdvisorError> {
        let mut inner = self.lock();
        let out = inner.predict_batch(queries);
        inner.merge_trace();
        out
    }

    fn drift_detector(&self) -> autoce::online::DriftDetector {
        self.lock().authority.drift_detector()
    }

    /// The coordinator's *local* metrics snapshot — per-range RTT,
    /// retries, failovers, NACKs, reloads, demotions, wire bytes per
    /// step. Reads only pre-registered atomics; does **not** take the
    /// coordinator mutex and sends nothing over the wire, so it is safe
    /// to call from a scrape thread while requests are in flight.
    /// `ce-serve`'s `ServeHandle::metrics_snapshot` merges this into its
    /// own, so a service fronting a cluster reports both layers in one
    /// exposition. For shard-side data too, call
    /// [`ClusterCoordinator::cluster_metrics`] explicitly — this hook must
    /// stay side-effect free and off the wire.
    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
#[allow(clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::fixtures::{synthetic_flat, synthetic_label};
    use crate::sim::{no_sleep, over_sim, SimNet};
    use autoce::index::IndexConfig;
    use ce_testbed::MetricWeights;

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
            let sharded = AutoCe::from_advisor(&flat, ranges);
            let net = SimNet::new(ranges * 2, FaultPlan::none());
            let coord = over_sim(sharded.clone(), &net, 2, no_sleep());
            coord.bootstrap().expect("bootstrap");
            for x in queries() {
                for exclude in [usize::MAX, 0, 10] {
                    let want = sharded.predict_excluding(&x, w, exclude).expect("flat");
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
        let sharded = AutoCe::from_advisor(&flat, 2);
        // Replica 0 of range 0 dies right after bootstrap (4 replicas ×
        // (dial + load) = 8 steps) and never comes back.
        let plan = FaultPlan::none().with_kill(9, 0);
        let net = SimNet::new(4, plan);
        let coord = over_sim(sharded.clone(), &net, 2, no_sleep());
        coord.bootstrap().expect("bootstrap");
        for x in queries() {
            let want = sharded.predict_from_embedding(&x, w);
            let got = coord.predict_from_embedding(&x, w).expect("predict");
            assert_eq!(want, got, "failover must not change a bit");
        }
        let health = coord.health();
        assert!(health.degraded(), "the dead replica must be reported");
        assert!(!health.any_range_dark(), "its sibling still serves");
        let trace = coord.take_trace();
        assert!(
            trace.iter().any(|l| l.starts_with("failover")),
            "trace records the failover: {trace:?}"
        );
    }

    #[test]
    fn all_replicas_down_is_an_explicit_error() {
        let flat = synthetic_flat(5, 2);
        let sharded = AutoCe::from_advisor(&flat, 1);
        // Both replicas die after bootstrap (2 × (dial + load) = 4 steps).
        let plan = FaultPlan::none().with_kill(5, 0).with_kill(5, 1);
        let net = SimNet::new(2, plan);
        let coord = over_sim(sharded, &net, 2, no_sleep());
        coord.bootstrap().expect("bootstrap");
        let got = coord.predict_from_embedding(&[0.0, 0.0, 0.0], MetricWeights::new(0.5));
        assert_eq!(got, Err(AdvisorError::RangeUnavailable { range: 0 }));
        assert!(coord.health().any_range_dark());
        assert!(coord.health().report().contains("DARK"));
    }

    #[test]
    fn push_and_snapshot_keep_replicas_in_lockstep() {
        let flat = synthetic_flat(6, 2);
        let sharded = AutoCe::from_advisor(&flat, 2);
        let mut mirror = sharded.clone();
        let net = SimNet::new(4, FaultPlan::none());
        let coord = over_sim(sharded, &net, 2, no_sleep());
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

    /// A trace nobody drains keeps its newest `TRACE_CAP` lines, whether
    /// they come from the lanes (pushes) or from the epoch line itself.
    #[test]
    fn the_event_trace_keeps_only_its_newest_lines() {
        let flat = synthetic_flat(3, 2);
        let net = SimNet::new(2, FaultPlan::none());
        let coord = over_sim(AutoCe::from_advisor(&flat, 1), &net, 2, no_sleep());
        coord.bootstrap().expect("bootstrap");
        // Two lines per push (one per replica), so the cap is passed
        // within the loop and the bootstrap lines are long gone.
        let label = synthetic_label(&flat.entry(0).kinds);
        let graph = &flat.entry(0).graph;
        let mut last = 0;
        for _ in 0..TRACE_CAP / 2 + 8 {
            last = coord.push_entry(graph.clone(), &label).expect("push");
        }
        let trace = coord.take_trace();
        assert_eq!(trace.len(), TRACE_CAP);
        let first = last + 1 - TRACE_CAP / 2;
        assert_eq!(
            trace[0],
            format!("push range=0 r=0 id={first} v={}", first + 1)
        );
        assert_eq!(
            trace[TRACE_CAP - 1],
            format!("push range=0 r=1 id={last} v={}", last + 1)
        );

        for _ in 0..TRACE_CAP / 2 {
            coord.push_entry(graph.clone(), &label).expect("push");
        }
        assert_eq!(coord.refresh_and_snapshot().expect("snapshot"), 1);
        let trace = coord.take_trace();
        assert_eq!(trace.len(), TRACE_CAP);
        assert_eq!(
            trace[TRACE_CAP - 3..],
            [
                "snapshot-epoch 1",
                "epoch-ack range=0 r=0 epoch=1",
                "epoch-ack range=0 r=1 epoch=1"
            ]
        );
    }

    #[test]
    fn dead_replica_is_demoted_and_heartbeat_repromotes() {
        let flat = synthetic_flat(9, 3);
        let w = MetricWeights::new(0.5);
        let sharded = AutoCe::from_advisor(&flat, 1);
        // Bootstrap: 2 × (dial + load) = steps 1-4. Replica 0 dies at the
        // first post-bootstrap interaction (step 5) and restarts — empty —
        // just before the heartbeat's re-dial (step 11; see the step
        // arithmetic in the comments below).
        let plan = FaultPlan::none().with_kill(5, 0).with_restart(11, 0);
        let net = SimNet::new(2, plan);
        let coord = over_sim(sharded.clone(), &net, 2, no_sleep());
        coord.bootstrap().expect("bootstrap");

        // Query 1: optimistic send to r=0 executes at step 5 (killed →
        // parked error, streak 1), fallback dials r=0 three more times
        // (steps 6-8 → streak 4, demotion at streak 3), fails over to r=1
        // (step 9, cached conn) and still answers bit-identically.
        let x = &queries()[0];
        let want = sharded.predict_from_embedding(x, w);
        assert_eq!(coord.predict_from_embedding(x, w).expect("predict"), want);
        let trace = coord.take_trace();
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
        let trace = coord.take_trace();
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

    /// Every config check runs in `try_new`, on a plain literal, with the
    /// message naming the knob; nothing is built for a rejected config.
    #[test]
    fn try_new_validates_the_config() {
        let try_new = |cfg: ClusterConfig| {
            let sharded = AutoCe::from_advisor(&synthetic_flat(4, 2), 1);
            let net = SimNet::new(1, FaultPlan::none());
            let connectors: Vec<Vec<Box<dyn Connector>>> = vec![vec![Box::new(net.connector(0))]];
            ClusterCoordinator::try_new(sharded, connectors, cfg)
        };
        let defaults = ClusterConfig::default;
        let cases = [
            (
                ClusterConfig {
                    max_attempts_per_replica: 0,
                    ..defaults()
                },
                "max_attempts_per_replica",
            ),
            (
                ClusterConfig {
                    demote_after: 0,
                    ..defaults()
                },
                "demote_after",
            ),
            (
                ClusterConfig {
                    request_deadline: Duration::ZERO,
                    ..defaults()
                },
                "request_deadline",
            ),
            (
                ClusterConfig {
                    index: Some(IndexConfig {
                        probe: 0,
                        ..IndexConfig::default()
                    }),
                    ..defaults()
                },
                "probe",
            ),
        ];
        for (cfg, needle) in cases {
            match try_new(cfg) {
                Err(AdvisorError::InvalidConfig(msg)) => assert!(msg.contains(needle), "{msg}"),
                Err(e) => panic!("{needle}: wrong error {e:?}"),
                Ok(_) => panic!("{needle}: an invalid config was accepted"),
            }
        }
        // Zero deadline without retries is allowed (nothing to burn).
        let one_shot = ClusterConfig {
            request_deadline: Duration::ZERO,
            max_attempts_per_replica: 1,
            ..defaults()
        };
        assert!(try_new(one_shot).is_ok());
    }

    #[test]
    fn try_new_rejects_zero_replica_ranges() {
        let flat = synthetic_flat(4, 2);
        let sharded = AutoCe::from_advisor(&flat, 2);
        let net = SimNet::new(1, FaultPlan::none());
        let connectors: Vec<Vec<Box<dyn Connector>>> =
            vec![vec![Box::new(net.connector(0))], vec![]];
        assert!(matches!(
            ClusterCoordinator::try_new(sharded, connectors, no_sleep()),
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
            let sharded = AutoCe::from_advisor(&flat, 2);
            let plan = FaultPlan::none().with_kill(9, 0);
            let net = SimNet::new(4, plan);
            let cfg = ClusterConfig {
                metrics,
                ..no_sleep()
            };
            let coord = over_sim(sharded, &net, 2, cfg);
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
        assert_eq!(instrumented.take_trace(), bare.take_trace());
        assert!(
            bare.metrics().samples.is_empty(),
            "disabled registry stays empty"
        );

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
        assert_eq!(instrumented.take_trace(), bare.take_trace());
    }

    #[test]
    fn coordinator_serves_through_the_backend_trait() {
        let flat = synthetic_flat(7, 3);
        let w = MetricWeights::new(0.6);
        let sharded = AutoCe::from_advisor(&flat, 2);
        let net = SimNet::new(4, FaultPlan::none());
        let coord = over_sim(sharded.clone(), &net, 2, no_sleep());
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
        let sharded = AutoCe::from_advisor(&flat, 1);
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
        let coord = ClusterCoordinator::new(sharded, connectors, no_sleep());
        let got = coord.predict_from_embedding(&[0.0, 0.0, 0.0], MetricWeights::new(0.5));
        assert!(
            matches!(got, Err(AdvisorError::Protocol(_))),
            "a version pin is policy, not an outage: {got:?}"
        );
        assert_eq!(
            sent.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "exactly one attempt: no retry, no failover, no repair"
        );
        let trace = coord.take_trace();
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
        let sharded = AutoCe::from_advisor(&synthetic_flat(1, 2), 1);
        let net = SimNet::new(1, FaultPlan::none());
        let coord = over_sim(sharded, &net, 1, no_sleep());
        coord.bootstrap().expect("bootstrap");
        let steps = net.step();
        let excluded = BatchPredictRequest { exclude: 0, ..only };
        assert_eq!(
            coord.predict_batch(&[only, excluded]),
            Err(AdvisorError::EmptyRcs)
        );
        assert_eq!(
            coord.predict_excluding(&x, w, 0),
            Err(AdvisorError::EmptyRcs)
        );
        assert_eq!(net.step(), steps, "nothing may reach the wire");
        assert!(coord.predict_batch(&[only]).is_ok());
        // No entry at all.
        let sharded = AutoCe::from_advisor(&synthetic_flat(0, 2), 1);
        let net = SimNet::new(1, FaultPlan::none());
        let coord = over_sim(sharded, &net, 1, no_sleep());
        coord.bootstrap().expect("bootstrap");
        assert_eq!(coord.predict_batch(&[only]), Err(AdvisorError::EmptyRcs));
    }

    /// A NaN or ±∞ anywhere in one query embedding refuses its whole batch
    /// at the clamp: no frame, no wire byte, no trace line.
    #[test]
    fn a_non_finite_query_is_refused_before_any_frame() {
        let w = MetricWeights::new(0.5);
        let sharded = AutoCe::from_advisor(&synthetic_flat(9, 3), 2);
        let net = SimNet::new(2, FaultPlan::none());
        let cfg = ClusterConfig {
            metrics: MetricsRegistry::new_logical(),
            ..no_sleep()
        };
        let coord = over_sim(sharded.clone(), &net, 1, cfg);
        coord.bootstrap().expect("bootstrap");
        let wire_bytes = || {
            let m = coord.metrics();
            let step = [("step", "coord_send_query_batch")];
            m.counter("ce_cluster_wire_bytes_out_total", &step)
        };
        coord.take_trace();
        let (steps, bytes) = (net.step(), wire_bytes());
        let good = [0.5f32, 0.25, 0.0];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let x = [0.5, bad, 0.0];
            let batch = [&good, &x].map(|embedding| BatchPredictRequest {
                embedding,
                w,
                exclude: usize::MAX,
            });
            let got = coord.predict_batch(&batch);
            assert!(
                matches!(got, Err(AdvisorError::InvalidDataset(_))),
                "{got:?}"
            );
        }
        assert_eq!(net.step(), steps, "nothing may reach the wire");
        assert_eq!(wire_bytes(), bytes);
        assert_eq!(coord.take_trace(), Vec::<String>::new());
        assert_eq!(
            coord.predict_excluding(&good, w, usize::MAX),
            sharded.predict_excluding(&good, w, usize::MAX)
        );
    }

    /// What a forging replica does to a healthy reply's lists.
    type Forgery = fn(&mut Vec<Vec<(u64, f32)>>);

    /// A replica hosted in this process whose query-batch replies pass
    /// through the test's forgery while one is set.
    struct Forging {
        state: std::sync::Arc<Mutex<crate::server::ShardState>>,
        forge: std::sync::Arc<Mutex<Option<Forgery>>>,
        pending: Option<Frame>,
    }

    impl Connector for Forging {
        fn connect(&mut self) -> Result<Box<dyn Conn>, WireError> {
            Ok(Box::new(Forging {
                state: self.state.clone(),
                forge: self.forge.clone(),
                pending: None,
            }))
        }

        fn label(&self) -> String {
            "forging".into()
        }
    }

    impl Conn for Forging {
        fn send(&mut self, frame: &Frame, _deadline: Duration) -> Result<(), WireError> {
            let mut reply = self.state.lock().expect("shard state").handle(frame);
            if let (Step::CoordSendQueryBatch, Some(forge)) =
                (frame.step, *self.forge.lock().expect("forgery"))
            {
                let mut tb = TopKBatch::from_frame(&reply).expect("a healthy reply");
                forge(&mut tb.lists);
                reply = tb.into_frame();
            }
            self.pending = Some(reply);
            Ok(())
        }

        fn recv(&mut self, _deadline: Duration) -> Result<Frame, WireError> {
            self.pending
                .take()
                .ok_or_else(|| WireError::Frame("recv without a send".into()))
        }
    }

    /// A reply that breaks the shard contract — a list short of, or past,
    /// `min(k, range_len − [exclude ∈ range])`; an id outside the RCS, of
    /// another range, or the excluded one; a NaN distance; a list too many
    /// — is `Protocol` before anything is merged (it used to vote over
    /// fewer neighbours, or panic indexing the authority under the lock).
    /// The lock stays clean, and the next call answers the flat bits.
    #[test]
    fn forged_shard_replies_are_protocol_errors() {
        let w = MetricWeights::new(0.6);
        // Ranges: ids 0–4 and 5–8; k = 3.
        let sharded = AutoCe::from_advisor(&synthetic_flat(9, 3), 2);
        let forge = std::sync::Arc::new(Mutex::new(None));
        let connectors = (0..2)
            .map(|range| {
                let replica = Forging {
                    state: Default::default(),
                    forge: if range == 0 {
                        forge.clone()
                    } else {
                        Default::default()
                    },
                    pending: None,
                };
                vec![Box::new(replica) as Box<dyn Connector>]
            })
            .collect();
        let coord = ClusterCoordinator::new(sharded.clone(), connectors, no_sleep());
        coord.bootstrap().expect("bootstrap");
        let x = [1.3f32, 0.4, -0.2];
        let cases: [(&str, usize, Forgery); 8] = [
            ("an empty list", usize::MAX, |l| l[0].clear()),
            ("a short list", usize::MAX, |l| l[0].truncate(2)),
            ("a long list", usize::MAX, |l| l[0].push((4, 9.0))),
            ("an id outside the RCS", usize::MAX, |l| l[0][0].0 = 1_000),
            ("an id of another range", usize::MAX, |l| l[0][0].0 = 7),
            ("the excluded id", 2, |l| l[0][0].0 = 2),
            ("a NaN distance", usize::MAX, |l| l[0][0].1 = f32::NAN),
            ("a list too many", usize::MAX, |l| l.push(Vec::new())),
        ];
        for (what, exclude, forgery) in cases {
            *forge.lock().expect("forgery") = Some(forgery);
            let got = coord.predict_excluding(&x, w, exclude);
            assert!(
                matches!(got, Err(AdvisorError::Protocol(_))),
                "{what}: {got:?}"
            );
            assert!(!coord.inner.is_poisoned(), "{what}");
            *forge.lock().expect("forgery") = None;
            assert_eq!(
                coord.predict_excluding(&x, w, exclude),
                sharded.predict_excluding(&x, w, exclude),
                "{what}: the next call"
            );
        }
    }

    /// A replica hosted in this process behind a FIFO connection, as a TCP
    /// stream is: each request's reply queues until read, and nothing ties
    /// a reply to the call that asked for it. While `dark` is set, dials
    /// are refused and sends fail.
    struct Fifo {
        state: std::sync::Arc<Mutex<crate::server::ShardState>>,
        dark: std::sync::Arc<std::sync::atomic::AtomicBool>,
        replies: std::collections::VecDeque<Frame>,
    }

    impl Fifo {
        fn is_dark(&self) -> bool {
            self.dark.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Connector for Fifo {
        fn connect(&mut self) -> Result<Box<dyn Conn>, WireError> {
            if self.is_dark() {
                return Err(WireError::Closed("refused".into()));
            }
            Ok(Box::new(Fifo {
                state: self.state.clone(),
                dark: self.dark.clone(),
                replies: Default::default(),
            }))
        }

        fn label(&self) -> String {
            "fifo".into()
        }
    }

    impl Conn for Fifo {
        fn send(&mut self, frame: &Frame, _deadline: Duration) -> Result<(), WireError> {
            if self.is_dark() {
                return Err(WireError::Closed("reset".into()));
            }
            let reply = self.state.lock().expect("shard state").handle(frame);
            self.replies.push_back(reply);
            Ok(())
        }

        fn recv(&mut self, _deadline: Duration) -> Result<Frame, WireError> {
            self.replies.pop_front().ok_or(WireError::Timeout)
        }
    }

    /// A range that goes dark mid-collect fails its batch while a later
    /// range's optimistic request is still unanswered. Over a connection
    /// that keeps replies in order, that reply must not reach the next
    /// call: it has the shape of any one-query batch, so it would pass the
    /// contract check and be merged into a wrong answer, call after call.
    #[test]
    fn a_dark_range_leaves_no_stale_reply_behind() {
        let w = MetricWeights::new(0.6);
        // Ranges: ids 0–4 and 5–8; k = 3.
        let sharded = AutoCe::from_advisor(&synthetic_flat(9, 3), 2);
        let dark = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let connectors = (0..2)
            .map(|range| {
                let replica = Fifo {
                    state: Default::default(),
                    dark: if range == 0 {
                        dark.clone()
                    } else {
                        Default::default()
                    },
                    replies: Default::default(),
                };
                vec![Box::new(replica) as Box<dyn Connector>]
            })
            .collect();
        let coord = ClusterCoordinator::new(sharded.clone(), connectors, no_sleep());
        coord.bootstrap().expect("bootstrap");
        let set_dark = |on| dark.store(on, std::sync::atomic::Ordering::Relaxed);
        set_dark(true);
        assert_eq!(
            coord.predict_excluding(&[40.0, -7.5, 3.0], w, usize::MAX),
            Err(AdvisorError::RangeUnavailable { range: 0 })
        );
        set_dark(false);
        for x in queries().iter().chain(&queries()) {
            assert_eq!(
                coord.predict_excluding(x, w, usize::MAX),
                sharded.predict_excluding(x, w, usize::MAX),
                "{x:?} after the dark range"
            );
        }
        assert!(!coord.health().any_range_dark());
    }
}
