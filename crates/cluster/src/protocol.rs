//! The explicit, versioned coordinator ⇄ shard-server protocol.
//!
//! Modeled on the mpc4j `PtoDesc` convention: a protocol has a fixed
//! numeric identity ([`PTO_ID`], [`PTO_NAME`], [`PROTOCOL_VERSION`]) and a
//! **numbered step enum** ([`Step`]) naming every message that can cross
//! the wire. Frames carry the protocol magic, the version, the step number
//! and a length-prefixed payload encoded with the compact binary codec
//! (`serde::bin`), so a peer can reject foreign or torn traffic before
//! touching the payload.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     MAGIC (0xCEC7_0301, little-endian)
//! 4       2     PROTOCOL_VERSION
//! 6       2     step number (Step enum)
//! 8       4     payload length in bytes
//! 12      n     payload (message-specific, serde::bin encoding)
//! ```
//!
//! Floats inside payloads travel as IEEE-754 bit patterns, so embeddings
//! and distances survive the wire bit-exactly — the cluster's
//! flat-equivalence guarantee depends on it.

use serde::bin::{BinDecode, BinEncode, Reader};

/// Protocol identity (PtoDesc style: a fixed id derived from the paper
/// tag, never reused across incompatible revisions).
pub const PTO_ID: u64 = 0xce23_5e4e_c105_0001;

/// Human-readable protocol name.
pub const PTO_NAME: &str = "CE23_CLUSTER_ADVISOR";

/// Wire magic prefixing every frame.
pub const MAGIC: u32 = 0xCEC7_0301;

/// Version byte pair; bumped on any incompatible layout change. There is
/// one wire version: every frame is encoded at it, and a header carrying
/// any other is [`FrameError::BadVersion`] before the payload is touched.
pub const PROTOCOL_VERSION: u16 = 2;

/// Hard cap on payload size (64 MiB): a corrupt length field must not
/// drive allocation.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Declares the protocol's step table once: the [`Step`] enum, its wire
/// numbers ([`Step::from_u16`], [`Step::all`]) and its metric label
/// strings ([`Step::name`]) all derive from the single list below.
macro_rules! step_table {
    ($($(#[$doc:meta])* $variant:ident = $number:literal, $name:literal;)*) => {
        /// The numbered protocol steps. The explicit numbers are part of
        /// the wire contract — reordering the table must not renumber the
        /// protocol. Numbers 2 and 3 (the retired per-query `Query`/`TopK`
        /// pair) are never reused and decode as [`FrameError::BadStep`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u16)]
        pub enum Step {
            $($(#[$doc])* $variant = $number,)*
        }

        impl Step {
            /// Parses a wire step number.
            pub fn from_u16(v: u16) -> Option<Step> {
                match v {
                    $($number => Some(Step::$variant),)*
                    _ => None,
                }
            }

            /// Every defined step, in wire-number order.
            pub fn all() -> impl Iterator<Item = Step> {
                [$(Step::$variant),*].into_iter()
            }

            /// Stable snake_case step name — the `step` label value on
            /// per-step wire metrics (part of the metric-name API; see
            /// `docs/observability.md`).
            pub fn name(self) -> &'static str {
                match self {
                    $(Step::$variant => $name,)*
                }
            }
        }
    };
}

step_table! {
    /// Coordinator → shard: full epoch table (bootstrap or post-failover
    /// reload).
    CoordSendLoad = 0, "coord_send_load";
    /// Shard → coordinator: table installed.
    ShardAckLoad = 1, "shard_ack_load";
    /// Coordinator → shard: staged replacement table for a new epoch
    /// (online adaptation's generation tag extended across the wire).
    CoordSendSnapshotEpoch = 4, "coord_send_snapshot_epoch";
    /// Shard → coordinator: new epoch staged and serving.
    ShardAckEpoch = 5, "shard_ack_epoch";
    /// Coordinator → shard: append one entry to the current epoch table
    /// (online push; bumps the table version, not the epoch).
    CoordSendPush = 6, "coord_send_push";
    /// Shard → coordinator: push applied.
    ShardAckPush = 7, "shard_ack_push";
    /// Coordinator → shard: liveness probe.
    CoordSendPing = 8, "coord_send_ping";
    /// Shard → coordinator: liveness answer with current table state.
    ShardSendPong = 9, "shard_send_pong";
    /// Shard → coordinator: the request could not be served (epoch or
    /// version mismatch, malformed payload). The coordinator reacts by
    /// reloading or reconnecting — a NACK is a recovery signal, not a
    /// crash.
    ShardSendNack = 10, "shard_send_nack";
    /// Coordinator → shard: clean process shutdown.
    CoordSendShutdown = 11, "coord_send_shutdown";
    /// Shard → coordinator: acknowledged, terminating.
    ShardAckShutdown = 12, "shard_ack_shutdown";
    /// Coordinator → shard: a batch of partial top-k queries (a single
    /// query is a batch of one) pinned to one (epoch, version) — one
    /// frame per range per batch.
    CoordSendQueryBatch = 13, "coord_send_query_batch";
    /// Shard → coordinator: the partial top-k list of every query in the
    /// batch, in submission order.
    ShardSendTopkBatch = 14, "shard_send_topk_batch";
    /// Coordinator → shard: request the shard's metrics snapshot. A pure
    /// read-only side channel — it never touches serving tables and a
    /// NACK here never triggers repair.
    CoordSendMetrics = 15, "coord_send_metrics";
    /// Shard → coordinator: the shard's metrics snapshot, carried as
    /// opaque `ce-obs` snapshot bytes so the wire codec stays independent
    /// of the metrics schema.
    ShardSendMetrics = 16, "shard_send_metrics";
}

/// Why a frame could not be produced or understood.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Wrong magic: not this protocol's traffic.
    BadMagic(u32),
    /// Version mismatch between peers: the header carries anything but
    /// [`PROTOCOL_VERSION`].
    BadVersion(u16),
    /// Unknown step number.
    BadStep(u16),
    /// Payload length over [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Payload failed to decode.
    Payload(serde::bin::Error),
    /// The frame's step did not match the expected message type.
    WrongStep {
        /// Step the caller expected.
        expected: Step,
        /// Step the frame carried.
        got: Step,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadStep(s) => write!(f, "unknown protocol step {s}"),
            FrameError::Oversize(n) => write!(f, "payload length {n} exceeds cap"),
            FrameError::Payload(e) => write!(f, "payload decode: {e}"),
            FrameError::WrongStep { expected, got } => {
                write!(f, "expected step {expected:?}, got {got:?}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One wire frame: a step number and the encoded payload, travelling
/// under [`PROTOCOL_VERSION`].
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Protocol step this frame performs.
    pub step: Step,
    /// Binary payload (message-specific).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encodes header + payload into one buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        MAGIC.encode(&mut out);
        PROTOCOL_VERSION.encode(&mut out);
        (self.step as u16).encode(&mut out);
        (self.payload.len() as u32).encode(&mut out);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and validates a frame header, returning the step and the
    /// payload length still to be read.
    pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(Step, usize), FrameError> {
        let mut r = Reader::new(header);
        let magic = u32::decode(&mut r).expect("fixed-size header");
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = u16::decode(&mut r).expect("fixed-size header");
        if version != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let step_raw = u16::decode(&mut r).expect("fixed-size header");
        let step = Step::from_u16(step_raw).ok_or(FrameError::BadStep(step_raw))?;
        let len = u32::decode(&mut r).expect("fixed-size header");
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversize(len));
        }
        Ok((step, len as usize))
    }

    /// Decodes a full frame from one buffer (header + payload).
    pub fn from_bytes(buf: &[u8]) -> Result<Frame, FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Payload(serde::bin::Error::Truncated {
                at: 0,
                needed: HEADER_LEN,
                have: buf.len(),
            }));
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&buf[..HEADER_LEN]);
        let (step, len) = Frame::parse_header(&header)?;
        let body = &buf[HEADER_LEN..];
        if body.len() != len {
            return Err(FrameError::Payload(serde::bin::Error::Truncated {
                at: HEADER_LEN,
                needed: len,
                have: body.len(),
            }));
        }
        Ok(Frame {
            step,
            payload: body.to_vec(),
        })
    }
}

/// A typed protocol message: knows its step number and payload codec.
pub trait Message: Sized {
    /// The step this message travels under.
    const STEP: Step;

    /// Encodes the payload.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decodes the payload.
    fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self>;

    /// Wraps the message into a frame.
    fn into_frame(self) -> Frame {
        let mut payload = Vec::new();
        self.encode_payload(&mut payload);
        Frame {
            step: Self::STEP,
            payload,
        }
    }

    /// Unwraps a frame, validating the step and consuming the payload
    /// exactly.
    fn from_frame(frame: &Frame) -> Result<Self, FrameError> {
        if frame.step != Self::STEP {
            return Err(FrameError::WrongStep {
                expected: Self::STEP,
                got: frame.step,
            });
        }
        let mut r = Reader::new(&frame.payload);
        let msg = Self::decode_payload(&mut r).map_err(FrameError::Payload)?;
        r.finish().map_err(FrameError::Payload)?;
        Ok(msg)
    }
}

/// One shard range's serving table at a given epoch: global RCS ids and
/// their embeddings, in shard slot order — the `(ids, embeddings)`
/// projection of one authority [`ce_serve::AdvisorShard`], scanned by the
/// same `autoce::knn::partial_topk`.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTable {
    /// Snapshot epoch (the coordinator-side generation tag).
    pub epoch: u64,
    /// Global RCS index of each entry, slot-aligned with `embeddings`.
    pub ids: Vec<u64>,
    /// Embedding bits per entry.
    pub embeddings: Vec<Vec<f32>>,
}

impl EpochTable {
    /// The table version: membership only ever grows (pushes append), so
    /// the entry count totally orders table states within an epoch.
    pub fn version(&self) -> u64 {
        self.ids.len() as u64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.ids.encode(out);
        self.embeddings.encode(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
        let epoch = u64::decode(r)?;
        let ids = Vec::<u64>::decode(r)?;
        let embeddings = Vec::<Vec<f32>>::decode(r)?;
        if ids.len() != embeddings.len() {
            return Err(serde::bin::Error::Corrupt("table ids/embeddings mismatch"));
        }
        Ok(EpochTable {
            epoch,
            ids,
            embeddings,
        })
    }
}

macro_rules! table_message {
    ($(#[$doc:meta])* $name:ident, $step:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name(pub EpochTable);

        impl Message for $name {
            const STEP: Step = $step;

            fn encode_payload(&self, out: &mut Vec<u8>) {
                self.0.encode_into(out);
            }

            fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
                Ok($name(EpochTable::decode_from(r)?))
            }
        }
    };
}

table_message!(
    /// `COORD_SEND_LOAD`: install a full table (bootstrap / reload after
    /// failover).
    Load,
    Step::CoordSendLoad
);
table_message!(
    /// `COORD_SEND_SNAPSHOT_EPOCH`: stage the replacement table of a new
    /// epoch. The shard keeps the previous epoch alongside, so in-flight
    /// old-epoch queries still answer during the cluster-wide swap.
    SnapshotEpoch,
    Step::CoordSendSnapshotEpoch
);

macro_rules! ack_message {
    ($(#[$doc:meta])* $name:ident, $step:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name {
            /// Epoch the shard is serving after the acknowledged action.
            pub epoch: u64,
            /// Table version (entry count) after the acknowledged action.
            pub version: u64,
        }

        impl Message for $name {
            const STEP: Step = $step;

            fn encode_payload(&self, out: &mut Vec<u8>) {
                self.epoch.encode(out);
                self.version.encode(out);
            }

            fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
                Ok($name {
                    epoch: u64::decode(r)?,
                    version: u64::decode(r)?,
                })
            }
        }
    };
}

ack_message!(
    /// `SHARD_ACK_LOAD`.
    LoadAck,
    Step::ShardAckLoad
);
ack_message!(
    /// `SHARD_ACK_EPOCH`.
    EpochAck,
    Step::ShardAckEpoch
);
ack_message!(
    /// `SHARD_ACK_PUSH`.
    PushAck,
    Step::ShardAckPush
);

/// One query inside a [`QueryBatch`]: embedding bits plus the per-query
/// `k` and exclusion (the coordinator clamps `k` to each query's
/// selectable count, so it varies within a batch).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQuery {
    /// Query embedding bits.
    pub embedding: Vec<f32>,
    /// Neighbors requested for this query.
    pub k: u64,
    /// Global RCS index to exclude (`u64::MAX` = none).
    pub exclude: u64,
}

impl BatchQuery {
    fn decode_from(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
        Ok(BatchQuery {
            embedding: Vec::<f32>::decode(r)?,
            k: u64::decode(r)?,
            exclude: u64::decode(r)?,
        })
    }
}

/// `COORD_SEND_QUERY_BATCH`: a batch of partial top-k requests — a single
/// query is a batch of one — pinned to one exact table state
/// (epoch, version); one frame per range per batch pays the round trip
/// once. A shard whose table does not match the pin answers [`Nack`] for
/// the *entire* batch instead of silently serving stale embeddings —
/// staleness is a correctness error here, not a performance detail, and
/// there is no per-query partial answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBatch {
    /// Expected serving epoch.
    pub epoch: u64,
    /// Expected table version (entry count).
    pub version: u64,
    /// The batch, in submission order.
    pub queries: Vec<BatchQuery>,
}

impl QueryBatch {
    /// Appends the payload's query section, `count ‖ queries`, to `out`
    /// from borrowed `(embedding, k, exclude)` triples. The ranges of one
    /// fan-out differ only in their `(epoch, version)` pin, so the
    /// coordinator encodes this section once per batch and
    /// [`Self::frame_with_tail`] puts each range's pin in front of it.
    pub fn encode_queries<'a>(
        queries: impl ExactSizeIterator<Item = (&'a [f32], u64, u64)>,
        out: &mut Vec<u8>,
    ) {
        (queries.len() as u64).encode(out);
        for (embedding, k, exclude) in queries {
            embedding.encode(out);
            k.encode(out);
            exclude.encode(out);
        }
    }

    /// The frame of a batch pinned to `(epoch, version)` whose query
    /// section `tail` came from [`Self::encode_queries`] — byte for byte
    /// the frame [`Message::into_frame`] builds from the owned message.
    pub fn frame_with_tail(epoch: u64, version: u64, tail: &[u8]) -> Frame {
        let mut payload = Vec::with_capacity(16 + tail.len());
        epoch.encode(&mut payload);
        version.encode(&mut payload);
        payload.extend_from_slice(tail);
        Frame {
            step: Self::STEP,
            payload,
        }
    }
}

impl Message for QueryBatch {
    const STEP: Step = Step::CoordSendQueryBatch;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.version.encode(out);
        let queries = self.queries.iter();
        Self::encode_queries(
            queries.map(|q| (q.embedding.as_slice(), q.k, q.exclude)),
            out,
        );
    }

    fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
        let epoch = u64::decode(r)?;
        let version = u64::decode(r)?;
        let n = usize::decode(r)?;
        if n > r.remaining() {
            return Err(serde::bin::Error::Corrupt(
                "batch length prefix exceeds remaining bytes",
            ));
        }
        let mut queries = Vec::with_capacity(n);
        for _ in 0..n {
            queries.push(BatchQuery::decode_from(r)?);
        }
        Ok(QueryBatch {
            epoch,
            version,
            queries,
        })
    }
}

/// `SHARD_SEND_TOPK_BATCH`: one partial top-k list per batched query, in
/// submission order, each `(global id, distance)` list sorted by
/// `autoce::knn_order` with distances bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKBatch {
    /// Epoch the answers were computed under.
    pub epoch: u64,
    /// One `(global RCS id, distance)` list per query, slot-aligned with
    /// the request batch.
    pub lists: Vec<Vec<(u64, f32)>>,
}

impl Message for TopKBatch {
    const STEP: Step = Step::ShardSendTopkBatch;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.lists.encode(out);
    }

    fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
        Ok(TopKBatch {
            epoch: u64::decode(r)?,
            lists: Vec::<Vec<(u64, f32)>>::decode(r)?,
        })
    }
}

/// `COORD_SEND_PUSH`: append one freshly labeled entry to the current
/// epoch table (online adaptation routing a newcomer to its shard).
#[derive(Debug, Clone, PartialEq)]
pub struct Push {
    /// Epoch the push applies to.
    pub epoch: u64,
    /// Expected table version *before* the push (optimistic concurrency:
    /// a replica that missed an earlier push NACKs instead of diverging).
    pub version: u64,
    /// Global RCS index of the new entry.
    pub id: u64,
    /// Embedding bits of the new entry.
    pub embedding: Vec<f32>,
}

impl Message for Push {
    const STEP: Step = Step::CoordSendPush;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.version.encode(out);
        self.id.encode(out);
        self.embedding.encode(out);
    }

    fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
        Ok(Push {
            epoch: u64::decode(r)?,
            version: u64::decode(r)?,
            id: u64::decode(r)?,
            embedding: Vec::<f32>::decode(r)?,
        })
    }
}

/// `COORD_SEND_PING`: liveness probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ping {
    /// Echo nonce (returned verbatim in the pong).
    pub nonce: u64,
}

impl Message for Ping {
    const STEP: Step = Step::CoordSendPing;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        self.nonce.encode(out);
    }

    fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
        Ok(Ping {
            nonce: u64::decode(r)?,
        })
    }
}

/// `SHARD_SEND_PONG`: liveness answer with the shard's serving state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pong {
    /// Echoed nonce.
    pub nonce: u64,
    /// Latest staged epoch (`u64::MAX` when no table is loaded).
    pub epoch: u64,
    /// Entry count of the latest table.
    pub version: u64,
}

impl Message for Pong {
    const STEP: Step = Step::ShardSendPong;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        self.nonce.encode(out);
        self.epoch.encode(out);
        self.version.encode(out);
    }

    fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
        Ok(Pong {
            nonce: u64::decode(r)?,
            epoch: u64::decode(r)?,
            version: u64::decode(r)?,
        })
    }
}

/// Structured NACK reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum NackCode {
    /// The queried (epoch, version) is not loaded — coordinator should
    /// reload this replica.
    StaleTable = 1,
    /// The payload failed to decode.
    Malformed = 2,
    /// The request referenced a table the shard never had.
    NoTable = 3,
    /// The request's header carries a protocol version other than the
    /// shard's [`PROTOCOL_VERSION`]. No repair applies and a retry would
    /// skew again: the coordinator fails the call with a typed protocol
    /// error (a version pin is policy, not an outage).
    VersionSkew = 4,
}

impl NackCode {
    fn from_u16(v: u16) -> Option<NackCode> {
        Some(match v {
            1 => NackCode::StaleTable,
            2 => NackCode::Malformed,
            3 => NackCode::NoTable,
            4 => NackCode::VersionSkew,
            _ => return None,
        })
    }
}

/// `SHARD_SEND_NACK`: recoverable refusal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nack {
    /// Machine-readable reason.
    pub code: NackCode,
    /// Human-readable detail (diagnostics only; never parsed).
    pub detail: String,
}

impl Message for Nack {
    const STEP: Step = Step::ShardSendNack;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        (self.code as u16).encode(out);
        self.detail.encode(out);
    }

    fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
        let raw = u16::decode(r)?;
        let code = NackCode::from_u16(raw).ok_or(serde::bin::Error::Corrupt("nack code"))?;
        Ok(Nack {
            code,
            detail: String::decode(r)?,
        })
    }
}

macro_rules! empty_message {
    ($(#[$doc:meta])* $name:ident, $step:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name;

        impl Message for $name {
            const STEP: Step = $step;

            fn encode_payload(&self, _out: &mut Vec<u8>) {}

            fn decode_payload(_r: &mut Reader<'_>) -> serde::bin::Result<Self> {
                Ok($name)
            }
        }
    };
}

empty_message!(
    /// `COORD_SEND_SHUTDOWN`.
    Shutdown,
    Step::CoordSendShutdown
);
empty_message!(
    /// `SHARD_ACK_SHUTDOWN`.
    ShutdownAck,
    Step::ShardAckShutdown
);
empty_message!(
    /// `COORD_SEND_METRICS`: ask the shard for its metrics snapshot.
    MetricsRequest,
    Step::CoordSendMetrics
);

/// `SHARD_SEND_METRICS`: the shard's metrics snapshot as opaque
/// `ce_obs::MetricsSnapshot::to_bytes` bytes. Carrying the snapshot
/// pre-encoded keeps this protocol's codec independent of the metrics
/// schema — the coordinator decodes (and version-checks) the inner bytes
/// with `MetricsSnapshot::from_bytes` and simply skips replicas whose
/// snapshots fail to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReply {
    /// `MetricsSnapshot::to_bytes` output, opaque at this layer.
    pub snapshot: Vec<u8>,
}

impl Message for MetricsReply {
    const STEP: Step = Step::ShardSendMetrics;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        self.snapshot.encode(out);
    }

    fn decode_payload(r: &mut Reader<'_>) -> serde::bin::Result<Self> {
        Ok(MetricsReply {
            snapshot: Vec::<u8>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_roundtrip_their_numbers() {
        // The whole table, literally: wire numbers and metric label
        // strings are both API, so neither may move when the table does.
        let table: [(u16, &str); 15] = [
            (0, "coord_send_load"),
            (1, "shard_ack_load"),
            (4, "coord_send_snapshot_epoch"),
            (5, "shard_ack_epoch"),
            (6, "coord_send_push"),
            (7, "shard_ack_push"),
            (8, "coord_send_ping"),
            (9, "shard_send_pong"),
            (10, "shard_send_nack"),
            (11, "coord_send_shutdown"),
            (12, "shard_ack_shutdown"),
            (13, "coord_send_query_batch"),
            (14, "shard_send_topk_batch"),
            (15, "coord_send_metrics"),
            (16, "shard_send_metrics"),
        ];
        let all: Vec<(u16, &str)> = Step::all().map(|s| (s as u16, s.name())).collect();
        assert_eq!(all, table);
        for (n, name) in table {
            let step = Step::from_u16(n).expect("valid step");
            assert_eq!((step as u16, step.name()), (n, name));
        }
        // The retired per-query pair is never reused.
        assert!(Step::from_u16(2).is_none());
        assert!(Step::from_u16(3).is_none());
        assert!(Step::from_u16(17).is_none());
        assert!(Step::from_u16(u16::MAX).is_none());
    }

    #[test]
    fn metrics_reply_roundtrips_opaque_bytes() {
        let m = MetricsReply {
            snapshot: vec![0xCE, 0x0B, 0x00, 0x01, 0xff],
        };
        let frame = m.clone().into_frame();
        let back = Frame::from_bytes(&frame.to_bytes()).expect("parses");
        assert_eq!(MetricsReply::from_frame(&back).expect("decodes"), m);
        let req = MetricsRequest.into_frame();
        assert!(req.payload.is_empty());
    }

    #[test]
    fn query_batch_roundtrips() {
        let b = QueryBatch {
            epoch: 9,
            version: 33,
            queries: vec![
                BatchQuery {
                    embedding: vec![1.5, -0.0, f32::MIN_POSITIVE],
                    k: 2,
                    exclude: u64::MAX,
                },
                BatchQuery {
                    embedding: vec![f32::NAN],
                    k: 1,
                    exclude: 7,
                },
            ],
        };
        let frame = Frame::from_bytes(&b.clone().into_frame().to_bytes()).expect("parses");
        let back = QueryBatch::from_frame(&frame).expect("decodes");
        assert_eq!(back.epoch, b.epoch);
        assert_eq!(back.version, b.version);
        assert_eq!(back.queries.len(), 2);
        for (a, want) in back.queries.iter().zip(&b.queries) {
            assert_eq!(a.k, want.k);
            assert_eq!(a.exclude, want.exclude);
            let bits: Vec<u32> = a.embedding.iter().map(|f| f.to_bits()).collect();
            let want_bits: Vec<u32> = want.embedding.iter().map(|f| f.to_bits()).collect();
            assert_eq!(bits, want_bits);
        }
        let t = TopKBatch {
            epoch: 9,
            lists: vec![vec![(3, 0.5), (1, 0.5)], vec![]],
        };
        let frame = Frame::from_bytes(&t.clone().into_frame().to_bytes()).expect("parses");
        assert_eq!(TopKBatch::from_frame(&frame).expect("decodes"), t);
    }

    #[test]
    fn frame_roundtrips() {
        let q = QueryBatch {
            epoch: 3,
            version: 17,
            queries: vec![BatchQuery {
                embedding: vec![1.5, -0.0, f32::MIN_POSITIVE],
                k: 2,
                exclude: u64::MAX,
            }],
        };
        let frame = q.clone().into_frame();
        let bytes = frame.to_bytes();
        assert_eq!(bytes[4..6], PROTOCOL_VERSION.to_le_bytes());
        let back = Frame::from_bytes(&bytes).expect("frame decodes");
        assert_eq!(back, frame);
        assert_eq!(QueryBatch::from_frame(&back).expect("payload decodes"), q);
    }

    #[test]
    fn foreign_and_torn_traffic_is_rejected() {
        let frame = Ping { nonce: 9 }.into_frame();
        let good = frame.to_bytes();
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Frame::from_bytes(&bad),
            Err(FrameError::BadMagic(_))
        ));
        // Wrong version — newer, or the retired version 1 — is a typed
        // error before the step or the payload is looked at.
        for version in [0xfeu16, 1] {
            let mut bad = good.clone();
            bad[4..6].copy_from_slice(&version.to_le_bytes());
            bad[6] = 0x77;
            bad.truncate(HEADER_LEN + 1);
            assert_eq!(
                Frame::from_bytes(&bad),
                Err(FrameError::BadVersion(version))
            );
        }
        // Unknown step.
        let mut bad = good.clone();
        bad[6] = 0x77;
        assert!(matches!(
            Frame::from_bytes(&bad),
            Err(FrameError::BadStep(_))
        ));
        // Truncated at every byte boundary.
        for cut in 0..good.len() {
            assert!(Frame::from_bytes(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Wrong step for the typed decode.
        let other = Shutdown.into_frame();
        assert!(matches!(
            Ping::from_frame(&other),
            Err(FrameError::WrongStep { .. })
        ));
    }

    #[test]
    fn table_with_mismatched_lengths_is_corrupt() {
        let mut payload = Vec::new();
        7u64.encode(&mut payload); // epoch
        vec![1u64, 2].encode(&mut payload); // two ids
        vec![vec![1.0f32]].encode(&mut payload); // one embedding
        let frame = Frame {
            step: Step::CoordSendLoad,
            payload,
        };
        assert!(matches!(
            Load::from_frame(&frame),
            Err(FrameError::Payload(serde::bin::Error::Corrupt(_)))
        ));
    }
}
