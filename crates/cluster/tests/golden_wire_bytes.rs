//! Golden wire bytes of every `ce-cluster` message.
//!
//! The codec of each message derives from its row in the protocol's step
//! table; this file pins what those rows put on the wire. It folds
//! `Frame::to_bytes()` of a fixed list of frames — every step, every
//! `NackCode`, the edge shapes of tables, batches and top-k lists — into
//! one FNV-1a checksum and checks their total length. Both constants were
//! captured before the codec was derived from the table; a change that
//! moves either has changed the wire format, and a peer of the previous
//! build would no longer understand it. The request path's borrowed
//! encoders (`QueryBatch::frame_with_tail`, `TopKBatch::frame_from_lists`)
//! write the owned messages' bytes; `codec_props.rs` and the protocol's
//! unit tests check that, so this pin covers them too.

use ce_cluster::protocol::{
    EpochAck, Load, LoadAck, Nack, Ping, Pong, Push, PushAck, Shutdown, ShutdownAck, SnapshotEpoch,
};
use ce_cluster::{
    BatchQuery, EpochTable, Frame, Message, MetricsReply, MetricsRequest, NackCode, QueryBatch,
    Step, TopKBatch,
};

/// FNV-1a over the concatenated bytes of [`frames`].
const WIRE_FNV1A: u64 = 0x3624_85b0_195a_3b56;
/// Total bytes of [`frames`], headers included.
const WIRE_LEN: usize = 961;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Three rows whose floats sit on the edges of the f32 lattice: NaN, ±∞,
/// −0.0, the smallest subnormal and the largest subnormal.
fn edge_table(epoch: u64) -> EpochTable {
    EpochTable {
        epoch,
        ids: vec![0, 7, u64::MAX],
        embeddings: vec![
            vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY],
            vec![-0.0, f32::from_bits(1), f32::from_bits(0x007f_ffff)],
            vec![1.5, f32::from_bits(0xffc0_0001), f32::MIN_POSITIVE],
        ],
    }
}

fn empty_table(epoch: u64) -> EpochTable {
    EpochTable {
        epoch,
        ids: Vec::new(),
        embeddings: Vec::new(),
    }
}

fn two_deep_batch() -> QueryBatch {
    QueryBatch {
        epoch: 3,
        version: 17,
        queries: vec![
            BatchQuery {
                embedding: vec![1.5, -0.0, f32::from_bits(1)],
                k: 5,
                exclude: u64::MAX,
            },
            BatchQuery {
                embedding: vec![f32::NAN, f32::NEG_INFINITY, 0.25],
                k: 1,
                exclude: u64::MAX,
            },
        ],
    }
}

fn topk_with_empty_list() -> TopKBatch {
    TopKBatch {
        epoch: 3,
        lists: vec![vec![(7, 0.5), (0, 0.5), (u64::MAX, f32::INFINITY)], vec![]],
    }
}

/// The pinned frames, in a fixed order.
fn frames() -> Vec<Frame> {
    let nack = |code: NackCode, detail: &str| {
        Nack {
            code,
            detail: detail.to_string(),
        }
        .into_frame()
    };
    vec![
        Load {
            table: empty_table(0),
        }
        .into_frame(),
        Load {
            table: edge_table(1),
        }
        .into_frame(),
        LoadAck {
            epoch: 1,
            version: 3,
        }
        .into_frame(),
        SnapshotEpoch {
            table: empty_table(2),
        }
        .into_frame(),
        SnapshotEpoch {
            table: edge_table(2),
        }
        .into_frame(),
        EpochAck {
            epoch: 2,
            version: 3,
        }
        .into_frame(),
        Push {
            epoch: 2,
            version: 3,
            id: 3,
            embedding: vec![-0.0, f32::NAN],
        }
        .into_frame(),
        PushAck {
            epoch: 2,
            version: 4,
        }
        .into_frame(),
        Ping { nonce: 0xfeed }.into_frame(),
        Pong {
            nonce: 0xfeed,
            epoch: u64::MAX,
            version: 0,
        }
        .into_frame(),
        nack(NackCode::StaleTable, "batch pins (epoch 2, version 3)"),
        nack(NackCode::Malformed, "ümlaut ≠ ascii · 表"),
        nack(NackCode::NoTable, ""),
        nack(NackCode::VersionSkew, "unsupported protocol version 1"),
        Shutdown {}.into_frame(),
        ShutdownAck {}.into_frame(),
        QueryBatch {
            epoch: 0,
            version: 0,
            queries: Vec::new(),
        }
        .into_frame(),
        two_deep_batch().into_frame(),
        topk_with_empty_list().into_frame(),
        MetricsRequest {}.into_frame(),
        MetricsReply {
            snapshot: vec![0xCE, 0x0B, 0x00, 0xff],
        }
        .into_frame(),
    ]
}

#[test]
fn wire_bytes_are_pinned() {
    let frames = frames();
    let mut steps: Vec<Step> = frames.iter().map(|f| f.step).collect();
    steps.dedup();
    assert_eq!(
        steps,
        Step::all().collect::<Vec<_>>(),
        "every step, in order"
    );
    let wire: Vec<u8> = frames.iter().flat_map(Frame::to_bytes).collect();
    assert_eq!(wire.len(), WIRE_LEN, "total wire bytes");
    assert_eq!(
        fnv1a(&wire),
        WIRE_FNV1A,
        "wire digest 0x{:016x}",
        fnv1a(&wire)
    );
}

/// Decodes `frame` as the message of its step and encodes it again.
fn reencode(frame: &Frame) -> Frame {
    fn again<M: Message>(frame: &Frame) -> Frame {
        M::from_frame(frame)
            .expect("pinned payload decodes")
            .into_frame()
    }
    match frame.step {
        Step::CoordSendLoad => again::<Load>(frame),
        Step::ShardAckLoad => again::<LoadAck>(frame),
        Step::CoordSendSnapshotEpoch => again::<SnapshotEpoch>(frame),
        Step::ShardAckEpoch => again::<EpochAck>(frame),
        Step::CoordSendPush => again::<Push>(frame),
        Step::ShardAckPush => again::<PushAck>(frame),
        Step::CoordSendPing => again::<Ping>(frame),
        Step::ShardSendPong => again::<Pong>(frame),
        Step::ShardSendNack => again::<Nack>(frame),
        Step::CoordSendShutdown => again::<Shutdown>(frame),
        Step::ShardAckShutdown => again::<ShutdownAck>(frame),
        Step::CoordSendQueryBatch => again::<QueryBatch>(frame),
        Step::ShardSendTopkBatch => again::<TopKBatch>(frame),
        Step::CoordSendMetrics => again::<MetricsRequest>(frame),
        Step::ShardSendMetrics => again::<MetricsReply>(frame),
    }
}

/// Every pinned frame decodes, as the message of its step, back to its
/// own bytes: the pin is of messages the decoder accepts, not of bytes
/// only the encoder writes.
#[test]
fn pinned_frames_decode_canonically() {
    for frame in frames() {
        let wire = frame.to_bytes();
        let back = Frame::from_bytes(&wire).expect("pinned frame parses");
        assert_eq!(reencode(&back).to_bytes(), wire, "{:?}", frame.step);
    }
}
