//! Property coverage for the wire codec: everything that encodes must
//! decode back bit-identically (floats travel as IEEE-754 bit patterns,
//! so NaN payloads, signed zeros, infinities and subnormals all count),
//! and no truncated, garbled, or outright random byte sequence may ever
//! panic the decoder — malformed input is an `Err`, full stop.

use ce_cluster::protocol::{
    BatchQuery, EpochTable, Frame, FrameError, Load, Message, Push, QueryBatch, TopKBatch,
    HEADER_LEN,
};
use ce_cluster::{Step, PROTOCOL_VERSION};
use proptest::prelude::*;

/// Bit-exact float comparison (NaN-safe, sign-of-zero-exact).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Denormals, infinities, NaN, extremes — always prepended to generated
/// embeddings so every case exercises the edge of the f32 lattice.
const EDGE_BITS: [u32; 8] = [
    0x0000_0000, // +0.0
    0x8000_0000, // -0.0
    0x0000_0001, // smallest subnormal
    0x7f7f_ffff, // f32::MAX
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_0000, // quiet NaN
    0xffc0_0001, // negative signalling-pattern NaN
];

fn embedding_from(raw: &[u32]) -> Vec<f32> {
    EDGE_BITS
        .iter()
        .chain(raw)
        .map(|&b| f32::from_bits(b))
        .collect()
}

proptest! {
    /// A single query — a batch of one — survives encode → bytes →
    /// decode with every field, including arbitrary-bit-pattern floats,
    /// intact.
    #[test]
    fn query_roundtrips_bit_identically(
        epoch in 0u64..=u64::MAX,
        version in 0u64..=u64::MAX,
        raw in prop::collection::vec(0u32..=u32::MAX, 0..8),
        k in 0u64..1000,
        exclude in 0u64..=u64::MAX,
    ) {
        let q = QueryBatch {
            epoch,
            version,
            queries: vec![BatchQuery {
                embedding: embedding_from(&raw),
                k,
                exclude,
            }],
        };
        let wire = q.clone().into_frame().to_bytes();
        let frame = Frame::from_bytes(&wire).expect("self-encoded frame parses");
        let back = QueryBatch::from_frame(&frame).expect("self-encoded payload decodes");
        prop_assert_eq!(back.epoch, q.epoch);
        prop_assert_eq!(back.version, q.version);
        prop_assert_eq!(back.queries.len(), 1);
        prop_assert_eq!(back.queries[0].k, q.queries[0].k);
        prop_assert_eq!(back.queries[0].exclude, q.queries[0].exclude);
        prop_assert_eq!(bits(&back.queries[0].embedding), bits(&q.queries[0].embedding));
    }

    /// Epoch tables — including the empty table and single-entry shards —
    /// round-trip bit-identically through a Load frame.
    #[test]
    fn epoch_table_roundtrips_bit_identically(
        epoch in 0u64..=u64::MAX,
        rows in prop::collection::vec(prop::collection::vec(0u32..=u32::MAX, 0..5), 0..5),
        ids in prop::collection::vec(0u64..=u64::MAX, 0..5),
    ) {
        let n = rows.len().min(ids.len());
        let table = EpochTable {
            epoch,
            ids: ids[..n].to_vec(),
            embeddings: rows[..n].iter().map(|r| embedding_from(r)).collect(),
        };
        let wire = Load { table: table.clone() }.into_frame().to_bytes();
        let frame = Frame::from_bytes(&wire).expect("frame parses");
        let Load { table: back } = Load::from_frame(&frame).expect("payload decodes");
        prop_assert_eq!(back.epoch, table.epoch);
        prop_assert_eq!(back.version(), table.version());
        prop_assert_eq!(&back.ids, &table.ids);
        for (a, b) in back.embeddings.iter().zip(&table.embeddings) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }

    /// Top-k answers with tie-heavy quantized distances keep both values
    /// and slot order exactly — the merge's tie-breaking depends on it.
    #[test]
    fn topk_roundtrip_preserves_order_and_ties(
        epoch in 0u64..1000,
        ids in prop::collection::vec(0u64..64, 0..10),
        dq in prop::collection::vec(0i64..=4, 10),
    ) {
        let entries: Vec<(u64, f32)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, dq[i] as f32 / 2.0))
            .collect();
        let t = TopKBatch { epoch, lists: vec![entries] };
        let frame = Frame::from_bytes(&t.clone().into_frame().to_bytes()).expect("parses");
        let back = TopKBatch::from_frame(&frame).expect("decodes");
        prop_assert_eq!(back.epoch, t.epoch);
        prop_assert_eq!(back.lists.len(), 1);
        prop_assert_eq!(back.lists[0].len(), t.lists[0].len());
        for ((ia, da), (ib, db)) in back.lists[0].iter().zip(&t.lists[0]) {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(da.to_bits(), db.to_bits());
        }
    }

    /// Every strict prefix of a valid frame — header cut short, payload
    /// cut short — is an `Err`, never a panic, never a partial decode.
    #[test]
    fn truncated_frames_error_cleanly(
        raw in prop::collection::vec(0u32..=u32::MAX, 0..6),
        cut_sel in 0usize..=1000,
    ) {
        let push = Push {
            epoch: 3,
            version: 7,
            id: 11,
            embedding: embedding_from(&raw),
        };
        let wire = push.into_frame().to_bytes();
        let cut = cut_sel % wire.len();
        prop_assert!(
            Frame::from_bytes(&wire[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not parse",
            wire.len()
        );
        // Truncating only the payload behind an intact header must fail
        // the message decode (the codec demands exact consumption).
        if cut > HEADER_LEN {
            let frame = Frame {
                step: Step::CoordSendPush,
                payload: wire[HEADER_LEN..cut].to_vec(),
            };
            prop_assert!(Push::from_frame(&frame).is_err());
        }
    }

    /// Batched queries round-trip bit-identically: every
    /// per-query embedding keeps its exact bit pattern (NaNs, signed
    /// zeros, subnormals, infinities), and per-query `k`/`exclude` ride
    /// along untouched. Batch depths 0 (empty) and 1 are generated as
    /// often as deep batches — the degenerate shapes are where length
    /// prefixes go wrong.
    #[test]
    fn query_batch_roundtrips_bit_identically(
        epoch in 0u64..=u64::MAX,
        version in 0u64..=u64::MAX,
        raws in prop::collection::vec(prop::collection::vec(0u32..=u32::MAX, 0..6), 0..5),
        ks in prop::collection::vec(0u64..1000, 5),
        excludes in prop::collection::vec(0u64..=u64::MAX, 5),
    ) {
        let qb = QueryBatch {
            epoch,
            version,
            queries: raws
                .iter()
                .enumerate()
                .map(|(i, raw)| BatchQuery {
                    embedding: embedding_from(raw),
                    k: ks[i],
                    exclude: excludes[i],
                })
                .collect(),
        };
        let wire = qb.clone().into_frame().to_bytes();
        // Every frame declares the one protocol version in the header.
        prop_assert_eq!(u16::from_le_bytes([wire[4], wire[5]]), PROTOCOL_VERSION);
        let frame = Frame::from_bytes(&wire).expect("self-encoded frame parses");
        let back = QueryBatch::from_frame(&frame).expect("self-encoded payload decodes");
        prop_assert_eq!(back.epoch, qb.epoch);
        prop_assert_eq!(back.version, qb.version);
        prop_assert_eq!(back.queries.len(), qb.queries.len());
        for (a, b) in back.queries.iter().zip(&qb.queries) {
            prop_assert_eq!(a.k, b.k);
            prop_assert_eq!(a.exclude, b.exclude);
            prop_assert_eq!(bits(&a.embedding), bits(&b.embedding));
        }
        // The coordinator's form — the query section encoded once from
        // borrowed embeddings, each range's pin put in front — is the same
        // bytes, whatever the pin.
        let mut tail = Vec::new();
        let borrowed = qb.queries.iter().map(|q| (q.embedding.as_slice(), q.k, q.exclude));
        QueryBatch::encode_queries(borrowed, &mut tail);
        for (epoch, version) in [(epoch, version), (version, epoch)] {
            let shared = QueryBatch::frame_with_tail(epoch, version, &tail);
            let owned = QueryBatch { epoch, version, queries: qb.queries.clone() };
            prop_assert_eq!(shared.to_bytes(), owned.into_frame().to_bytes());
            let back = QueryBatch::from_frame(&shared).expect("shared-tail payload decodes");
            prop_assert_eq!((back.epoch, back.version), (epoch, version));
            prop_assert_eq!(back.queries.len(), qb.queries.len());
            for (a, b) in back.queries.iter().zip(&qb.queries) {
                prop_assert_eq!((a.k, a.exclude), (b.k, b.exclude));
                prop_assert_eq!(bits(&a.embedding), bits(&b.embedding));
            }
        }
    }

    /// Batched top-k replies keep every list's slot order and every
    /// distance's bits — including empty lists (a range with fewer
    /// entries than `k`) and tie-heavy quantized distances the merge's
    /// tie-breaking depends on.
    #[test]
    fn topk_batch_roundtrips_bit_identically(
        epoch in 0u64..1000,
        lists in prop::collection::vec(
            prop::collection::vec(0u64..64, 0..6),
            0..5,
        ),
    ) {
        // Quantized distances derived from the ids: heavy ties on a
        // half-integer lattice, exactly the shape the merge tie-breaks.
        let tb = TopKBatch {
            epoch,
            lists: lists
                .iter()
                .map(|l| l.iter().map(|&id| (id, (id % 5) as f32 / 2.0)).collect())
                .collect(),
        };
        let wire = tb.clone().into_frame().to_bytes();
        let frame = Frame::from_bytes(&wire).expect("frame parses");
        let back = TopKBatch::from_frame(&frame).expect("payload decodes");
        prop_assert_eq!(back.epoch, tb.epoch);
        prop_assert_eq!(back.lists.len(), tb.lists.len());
        for (a, b) in back.lists.iter().zip(&tb.lists) {
            prop_assert_eq!(a.len(), b.len());
            for ((ia, da), (ib, db)) in a.iter().zip(b) {
                prop_assert_eq!(ia, ib);
                prop_assert_eq!(da.to_bits(), db.to_bits());
            }
        }
    }

    /// Every strict prefix of a batch frame errors cleanly, and a batch
    /// whose length prefix promises more queries than the payload holds
    /// is `Corrupt` — never a panic, never a giant speculative
    /// allocation.
    #[test]
    fn truncated_batch_frames_error_cleanly(
        raw in prop::collection::vec(0u32..=u32::MAX, 0..4),
        depth in 1usize..4,
        cut_sel in 0usize..=10_000,
        bogus_count in 5u64..=u64::MAX,
    ) {
        let qb = QueryBatch {
            epoch: 3,
            version: 9,
            queries: (0..depth)
                .map(|i| BatchQuery {
                    embedding: embedding_from(&raw),
                    k: i as u64 + 1,
                    exclude: u64::MAX,
                })
                .collect(),
        };
        let wire = qb.into_frame().to_bytes();
        let cut = cut_sel % wire.len();
        prop_assert!(
            Frame::from_bytes(&wire[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not parse",
            wire.len()
        );
        if cut > HEADER_LEN {
            let frame = Frame {
                step: Step::CoordSendQueryBatch,
                payload: wire[HEADER_LEN..cut].to_vec(),
            };
            prop_assert!(QueryBatch::from_frame(&frame).is_err());
        }
        // Overwrite the batch-count prefix (payload bytes 16..24: epoch
        // and version are 8 bytes each) with a count the payload cannot
        // possibly hold.
        let mut capped = wire.clone();
        capped[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&bogus_count.to_le_bytes());
        let frame = Frame::from_bytes(&capped).expect("header untouched");
        prop_assert!(QueryBatch::from_frame(&frame).is_err());
    }

    /// Single-byte corruption of a deep batch frame never panics —
    /// including flips in the header's version bytes, which leave no
    /// legal version and must be caught as `BadVersion`, not decoded.
    #[test]
    fn flipped_byte_in_batch_frame_never_panics(
        raw in prop::collection::vec(0u32..=u32::MAX, 0..3),
        depth in 2usize..5,
        idx_sel in 0usize..=10_000,
        mask in 1u8..=255,
    ) {
        let qb = QueryBatch {
            epoch: 1,
            version: 2,
            queries: (0..depth)
                .map(|i| BatchQuery {
                    embedding: embedding_from(&raw),
                    k: i as u64 + 1,
                    exclude: u64::MAX,
                })
                .collect(),
        };
        let mut wire = qb.into_frame().to_bytes();
        let idx = idx_sel % wire.len();
        wire[idx] ^= mask;
        match Frame::from_bytes(&wire) {
            Err(e) => {
                if (4..6).contains(&idx) {
                    let flipped = u16::from_le_bytes([wire[4], wire[5]]);
                    prop_assert_eq!(e, FrameError::BadVersion(flipped));
                }
            }
            Ok(frame) => {
                prop_assert!(!(4..6).contains(&idx), "a flipped version byte parsed");
                prop_assert_eq!(frame.to_bytes(), wire);
                if let Ok(back) = QueryBatch::from_frame(&frame) {
                    prop_assert_eq!(back.into_frame().to_bytes(), wire);
                }
            }
        }
    }

    /// Arbitrary bytes never panic the frame parser, and whenever they do
    /// happen to parse, re-encoding reproduces the input exactly (the
    /// codec is canonical).
    #[test]
    fn random_bytes_never_panic_the_parser(
        junk in prop::collection::vec(0u8..=255, 0..64),
    ) {
        if let Ok(frame) = Frame::from_bytes(&junk) {
            prop_assert_eq!(frame.to_bytes(), junk);
        }
    }

    /// Single-byte corruption of a single-query frame never panics: the
    /// result is an `Err`, or a frame that still re-encodes canonically
    /// (e.g. a flipped bit inside a float payload).
    #[test]
    fn flipped_byte_never_panics(
        raw in prop::collection::vec(0u32..=u32::MAX, 0..4),
        idx_sel in 0usize..=10_000,
        mask in 1u8..=255,
    ) {
        let q = QueryBatch {
            epoch: 1,
            version: 2,
            queries: vec![BatchQuery {
                embedding: embedding_from(&raw),
                k: 3,
                exclude: u64::MAX,
            }],
        };
        let mut wire = q.into_frame().to_bytes();
        let idx = idx_sel % wire.len();
        wire[idx] ^= mask;
        match Frame::from_bytes(&wire) {
            Err(_) => {}
            Ok(frame) => {
                prop_assert_eq!(frame.to_bytes(), wire);
                // A structurally valid frame with a corrupted payload must
                // decode to an Err or to a query that re-encodes to the
                // same bytes — never panic, never lose sync silently.
                if let Ok(back) = QueryBatch::from_frame(&frame) {
                    prop_assert_eq!(back.into_frame().to_bytes(), wire);
                }
            }
        }
    }
}
