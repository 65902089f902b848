//! Golden bits of the Stage-4 KNN predictor on every serving tier.
//!
//! Every tier — the flat advisor, the in-process shards, the cluster
//! coordinator and the shard server behind it — exists to return the flat
//! advisor's bits, and since PR 17 they all call `autoce::knn`. A parity
//! suite that compares one caller of that module with another can no
//! longer see the module itself move, so this file pins the answers as
//! FNV-1a checksums captured on commit 787ee23, **before** the three scans
//! were replaced. A change that moves one of these constants has changed
//! recommendations.
//!
//! Grid: the tie-heavy quantized-grid fixture at n ∈ {1, 2, 11, 96, 600} ×
//! k ∈ {1, 3, 5, 700} × exclude ∈ {none, 0, n/2, n−1} × 28 queries (25
//! on-grid, 3 outliers), on three RCS states (as built, after one push,
//! after the refresh that follows it). All tiers answer one state with one
//! checksum; the shard server's partial lists are folded separately.

mod common;

use autoce::{AdvisorBackend, AutoCe, BatchPredictRequest, IndexConfig};
use ce_cluster::protocol::{Load, Message, Push};
use ce_cluster::{
    BatchQuery, ClusterCoordinator, Conn, Connector, EpochTable, Frame, QueryBatch, ShardState,
    TopKBatch, WireError,
};
use ce_features::FeatureGraph;
use ce_models::ModelKind;
use ce_obs::{MetricsRegistry, MetricsSnapshot};
use ce_testbed::{DatasetLabel, MetricWeights};
use common::fault::FaultPlan;
use common::fixtures::{synthetic_grid, synthetic_label, tie_heavy_queries};
use common::sim::{no_sleep, over_sim, SimNet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Answers over the RCS as built — every tier.
const BUILT_FNV1A: u64 = 0xfac4_66e4_83ee_6ef9;
/// Answers after one `push_entry` (any index slot is stale or dropped).
const PUSHED_FNV1A: u64 = 0xa6d6_697e_ce47_477a;
/// Answers after the `refresh_embeddings` that follows the push.
const REFRESHED_FNV1A: u64 = 0x6e10_2bd2_9751_fe26;
/// The shard server's `TopKBatch` lists, ascending-id tables, before and
/// after one wire push.
const SHARD_LISTS_FNV1A: u64 = 0x0ba8_532e_25f3_2a3a;
/// The same over hand-built tables whose ids descend: the same `(id,
/// embedding)` set, so the same lists, by flat scan.
const SHARD_LISTS_DESCENDING_FNV1A: u64 = 0x0ba8_532e_25f3_2a3a;
/// `ce_index_queries_total` as `[indexed, fallback, bypass]` over a whole
/// tier run: one increment per partition query that met a build, none
/// where the slot was empty or dropped.
const FLAT_OUTCOMES: [u64; 3] = [2074, 390, 0];
const SHARDED_2_OUTCOMES: [u64; 3] = [3455, 1697, 0];
const SHARDED_5_OUTCOMES: [u64; 3] = [8968, 2456, 0];
/// Shard server, by index knob: `[ascending tables, descending tables]`.
/// A descending table is refused a build; the counts in that column are
/// the one-entry table, whose single id is in order either way.
const SHARD_SERVER_DEFAULT_OUTCOMES: [[u64; 3]; 2] = [[524, 372, 0], [0, 0, 0]];
const SHARD_SERVER_SMALL_OUTCOMES: [[u64; 3]; 2] = [[2825, 1319, 0], [560, 0, 0]];

const NS: [usize; 5] = [1, 2, 11, 96, 600];
const KS: [usize; 4] = [1, 3, 5, 700];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn queries() -> Vec<Vec<f32>> {
    let mut qs = tie_heavy_queries();
    qs.extend([
        vec![9.0, -7.5, 3.25],
        vec![-40.0, 40.0, 0.0],
        vec![0.25, 0.25, 100.0],
    ]);
    qs
}

fn weights(qi: usize) -> MetricWeights {
    MetricWeights::new([0.0, 0.6, 1.0][qi % 3])
}

fn excludes(n: usize) -> [usize; 4] {
    [usize::MAX, 0, n / 2, n - 1]
}

/// A mixed index: two of four partitions probed, so some queries are
/// index-served and some fall back. The cutover must be at least `k`, so
/// `k = 700` never gets a build at these sizes (the declined-build case).
fn index_cfg(k: usize) -> IndexConfig {
    IndexConfig::builder()
        .partitions(4)
        .probe(2)
        .min_rcs_for_index(k.max(2))
        .build()
        .expect("valid index config")
}

type Answer = (ModelKind, Vec<f64>);

/// Folds one RCS state's answers: per exclusion, per query, the model's
/// ordinal and every score's bits. A query with nothing to select (the
/// one-entry RCS with its entry excluded) folds a marker instead — the
/// tuple-returning forms panic on it by contract.
fn fold_answers(
    h: &mut Fnv,
    n: usize,
    len: usize,
    mut predict: impl FnMut(&[f32], MetricWeights, usize) -> Answer,
) {
    for exclude in excludes(n) {
        for (qi, x) in queries().iter().enumerate() {
            if len - usize::from(exclude < len) == 0 {
                h.u64(0xEE);
                continue;
            }
            let (model, scores) = predict(x, weights(qi), exclude);
            h.u64(model as u64);
            h.u64(scores.len() as u64);
            for s in scores {
                h.u64(s.to_bits());
            }
        }
    }
}

fn pushed_graph() -> FeatureGraph {
    FeatureGraph {
        vertices: vec![vec![0.3, 0.3, 0.3, 0.3]],
        edges: vec![vec![0.0]],
    }
}

/// The three checksums (built, pushed, refreshed) of one tier: `build`
/// makes the tier's advisor from the flat fixture at `(n, k)`.
fn tier<A>(
    build: impl Fn(&AutoCe, usize) -> A,
    len: impl Fn(&A) -> usize,
    predict: impl Fn(&A, &[f32], MetricWeights, usize) -> Answer,
    push: impl Fn(&mut A, FeatureGraph, &DatasetLabel),
    refresh: impl Fn(&mut A),
) -> [u64; 3] {
    let mut sums = [Fnv::new(), Fnv::new(), Fnv::new()];
    for n in NS {
        for k in KS {
            let flat = synthetic_grid(n, k);
            let mut a = build(&flat, k);
            fold_answers(&mut sums[0], n, len(&a), |x, w, e| predict(&a, x, w, e));
            push(
                &mut a,
                pushed_graph(),
                &synthetic_label(&flat.entry(0).kinds),
            );
            fold_answers(&mut sums[1], n, len(&a), |x, w, e| predict(&a, x, w, e));
            refresh(&mut a);
            fold_answers(&mut sums[2], n, len(&a), |x, w, e| predict(&a, x, w, e));
        }
    }
    sums.map(|h| h.0)
}

const GOLDEN: [u64; 3] = [BUILT_FNV1A, PUSHED_FNV1A, REFRESHED_FNV1A];

fn assert_tier(name: &str, got: [u64; 3]) {
    assert_eq!(
        got.map(|v| format!("{v:#018x}")),
        GOLDEN.map(|v| format!("{v:#018x}")),
        "{name}: [built, pushed, refreshed] moved off the parent-commit capture"
    );
}

fn outcomes(snapshot: &MetricsSnapshot) -> [u64; 3] {
    ["indexed", "fallback", "bypass"]
        .map(|o| snapshot.counter("ce_index_queries_total", &[("outcome", o)]))
}

/// `registry`: `Some` installs the index, counting into it.
fn flat_tier(registry: Option<&MetricsRegistry>) -> [u64; 3] {
    tier(
        |flat, k| {
            let mut a = synthetic_grid(flat.len(), k);
            if let Some(registry) = registry {
                a.set_metrics(registry.clone());
                a.set_index_config(index_cfg(k)).expect("cutover covers k");
            }
            a
        },
        AutoCe::len,
        |a, x, w, e| a.predict_excluding(x, w, e).expect("flat"),
        |a, g, l| {
            a.push_entry(g, l);
        },
        AutoCe::refresh_embeddings,
    )
}

fn sharded_tier(shards: usize, registry: Option<&MetricsRegistry>) -> [u64; 3] {
    tier(
        |flat, k| {
            let mut a = AutoCe::from_advisor(flat, shards);
            if let Some(registry) = registry {
                a.set_metrics(registry.clone());
                a.set_index_config(index_cfg(k)).expect("cutover covers k");
            }
            a
        },
        AutoCe::len,
        |a, x, w, e| a.predict_excluding(x, w, e).expect("flat"),
        |a, g, l| {
            a.push_entry(g, l);
        },
        AutoCe::refresh_embeddings,
    )
}

#[test]
fn flat_advisor_answers_the_captured_bits() {
    assert_tier("flat", flat_tier(None));
    let registry = MetricsRegistry::new();
    assert_tier("flat + index", flat_tier(Some(&registry)));
    assert_eq!(outcomes(&registry.snapshot()), FLAT_OUTCOMES);
}

#[test]
fn sharded_advisor_answers_the_captured_bits() {
    for shards in [1, 2, 3, 5] {
        assert_tier(&format!("{shards} shards"), sharded_tier(shards, None));
    }
    for (shards, want) in [(2, SHARDED_2_OUTCOMES), (5, SHARDED_5_OUTCOMES)] {
        let registry = MetricsRegistry::new();
        assert_tier(
            &format!("{shards} shards + index"),
            sharded_tier(shards, Some(&registry)),
        );
        assert_eq!(outcomes(&registry.snapshot()), want, "{shards} shards");
    }
}

/// A replica that is a [`ShardState`] in this process: what `SimNet`
/// hosts, but with the shard-side index knob in the test's hands.
struct LocalShard {
    state: Arc<Mutex<ShardState>>,
    pending: Option<Frame>,
}

impl Connector for LocalShard {
    fn connect(&mut self) -> Result<Box<dyn Conn>, WireError> {
        Ok(Box::new(LocalShard {
            state: self.state.clone(),
            pending: None,
        }))
    }

    fn label(&self) -> String {
        "local".into()
    }
}

impl Conn for LocalShard {
    fn send(&mut self, frame: &Frame, _deadline: Duration) -> Result<(), WireError> {
        self.pending = Some(self.state.lock().expect("shard state").handle(frame));
        Ok(())
    }

    fn recv(&mut self, _deadline: Duration) -> Result<Frame, WireError> {
        self.pending
            .take()
            .ok_or_else(|| WireError::Frame("recv without a send".into()))
    }
}

const RANGES: usize = 2;
const REPLICAS: usize = 2;

/// A bootstrapped 2 × 2 coordinator. `shard_index`: `None` hosts the
/// replicas on a `SimNet` (default shard knob: an index from 256 entries
/// per range); `Some(cfg)` hosts them on [`LocalShard`]s with that knob.
fn cluster(flat: &AutoCe, shard_index: Option<Option<IndexConfig>>) -> ClusterCoordinator {
    let authority = AutoCe::from_advisor(flat, RANGES);
    let coord = match shard_index {
        None => {
            let net = SimNet::new(RANGES * REPLICAS, FaultPlan::none());
            over_sim(authority, &net, REPLICAS, no_sleep())
        }
        Some(knob) => {
            let connectors = (0..RANGES)
                .map(|_| {
                    (0..REPLICAS)
                        .map(|_| {
                            let mut state = ShardState::new();
                            state.set_index_config(knob.clone()).expect("valid knob");
                            Box::new(LocalShard {
                                state: Arc::new(Mutex::new(state)),
                                pending: None,
                            }) as Box<dyn Connector>
                        })
                        .collect()
                })
                .collect();
            ClusterCoordinator::new(authority, connectors, no_sleep())
        }
    };
    coord.bootstrap().expect("every replica loads");
    coord
}

/// The cluster tier asks each exclusion's 28 queries as one wire batch.
fn cluster_tier(shard_index: impl Fn(usize) -> Option<Option<IndexConfig>>) -> [u64; 3] {
    let mut sums = [Fnv::new(), Fnv::new(), Fnv::new()];
    let fold = |h: &mut Fnv, n: usize, coord: &ClusterCoordinator| {
        let len = coord.rcs_len();
        let qs = queries();
        let mut answers = Vec::new();
        for exclude in excludes(n) {
            if len - usize::from(exclude < len) == 0 {
                continue;
            }
            let batch: Vec<BatchPredictRequest<'_>> = qs
                .iter()
                .enumerate()
                .map(|(qi, x)| BatchPredictRequest {
                    embedding: x,
                    w: weights(qi),
                    exclude,
                })
                .collect();
            answers.extend(coord.predict_batch(&batch).expect("healthy cluster"));
        }
        let mut answers = answers.into_iter();
        fold_answers(h, n, len, |_, _, _| answers.next().expect("one per query"));
    };
    for n in NS {
        for k in KS {
            let flat = synthetic_grid(n, k);
            let coord = cluster(&flat, shard_index(k));
            fold(&mut sums[0], n, &coord);
            coord
                .push_entry(pushed_graph(), &synthetic_label(&flat.entry(0).kinds))
                .expect("push");
            fold(&mut sums[1], n, &coord);
            coord.refresh_and_snapshot().expect("snapshot");
            fold(&mut sums[2], n, &coord);
        }
    }
    sums.map(|h| h.0)
}

#[test]
fn cluster_answers_the_captured_bits() {
    assert_tier("cluster, sim shards", cluster_tier(|_| None));
    assert_tier("cluster, shard index off", cluster_tier(|_| Some(None)));
    assert_tier(
        "cluster, shard index on",
        cluster_tier(|k| Some(Some(index_cfg(k)))),
    );
}

/// Folds the shard server's lists for the grid over `(ids, embeddings)`
/// tables of the fixture, then pushes one entry over the wire and folds
/// the grid again at the new version (the lazily built slot is stale).
fn shard_lists(knob: Option<IndexConfig>, descending: bool) -> (u64, [u64; 3]) {
    let mut h = Fnv::new();
    let mut counts = [0u64; 3];
    let qs = queries();
    for n in NS {
        let flat = synthetic_grid(n, 1);
        let mut rows: Vec<(u64, Vec<f32>)> = (0..flat.len())
            .map(|i| (i as u64, flat.entry(i).embedding.clone()))
            .collect();
        if descending {
            rows.reverse();
        }
        let mut state = ShardState::new();
        state.set_index_config(knob.clone()).expect("valid knob");
        let (ids, embeddings) = rows.into_iter().unzip();
        let load = Load {
            table: EpochTable {
                epoch: 7,
                ids,
                embeddings,
            },
        };
        state.handle(&load.into_frame());
        for version in [n as u64, n as u64 + 1] {
            for k in KS {
                for exclude in excludes(n) {
                    let batch = QueryBatch {
                        epoch: 7,
                        version,
                        queries: qs
                            .iter()
                            .map(|x| BatchQuery {
                                embedding: x.clone(),
                                k: k as u64,
                                exclude: exclude as u64,
                            })
                            .collect(),
                    };
                    let reply = TopKBatch::from_frame(&state.handle(&batch.into_frame()))
                        .expect("pinned table answers");
                    assert_eq!(reply.lists.len(), qs.len());
                    for list in reply.lists {
                        h.u64(list.len() as u64);
                        for (id, d) in list {
                            h.u64(id);
                            h.u64(u64::from(d.to_bits()));
                        }
                    }
                }
            }
            let push = Push {
                epoch: 7,
                version,
                id: 10_000 + version,
                embedding: vec![0.5, -0.5, 0.75],
            };
            state.handle(&push.into_frame());
        }
        for (total, c) in counts.iter_mut().zip(outcomes(&state.metrics())) {
            *total += c;
        }
    }
    (h.0, counts)
}

#[test]
fn shard_server_lists_are_the_captured_bits() {
    let small = IndexConfig::builder()
        .partitions(4)
        .probe(2)
        .min_rcs_for_index(1)
        .build()
        .expect("valid index config");
    for (name, knob, want) in [
        ("flat", None, [[0; 3]; 2]),
        (
            "default index",
            Some(IndexConfig::default()),
            SHARD_SERVER_DEFAULT_OUTCOMES,
        ),
        ("small index", Some(small), SHARD_SERVER_SMALL_OUTCOMES),
    ] {
        let (ascending, counts) = shard_lists(knob.clone(), false);
        assert_eq!(
            format!("{ascending:#018x}"),
            format!("{SHARD_LISTS_FNV1A:#018x}"),
            "ascending table, {name}"
        );
        assert_eq!(counts, want[0], "ascending table, {name}");
        let (descending, counts) = shard_lists(knob, true);
        assert_eq!(
            format!("{descending:#018x}"),
            format!("{SHARD_LISTS_DESCENDING_FNV1A:#018x}"),
            "descending table, {name}"
        );
        assert_eq!(counts, want[1], "descending table, {name}");
    }
}
