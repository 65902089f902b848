//! The Stage-4 KNN predictor (paper Eq. 13): the one place that knows how
//! a query embedding turns into neighbours and a vote.
//!
//! Every serving tier answers a query with the same four steps, in this
//! order, and every tier calls them here:
//!
//! 1. [`select_k`] — clamp the advisor's `k` to what the query may select;
//!    nothing selectable is [`AdvisorError::EmptyRcs`]. A batch is clamped
//!    whole by [`select_batch`], which also refuses a non-finite query
//!    embedding ([`AdvisorError::InvalidDataset`]) before anything is
//!    scanned or framed.
//! 2. [`partial_topk`] — per RCS partition, the `k` nearest non-excluded
//!    members under [`knn_order`], *appended* to a caller-owned candidate
//!    buffer: from the partition's [`KnnIndex`] when its `(generation, len)`
//!    tag matches the live partition (the index widens its probe until the
//!    admissibility bound proves the answer), otherwise by the flat scan —
//!    one lane-per-row kernel pass over the partition's [`PackedRows`]
//!    mirror, every distance the bits of [`euclidean`] (which stays the
//!    one-pair primitive and the tests' oracle). Both end in one selection
//!    tail (`top_k`), fed straight off the `(id, distance)` stream.
//! 3. [`merge_vote`] — sort the concatenated partial lists in place, keep
//!    `k`, [`knn_vote`]. One partition is not a special case: merging one
//!    sorted list is a no-op sort.
//! 4. [`nearest_distance`] — step 2 at `k = 1` over every partition, the
//!    least answer: the drift signal of one dataset. The drift detector's
//!    fit ([`crate::online::DriftDetector`]) asks for every row at once
//!    and joins the partitions instead.
//!
//! [`AutoCe`](crate::AutoCe) owns one [`AdvisorShard`] (ids `0..n`) or N,
//! and answers through [`predict_batch`], which runs steps 1–3 with one
//! [`Scratch`] and one candidate buffer for the whole batch. `ce-cluster`'s
//! shard server lends its wire tables as [`Partition`] views under the same
//! discipline, and its coordinator takes the clamp and the merge from here
//! around its own framing. Two callers besides the serving tiers: Stage 3's
//! feedback split ([`collect_feedback`](crate::incremental::collect_feedback))
//! votes on each row over the other folds, each an unindexed [`Partition`]
//! view, and asks the reference set's view for Mixup's `k = 1`; the §VII
//! Knn baseline ([`KnnFeatureSelector`](crate::KnnFeatureSelector)) is
//! [`predict_batch`] over one shard of flattened raw features.
//!
//! # Five things the former per-tier copies disagreed on, settled
//!
//! * **Where `k` is clamped to the partition.** Before the index branch:
//!   `k.min(len − [excluded is a member])`, returning an empty list on 0
//!   without touching (or counting against) the index.
//! * **How the excluded id becomes a position.** Binary search over the
//!   partition's ids. Ascending ids are the precondition of every index
//!   build (positions must rank like ids), so for an indexed partition the
//!   search is exact. A hand-built table with unsorted ids never has an
//!   index; there a missed search only overstates the clamp by one, the
//!   flat scan filters by *id*, and the tail keeps what exists.
//! * **The id type.** One generic `I` (`usize` in process, `u64` on the
//!   wire); nothing converts until a frame is built or read.
//! * **Index outcome accounting.** `ce_index_queries_total{outcome}` moves
//!   once per partition query that meets a build: `bypass` for a stale tag
//!   (here) or a dimension mismatch, `indexed` / `fallback` (answered after
//!   widening) inside [`KnnIndex::query_topk`]. An empty slot counts
//!   nothing. Step 4 queries through step 2, so a drift check counts
//!   here too; the detector fit asks no query and counts its partition
//!   pairs instead (`ce_index_fit_pairs_total`).
//! * **Fan-out.** None here. A query scans its partitions serially (a scan
//!   is microseconds; the rayon shim spawns threads per call). The refresh
//!   is [`AutoCe::refresh_embeddings`](crate::AutoCe::refresh_embeddings):
//!   one `par_iter` over every shard's packed chunks.
//!
//! `crates/cluster/tests/golden_knn_bits.rs` pins the answers of every
//! tier as captured before the copies were merged.
//!
//! Nothing on this path panics on its inputs: [`knn_order`] is total and a
//! vote over no neighbour is [`AdvisorError::EmptyRcs`]. What is left is
//! one audited assertion on an owner's own state (in [`partial_topk`]).
//! The lints below keep it that way.
//!
//! [`euclidean`]: ce_nn::matrix::euclidean

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::advisor::RcsEntry;
use crate::backend::{AdvisorError, BatchPredictRequest};
use crate::index::KnnIndex;
use crate::shard::AdvisorShard;
use ce_models::ModelKind;
use ce_nn::packed::PackedRows;
use ce_testbed::score::best_index;
use ce_testbed::MetricWeights;
use std::cmp::Ordering;

/// The total order every KNN path ranks `(RCS index, distance)` candidates
/// by: ascending distance, with **ties broken by ascending RCS index**.
///
/// This is a strict total order (indices are unique), so the k nearest
/// neighbors of a query are a uniquely determined *set* and a uniquely
/// determined *sequence* — which is what lets a sharded advisor merge
/// per-shard partial top-k lists and reproduce the flat scan bit for bit
/// at any shard count. Distances compare by `total_cmp`, which is the
/// numeric order on every distance a scan produces: none is negative, and
/// `-0.0` appears only at dimension zero, where every distance is `-0.0`.
/// A NaN, which no finite query over finite embeddings produces, ranks
/// after every number (before, if negative) instead of panicking.
pub fn knn_order<I: Ord>(a: &(I, f32), b: &(I, f32)) -> Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// The KNN vote of Eq. 13 over an ordered neighbor sequence: score vectors
/// are averaged **in the given order** (each contribution divided by `k`
/// before accumulation, matching the flat path's float evaluation order)
/// and the best model is chosen by [`best_index`] — on equal averaged
/// scores, the **lowest model index wins**. Both rules are load-bearing:
/// the sharded serving layer relies on them to match the flat advisor
/// bitwise, so they are part of the public contract (and unit-tested), not
/// an accident of `max_by`. No neighbour at all is
/// [`AdvisorError::EmptyRcs`].
pub fn knn_vote<'a, I>(
    neighbors: I,
    k: usize,
    w: MetricWeights,
) -> Result<(ModelKind, Vec<f64>), AdvisorError>
where
    I: IntoIterator<Item = &'a RcsEntry>,
{
    let mut iter = neighbors.into_iter();
    let first = iter.next().ok_or(AdvisorError::EmptyRcs)?;
    let mut avg = vec![0.0f64; first.kinds.len()];
    for e in std::iter::once(first).chain(iter) {
        // `RcsEntry::scores`, term by term, without the vector per neighbour.
        for ((s, &a), &e) in avg.iter_mut().zip(&e.sa).zip(&e.se) {
            *s += (w.accuracy * a + w.efficiency() * e) / k as f64;
        }
    }
    let best = best_index(&avg);
    Ok((first.kinds[best], avg))
}

/// The clamp: how many neighbours a query over an RCS of `len` entries
/// (global ids `0..len`) selects when it asks for `k` and excludes
/// `exclude` — at least one, at most every selectable entry. An RCS with
/// nothing to select is [`AdvisorError::EmptyRcs`].
pub fn select_k(k: usize, len: usize, exclude: usize) -> Result<usize, AdvisorError> {
    match len - usize::from(exclude < len) {
        0 => Err(AdvisorError::EmptyRcs),
        selectable => Ok(k.clamp(1, selectable)),
    }
}

/// The batch clamp: every query's [`select_k`], after checking that its
/// embedding is finite — a NaN or ±∞ feature that reached the encoder is
/// [`AdvisorError::InvalidDataset`], where [`knn_order`] could only panic
/// on the distances it makes. The first refusal fails the whole batch,
/// before any partition is scanned or any frame is built.
pub fn select_batch(
    k: usize,
    len: usize,
    queries: &[BatchPredictRequest<'_>],
) -> Result<Vec<usize>, AdvisorError> {
    (queries.iter())
        .map(|q| {
            if let Some(v) = q.embedding.iter().find(|v| !v.is_finite()) {
                return Err(AdvisorError::InvalidDataset(format!(
                    "query embedding holds {v}"
                )));
            }
            select_k(k, len, q.exclude)
        })
        .collect()
}

/// Steps 1–3 for a batch over in-process partitions: [`select_batch`],
/// then per query every partition's [`partial_topk`] appended to one
/// candidate buffer and [`merge_vote`] over it. One [`Scratch`] and one
/// candidate buffer serve the whole batch. `entry` resolves a global id;
/// `generation` is the owner's live generation.
pub fn predict_batch<'a>(
    queries: &[BatchPredictRequest<'_>],
    k: usize,
    partitions: &[AdvisorShard],
    generation: u64,
    entry: impl Fn(usize) -> &'a RcsEntry,
) -> Result<Vec<(ModelKind, Vec<f64>)>, AdvisorError> {
    let len = partitions.iter().map(AdvisorShard::len).sum();
    let ks = select_batch(k, len, queries)?;
    let mut scratch = Scratch::default();
    let mut cands = Vec::with_capacity(k.min(len) * partitions.len());
    let mut answers = Vec::with_capacity(queries.len());
    for (q, k) in queries.iter().zip(ks) {
        cands.clear();
        for p in partitions {
            p.partial_topk(
                q.embedding,
                k,
                q.exclude,
                generation,
                &mut scratch,
                &mut cands,
            );
        }
        answers.push(merge_vote(&mut cands, k, q.w, &entry)?);
    }
    Ok(answers)
}

/// The buffers of one query path — [`partial_topk`] and the
/// [`KnnIndex`] under it — for a caller to reuse from partition to
/// partition and query to query, like its candidate buffer. Each grows to
/// the largest partition (or partition count) it meets and is never
/// shrunk, so once warm a query allocates nothing.
#[derive(Debug, Default)]
pub struct Scratch {
    /// One distance per member (the flat scan), or per centroid (the
    /// index's coarse pass) followed by one per member of each probed
    /// partition (its re-rank).
    pub(crate) dists: Vec<f32>,
    /// The coarse pass's `(distance, partition)` keys, probed first.
    pub(crate) keys: Vec<u64>,
}

/// One RCS partition as [`partial_topk`] sees it: borrowed, so an
/// [`AdvisorShard`] and a shard server's wire table are scanned by the
/// same code.
pub struct Partition<'a, I> {
    /// Global RCS id of each member, by position.
    pub ids: &'a [I],
    /// The members' embeddings, by position, packed for the flat scan.
    /// Owners write it wherever they write an embedding, so it is never
    /// stale.
    pub packed: &'a PackedRows,
    /// The partition's index slot. Its `(generation, len)` tag is the
    /// only freshness check there is: a build over any other state of the
    /// partition is bypassed, never consulted.
    pub index: Option<&'a KnnIndex>,
    /// The live generation the slot's tag is compared with.
    pub generation: u64,
}

/// A partition's partial top-k: up to `k` nearest members other than
/// `exclude`, as `(global id, distance)` sorted by [`knn_order`], appended
/// to `out` (what `out` already held is left as it was). The index and the
/// flat scan produce the same bits, so whoever merges the list cannot tell
/// which served it. See the module docs for the clamp, the exclusion and
/// the counters. `scratch` holds the index's coarse pass and re-rank and
/// the flat scan's distances.
pub fn partial_topk<I: Copy + Ord>(
    p: &Partition<'_, I>,
    x: &[f32],
    k: usize,
    exclude: I,
    scratch: &mut Scratch,
    out: &mut Vec<(I, f32)>,
) {
    let excluded = p.ids.binary_search(&exclude).ok();
    let k = k.min(p.ids.len() - usize::from(excluded.is_some()));
    if k == 0 {
        return;
    }
    if let Some(index) = p.index {
        let position = excluded.unwrap_or(usize::MAX);
        if !index.tag_matches(p.generation, p.ids.len()) {
            index.note_bypass();
        } else if index.query_topk(x, k, position, p.ids, scratch, out) {
            return;
        }
    }
    // Unreachable: each owner writes a packed row wherever it writes a
    // member (`AdvisorShard::{new, push, write_back}`, a shard server's
    // table install and `Push`).
    assert_eq!(p.packed.len(), p.ids.len(), "one packed row per member");
    p.packed.dists_into(x, &mut scratch.dists);
    let scan = p.ids.iter().copied().zip(scratch.dists.iter().copied());
    top_k(scan.filter(|&(id, _)| id != exclude), k, out);
}

/// The one selection tail: the `k ≥ 1` least of `candidates` under
/// [`knn_order`], sorted and appended to `out`. The order is strict and
/// total, so the result does not depend on the input order. At most `2k`
/// candidates are held past `out`'s old end: when that many have gathered,
/// a selection keeps the `k` least and the k-th becomes the bar every later
/// candidate must beat — linear in the stream whatever its order, and a
/// k-sized buffer however long it is. A candidate *strictly* farther than
/// the bar is dropped on its distance alone; a tie (decided by id) or a NaN
/// still meets [`knn_order`].
pub(crate) fn top_k<I: Copy + Ord>(
    candidates: impl Iterator<Item = (I, f32)>,
    k: usize,
    out: &mut Vec<(I, f32)>,
) {
    top_k_onto(out.len(), candidates, k, out);
}

/// [`top_k`] continued: `out[start..]` is the list an earlier call left
/// there (sorted, at most `k`), and the `k` least of it and `candidates`
/// together replace it — how a widening index query re-ranks only the
/// partitions it adds. A full list's k-th is the bar from the start.
pub(crate) fn top_k_onto<I: Copy + Ord>(
    start: usize,
    candidates: impl Iterator<Item = (I, f32)>,
    k: usize,
    out: &mut Vec<(I, f32)>,
) {
    let mut bar = out.get(start + k - 1).copied();
    for c in candidates {
        if let Some(bar) = bar {
            if c.1 > bar.1 || knn_order(&c, &bar) != Ordering::Less {
                continue;
            }
        }
        out.push(c);
        if out.len() - start == 2 * k {
            out[start..].select_nth_unstable_by(k - 1, knn_order);
            out.truncate(start + k);
            bar = Some(out[start + k - 1]);
        }
    }
    if k < out.len() - start {
        out[start..].select_nth_unstable_by(k - 1, knn_order);
        out.truncate(start + k);
    }
    out[start..].sort_unstable_by(knn_order);
}

/// Merges partial top-k lists — concatenated in any order, sorted here in
/// place — into the global top `k` and votes ([`knn_vote`]); `entry`
/// resolves a global id. Every global top-k neighbour is inside its own
/// partition's list, so the sorted prefix is exactly the flat scan's
/// sequence.
pub fn merge_vote<'a>(
    partials: &mut [(usize, f32)],
    k: usize,
    w: MetricWeights,
    entry: impl Fn(usize) -> &'a RcsEntry,
) -> Result<(ModelKind, Vec<f64>), AdvisorError> {
    partials.sort_unstable_by(knn_order);
    let nearest = &partials[..k.min(partials.len())];
    knn_vote(nearest.iter().map(|&(id, _)| entry(id)), k, w)
}

/// Step 4: the distance from `x` to its nearest member other than
/// `exclude` — [`partial_topk`] at `k = 1` in every partition, the least of
/// their answers; `+∞` over no member and for a non-finite `x`. The drift
/// signal. `scratch` and `cands` are the caller's reusable buffers.
pub fn nearest_distance(
    partitions: &[Partition<'_, usize>],
    x: &[f32],
    exclude: usize,
    scratch: &mut Scratch,
    cands: &mut Vec<(usize, f32)>,
) -> f32 {
    if !finite(x) {
        return f32::INFINITY;
    }
    cands.clear();
    for p in partitions {
        partial_topk(p, x, 1, exclude, scratch, cands);
    }
    cands.iter().fold(f32::INFINITY, |m, &(_, d)| m.min(d))
}

/// True when every coordinate of `x` is a number.
pub(crate) fn finite(x: &[f32]) -> bool {
    x.iter().all(|v| v.is_finite())
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::fixtures::synthetic_grid;
    use crate::index::IndexConfig;
    use ce_nn::matrix::euclidean;
    use ce_obs::MetricsRegistry;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The oracle: every `(id, distance)` pair, fully sorted, first `k`.
    fn brute_force(
        ids: &[usize],
        embs: &[Vec<f32>],
        x: &[f32],
        k: usize,
        exclude: usize,
    ) -> Vec<(usize, f32)> {
        let mut all: Vec<(usize, f32)> = (ids.iter().zip(embs))
            .filter(|(&id, _)| id != exclude)
            .map(|(&id, e)| (id, euclidean(x, e)))
            .collect();
        all.sort_by(knn_order);
        all.truncate(k);
        all
    }

    fn bits(list: &[(usize, f32)]) -> Vec<(usize, u32)> {
        list.iter().map(|&(id, d)| (id, d.to_bits())).collect()
    }

    fn outcomes(registry: &MetricsRegistry) -> [u64; 3] {
        let snapshot = registry.snapshot();
        ["indexed", "fallback", "bypass"]
            .map(|o| snapshot.counter("ce_index_queries_total", &[("outcome", o)]))
    }

    /// Coarse-grid points: exact distance ties are the common case.
    fn grid_points(rng: &mut StdRng, n: usize, dim: usize, grid: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.gen_range(0..grid) as f32 * 0.5 - 1.0)
                    .collect()
            })
            .collect()
    }

    const GENERATION: u64 = 5;

    /// `partial_topk` appends the brute-force prefix — whatever serves it —
    /// after what its buffer already held, which stays as it was (an index
    /// that widens included), and the index counts one outcome per query
    /// that met a build.
    fn check_partition(
        seed: u64,
        n: usize,
        dim: usize,
        grid: usize,
        ascending: bool,
        probe: usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let embs = grid_points(&mut rng, n, dim, grid);
        // Ascending with gaps (so "absent" can fall between members), or
        // shuffled — a hand-built table, which never has an index.
        let mut ids: Vec<usize> = (0..n).map(|i| 10 + 3 * i).collect();
        if !ascending {
            ids.shuffle(&mut rng);
        }
        let x = grid_points(&mut rng, 1, dim, grid + 1).remove(0);
        let refs: Vec<&[f32]> = embs.iter().map(Vec::as_slice).collect();
        let packed = PackedRows::from_rows(&refs);
        let cfg = IndexConfig::builder()
            .partitions(3)
            .probe(probe)
            .min_rcs_for_index(1)
            .build()
            .expect("valid index config");
        let registry = MetricsRegistry::new();
        let build = |rows: &[&[f32]]| KnnIndex::build(rows, &cfg, GENERATION, &registry);
        // Fresh; built one generation ago; built one member ago; built over
        // same-sized rows of another dimension.
        let fresh = build(&refs);
        let short = build(&refs[..n.saturating_sub(1)]);
        let longer_rows: Vec<Vec<f32>> = embs
            .iter()
            .map(|e| [e.as_slice(), &[0.0]].concat())
            .collect();
        let other_dim = build(&longer_rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let slots = [
            (None, GENERATION, "absent"),
            (fresh.as_ref(), GENERATION, "fresh"),
            (fresh.as_ref(), GENERATION + 1, "stale generation"),
            (short.as_ref(), GENERATION, "stale length"),
            (other_dim.as_ref(), GENERATION, "wrong dimension"),
        ];
        let mut excludes = vec![usize::MAX, 11];
        excludes.extend(ids.choose(&mut rng));
        let mut scratch = Scratch::default();
        // Another partition's list, already in the buffer.
        let held = [(usize::MAX, -1.0f32), (2, 0.25), (10, f32::NAN)];
        let mut out = Vec::new();
        for (index, generation, slot) in slots {
            // Only ascending ids may carry an index.
            let index = index.filter(|_| ascending);
            for &exclude in &excludes {
                for k in [0, 1, 2, n / 2, n, n + 3] {
                    let view = Partition {
                        ids: &ids,
                        packed: &packed,
                        index,
                        generation,
                    };
                    let before = outcomes(&registry);
                    out.clear();
                    out.extend(held);
                    partial_topk(&view, &x, k, exclude, &mut scratch, &mut out);
                    let want = brute_force(&ids, &embs, &x, k, exclude);
                    let case = format!("{n} × {dim}, {slot}, k={k}, exclude={exclude}");
                    assert_eq!(bits(&out[..held.len()]), bits(&held), "{case}: held");
                    assert_eq!(bits(&out[held.len()..]), bits(&want), "{case}");
                    let after = outcomes(&registry);
                    let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
                    let met_a_build = index.is_some() && !want.is_empty();
                    assert_eq!(moved.iter().sum::<u64>(), u64::from(met_a_build), "{case}");
                    if met_a_build && slot != "fresh" {
                        assert_eq!(moved[2], 1, "{case}: a bypass");
                    }
                }
            }
        }
    }

    /// The packed scan's shapes: no dimension, one, a whole number of
    /// vector widths and one past it, at member counts on both sides of
    /// every lane-block boundary the kernel treats differently.
    #[test]
    fn partial_topk_is_the_full_sort_prefix_across_lane_boundaries() {
        let mut seed = 0x1a4e;
        for dim in [0, 1, 32, 33] {
            for n in [0, 1, 15, 16, 17, 63, 64, 65] {
                for ascending in [true, false] {
                    seed += 1;
                    check_partition(seed, n, dim, 1 + n % 3, ascending, 2);
                }
            }
        }
    }

    /// The selection tail against `sort → take(k)` where it has least to go
    /// on: distances that all tie, so the ids decide every comparison, fed
    /// in descending order — each candidate beats everything kept so far.
    /// The ids count the comparisons they decide, so the tail's cost at
    /// `k = n` is read off, not assumed: linear in the stream plus one sort
    /// of what is kept.
    #[test]
    fn selection_tail_is_sort_then_take_k_at_a_linear_cost() {
        use std::cell::Cell;
        thread_local!(static COMPARISONS: Cell<u64> = const { Cell::new(0) });
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        struct Counted(usize);
        impl Ord for Counted {
            fn cmp(&self, other: &Self) -> Ordering {
                COMPARISONS.set(COMPARISONS.get() + 1);
                self.0.cmp(&other.0)
            }
        }
        impl PartialOrd for Counted {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        let n = 20_000usize;
        let log_n = f64::from(n.ilog2() + 1);
        for (input, what) in [
            (
                (0..n)
                    .rev()
                    .map(|i| (Counted(i), 0.5f32))
                    .collect::<Vec<_>>(),
                "all tied, descending",
            ),
            (
                (0..n).map(|i| (Counted(i), 0.5)).collect(),
                "all tied, ascending",
            ),
            (
                (0..n)
                    .map(|i| (Counted(i * 7919 % n), (i % 3) as f32))
                    .collect(),
                "three distances, scattered",
            ),
        ] {
            let mut sorted = input.clone();
            sorted.sort_by(knn_order);
            for k in [1, 2, n / 2, n] {
                let mut got = Vec::new();
                COMPARISONS.set(0);
                top_k(input.iter().copied(), k, &mut got);
                let cost = COMPARISONS.get() as f64;
                assert_eq!(got, sorted[..k], "{what}, k={k}");
                let (n, k) = (n as f64, k as f64);
                println!("top_k {what}: n={n} k={k}: {cost} id comparisons");
                assert!(cost <= 12.0 * n + 3.0 * k * log_n, "{what}, k={k}: {cost}");
            }
        }
        let mut none = vec![(7usize, 0.5f32)];
        top_k(std::iter::empty(), 3, &mut none);
        assert_eq!(none, [(7, 0.5)]);
    }

    proptest! {
        /// A stream selected in rounds — [`top_k`] over a first part, then
        /// [`top_k_onto`] per later part onto the list it left — is the
        /// stream selected at once, behind whatever the buffer held.
        #[test]
        fn selection_in_rounds_is_selection_at_once(
            seed in 0u64..1_000_000,
            n in 0usize..80,
            k in 1usize..12,
            rounds in 1usize..5,
            grid in 1usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stream: Vec<(usize, f32)> =
                (0..n).map(|id| (id, rng.gen_range(0..grid) as f32 * 0.5)).collect();
            stream.shuffle(&mut rng);
            let held = [(9usize, 0.0f32), (1, 7.5)];
            let mut want = held.to_vec();
            top_k(stream.iter().copied(), k, &mut want);
            let mut cuts: Vec<usize> = (1..rounds).map(|_| rng.gen_range(0..=n)).collect();
            cuts.sort_unstable();
            let mut got = held.to_vec();
            let mut from = 0;
            for to in cuts.into_iter().chain([n]) {
                top_k_onto(held.len(), stream[from..to].iter().copied(), k, &mut got);
                from = to;
            }
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// [`check_partition`] at random shapes.
        #[test]
        fn partial_topk_is_the_full_sort_prefix(
            seed in 0u64..1_000_000,
            n in 0usize..40,
            dim in 0usize..5,
            grid in 1usize..5,
            shuffled in 0usize..2,
            probe in 1usize..4,
        ) {
            check_partition(seed, n, [0, 1, 3, 32, 33][dim], grid, shuffled == 0, probe);
        }

        /// Any split of the RCS into 1–6 partitions, merged, votes like
        /// the one-partition scan and like the brute-force neighbours.
        #[test]
        fn merge_vote_is_split_invariant(
            seed in 0u64..1_000_000,
            n in 1usize..60,
            parts in 1usize..7,
            k in 1usize..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, _, entries) = synthetic_grid(n, k).into_parts();
            let embs: Vec<Vec<f32>> = entries.iter().map(|e| e.embedding.clone()).collect();
            let all: Vec<usize> = (0..n).collect();
            let x = grid_points(&mut rng, 1, 3, 6).remove(0);
            let w = MetricWeights::new(rng.gen_range(0..5) as f64 / 4.0);
            let exclude = [usize::MAX, rng.gen_range(0..n)][rng.gen_range(0..2usize)];
            let Ok(k) = select_k(k, n, exclude) else {
                prop_assert_eq!((n, exclude), (1, 0));
                continue;
            };
            let mut split: Vec<Vec<usize>> = vec![Vec::new(); parts];
            for id in 0..n {
                split[rng.gen_range(0..parts)].push(id);
            }
            split.shuffle(&mut rng);
            let mut partials = Vec::new();
            let mut scratch = Scratch::default();
            for ids in &split {
                let rows: Vec<&[f32]> = ids.iter().map(|&id| embs[id].as_slice()).collect();
                let view = Partition {
                    ids,
                    packed: &PackedRows::from_rows(&rows),
                    index: None,
                    generation: 0,
                };
                partial_topk(&view, &x, k, exclude, &mut scratch, &mut partials);
            }
            let got = merge_vote(&mut partials, k, w, |id| &entries[id]).expect("k ≥ 1 selectable");
            let one = brute_force(&all, &embs, &x, k, exclude);
            let want = knn_vote(one.iter().map(|&(id, _)| &entries[id]), k, w).expect("k ≥ 1");
            prop_assert_eq!(got.0, want.0);
            let score_bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(score_bits(&got.1), score_bits(&want.1));
        }

        /// One scratch per batch changes nothing: [`predict_batch`] over 1–4
        /// shards answers each query of a batch — mixed weights and
        /// exclusions, so mixed clamps — as that query asked alone and as
        /// the brute-force vote; and per-query `k`s appended one after the
        /// other into one buffer (the shard server's batch) are each the
        /// list that query gets alone.
        #[test]
        fn a_batch_is_its_queries_asked_alone(
            seed in 0u64..1_000_000,
            n in 1usize..30,
            parts in 1usize..5,
            k in 1usize..9,
            depth in 1usize..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, _, entries) = synthetic_grid(n, k).into_parts();
            let embs: Vec<Vec<f32>> = entries.iter().map(|e| e.embedding.clone()).collect();
            let shards = split_shards(&mut rng, &entries, parts);
            let entry = |id: usize| &entries[id];
            let xs = grid_points(&mut rng, depth, 3, 6);
            let batch: Vec<BatchPredictRequest<'_>> = (xs.iter())
                .map(|x| BatchPredictRequest {
                    embedding: x,
                    w: MetricWeights::new(rng.gen_range(0..5) as f64 / 4.0),
                    exclude: [usize::MAX, rng.gen_range(0..n), n + 1][rng.gen_range(0..3usize)],
                })
                .collect();
            let all: Vec<usize> = (0..n).collect();
            match predict_batch(&batch, k, &shards, 0, entry) {
                Ok(answers) => {
                    prop_assert_eq!(answers.len(), batch.len());
                    for (q, got) in batch.iter().zip(&answers) {
                        let alone = predict_batch(std::slice::from_ref(q), k, &shards, 0, entry);
                        prop_assert_eq!(Ok(vec![got.clone()]), alone);
                        let k = select_k(k, n, q.exclude).expect("the batch answered");
                        let one = brute_force(&all, &embs, q.embedding, k, q.exclude);
                        let want = knn_vote(one.iter().map(|&(id, _)| &entries[id]), k, q.w)
                            .expect("k ≥ 1");
                        prop_assert_eq!(got, &want);
                    }
                }
                Err(e) => {
                    prop_assert_eq!(e, AdvisorError::EmptyRcs);
                    prop_assert!(n == 1 && batch.iter().any(|q| q.exclude == 0));
                }
            }
            let (mut scratch, mut out, mut bounds) = (Scratch::default(), Vec::new(), vec![0]);
            let ks: Vec<usize> = batch.iter().map(|_| rng.gen_range(0..n + 2)).collect();
            for shard in &shards {
                out.clear();
                bounds.truncate(1);
                for (q, &k) in batch.iter().zip(&ks) {
                    shard.partial_topk(q.embedding, k, q.exclude, 0, &mut scratch, &mut out);
                    bounds.push(out.len());
                }
                let rows: Vec<Vec<f32>> =
                    shard.entries().iter().map(|e| e.embedding.clone()).collect();
                for ((q, &k), w) in batch.iter().zip(&ks).zip(bounds.windows(2)) {
                    let want = brute_force(shard.ids(), &rows, q.embedding, k, q.exclude);
                    prop_assert_eq!(bits(&out[w[0]..w[1]]), bits(&want));
                }
            }
        }

        /// One refused query fails its whole batch, wherever it sits, before
        /// any partition is scanned (an installed index counts nothing): a
        /// NaN or ±∞ anywhere in an embedding is `InvalidDataset`, nothing
        /// selectable `EmptyRcs`.
        #[test]
        fn one_refused_query_fails_the_whole_batch(
            seed in 0u64..1_000_000,
            n in 1usize..20,
            depth in 1usize..9,
            bad in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, _, entries) = synthetic_grid(n, 2).into_parts();
            let registry = MetricsRegistry::new();
            let cfg = IndexConfig::builder()
                .partitions(2)
                .probe(1)
                .min_rcs_for_index(1)
                .build()
                .expect("valid index config");
            let mut shards = split_shards(&mut rng, &entries, 2);
            for shard in &mut shards {
                shard.rebuild_index(Some(&cfg), &registry, 0);
            }
            let clean = grid_points(&mut rng, depth, 3, 6);
            let at = rng.gen_range(0..depth);
            let mut poisoned = clean.clone();
            poisoned[at][rng.gen_range(0..3usize)] =
                [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][bad];
            let (poisoned, clean) = (requests(&poisoned, at, usize::MAX), requests(&clean, at, 0));
            let entry = |id: usize| &entries[id];
            let before = outcomes(&registry);
            let got = predict_batch(&poisoned, 2, &shards, 0, entry);
            prop_assert!(matches!(got, Err(AdvisorError::InvalidDataset(_))), "{:?}", got);
            prop_assert_eq!(outcomes(&registry), before, "nothing was scanned");
            prop_assert!(predict_batch(&clean, 2, &shards, 0, entry).is_ok() || n == 1);
            // Nothing selectable: a one-entry RCS whose entry one query
            // excludes.
            let lone = split_shards(&mut rng, &entries[..1], 1);
            prop_assert_eq!(predict_batch(&clean, 2, &lone, 0, entry), Err(AdvisorError::EmptyRcs));
        }
    }

    /// One request per embedding; the one at `at` excludes `exclude`, the
    /// rest nothing.
    fn requests(xs: &[Vec<f32>], at: usize, exclude: usize) -> Vec<BatchPredictRequest<'_>> {
        (xs.iter().enumerate())
            .map(|(j, x)| BatchPredictRequest {
                embedding: x,
                w: MetricWeights::new(0.5),
                exclude: if j == at { exclude } else { usize::MAX },
            })
            .collect()
    }

    /// `entries` (global ids `0..n`) dealt at random into `parts` shards,
    /// ids ascending within each.
    fn split_shards(rng: &mut StdRng, entries: &[RcsEntry], parts: usize) -> Vec<AdvisorShard> {
        let mut split: Vec<(Vec<usize>, Vec<RcsEntry>)> = vec![(Vec::new(), Vec::new()); parts];
        for (id, e) in entries.iter().enumerate() {
            let (ids, members) = &mut split[rng.gen_range(0..parts)];
            ids.push(id);
            members.push(e.clone());
        }
        split
            .into_iter()
            .map(|(ids, members)| AdvisorShard::new(ids, members))
            .collect()
    }

    /// Nothing here panics on its inputs: the order ranks a NaN (a
    /// negative one first, a positive one last) and `-0.0` before `+0.0`;
    /// a vote over no neighbour is a typed refusal.
    #[test]
    fn the_order_is_total_and_an_empty_vote_is_refused() {
        let mut v = [
            (3usize, f32::NAN),
            (1, 0.5),
            (2, -0.0),
            (0, 0.0),
            (4, f32::INFINITY),
            (5, -f32::NAN),
        ];
        v.sort_by(knn_order);
        assert_eq!(v.map(|(id, _)| id), [5, 2, 0, 1, 4, 3]);
        let w = MetricWeights::new(0.5);
        assert_eq!(
            knn_vote(std::iter::empty(), 2, w),
            Err(AdvisorError::EmptyRcs)
        );
    }

    /// Step 4 is `+∞` over no member — no partition, an empty one, a lone
    /// member excluded — and for a NaN or ±∞ anywhere in the query, with an
    /// index installed; otherwise it is the least `euclidean` over the
    /// members, whichever partition holds it.
    #[test]
    fn nearest_distance_is_infinite_over_nothing_and_for_a_non_finite_query() {
        let (mut scratch, mut cands) = (Scratch::default(), Vec::new());
        let mut nearest = |views: &[Partition<'_, usize>], x: &[f32], exclude: usize| {
            nearest_distance(views, x, exclude, &mut scratch, &mut cands)
        };
        assert_eq!(nearest(&[], &[0.0, 1.0], usize::MAX), f32::INFINITY);
        fn view<'a>(
            ids: &'a [usize],
            packed: &'a PackedRows,
            index: Option<&'a KnnIndex>,
        ) -> Partition<'a, usize> {
            Partition {
                ids,
                packed,
                index,
                generation: GENERATION,
            }
        }
        let empty = PackedRows::from_rows::<Vec<f32>>(&[]);
        let none = view(&[], &empty, None);
        assert_eq!(nearest(&[none], &[0.0, 1.0], usize::MAX), f32::INFINITY);
        let lone = PackedRows::from_rows(&[[0.5f32, 0.5]]);
        let lone = view(&[7], &lone, None);
        assert_eq!(nearest(&[lone], &[0.0, 1.0], 7), f32::INFINITY);

        let mut rng = StdRng::seed_from_u64(0x4ea7);
        let embs = grid_points(&mut rng, 40, 2, 4);
        let refs: Vec<&[f32]> = embs.iter().map(Vec::as_slice).collect();
        let (low, high) = refs.split_at(25);
        let cfg = IndexConfig {
            partitions: 4,
            probe: 1,
            min_rcs_for_index: 1,
            ..IndexConfig::default()
        };
        let registry = MetricsRegistry::new();
        let index = KnnIndex::build(low, &cfg, GENERATION, &registry);
        let (low_ids, high_ids): (Vec<usize>, Vec<usize>) = ((0..25).collect(), (25..40).collect());
        let (low_packed, high_packed) = (PackedRows::from_rows(low), PackedRows::from_rows(high));
        let views = [
            view(&low_ids, &low_packed, index.as_ref()),
            view(&high_ids, &high_packed, None),
        ];
        for x in grid_points(&mut rng, 6, 2, 5) {
            for exclude in [usize::MAX, 3, 30] {
                let want = (refs.iter().enumerate())
                    .filter(|&(id, _)| id != exclude)
                    .map(|(_, e)| euclidean(&x, e))
                    .fold(f32::INFINITY, f32::min);
                let got = nearest(&views, &x, exclude);
                assert_eq!(got.to_bits(), want.to_bits(), "{x:?} excluding {exclude}");
            }
            let before = outcomes(&registry);
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut x = x.clone();
                x[1] = bad;
                assert_eq!(nearest(&views, &x, usize::MAX), f32::INFINITY, "{x:?}");
            }
            assert_eq!(
                outcomes(&registry),
                before,
                "a non-finite query scans nothing"
            );
        }
        assert!(
            outcomes(&registry).iter().sum::<u64>() > 0,
            "the index served"
        );
    }

    #[test]
    fn select_k_clamps_or_reports_an_empty_rcs() {
        assert_eq!(select_k(2, 0, usize::MAX), Err(AdvisorError::EmptyRcs));
        assert_eq!(select_k(2, 1, 0), Err(AdvisorError::EmptyRcs));
        assert_eq!(
            select_k(2, 1, 1),
            Ok(1),
            "an exclusion outside the RCS excludes nothing"
        );
        assert_eq!(select_k(0, 5, usize::MAX), Ok(1));
        assert_eq!(select_k(700, 5, 3), Ok(4));
    }
}
