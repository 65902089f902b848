//! The Stage-4 KNN predictor (paper Eq. 13): the one place that knows how
//! a query embedding turns into neighbours and a vote.
//!
//! Every serving tier answers a query with the same four steps, in this
//! order, and every tier calls them here:
//!
//! 1. [`select_k`] — clamp the advisor's `k` to what the query may select;
//!    nothing selectable is [`AdvisorError::EmptyRcs`].
//! 2. [`partial_topk`] — per RCS partition, the `k` nearest non-excluded
//!    members under [`knn_order`]: from the partition's [`KnnIndex`] when
//!    its `(generation, len)` tag matches the live partition and the
//!    admissibility bound proves the answer, otherwise by the flat scan —
//!    one lane-per-row kernel pass over the partition's [`PackedRows`]
//!    mirror, every distance the bits of [`euclidean`] (which stays the
//!    one-pair primitive and the tests' oracle). Both end in one selection
//!    tail (`top_k`), fed straight off the `(id, distance)` stream.
//! 3. [`merge_vote`] — sort the concatenated partial lists, keep `k`,
//!    [`knn_vote`]. One partition is not a special case: merging one
//!    sorted list is a no-op sort.
//! 4. [`min_distance`] — the nearest-member fold behind the drift signal.
//!
//! The flat [`AutoCe`](crate::AutoCe) owns one
//! [`AdvisorShard`](crate::AdvisorShard) (ids `0..n`), `ce-serve`'s
//! `ShardedAdvisor` owns N, `ce-cluster`'s shard server lends its wire
//! tables as [`Partition`] views and its coordinator takes the clamp and
//! the merge from here around its own framing.
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
//!   (here) or a dimension mismatch, `indexed` / `fallback` inside
//!   [`KnnIndex::query_topk`]. An empty slot counts nothing.
//! * **Fan-out.** None here. A query scans its partitions serially (a scan
//!   is microseconds; the rayon shim spawns threads per call), and each
//!   owner keeps the `par_iter` shape of its refresh — the flat advisor
//!   over chunks, the sharded one over shards. Only the pack, the chunk
//!   encode and the write-back are shared
//!   ([`AdvisorShard`](crate::AdvisorShard)).
//!
//! `crates/cluster/tests/golden_knn_bits.rs` pins the answers of every
//! tier as captured before the copies were merged.

use crate::advisor::RcsEntry;
use crate::backend::AdvisorError;
use crate::index::KnnIndex;
use ce_models::ModelKind;
use ce_nn::matrix::euclidean;
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
/// at any shard count.
pub fn knn_order<I: Ord>(a: &(I, f32), b: &(I, f32)) -> Ordering {
    a.1.partial_cmp(&b.1)
        .expect("finite distances")
        .then(a.0.cmp(&b.0))
}

/// The KNN vote of Eq. 13 over an ordered neighbor sequence: score vectors
/// are averaged **in the given order** (each contribution divided by `k`
/// before accumulation, matching the flat path's float evaluation order)
/// and the best model is chosen by [`best_index`] — on equal averaged
/// scores, the **lowest model index wins**. Both rules are load-bearing:
/// the sharded serving layer relies on them to match the flat advisor
/// bitwise, so they are part of the public contract (and unit-tested), not
/// an accident of `max_by`.
pub fn knn_vote<'a, I>(neighbors: I, k: usize, w: MetricWeights) -> (ModelKind, Vec<f64>)
where
    I: IntoIterator<Item = &'a RcsEntry>,
{
    let mut iter = neighbors.into_iter();
    let first = iter.next().expect("at least one neighbor");
    let mut avg = vec![0.0f64; first.kinds.len()];
    for e in std::iter::once(first).chain(iter) {
        // `RcsEntry::scores`, term by term, without the vector per neighbour.
        for ((s, &a), &e) in avg.iter_mut().zip(&e.sa).zip(&e.se) {
            *s += (w.accuracy * a + w.efficiency() * e) / k as f64;
        }
    }
    let best = best_index(&avg);
    (first.kinds[best], avg)
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

/// One RCS partition as [`partial_topk`] sees it: borrowed, so an
/// [`AdvisorShard`](crate::AdvisorShard) and a shard server's wire table
/// are scanned by the same code.
pub struct Partition<'a, I, F> {
    /// Global RCS id of each member, by position.
    pub ids: &'a [I],
    /// Position → embedding (the index re-ranks through it).
    pub embedding: F,
    /// The same embeddings, by position, packed for the flat scan. Owners
    /// write it wherever they write an embedding, so it is never stale.
    pub packed: &'a PackedRows,
    /// The partition's index slot. Its `(generation, len)` tag is the
    /// only freshness check there is: a build over any other state of the
    /// partition is bypassed, never consulted.
    pub index: Option<&'a KnnIndex>,
    /// The live generation the slot's tag is compared with.
    pub generation: u64,
}

/// A partition's partial top-k: up to `k` nearest members other than
/// `exclude`, as `(global id, distance)` sorted by [`knn_order`]. The
/// index and the flat scan produce the same bits, so whoever merges the
/// list cannot tell which served it. See the module docs for the clamp,
/// the exclusion and the counters. `dists` is the flat scan's scratch — one
/// distance per member — for the caller to reuse from partition to
/// partition and query to query.
pub fn partial_topk<'a, I, F>(
    p: &Partition<'a, I, F>,
    x: &[f32],
    k: usize,
    exclude: I,
    dists: &mut Vec<f32>,
) -> Vec<(I, f32)>
where
    I: Copy + Ord,
    F: Fn(usize) -> &'a [f32],
{
    let excluded = p.ids.binary_search(&exclude).ok();
    let k = k.min(p.ids.len() - usize::from(excluded.is_some()));
    if k == 0 {
        return Vec::new();
    }
    if let Some(index) = p.index {
        if !index.tag_matches(p.generation, p.ids.len()) {
            index.note_bypass();
        } else if let Some(topk) =
            index.query_topk(x, k, excluded.unwrap_or(usize::MAX), &p.embedding)
        {
            // Positions ascend with ids, so the position-ranked list maps
            // 1:1 onto the id-ranked one.
            return topk.into_iter().map(|(m, d)| (p.ids[m], d)).collect();
        }
    }
    assert_eq!(p.packed.len(), p.ids.len(), "one packed row per member");
    p.packed.dists_into(x, dists);
    let scan = (p.ids.iter().zip(dists.iter())).map(|(&id, &d)| (id, d));
    top_k(scan.filter(|&(id, _)| id != exclude), k)
}

/// The one selection tail: the `k ≥ 1` least of `candidates` under
/// [`knn_order`], sorted. The order is strict and total, so the result does
/// not depend on the input order. At most `2k` candidates are held: when
/// that many have gathered, a selection keeps the `k` least and the k-th
/// becomes the bar every later candidate must beat — linear in the stream
/// whatever its order, and a k-sized buffer however long it is.
pub(crate) fn top_k<I: Copy + Ord>(
    candidates: impl Iterator<Item = (I, f32)>,
    k: usize,
) -> Vec<(I, f32)> {
    let mut kept = Vec::with_capacity(2 * k);
    let mut bar = None;
    for c in candidates {
        if bar.is_some_and(|bar| knn_order(&c, &bar) != Ordering::Less) {
            continue;
        }
        kept.push(c);
        if kept.len() == 2 * k {
            kept.select_nth_unstable_by(k - 1, knn_order);
            kept.truncate(k);
            bar = Some(kept[k - 1]);
        }
    }
    if k < kept.len() {
        kept.select_nth_unstable_by(k - 1, knn_order);
        kept.truncate(k);
    }
    kept.sort_unstable_by(knn_order);
    kept
}

/// Merges partial top-k lists — concatenated in any order — into the
/// global top `k` and votes ([`knn_vote`]); `entry` resolves a global id.
/// Every global top-k neighbour is inside its own partition's list, so the
/// sorted prefix is exactly the flat scan's sequence.
pub fn merge_vote<'a>(
    mut partials: Vec<(usize, f32)>,
    k: usize,
    w: MetricWeights,
    entry: impl Fn(usize) -> &'a RcsEntry,
) -> (ModelKind, Vec<f64>) {
    partials.sort_unstable_by(knn_order);
    partials.truncate(k);
    knn_vote(partials.iter().map(|&(id, _)| entry(id)), k, w)
}

/// Distance from `x` to the nearest of `embeddings` (`+∞` over none) —
/// the drift signal's one fold.
pub fn min_distance<'a>(x: &[f32], embeddings: impl IntoIterator<Item = &'a [f32]>) -> f32 {
    embeddings
        .into_iter()
        .map(|e| euclidean(x, e))
        .fold(f32::INFINITY, f32::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::synthetic_grid;
    use crate::index::IndexConfig;
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

    /// `partial_topk` ≡ the brute-force prefix — whatever serves it — and
    /// the index counts one outcome per query that met a build.
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
        let mut dists = Vec::new();
        for (index, generation, slot) in slots {
            // Only ascending ids may carry an index.
            let index = index.filter(|_| ascending);
            for &exclude in &excludes {
                for k in [0, 1, 2, n / 2, n, n + 3] {
                    let view = Partition {
                        ids: &ids,
                        embedding: |m: usize| embs[m].as_slice(),
                        packed: &packed,
                        index,
                        generation,
                    };
                    let before = outcomes(&registry);
                    let got = partial_topk(&view, &x, k, exclude, &mut dists);
                    let want = brute_force(&ids, &embs, &x, k, exclude);
                    let case = format!("{n} × {dim}, {slot}, k={k}, exclude={exclude}");
                    assert_eq!(bits(&got), bits(&want), "{case}");
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
                COMPARISONS.set(0);
                let got = top_k(input.iter().copied(), k);
                let cost = COMPARISONS.get() as f64;
                assert_eq!(got, sorted[..k], "{what}, k={k}");
                let (n, k) = (n as f64, k as f64);
                println!("top_k {what}: n={n} k={k}: {cost} id comparisons");
                assert!(cost <= 12.0 * n + 3.0 * k * log_n, "{what}, k={k}: {cost}");
            }
        }
        assert_eq!(top_k(std::iter::empty::<(usize, f32)>(), 3), []);
    }

    proptest! {
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
            let mut dists = Vec::new();
            for ids in &split {
                let rows: Vec<&[f32]> = ids.iter().map(|&id| embs[id].as_slice()).collect();
                let view = Partition {
                    ids,
                    embedding: |m: usize| rows[m],
                    packed: &PackedRows::from_rows(&rows),
                    index: None,
                    generation: 0,
                };
                partials.extend(partial_topk(&view, &x, k, exclude, &mut dists));
            }
            let got = merge_vote(partials, k, w, |id| &entries[id]);
            let one = brute_force(&all, &embs, &x, k, exclude);
            let want = knn_vote(one.iter().map(|&(id, _)| &entries[id]), k, w);
            prop_assert_eq!(got.0, want.0);
            let score_bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(score_bits(&got.1), score_bits(&want.1));
        }
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
        assert_eq!(min_distance(&[0.0], std::iter::empty()), f32::INFINITY);
    }
}
