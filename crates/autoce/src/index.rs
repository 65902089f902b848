//! Two-stage deterministic KNN index over RCS embeddings.
//!
//! Every KNN path in the advisor ranks `(RCS index, distance)` candidates
//! under [`knn_order`] and votes with [`knn_vote`](crate::knn_vote). The
//! flat scan is O(|RCS|) per query — fine at the paper's 96 entries,
//! hopeless at the 10⁵–10⁶ a production advisor accumulates from online
//! pushes. [`KnnIndex`] makes the scan sub-linear without moving a single
//! bit of any answer:
//!
//! 1. **Coarse stage**: seeded k-means ([`mod@ce_nn::kmeans`]) partitions the
//!    embeddings (IVF). A query makes one lane-per-row pass over the packed
//!    centroids ([`PackedRows`]), which gives every exact centroid
//!    distance; it ranks partitions by those, and a partial select picks
//!    the closest few to probe.
//! 2. **Exact re-rank**: every candidate in a probed partition gets its
//!    exact `f32` distance from one lane-per-row pass over that
//!    partition's packed member block — each the bits of [`euclidean`],
//!    like the flat scan's — and the top k are selected under
//!    [`knn_order`].
//!
//! The result is returned **only once it is provably the flat scan's**: for
//! every unprobed partition `p`, the triangle-inequality bound
//! `d(x, c_p) − radius_p` (exact `f32` from the same coarse pass) must
//! exceed the k-th candidate distance by a margin plus a conservative
//! float-error slack. Strict inequality is
//! required because [`knn_order`] breaks distance ties by RCS index — an
//! unprobed entry merely *tying* the k-th distance could win the slot. If
//! any partition fails the bound, the query **widens**: it doubles its
//! probe set in coarse order, re-ranks only the newly probed partitions
//! into the same list, and checks the bound again — with every partition
//! probed the list is the flat scan's by construction. The index affects
//! performance, never results. `docs/knn-index.md` has the proof sketch.
//!
//! # Position ↔ identity contract
//!
//! The index stores member *positions* into the embedding array it was
//! built over. Tie-breaking by position is only equivalent to tie-breaking
//! by global RCS index when positions are in ascending global order —
//! true for every backend here (the flat advisor's RCS, a shard's
//! `ids`, an epoch table's `ids` are all append-ordered) and verified by
//! the caller supplying positions that way.
//!
//! # Staleness
//!
//! An index is stamped with a `(generation, len)` tag at build, and that
//! tag is the only freshness check: [`crate::knn::partial_topk`] compares
//! it with the live partition on every query and bypasses to the flat scan
//! on mismatch, so an index can never serve over an RCS it was not built
//! from. Owners keep the build next to the state it indexes (an
//! [`AdvisorShard`](crate::AdvisorShard)'s slot, a shard server's live
//! table), so a snapshot swap replaces both at once and the tag catches
//! any mutation that did not rebuild it.
//!
//! [`knn_order`]: crate::knn_order
//! [`euclidean`]: ce_nn::matrix::euclidean

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::backend::{validate_nonzero, AdvisorError};
use crate::knn::{top_k_onto, Scratch};
use ce_nn::kmeans::kmeans;
use ce_nn::packed::PackedRows;
use ce_obs::{Counter, Histogram, MetricsRegistry, COUNT_BUCKETS, LATENCY_NS_BUCKETS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ignored: the coarse pass ranks partitions by the exact centroid
/// distances it computes for the admissibility bound. Kept only so that
/// callers of [`IndexConfigBuilder::quant`] still compile; no config
/// stores it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    #[default]
    Exact,
    I8,
    F16,
}

/// Configuration of the two-stage KNN index: a plain struct, checked by
/// the code that installs it ([`IndexConfig::validate_for_k`]), so a
/// degenerate shape is rejected however it was written.
/// [`IndexConfig::builder`] is a second way in that runs the same
/// [`IndexConfig::validate`] early; the end-to-end benchmark builds through
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Number of IVF partitions (k-means k). Clamped to the RCS size at
    /// build.
    pub partitions: usize,
    /// Partitions probed first per query. More probes → fewer widened
    /// queries, more re-rank work.
    pub probe: usize,
    /// Extra admissibility margin added to the distance bound. Zero is
    /// correct; a positive margin trades extra widening for headroom
    /// against adversarially tight layouts.
    pub margin: f32,
    /// RCS size below which no index is built and every query takes the
    /// flat scan — at small sizes the scan wins outright. Must be ≥ the
    /// advisor's `k` (validated where `k` is known), so an engaged index
    /// always has at least `k` entries.
    pub min_rcs_for_index: usize,
    /// k-means refinement iterations at build.
    pub kmeans_iters: usize,
    /// k-means runs on a deterministic stride sample of at most this many
    /// points; assignment then covers every point exactly.
    pub sample_cap: usize,
    /// Seed for the k-means RNG — the whole build is a pure function of
    /// `(embeddings, config)`.
    pub seed: u64,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            partitions: 64,
            probe: 6,
            margin: 0.0,
            min_rcs_for_index: 256,
            kmeans_iters: 8,
            sample_cap: 8192,
            seed: 0xA37C,
        }
    }
}

impl IndexConfig {
    /// A builder seeded with the defaults.
    pub fn builder() -> IndexConfigBuilder {
        IndexConfigBuilder {
            cfg: IndexConfig::default(),
        }
    }

    /// Every check an install runs: [`Self::validate`], then the cutover
    /// against the advisor's `k`, which is known only there since the
    /// index config itself is advisor-agnostic.
    pub fn validate_for_k(&self, k: usize) -> Result<(), AdvisorError> {
        self.validate()?;
        if self.min_rcs_for_index < k.max(1) {
            return Err(AdvisorError::InvalidConfig(format!(
                "min_rcs_for_index ({}) must be at least k ({k}): an engaged \
                 index must always hold a full neighbor set",
                self.min_rcs_for_index
            )));
        }
        Ok(())
    }

    /// Structural validation, independent of any advisor. Run by every
    /// install (through [`Self::validate_for_k`]), by the configs that
    /// embed an index (`ServeConfig`, `ClusterConfig`) before anything
    /// starts, and by [`IndexConfigBuilder::build`].
    pub fn validate(&self) -> Result<(), AdvisorError> {
        validate_nonzero("partitions", self.partitions)?;
        validate_nonzero("probe", self.probe)?;
        validate_nonzero("min_rcs_for_index", self.min_rcs_for_index)?;
        validate_nonzero("kmeans_iters", self.kmeans_iters)?;
        if self.probe > self.partitions {
            return Err(AdvisorError::InvalidConfig(format!(
                "probe ({}) must not exceed partitions ({})",
                self.probe, self.partitions
            )));
        }
        if !self.margin.is_finite() || self.margin < 0.0 {
            return Err(AdvisorError::InvalidConfig(format!(
                "margin must be finite and non-negative, got {}",
                self.margin
            )));
        }
        if self.sample_cap < self.partitions {
            return Err(AdvisorError::InvalidConfig(format!(
                "sample_cap ({}) must be at least partitions ({})",
                self.sample_cap, self.partitions
            )));
        }
        Ok(())
    }
}

/// Validating builder for [`IndexConfig`]; one setter per knob.
#[derive(Debug, Clone)]
pub struct IndexConfigBuilder {
    cfg: IndexConfig,
}

impl IndexConfigBuilder {
    /// Sets the partition count.
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.cfg.partitions = partitions;
        self
    }

    /// Sets the per-query probe count.
    pub fn probe(mut self, probe: usize) -> Self {
        self.cfg.probe = probe;
        self
    }

    /// Sets the admissibility margin.
    pub fn margin(mut self, margin: f32) -> Self {
        self.cfg.margin = margin;
        self
    }

    /// Ignored (see [`QuantMode`]): returns the builder unchanged.
    #[doc(hidden)]
    pub fn quant(self, _: QuantMode) -> Self {
        self
    }

    /// Sets the flat-scan cutover size.
    pub fn min_rcs_for_index(mut self, min: usize) -> Self {
        self.cfg.min_rcs_for_index = min;
        self
    }

    /// Sets the k-means iteration budget.
    pub fn kmeans_iters(mut self, iters: usize) -> Self {
        self.cfg.kmeans_iters = iters;
        self
    }

    /// Sets the k-means sample cap.
    pub fn sample_cap(mut self, cap: usize) -> Self {
        self.cfg.sample_cap = cap;
        self
    }

    /// Sets the build seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<IndexConfig, AdvisorError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Lock-free metric handles for one index (all no-ops when the registry
/// is disabled). Outcome taxonomy: `indexed` answered from the first
/// `probe` partitions, `fallback` answered after widening past them (the
/// first round failed the admissibility bound), `bypass` never probed
/// (stale tag, dimension mismatch, or no index at this size).
#[derive(Clone)]
struct IndexObs {
    indexed: Counter,
    fallback: Counter,
    bypass: Counter,
    rerank: Histogram,
    build_ns: Histogram,
}

impl IndexObs {
    fn new(reg: &MetricsRegistry) -> Self {
        let q = "ce_index_queries_total";
        IndexObs {
            indexed: reg.counter(q, &[("outcome", "indexed")]),
            fallback: reg.counter(q, &[("outcome", "fallback")]),
            bypass: reg.counter(q, &[("outcome", "bypass")]),
            rerank: reg.histogram("ce_index_rerank_candidates", &[], COUNT_BUCKETS),
            build_ns: reg.histogram("ce_index_build_ns", &[], LATENCY_NS_BUCKETS),
        }
    }
}

/// The built two-stage index; see the module docs for semantics.
#[derive(Clone)]
pub struct KnnIndex {
    cfg: IndexConfig,
    generation: u64,
    len: usize,
    dim: usize,
    /// Flattened `partitions × dim` exact centroids.
    centroids: Vec<f32>,
    /// The same centroids packed lane-per-row for the coarse pass: one
    /// kernel call gives every query–centroid distance, `euclidean`'s
    /// bits. Not part of the structure checksum (it is a layout, not a
    /// decision of the build).
    packed: PackedRows,
    /// Max exact member distance to the partition centroid.
    radii: Vec<f32>,
    /// Member positions per partition, ascending.
    members: Vec<Vec<u32>>,
    /// Each partition's member embeddings packed lane-per-row, in member
    /// order, for the re-rank: `len · dim · 4` bytes plus at most
    /// fifteen padding rows per partition. Like `packed`, a layout, not
    /// a decision of the build: not part of the structure checksum.
    blocks: Vec<PackedRows>,
    obs: IndexObs,
}

impl KnnIndex {
    /// Builds an index over `embeddings` (position `i` must be the RCS
    /// entry with the i-th smallest global index — see the module docs).
    /// Returns `None` below the cutover, for empty/ragged embeddings, or
    /// zero dimension; callers then stay on the flat scan.
    pub fn build(
        embeddings: &[&[f32]],
        cfg: &IndexConfig,
        generation: u64,
        metrics: &MetricsRegistry,
    ) -> Option<KnnIndex> {
        let n = embeddings.len();
        if n < cfg.min_rcs_for_index {
            return None;
        }
        let dim = embeddings.first()?.len();
        if dim == 0 || embeddings.iter().any(|e| e.len() != dim) {
            return None;
        }
        let obs = IndexObs::new(metrics);
        let _span = obs.build_ns.start_span();

        // Coarse structure: k-means over a deterministic stride sample
        // (every build is a pure function of embeddings + config).
        let p = cfg.partitions.min(n);
        let strided: Vec<&[f32]>;
        let sample = if n <= cfg.sample_cap {
            embeddings
        } else {
            strided = (0..cfg.sample_cap)
                .map(|i| embeddings[i * n / cfg.sample_cap])
                .collect();
            &strided
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let km = kmeans(sample, p, cfg.kmeans_iters, &mut rng);
        let p = km.centroids.len();

        // Assign every point to its nearest centroid (ties to the lowest
        // partition index) and record exact radii: one kernel pass per
        // centroid over a transient pack of the embeddings, each distance
        // the bits of the `euclidean` call it replaces.
        let packed = PackedRows::from_rows(embeddings);
        let mut nearest = vec![(0usize, f32::INFINITY); n];
        let mut dists = Vec::new();
        for (c, cent) in km.centroids.iter().enumerate() {
            packed.dists_into(cent, &mut dists);
            for ((best, best_d), &d) in nearest.iter_mut().zip(&dists) {
                if d < *best_d {
                    *best_d = d;
                    *best = c;
                }
            }
        }
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut radii = vec![0f32; p];
        for (i, &(best, best_d)) in nearest.iter().enumerate() {
            members[best].push(i as u32);
            radii[best] = radii[best].max(best_d);
        }

        let blocks = (members.iter())
            .map(|ms| {
                let rows: Vec<&[f32]> = ms.iter().map(|&m| embeddings[m as usize]).collect();
                PackedRows::from_rows(&rows)
            })
            .collect();

        Some(KnnIndex {
            cfg: cfg.clone(),
            generation,
            len: n,
            dim,
            centroids: km.centroids.iter().flatten().copied().collect(),
            packed: PackedRows::from_rows(&km.centroids),
            radii,
            members,
            blocks,
            obs,
        })
    }

    /// Whether this index was built over exactly the caller's live state.
    pub(crate) fn tag_matches(&self, generation: u64, len: usize) -> bool {
        self.generation == generation && self.len == len
    }

    /// Records that a backend skipped this index (stale tag) and served
    /// the flat scan directly.
    pub(crate) fn note_bypass(&self) {
        self.obs.bypass.inc();
    }

    /// The coarse pass: one packed kernel call leaves every centroid's
    /// exact distance in `scratch.dists` (`euclidean`'s bits), then each
    /// partition's `(distance, partition index)` key goes to
    /// `scratch.keys`, in partition order. Ties only steer probing, never
    /// results.
    fn coarse(&self, query: &[f32], scratch: &mut Scratch) {
        self.packed.dists_into(query, &mut scratch.dists);
        let keys = &mut scratch.keys;
        keys.clear();
        keys.extend((scratch.dists.iter().enumerate()).map(|(c, &d)| order_key(f32_rank(d), c)));
    }

    /// Two-stage query: probes the closest partitions, exactly re-ranks
    /// their members under [`knn_order`](crate::knn_order), and appends the
    /// top `k` `(ids[position], exact distance)` ascending to `out` — the
    /// flat scan's list, bit for bit. While the admissibility bound cannot
    /// prove that, the query widens: the probe set doubles in coarse order
    /// and only the newly probed partitions are re-ranked into the same
    /// list, until the bound admits or every partition is probed. Returns
    /// `false` only for a query it never probed (`k == 0`, or a query of
    /// another dimension), leaving `out` as it was; the caller then scans.
    /// `exclude` (position; `usize::MAX` for none) is skipped during
    /// candidate collection. `ids` names the members by position and must
    /// ascend (positions then rank like ids, so ties break alike).
    /// `scratch` holds the coarse pass and the re-rank distances; reused
    /// across calls, it leaves the query path without an allocation once
    /// grown.
    ///
    /// `k` must already be clamped to the number of selectable entries.
    pub fn query_topk<I: Copy + Ord>(
        &self,
        query: &[f32],
        k: usize,
        exclude: usize,
        ids: &[I],
        scratch: &mut Scratch,
        out: &mut Vec<(I, f32)>,
    ) -> bool {
        let outcome = self.answer(query, k, exclude, ids, scratch, out);
        self.record(outcome)
    }

    /// [`Self::query_topk`] without the counters.
    fn answer<I: Copy + Ord>(
        &self,
        query: &[f32],
        k: usize,
        exclude: usize,
        ids: &[I],
        scratch: &mut Scratch,
        out: &mut Vec<(I, f32)>,
    ) -> Outcome {
        if k == 0 || query.len() != self.dim {
            return Outcome::Bypass;
        }
        self.coarse(query, scratch);
        let partitions = scratch.keys.len();
        let first = self.cfg.probe.min(partitions);
        let start = out.len();
        let (mut probed, mut wanted, mut scanned) = (0, first, 0usize);
        loop {
            select_least(&mut scratch.keys, probed, wanted);
            let (keys, dists) = (&scratch.keys[probed..wanted], &mut scratch.dists);
            // The re-rank of the newly probed partitions: one packed pass
            // per block, each appending its members' exact distances after
            // everything the buffer holds (the coarse pass's, then earlier
            // rounds'), so the member stream below and the distances line
            // up one to one; streamed into the list earlier rounds left.
            let from = dists.len();
            for &key in keys {
                self.blocks[partition(key)].append_dists(query, dists);
            }
            let members = (keys.iter())
                .flat_map(|&key| &self.members[partition(key)])
                .map(|&m| m as usize)
                .zip(&dists[from..])
                .filter(|&(m, _)| m != exclude)
                .inspect(|_| scanned += 1);
            top_k_onto(start, members.map(|(m, &d)| (ids[m], d)), k, out);
            probed = wanted;
            if self.admits(&out[start..], k, &scratch.keys[probed..], &scratch.dists) {
                return if probed == first {
                    Outcome::Indexed { scanned }
                } else {
                    Outcome::Fallback
                };
            }
            if probed == partitions {
                return Outcome::Fallback;
            }
            wanted = (2 * probed).min(partitions);
        }
    }

    /// The admissibility bound over a sorted candidate `list`: it holds
    /// `k` entries, and every unprobed, non-empty partition is provably
    /// too far to contribute — or even tie — a top-k slot. All distances
    /// here are the coarse pass's exact f32 (`coarse[c]`).
    fn admits<I>(&self, list: &[(I, f32)], k: usize, unprobed: &[u64], coarse: &[f32]) -> bool {
        let Some(&(_, d_k)) = list.get(k - 1) else {
            return false;
        };
        for &key in unprobed {
            let c = partition(key);
            if self.members[c].is_empty() {
                continue;
            }
            let (d_c, r_c) = (coarse[c], self.radii[c]);
            let slack = 4.0 * f32::EPSILON * (self.dim as f32 + 8.0) * (d_c + r_c + d_k);
            if d_c - r_c <= d_k + self.cfg.margin + slack {
                return false;
            }
        }
        true
    }

    /// Moves the counter `outcome` names; `true` when the index answered.
    fn record(&self, outcome: Outcome) -> bool {
        match outcome {
            Outcome::Bypass => {
                self.obs.bypass.inc();
                return false;
            }
            Outcome::Fallback => self.obs.fallback.inc(),
            Outcome::Indexed { scanned } => {
                self.obs.indexed.inc();
                self.obs.rerank.observe(scanned as u64);
            }
        }
        true
    }
}

/// What one index query did; [`KnnIndex::record`] counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Never probed: `k == 0`, or a query of another dimension.
    Bypass,
    /// Answered after widening: the first `probe` partitions held fewer
    /// than `k` candidates, or left one the bound could not rule out.
    Fallback,
    /// Answered from the first `probe` partitions' `scanned` re-ranked
    /// candidates.
    Indexed { scanned: usize },
}

/// Puts the least of `keys[from..]` in `keys[from..to]`, ascending: the
/// partitions a query probes next, in coarse order.
fn select_least(keys: &mut [u64], from: usize, to: usize) {
    let (rest, n) = (&mut keys[from..], to - from);
    if n < rest.len() {
        rest.select_nth_unstable(n);
    }
    rest[..n].sort_unstable();
}

/// `(distance, partition)` as one integer: its unsigned order is the
/// distance rank's, then the partition index's — the coarse stage's total
/// order.
fn order_key(rank: u32, partition: usize) -> u64 {
    (u64::from(rank) << 32) | partition as u64
}

/// The partition an [`order_key`] names.
fn partition(key: u64) -> usize {
    key as u32 as usize
}

/// An `f32`'s place under `total_cmp`, as an unsigned integer. On every
/// non-NaN value that is also the order of its `f64` widening.
fn f32_rank(x: f32) -> u32 {
    let bits = x.to_bits();
    if bits >> 31 == 0 {
        bits | (1 << 31)
    } else {
        !bits
    }
}

impl KnnIndex {
    /// FNV-1a over the built structure: per partition its member count,
    /// member positions and radius bits, then every centroid's bits. Two
    /// builds print the same value exactly when they partition alike.
    fn structure_checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (members, radius) in self.members.iter().zip(&self.radii) {
            fold(&(members.len() as u64).to_le_bytes());
            for m in members {
                fold(&m.to_le_bytes());
            }
            fold(&radius.to_bits().to_le_bytes());
        }
        for c in &self.centroids {
            fold(&c.to_bits().to_le_bytes());
        }
        h
    }
}

impl std::fmt::Debug for KnnIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnnIndex")
            .field("generation", &self.generation)
            .field("len", &self.len)
            .field("dim", &self.dim)
            .field("partitions", &self.radii.len())
            .field(
                "structure",
                &format_args!("{:#018x}", self.structure_checksum()),
            )
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::knn::top_k;
    use ce_nn::matrix::euclidean;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::BTreeSet;

    fn centroid(ix: &KnnIndex, c: usize) -> &[f32] {
        &ix.centroids[c * ix.dim..(c + 1) * ix.dim]
    }

    /// The coarse order before the packed pass: one scalar `euclidean`
    /// per centroid, ascending `(distance, partition index)` by a full
    /// sort.
    fn partition_order(ix: &KnnIndex, query: &[f32]) -> Vec<u32> {
        let mut order: Vec<(f32, u32)> = (0..ix.radii.len())
            .map(|c| (euclidean(query, centroid(ix, c)), c as u32))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order.into_iter().map(|(_, c)| c).collect()
    }

    /// The oracle: [`KnnIndex::answer`] before the packed passes — the full
    /// sort above, one scalar `euclidean` per re-ranked member (through its
    /// embedding), a probed mask, and one scalar `euclidean` per unprobed
    /// centroid in the admissibility loop. Where that first round declines,
    /// the widening rule: the answer is the flat scan's list (one
    /// `euclidean` per member), counted as a fallback.
    fn oracle_answer(
        ix: &KnnIndex,
        query: &[f32],
        k: usize,
        exclude: usize,
        embs: &[Vec<f32>],
        out: &mut Vec<(usize, f32)>,
    ) -> Outcome {
        if k == 0 || query.len() != ix.dim {
            return Outcome::Bypass;
        }
        let order = partition_order(ix, query);
        let p = order.len();
        let probe_n = ix.cfg.probe.min(p);
        let start = out.len();
        let mut scanned = 0usize;
        let members = (order[..probe_n].iter())
            .flat_map(|&c| &ix.members[c as usize])
            .map(|&m| m as usize)
            .filter(|&m| m != exclude)
            .inspect(|_| scanned += 1);
        top_k(members.map(|m| (m, euclidean(query, &embs[m]))), k, out);
        let widen = |out: &mut Vec<(usize, f32)>| {
            out.truncate(start);
            let all = (0..embs.len()).filter(|&m| m != exclude);
            top_k(all.map(|m| (m, euclidean(query, &embs[m]))), k, out);
            Outcome::Fallback
        };
        if out.len() - start < k {
            return widen(out);
        }
        let d_k = out[start + k - 1].1;
        let mut probed = vec![false; p];
        for &c in &order[..probe_n] {
            probed[c as usize] = true;
        }
        for (c, done) in probed.iter().enumerate() {
            if *done || ix.members[c].is_empty() {
                continue;
            }
            let d_c = euclidean(query, centroid(ix, c));
            let slack = 4.0 * f32::EPSILON * (ix.dim as f32 + 8.0) * (d_c + ix.radii[c] + d_k);
            if d_c - ix.radii[c] <= d_k + ix.cfg.margin + slack {
                return widen(out);
            }
        }
        Outcome::Indexed { scanned }
    }

    /// Outcome counters, then the re-rank histogram's `(sum, count)`.
    fn counts(registry: &MetricsRegistry) -> [u64; 5] {
        let snap = registry.snapshot();
        let outcome = |o| snap.counter("ce_index_queries_total", &[("outcome", o)]);
        let (sum, count) = snap.histogram_totals("ce_index_rerank_candidates", &[]);
        [
            outcome("indexed"),
            outcome("fallback"),
            outcome("bypass"),
            sum,
            count,
        ]
    }

    fn bits(list: &[(usize, f32)]) -> Vec<(usize, u32)> {
        list.iter().map(|&(id, d)| (id, d.to_bits())).collect()
    }

    /// `n` points on a 0.5-step grid of `grid` values per coordinate:
    /// duplicates (so empty partitions) and exact distance ties abound.
    fn grid_points(rng: &mut StdRng, n: usize, dim: usize, grid: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.gen_range(0..grid) as f32 * 0.5 - 1.0)
                    .collect()
            })
            .collect()
    }

    /// Builds an index over `n` grid points and asks it eight grid queries
    /// at several `k`, with and without an excluded position, through
    /// `query_topk` and through the oracle: the served flag, the appended
    /// list's bits, `scanned` and every counter must agree, the centroid
    /// pack must hold `euclidean`'s bits, and every member block those of
    /// its members, row by row in member order. Returns a tally — builds
    /// that left a partition empty, then the queries that were indexed,
    /// widened and bypassed — and every member count a partition had.
    fn check_against_oracle(
        seed: u64,
        n: usize,
        dim: usize,
        partitions: usize,
        probe: usize,
        grid: usize,
        scratch: &mut Scratch,
    ) -> ([usize; 4], BTreeSet<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let embs = grid_points(&mut rng, n, dim, grid);
        let refs: Vec<&[f32]> = embs.iter().map(Vec::as_slice).collect();
        let queries = grid_points(&mut rng, 8, dim, grid + 1);
        let positions: Vec<usize> = (0..n).collect();
        let held = [(usize::MAX, -1.0f32), (3, 0.5)];
        let cfg = grid_config(seed, partitions, probe);
        let registry = MetricsRegistry::new();
        let ix = KnnIndex::build(&refs, &cfg, 0, &registry).expect("n, dim ≥ 1 build");
        let mut tally = [usize::from(ix.members.iter().any(Vec::is_empty)), 0, 0, 0];
        let sizes = ix.members.iter().map(Vec::len).collect();
        assert_eq!(ix.blocks.len(), ix.members.len(), "one block per partition");
        for x in &queries {
            ix.packed.dists_into(x, &mut scratch.dists);
            let want: Vec<u32> = (0..ix.radii.len())
                .map(|c| euclidean(x, centroid(&ix, c)).to_bits())
                .collect();
            let got: Vec<u32> = scratch.dists.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got, want, "centroid pack");
            for (c, (block, members)) in ix.blocks.iter().zip(&ix.members).enumerate() {
                block.dists_into(x, &mut scratch.dists);
                let want: Vec<u32> = (members.iter())
                    .map(|&m| euclidean(x, &embs[m as usize]).to_bits())
                    .collect();
                let got: Vec<u32> = scratch.dists.iter().map(|d| d.to_bits()).collect();
                assert_eq!(got, want, "member block {c}");
            }
            for exclude in [usize::MAX, rng.gen_range(0..n)] {
                let selectable = n - usize::from(exclude < n);
                for k in [0, 1, 2, 5, selectable] {
                    let k = k.min(selectable);
                    let case =
                        format!("n={n} dim={dim} p={partitions}/{probe}, k={k} exclude={exclude}");
                    let before = counts(&registry);
                    let mut got = held.to_vec();
                    let served = ix.query_topk(x, k, exclude, &positions, scratch, &mut got);
                    let mid = counts(&registry);
                    let mut want = held.to_vec();
                    let outcome = oracle_answer(&ix, x, k, exclude, &embs, &mut want);
                    let served_oracle = ix.record(outcome);
                    let after = counts(&registry);
                    assert_eq!(served, served_oracle, "{case}: served");
                    assert_eq!(bits(&got), bits(&want), "{case}: list");
                    let delta = |a: [u64; 5], b: [u64; 5]| -> Vec<u64> {
                        a.iter().zip(b).map(|(a, b)| a - b).collect()
                    };
                    assert_eq!(delta(mid, before), delta(after, mid), "{case}: counters");
                    let mut scanned = Vec::new();
                    let again = ix.answer(x, k, exclude, &positions, scratch, &mut scanned);
                    assert_eq!(again, outcome, "{case}: scanned");
                    tally[match outcome {
                        Outcome::Indexed { .. } => 1,
                        Outcome::Fallback => 2,
                        Outcome::Bypass => 3,
                    }] += 1;
                }
            }
        }
        (tally, sizes)
    }

    /// The grid tests' index shape: every point indexed, k-means on all of
    /// them.
    fn grid_config(seed: u64, partitions: usize, probe: usize) -> IndexConfig {
        let cfg = IndexConfig {
            partitions,
            probe,
            min_rcs_for_index: 1,
            sample_cap: partitions.max(64),
            seed,
            ..IndexConfig::default()
        };
        cfg.validate().expect("valid shape");
        cfg
    }

    /// The name of the dispatch arm every kernel of the coarse pass ran.
    fn arm() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        let level = ce_nn::matrix::simd_level();
        #[cfg(not(target_arch = "x86_64"))]
        let level = 0;
        ["scalar", "avx2", "avx512f"][usize::from(level)]
    }

    /// The shapes the packed passes treat differently: partition counts of
    /// one row, a lane block less one, exactly one, plus one, and a hundred
    /// (the coarse pass), and — through one partition holding every point —
    /// member blocks of 1, 15, 16, 17 and 33 rows beside the empty ones the
    /// grid's duplicates leave (the re-rank); with one probe, a few, and
    /// every partition (the full-sort case); one scratch across all of
    /// them, as a batch reuses it.
    #[test]
    fn coarse_pass_matches_the_oracle_on_the_shape_grid() {
        let mut scratch = Scratch::default();
        let (mut seed, mut tally, mut sizes) = (0xc0a5, [0; 4], BTreeSet::new());
        let shapes = [
            (1, [1, 5, 15, 16, 17, 33].as_slice()),
            (15, &[15, 33]),
            (16, &[16, 35]),
            (17, &[17, 37]),
            (100, &[100, 203]),
        ];
        for (partitions, ns) in shapes {
            for &n in ns {
                for dim in [1, 3, 32] {
                    for probe in [1, 4.min(partitions), partitions] {
                        seed += 1;
                        let (t, s) =
                            check_against_oracle(seed, n, dim, partitions, probe, 3, &mut scratch);
                        tally.iter_mut().zip(t).for_each(|(a, b)| *a += b);
                        sizes.extend(s);
                    }
                }
            }
        }
        let [with_empty, indexed, fallback, bypass] = tally;
        println!(
            "index coarse pass and member blocks: dispatch arm {} on this host; \
             {with_empty} builds with an empty partition; member counts met {sizes:?}; \
             outcomes indexed {indexed}, fallback {fallback}, bypass {bypass}",
            arm()
        );
        assert!(
            tally.iter().all(|&t| t > 0),
            "the grid must reach every case"
        );
        for rows in [0, 1, 15, 16, 17, 33] {
            assert!(sizes.contains(&rows), "no member block of {rows} rows");
        }
    }

    proptest! {
        /// [`check_against_oracle`] at random shapes.
        #[test]
        fn coarse_pass_matches_the_oracle(
            seed in 0u64..1_000_000,
            shape in 0usize..5,
            extra in 0usize..40,
            dim in 0usize..5,
            probe in 0usize..4,
            grid in 2usize..6,
        ) {
            let partitions = [1, 15, 16, 17, 100][shape];
            let probe = [1, 2, 6, partitions][probe].min(partitions);
            let dim = [1, 2, 3, 8, 32][dim];
            let mut scratch = Scratch::default();
            check_against_oracle(seed, partitions + extra, dim, partitions, probe, grid, &mut scratch);
        }
    }
}
