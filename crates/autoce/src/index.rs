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
//!    embeddings (IVF). A query ranks partitions by distance to their
//!    centroids — exactly, or through the i8/f16 kernels of
//!    [`ce_nn::index`] — and probes the closest few. Quantization error
//!    here can change *which partitions are probed*, never an answer.
//! 2. **Exact re-rank**: every candidate in a probed partition gets its
//!    exact `f32` [`euclidean`] distance — the same call the flat scan
//!    makes — and the top k are selected under [`knn_order`].
//!
//! The result is returned **only if it is provably the flat scan's**: for
//! every unprobed partition `p`, the triangle-inequality bound
//! `d(x, c_p) − radius_p` (computed in exact `f32`, regardless of the
//! coarse quantization mode) must exceed the k-th candidate distance by a
//! margin plus a conservative float-error slack. Strict inequality is
//! required because [`knn_order`] breaks distance ties by RCS index — an
//! unprobed entry merely *tying* the k-th distance could win the slot. If
//! any partition fails the bound, the query falls back to the flat scan;
//! the index affects performance, never results. `docs/knn-index.md` has
//! the proof sketch.
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

use crate::backend::{validate_nonzero, AdvisorError};
use crate::knn::top_k;
use ce_nn::index::{i8_scale, quantize_f16, quantize_i8, sq_dist_f16, sq_dist_i8};
use ce_nn::kmeans::kmeans;
use ce_nn::matrix::euclidean;
use ce_nn::packed::PackedRows;
use ce_obs::{Counter, Histogram, MetricsRegistry, COUNT_BUCKETS, LATENCY_NS_BUCKETS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Storage format of the coarse-stage centroids. Only partition
/// *selection* ever reads the quantized form; the admissibility bound and
/// the re-rank always use exact `f32`, so every mode is bit-identical to
/// every other — the mode trades coarse-stage bandwidth against nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Exact `f32` centroid distances for partition selection too.
    #[default]
    Exact,
    /// Symmetric i8 codes; integer kernels, fully vectorizable.
    I8,
    /// IEEE binary16 centroids, dequantized on the fly.
    F16,
}

/// Configuration of the two-stage KNN index. Build through
/// [`IndexConfig::builder`], which rejects degenerate shapes the same way
/// the serve/cluster builders reject theirs.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Number of IVF partitions (k-means k). Clamped to the RCS size at
    /// build.
    pub partitions: usize,
    /// Partitions probed per query. More probes → fewer fallbacks,
    /// more re-rank work.
    pub probe: usize,
    /// Extra admissibility margin added to the distance bound. Zero is
    /// correct; a positive margin trades extra fallbacks for headroom
    /// against adversarially tight layouts.
    pub margin: f32,
    /// Coarse-stage centroid storage (see [`QuantMode`]).
    pub quant: QuantMode,
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
            quant: QuantMode::Exact,
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

    /// Validates the cutover against an advisor's `k` — deferred to the
    /// point where `k` is known (index installation), since the index
    /// config itself is advisor-agnostic.
    pub fn validate_for_k(&self, k: usize) -> Result<(), AdvisorError> {
        if self.min_rcs_for_index < k.max(1) {
            return Err(AdvisorError::InvalidConfig(format!(
                "min_rcs_for_index ({}) must be at least k ({k}): an engaged \
                 index must always hold a full neighbor set",
                self.min_rcs_for_index
            )));
        }
        Ok(())
    }

    /// Structural validation — the same checks [`IndexConfigBuilder::build`]
    /// runs, callable by embedding configs (`ServeConfig`, `ClusterConfig`)
    /// whose builders accept a struct-literal `IndexConfig`.
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

    /// Sets the coarse-stage quantization mode.
    pub fn quant(mut self, quant: QuantMode) -> Self {
        self.cfg.quant = quant;
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
/// is disabled). Outcome taxonomy: `indexed` answered from the index,
/// `fallback` probed but failed the admissibility bound, `bypass` never
/// probed (stale tag, dimension mismatch, or no index at this size).
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
    /// Max exact member distance to the partition centroid.
    radii: Vec<f32>,
    /// Member positions per partition, ascending.
    members: Vec<Vec<u32>>,
    /// Quantized centroids (same layout) for the non-exact modes.
    quant_i8: Vec<i8>,
    i8_inv: f32,
    quant_f16: Vec<u16>,
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
        let dim = embeddings[0].len();
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

        let centroids: Vec<f32> = km.centroids.iter().flatten().copied().collect();
        let (mut quant_i8, mut i8_inv, mut quant_f16) = (Vec::new(), 1.0f32, Vec::new());
        match cfg.quant {
            QuantMode::Exact => {}
            QuantMode::I8 => {
                let max_abs = centroids.iter().fold(0f32, |m, &x| m.max(x.abs()));
                let scale = i8_scale(max_abs);
                quant_i8 = quantize_i8(&centroids, scale);
                i8_inv = 1.0 / scale;
            }
            QuantMode::F16 => quant_f16 = quantize_f16(&centroids),
        }

        Some(KnnIndex {
            cfg: cfg.clone(),
            generation,
            len: n,
            dim,
            centroids,
            radii,
            members,
            quant_i8,
            i8_inv,
            quant_f16,
            obs,
        })
    }

    /// The `(generation, rcs_len)` tag stamped at build.
    pub fn tag(&self) -> (u64, usize) {
        (self.generation, self.len)
    }

    /// Whether this index was built over exactly the caller's live state.
    pub fn tag_matches(&self, generation: u64, len: usize) -> bool {
        self.generation == generation && self.len == len
    }

    /// Records that a backend skipped this index (stale tag) and served
    /// the flat scan directly.
    pub fn note_bypass(&self) {
        self.obs.bypass.inc();
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &IndexConfig {
        &self.cfg
    }

    fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// Coarse partition order: ascending `(proxy distance, partition
    /// index)`. The proxy is mode-dependent; ties and quantization error
    /// only steer probing, never results.
    fn partition_order(&self, query: &[f32]) -> Vec<u32> {
        let p = self.radii.len();
        let mut order: Vec<(f64, u32)> = match self.cfg.quant {
            QuantMode::Exact => (0..p)
                .map(|c| (euclidean(query, self.centroid(c)) as f64, c as u32))
                .collect(),
            QuantMode::I8 => {
                let qq = quantize_i8(query, 1.0 / self.i8_inv);
                (0..p)
                    .map(|c| {
                        let chunk = &self.quant_i8[c * self.dim..(c + 1) * self.dim];
                        (sq_dist_i8(&qq, chunk) as f64, c as u32)
                    })
                    .collect()
            }
            QuantMode::F16 => (0..p)
                .map(|c| {
                    let chunk = &self.quant_f16[c * self.dim..(c + 1) * self.dim];
                    (sq_dist_f16(query, chunk) as f64, c as u32)
                })
                .collect(),
        };
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order.into_iter().map(|(_, c)| c).collect()
    }

    /// Two-stage query: probes the closest partitions, exactly re-ranks
    /// their members under [`knn_order`](crate::knn_order), and returns the top `k`
    /// `(position, exact distance)` ascending — **only** when the
    /// admissibility bound proves the result equals the flat scan's.
    /// `None` means fall back to the flat scan. `exclude` (position;
    /// `usize::MAX` for none) is skipped during candidate collection.
    ///
    /// `k` must already be clamped to the number of selectable entries.
    pub fn query_topk<'e, F>(
        &self,
        query: &[f32],
        k: usize,
        exclude: usize,
        emb_of: F,
    ) -> Option<Vec<(usize, f32)>>
    where
        F: Fn(usize) -> &'e [f32],
    {
        if k == 0 || query.len() != self.dim {
            self.obs.bypass.inc();
            return None;
        }
        let order = self.partition_order(query);
        let p = order.len();
        let probe_n = self.cfg.probe.min(p);

        let mut scanned = 0usize;
        let members = (order[..probe_n].iter())
            .flat_map(|&c| &self.members[c as usize])
            .map(|&m| m as usize)
            .filter(|&m| m != exclude)
            .inspect(|_| scanned += 1);
        let cands = top_k(members.map(|m| (m, euclidean(query, emb_of(m)))), k);
        if cands.len() < k {
            self.obs.fallback.inc();
            return None;
        }
        let d_k = cands[k - 1].1;

        // Admissibility: every unprobed, non-empty partition must be
        // provably too far to contribute — or even tie — a top-k slot.
        // All distances here are exact f32, whatever the coarse mode.
        let mut probed = vec![false; p];
        for &c in &order[..probe_n] {
            probed[c as usize] = true;
        }
        for (c, done) in probed.iter().enumerate() {
            if *done || self.members[c].is_empty() {
                continue;
            }
            let d_c = euclidean(query, self.centroid(c));
            let slack = 4.0 * f32::EPSILON * (self.dim as f32 + 8.0) * (d_c + self.radii[c] + d_k);
            if d_c - self.radii[c] <= d_k + self.cfg.margin + slack {
                self.obs.fallback.inc();
                return None;
            }
        }
        self.obs.indexed.inc();
        self.obs.rerank.observe(scanned as u64);
        Some(cands)
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
            .field("quant", &self.cfg.quant)
            .field(
                "structure",
                &format_args!("{:#018x}", self.structure_checksum()),
            )
            .finish()
    }
}
