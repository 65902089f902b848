//! Batch-stacked embedding service: encode many graphs in one pass.
//!
//! The serving path (RCS refresh, advisor KNN lookups, loss evaluation)
//! is dominated by many *small* per-graph forwards — one kernel dispatch
//! and a handful of allocations per layer per graph, each amortized over
//! only a few vertex rows. [`StackedCtx`] turns that into the shape the
//! SIMD kernels were built for: N graphs are concatenated into one tall
//! vertex matrix plus a block-diagonal CSR adjacency
//! ([`CsrAdjacency::stack`](ce_features::CsrAdjacency::stack)), the whole
//! batch runs as a handful of large SpMM/matmul calls (tall matmuls engage
//! the 4-row register micro-kernel that a 3-vertex graph never fills), and
//! a segmented row reduction ([`ce_nn::matrix::segmented_sum_rows`]) pools
//! each graph's vertex block into its embedding.
//!
//! # Equivalence and determinism
//!
//! The stacked forward is **bit-identical** to the per-graph path
//! ([`GinEncoder::encode`]), not merely close: every kernel involved is
//! row-local (dense maps) or block-local with preserved intra-row entry
//! order (the block-diagonal SpMM), and the segmented pooling accumulates
//! rows in the same ascending order as per-graph sum pooling. Chunk
//! boundaries therefore cannot change results either — the batch entry
//! points pack graphs into chunks of ≈[`STACK_CHUNK_ROWS`] vertex rows
//! fanned out over the rayon pool, and emit the same bits at any chunk
//! size or thread count (tested).
//!
//! Graphs with zero vertices stack to zero-height blocks and pool to the
//! all-zero embedding (the empty sum); the per-graph path cannot encode
//! them at all, so the stacked service strictly extends it.

use crate::gin::{BackwardPlan, GinEncoder, GinGrads, GraphCtx};
use crate::pool::GradPool;
use ce_features::{CsrAdjacency, FeatureGraph};
use ce_nn::matrix::{
    segmented_broadcast_rows, segmented_sum_rows, spmm_csr, tmatmul_left_segment_into,
};
use ce_nn::Matrix;
use rayon::prelude::*;
use std::borrow::Borrow;
use std::ops::Range;

/// Vertex-row budget per stacked chunk. At GIN widths (≤ 64 features) a
/// 64-row activation block plus one `KERNEL_BLOCK` panel of weights fits
/// L1, so the matmul's second k-panel pass re-reads output rows from cache
/// instead of L2 — stacking *everything* into one matrix measures slower.
/// Chunks also bound latency and give the rayon pool units to fan out.
/// Results are bit-identical at any value (see module docs).
pub const STACK_CHUNK_ROWS: usize = 64;

/// Greedy contiguous packing: close a chunk once it holds at least
/// [`STACK_CHUNK_ROWS`] rows. Zero-row items never force a chunk break.
/// Crate-visible so `train::train_batch` packs its batches the same way.
pub(crate) fn chunk_ranges(row_counts: impl IntoIterator<Item = usize>) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut rows = 0usize;
    let mut len = 0usize;
    for (i, n) in row_counts.into_iter().enumerate() {
        if rows >= STACK_CHUNK_ROWS {
            ranges.push(start..i);
            start = i;
            rows = 0;
        }
        rows += n;
        len = i + 1;
    }
    if start < len {
        ranges.push(start..len);
    }
    ranges
}

/// N prepared graphs concatenated for one stacked forward: a tall vertex
/// matrix, a block-diagonal CSR adjacency, and the row offsets delimiting
/// each graph's vertex block (length N + 1).
#[derive(Clone)]
pub struct StackedCtx {
    h0: Matrix,
    csr: CsrAdjacency,
    offsets: Vec<usize>,
}

impl StackedCtx {
    /// Stacks prepared graph contexts. Non-empty graphs must share one
    /// vertex dimensionality; zero-vertex graphs contribute empty blocks.
    pub fn from_ctxs<C: Borrow<GraphCtx>>(ctxs: &[C]) -> Self {
        let dim = ctxs
            .iter()
            .map(|c| c.borrow().h0.cols)
            .find(|&c| c > 0)
            .unwrap_or(0);
        let total: usize = ctxs.iter().map(|c| c.borrow().h0.rows).sum();
        let mut data = Vec::with_capacity(total * dim);
        let mut offsets = Vec::with_capacity(ctxs.len() + 1);
        offsets.push(0);
        for c in ctxs {
            let h0 = &c.borrow().h0;
            if h0.rows > 0 {
                assert_eq!(h0.cols, dim, "stacked graphs must share vertex dim");
                data.extend_from_slice(&h0.data);
            }
            offsets.push(offsets.last().expect("non-empty") + h0.rows);
        }
        let csrs: Vec<&CsrAdjacency> = ctxs.iter().map(|c| &c.borrow().csr).collect();
        StackedCtx {
            h0: Matrix {
                rows: total,
                cols: dim,
                data,
            },
            csr: CsrAdjacency::stack(&csrs),
            offsets,
        }
    }

    /// Prepares and stacks raw feature graphs.
    pub fn from_graphs<G: Borrow<FeatureGraph>>(graphs: &[G]) -> Self {
        let ctxs: Vec<GraphCtx> = graphs
            .iter()
            .map(|g| GraphCtx::from_graph(g.borrow()))
            .collect();
        StackedCtx::from_ctxs(&ctxs)
    }

    /// Packs `graphs` into serving chunks of ≈[`STACK_CHUNK_ROWS`] vertex
    /// rows each, in input order. This is the cacheable form of the serving
    /// path: build once per graph set, re-encode after every encoder update
    /// ([`GinEncoder::encode_stacked_into`]) without touching the graphs.
    pub fn pack_graphs<G: Borrow<FeatureGraph>>(graphs: &[G]) -> Vec<StackedCtx> {
        chunk_ranges(graphs.iter().map(|g| g.borrow().num_vertices()))
            .into_iter()
            .map(|r| StackedCtx::from_graphs(&graphs[r]))
            .collect()
    }

    /// Appends `g` to chunks [`Self::pack_graphs`] built, exactly as
    /// `pack_graphs` would have packed it as the last graph of its input:
    /// into the last chunk while that holds fewer than
    /// [`STACK_CHUNK_ROWS`] rows, else into a new chunk. Only the receiving
    /// chunk is touched, so growing a packed set by one graph costs one
    /// graph's packing, not the whole set's.
    pub fn push_packed(chunks: &mut Vec<StackedCtx>, g: &FeatureGraph) {
        let ctx = GraphCtx::from_graph(g);
        match chunks.last_mut() {
            Some(last) if last.num_vertices() < STACK_CHUNK_ROWS => last.push(&ctx),
            _ => chunks.push(StackedCtx::from_ctxs(&[ctx])),
        }
    }

    /// Appends one graph's block: the [`Self::from_ctxs`] layout over the
    /// old graphs plus `ctx`.
    fn push(&mut self, ctx: &GraphCtx) {
        if self.h0.cols == 0 {
            self.h0.cols = ctx.h0.cols;
        }
        if ctx.h0.rows > 0 {
            assert_eq!(
                ctx.h0.cols, self.h0.cols,
                "stacked graphs must share vertex dim"
            );
            self.h0.data.extend_from_slice(&ctx.h0.data);
            self.h0.rows += ctx.h0.rows;
        }
        self.csr = CsrAdjacency::stack(&[&self.csr, &ctx.csr]);
        self.offsets.push(self.h0.rows);
    }

    /// Number of stacked graphs.
    pub fn num_graphs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total vertices across all stacked graphs.
    pub fn num_vertices(&self) -> usize {
        self.h0.rows
    }

    /// Row offsets delimiting each graph's vertex block (length N + 1).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

impl GinEncoder {
    /// Encodes every graph of a stacked context in one pass through the
    /// SIMD kernels, bit-identical to calling [`Self::encode`] per graph
    /// (zero-vertex graphs yield the all-zero embedding).
    pub fn encode_stacked(&self, stacked: &StackedCtx) -> Vec<Vec<f32>> {
        let mut pooled = Matrix::zeros(0, 0);
        self.encode_stacked_into(stacked, &mut pooled);
        (0..pooled.rows).map(|r| pooled.row(r).to_vec()).collect()
    }

    /// Allocation-recycling form of [`Self::encode_stacked`]: `pooled` is
    /// reshaped to one row per graph (reusing its buffer). The steady-state
    /// serving loop — refresh embeddings after every incremental encoder
    /// update — runs this over cached [`StackedCtx`] chunks with zero
    /// per-graph allocations.
    pub fn encode_stacked_into(&self, stacked: &StackedCtx, pooled: &mut Matrix) {
        if stacked.num_vertices() == 0 {
            pooled.reset_zeroed(stacked.num_graphs(), self.embed_dim());
            return;
        }
        let h = self.stacked_layers_forward(&stacked.h0, &stacked.csr);
        pooled.reset_zeroed(stacked.num_graphs(), h.cols);
        segmented_sum_rows(&h, &stacked.offsets, pooled);
    }

    /// The batch serving entry point: embeds `graphs` via stacked forwards,
    /// packed to ≈[`STACK_CHUNK_ROWS`] vertex rows per stack, chunks fanned
    /// out over the rayon pool and reassembled in input order.
    /// Bit-identical to the per-graph path at any chunk size or thread
    /// count.
    pub fn encode_batch<G: Borrow<FeatureGraph> + Sync>(&self, graphs: &[G]) -> Vec<Vec<f32>> {
        let ranges = chunk_ranges(graphs.iter().map(|g| g.borrow().num_vertices()));
        let per_chunk: Vec<Vec<Vec<f32>>> = ranges
            .par_iter()
            .map(|r| self.encode_stacked(&StackedCtx::from_graphs(&graphs[r.clone()])))
            .collect();
        per_chunk.into_iter().flatten().collect()
    }
}

/// Activations of one **stacked training forward**: per layer the tall
/// aggregated input `M` and post-activation output `Y` across every graph
/// of the chunk, plus the segment-pooled embeddings (one row per graph).
/// One pass serves both the loss embeddings and the segmented backward.
///
/// Pooled instances (see [`crate::pool::StackedTapePool`]) keep their
/// buffers across checkouts; [`GinEncoder::forward_stacked_tape_into`]
/// fully overwrites them, so recycling can never change values.
pub struct StackedTape {
    steps: Vec<StackedStep>,
    pooled: Matrix,
}

struct StackedStep {
    m: Matrix,
    y: Matrix,
}

impl StackedTape {
    /// An empty tape, ready for [`GinEncoder::forward_stacked_tape_into`].
    pub fn new() -> Self {
        StackedTape {
            steps: Vec::new(),
            pooled: Matrix::zeros(0, 0),
        }
    }

    /// Number of graphs the last forward stacked.
    pub fn num_graphs(&self) -> usize {
        self.pooled.rows
    }

    /// Graph `i`'s embedding — bit-identical to [`GinEncoder::encode`] of
    /// the same graph.
    pub fn embedding(&self, i: usize) -> &[f32] {
        self.pooled.row(i)
    }
}

impl Default for StackedTape {
    fn default() -> Self {
        StackedTape::new()
    }
}

impl GinEncoder {
    /// Training forward over a whole stacked chunk: records the tall
    /// per-layer activations the segmented backward needs and pools each
    /// graph's embedding. One kernel dispatch per layer for N graphs —
    /// embeddings and tape contents are bit-identical per block to N
    /// per-graph taped forwards (every kernel is row-local or block-local
    /// with preserved order; see the module docs). Overwrites `tape` in
    /// place (reshaping its matrices), bit-identical to a freshly allocated
    /// tape, so a [`StackedTapePool`](crate::pool::StackedTapePool)
    /// checkout can be filled by it.
    pub fn forward_stacked_tape_into(&self, stacked: &StackedCtx, tape: &mut StackedTape) {
        if stacked.num_vertices() == 0 {
            // All-empty stacks (or empty batches) pool to all-zero
            // embeddings and need no activations.
            tape.steps.clear();
            tape.pooled
                .reset_zeroed(stacked.num_graphs(), self.embed_dim());
            return;
        }
        let layers = self.layers();
        tape.steps.resize_with(layers.len(), || StackedStep {
            m: Matrix::zeros(0, 0),
            y: Matrix::zeros(0, 0),
        });
        for (l, layer) in layers.iter().enumerate() {
            let (done, rest) = tape.steps.split_at_mut(l);
            let step = &mut rest[0];
            let h = if l == 0 { &stacked.h0 } else { &done[l - 1].y };
            // The SpMM inside `aggregate` zeroes its output itself.
            step.m.reshape_for_overwrite(h.rows, h.cols);
            layer.aggregate(h, &stacked.csr, &mut step.m);
            layer.mlp.infer_into(&step.m, &mut step.y);
        }
        let h = tape.steps.last().map_or(&stacked.h0, |s| &s.y);
        tape.pooled.reset_zeroed(stacked.num_graphs(), h.cols);
        segmented_sum_rows(h, &stacked.offsets, &mut tape.pooled);
    }

    /// Segmented backward of one stacked chunk: backpropagates all N
    /// graphs through the block-diagonal CSR in a single tall pass and
    /// returns one gradient accumulator per graph (checked out of `pool`,
    /// `None` for graphs whose embedding gradient is exactly zero).
    ///
    /// # Bit-identity to the per-graph backward
    ///
    /// The *propagated* gradient is row-local at every step — the
    /// activation backward is elementwise, `g·Wᵀ` computes each row
    /// independently, and the block-diagonal SpMM visits only same-block
    /// neighbors in preserved order — so each graph's rows carry exactly
    /// the bits its standalone backward would. The *parameter* gradients
    /// are **split at segment boundaries**: each graph's `gw`/`gb`/`ε`
    /// contribution is accumulated from its own row block into its own
    /// accumulator (per-segment chained sums from zero), which the caller
    /// reduces in fixed batch order — the identical association the
    /// per-graph path uses. A single tall `Xᵀ·G` would instead chain the
    /// whole batch into one float sum and change the bits.
    pub fn backward_stacked_tape(
        &self,
        stacked: &StackedCtx,
        tape: &StackedTape,
        grad_embeddings: &[Vec<f32>],
        plan: &BackwardPlan,
        pool: &GradPool,
    ) -> Vec<Option<GinGrads>> {
        let n = stacked.num_graphs();
        assert_eq!(grad_embeddings.len(), n, "one gradient per stacked graph");
        let mut accs: Vec<Option<GinGrads>> = grad_embeddings
            .iter()
            .map(|g| g.iter().any(|&v| v != 0.0).then(|| pool.checkout(self)))
            .collect();
        let layers = self.layers();
        if stacked.num_vertices() == 0 || layers.is_empty() || accs.iter().all(Option::is_none) {
            return accs;
        }
        let d = self.embed_dim();
        let offsets = &stacked.offsets;
        // Sum pooling broadcasts each embedding gradient to every vertex
        // of its segment (rows of skipped graphs stay exactly zero and,
        // being block-local, never reach another graph's propagation).
        let mut src = Matrix::zeros(n, d);
        for (i, ge) in grad_embeddings.iter().enumerate() {
            assert_eq!(ge.len(), d, "embedding gradient dimension mismatch");
            src.row_mut(i).copy_from_slice(ge);
        }
        // Scratch matrices hoisted out of the layer loop: each grows to the
        // widest layer once and is then reused (`reshape_for_overwrite`
        // skips the redundant zero-fill of buffers the broadcast/SpMM
        // kernels fully overwrite themselves).
        let mut g = Matrix::zeros(0, 0);
        g.reshape_for_overwrite(stacked.num_vertices(), d);
        segmented_broadcast_rows(&src, offsets, &mut g);
        let mut gm = Matrix::zeros(0, 0);
        let mut gh = Matrix::zeros(0, 0);
        for (l, layer) in layers.iter().enumerate().rev() {
            let step = &tape.steps[l];
            let h = if l == 0 {
                &stacked.h0
            } else {
                &tape.steps[l - 1].y
            };
            // Row-local, elementwise: identical per row to each per-graph
            // activation backward.
            layer.mlp.activation.backward(&step.y, &mut g);
            // dL/dM for the whole chunk in one tall row-local product (it
            // only reads `g` and `Wᵀ`, so running it before the parameter
            // accumulation below changes no value — but lets each
            // accumulator be visited once per layer, not twice).
            g.matmul_into(plan.wt(l), &mut gm);
            // Parameter gradients, split at segment boundaries: each
            // graph's `gw += Mᵀ·g` / `gb` / `ε` contribution comes from
            // its own row block, exactly as its per-graph backward would
            // compute it (per-segment chained sums in the same order).
            for (s, acc) in accs.iter_mut().enumerate() {
                let Some(acc) = acc.as_mut() else { continue };
                let seg = offsets[s]..offsets[s + 1];
                let la = acc.layer_mut(l);
                tmatmul_left_segment_into(&step.m, &g, seg.clone(), &mut la.dense.gw);
                for r in seg {
                    for (b, &v) in la.dense.gb.iter_mut().zip(g.row(r)) {
                        *b += v;
                    }
                }
                // dL/dε = Σ_i <gm_i, h_i> over the segment's elements in
                // row-major order — the order the per-graph loop walks.
                let (lo, hi) = (offsets[s] * gm.cols, offsets[s + 1] * gm.cols);
                for (a, b) in gm.data[lo..hi].iter().zip(&h.data[lo..hi]) {
                    la.eps += a * b;
                }
            }
            if l == 0 {
                // The input-feature gradient is never consumed.
                break;
            }
            // dL/dH = (1+ε)·gm + A·gm over the block-diagonal CSR: the
            // same symmetric structure that routed the forward routes
            // every graph's gradient, block-locally. The SpMM zeroes its
            // output itself.
            gh.reshape_for_overwrite(h.rows, h.cols);
            spmm_csr(
                &stacked.csr.indptr,
                &stacked.csr.indices,
                &stacked.csr.weights,
                1.0 + layer.eps,
                &gm,
                &mut gh,
            );
            std::mem::swap(&mut g, &mut gh);
        }
        accs
    }
}

#[cfg(test)]
impl StackedTape {
    /// All embeddings, one row per stacked graph.
    pub(crate) fn embeddings(&self) -> &Matrix {
        &self.pooled
    }
}

#[cfg(test)]
impl GinEncoder {
    /// [`Self::forward_stacked_tape_into`] into a freshly allocated tape.
    pub(crate) fn forward_stacked_tape(&self, stacked: &StackedCtx) -> StackedTape {
        let mut tape = StackedTape::new();
        self.forward_stacked_tape_into(stacked, &mut tape);
        tape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random small graphs with varied vertex counts (including 1) and
    /// random sparse edges.
    #[allow(clippy::needless_range_loop)]
    fn random_graphs(count: usize, dim: usize, seed: u64) -> Vec<FeatureGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let n = rng.gen_range(1usize..=7);
                let mut edges = vec![vec![0.0f32; n]; n];
                for i in 0..n {
                    for j in 0..n {
                        if i != j && rng.gen::<f32>() < 0.35 {
                            edges[i][j] = rng.gen_range(0.05f32..1.0);
                        }
                    }
                }
                let vertices = (0..n)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..=1.0)).collect())
                    .collect();
                FeatureGraph { vertices, edges }
            })
            .collect()
    }

    #[test]
    fn stacked_encoding_is_bitwise_per_graph_encoding() {
        let dim = 5;
        let enc = GinEncoder::new(dim, &[16, 8], 6, 77);
        let graphs = random_graphs(23, dim, 0x57ac);
        let stacked = StackedCtx::from_graphs(&graphs);
        assert_eq!(stacked.num_graphs(), graphs.len());
        let batch = enc.encode_stacked(&stacked);
        for (g, emb) in graphs.iter().zip(&batch) {
            assert_eq!(&enc.encode(g), emb, "stacked must equal per-graph");
        }
    }

    #[test]
    fn encode_batch_spans_chunk_boundaries_bitwise() {
        let dim = 4;
        let enc = GinEncoder::new(dim, &[12], 5, 78);
        // Far more vertex rows than one STACK_CHUNK_ROWS budget, so the
        // packing and reassembly are exercised.
        let graphs = random_graphs(60, dim, 0xbee);
        let batch = enc.encode_batch(&graphs);
        assert_eq!(batch.len(), graphs.len());
        for (g, emb) in graphs.iter().zip(&batch) {
            assert_eq!(&enc.encode(g), emb);
        }
        // The cached-chunk entry point agrees.
        let packed = StackedCtx::pack_graphs(&graphs);
        assert!(packed.len() > 1, "workload must span several chunks");
        let repacked: Vec<Vec<f32>> = packed.iter().flat_map(|s| enc.encode_stacked(s)).collect();
        assert_eq!(repacked, batch);
    }

    proptest::proptest! {
        /// Growing a packed set graph by graph lays out every chunk as
        /// packing the whole set at once does — zero-vertex graphs and
        /// chunk boundaries included.
        #[test]
        fn push_packed_is_pack_graphs(
            sizes in proptest::collection::vec(0usize..=9, 0..40),
            split in 0usize..40,
            seed in 0u64..1000,
        ) {
            let mut graphs = random_graphs(sizes.len(), 3, seed);
            for (g, &n) in graphs.iter_mut().zip(&sizes) {
                g.vertices.resize(n, vec![0.25; 3]);
                g.edges.resize(n, Vec::new());
                for row in &mut g.edges {
                    row.resize(n, 0.0);
                }
            }
            let split = split.min(graphs.len());
            let mut grown = StackedCtx::pack_graphs(&graphs[..split]);
            for g in &graphs[split..] {
                StackedCtx::push_packed(&mut grown, g);
            }
            let whole = StackedCtx::pack_graphs(&graphs);
            proptest::prop_assert_eq!(grown.len(), whole.len());
            for (a, b) in grown.iter().zip(&whole) {
                proptest::prop_assert_eq!((a.h0.rows, a.h0.cols), (b.h0.rows, b.h0.cols));
                let bits = |m: &Matrix| m.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&a.h0), bits(&b.h0));
                proptest::prop_assert_eq!(&a.offsets, &b.offsets);
                proptest::prop_assert_eq!(&a.csr.indptr, &b.csr.indptr);
                proptest::prop_assert_eq!(&a.csr.indices, &b.csr.indices);
                let weights = |c: &CsrAdjacency| c.weights.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(weights(&a.csr), weights(&b.csr));
            }
        }
    }

    #[test]
    fn encode_batch_is_bit_deterministic_across_thread_counts() {
        let dim = 3;
        let enc = GinEncoder::new(dim, &[8], 4, 79);
        let graphs = random_graphs(40, dim, 0xd06);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds")
                .install(|| enc.encode_batch(&graphs))
        };
        assert_eq!(run(1), run(4), "stacked serving must not depend on threads");
    }

    #[test]
    fn empty_graphs_pool_to_zero_embeddings() {
        let enc = GinEncoder::new(3, &[8], 4, 80);
        let empty = FeatureGraph {
            vertices: vec![],
            edges: vec![],
        };
        let full = FeatureGraph {
            vertices: vec![vec![0.1, 0.2, 0.3]],
            edges: vec![vec![0.0]],
        };
        let stacked = StackedCtx::from_graphs(&[empty.clone(), full.clone(), empty]);
        let batch = enc.encode_stacked(&stacked);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], vec![0.0; 4]);
        assert_eq!(batch[2], vec![0.0; 4]);
        assert_eq!(batch[1], enc.encode(&full));
        // An all-empty stack still answers with the right shape.
        let none = StackedCtx::from_graphs::<FeatureGraph>(&[]);
        assert!(enc.encode_stacked(&none).is_empty());
    }

    #[test]
    fn offsets_partition_the_vertex_rows() {
        let graphs = random_graphs(9, 2, 0xfab);
        let stacked = StackedCtx::from_graphs(&graphs);
        let offsets = stacked.offsets();
        assert_eq!(offsets[0], 0);
        assert_eq!(*offsets.last().expect("non-empty"), stacked.num_vertices());
        for (i, g) in graphs.iter().enumerate() {
            assert_eq!(offsets[i + 1] - offsets[i], g.vertices.len());
        }
    }

    #[test]
    fn stacked_tape_embeddings_match_per_graph_tapes_bitwise() {
        let dim = 4;
        let enc = GinEncoder::new(dim, &[10, 6], 5, 81);
        let graphs = random_graphs(17, dim, 0x7a9e);
        let ctxs: Vec<GraphCtx> = graphs.iter().map(GraphCtx::from_graph).collect();
        let stacked = StackedCtx::from_ctxs(&ctxs);
        let tape = enc.forward_stacked_tape(&stacked);
        assert_eq!(tape.num_graphs(), graphs.len());
        for (i, ctx) in ctxs.iter().enumerate() {
            let per_graph = enc.forward_tape(ctx);
            assert_eq!(tape.embedding(i), per_graph.embedding(), "graph {i}");
        }
    }

    /// The segmented backward must reproduce every per-graph accumulator
    /// bit for bit — including the zero-gradient skip, empty graphs
    /// (zero-height blocks) and single-vertex graphs.
    #[test]
    fn segmented_backward_matches_per_graph_backward_bitwise() {
        use crate::gin::GinGrads;
        use crate::pool::GradPool;
        let dim = 3;
        let enc = GinEncoder::new(dim, &[9, 7], 4, 82);
        let mut rng = StdRng::seed_from_u64(0xbac);
        let mut graphs = random_graphs(11, dim, 0x1d5);
        // Splice in empty and single-vertex graphs.
        let empty = FeatureGraph {
            vertices: vec![],
            edges: vec![],
        };
        let single = FeatureGraph {
            vertices: vec![(0..dim).map(|j| 0.1 * j as f32).collect()],
            edges: vec![vec![0.0]],
        };
        graphs.insert(0, empty.clone());
        graphs.insert(4, single);
        graphs.push(empty);
        let ctxs: Vec<GraphCtx> = graphs.iter().map(GraphCtx::from_graph).collect();
        let stacked = StackedCtx::from_ctxs(&ctxs);
        let tape = enc.forward_stacked_tape(&stacked);
        // Random embedding gradients; some exactly zero to exercise the
        // skip, including a zero gradient on an empty graph and a nonzero
        // one on the other (whose accumulator must still come back zeroed
        // but present).
        let grads_in: Vec<Vec<f32>> = (0..graphs.len())
            .map(|i| {
                if i % 5 == 2 || i == 0 {
                    vec![0.0; enc.embed_dim()]
                } else {
                    (0..enc.embed_dim())
                        .map(|_| rng.gen_range(-1.0f32..=1.0))
                        .collect()
                }
            })
            .collect();
        let plan = enc.backward_plan();
        let pool = GradPool::default();
        let accs = enc.backward_stacked_tape(&stacked, &tape, &grads_in, &plan, &pool);
        assert_eq!(accs.len(), graphs.len());
        for (i, (ctx, acc)) in ctxs.iter().zip(&accs).enumerate() {
            if grads_in[i].iter().all(|&v| v == 0.0) {
                assert!(acc.is_none(), "zero-grad graph {i} must be skipped");
                continue;
            }
            let acc = acc.as_ref().expect("active graph has an accumulator");
            let mut expect = GinGrads::zeros_like(&enc);
            if ctx.num_vertices() > 0 {
                let per_tape = enc.forward_tape(ctx);
                enc.backward_tape(ctx, &per_tape, &grads_in[i], &mut expect, &plan);
            }
            assert_eq!(acc.flat(), expect.flat(), "graph {i} grads must match");
        }
    }

    #[test]
    fn chunk_ranges_cover_input_in_order() {
        assert!(chunk_ranges(Vec::<usize>::new()).is_empty());
        assert_eq!(chunk_ranges([0, 0, 0]), vec![0..3]);
        // 40 + 30 >= 64 closes the first chunk; the tail forms the second.
        assert_eq!(chunk_ranges([40, 30, 10, 5]), vec![0..2, 2..4]);
        // A single huge graph still gets its own chunk.
        assert_eq!(chunk_ranges([500, 1]), vec![0..1, 1..2]);
    }
}
