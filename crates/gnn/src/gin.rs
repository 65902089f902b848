//! Graph Isomorphism Network over feature graphs.
//!
//! Each GINConv layer computes (paper Eq. 5)
//!
//! ```text
//! h⁽ˡ⁺¹⁾_i = f_θ( (1 + ε)·h⁽ˡ⁾_i + Σ_{j∈N(i)} e′_ji · h⁽ˡ⁾_j )
//! ```
//!
//! with `f_θ` a dense layer, `ε` learnable, and `e′_ji` the join-correlation
//! edge weight. The encoder stacks `L` layers and sum-pools vertex
//! representations into one embedding per graph. Backprop is manual: the
//! aggregation is linear and symmetric, so the same sparse structure routes
//! gradients; `ε`'s gradient is the inner product of the incoming gradient
//! with the layer input.
//!
//! # Engine architecture
//!
//! Parameters are split from activation state so the encoder can train a
//! whole batch of graphs in parallel:
//!
//! * [`GinEncoder`] owns **shared parameters only** (weights, ε, Adam
//!   moments); its forward and backward passes are `&self`, so any number
//!   of graphs can be in flight concurrently.
//! * [`GraphCtx`] is the per-graph prepared input: the vertex matrix copied
//!   once and the symmetrized adjacency in CSR form built once.
//! * One taped engine trains: [`crate::stack::StackedTape`] records a
//!   stack of graphs' activations in one forward, and its segmented
//!   backward splits parameter gradients per graph. The per-graph taped
//!   engine it replaced and the seed's dense engine live on only as its
//!   `#[cfg(test)]` oracles (`per_graph`, `reference`).
//! * [`GinGrads`] is a per-graph gradient accumulator. Reducing
//!   accumulators in a fixed order and applying one
//!   [`GinEncoder::step_with`] keeps parallel training bit-for-bit
//!   deterministic across thread counts.

use ce_features::{CsrAdjacency, FeatureGraph};
use ce_nn::matrix::spmm_csr;
use ce_nn::{Activation, Dense, DenseGrad, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One GINConv layer: parameters and optimizer state only — no activation
/// caches, so forward/backward are pure with respect to the layer.
/// Crate-visible so the stacked training path (`crate::stack`) can run the
/// same aggregation/dense kernels over tall batch matrices.
#[derive(Clone)]
pub(crate) struct GinLayer {
    pub(crate) mlp: Dense,
    pub(crate) eps: f32,
    // Adam state for eps.
    eps_m: f32,
    eps_v: f32,
}

impl GinLayer {
    fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        GinLayer {
            mlp: Dense::new(input, output, Activation::Relu, rng),
            eps: 0.0,
            eps_m: 0.0,
            eps_v: 0.0,
        }
    }

    /// Aggregation `M = (1+ε)·H + A·H` via the shared CSR adjacency.
    pub(crate) fn aggregate(&self, h: &Matrix, csr: &CsrAdjacency, out: &mut Matrix) {
        spmm_csr(
            &csr.indptr,
            &csr.indices,
            &csr.weights,
            1.0 + self.eps,
            h,
            out,
        );
    }

    fn step(&mut self, grad: &LayerGrad, lr: f32, t: u64) {
        self.mlp.adam_step_with(&grad.dense, lr, t);
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        let g = grad.eps;
        self.eps_m = B1 * self.eps_m + (1.0 - B1) * g;
        self.eps_v = B2 * self.eps_v + (1.0 - B2) * g * g;
        let mhat = self.eps_m / (1.0 - B1.powi(t as i32));
        let vhat = self.eps_v / (1.0 - B2.powi(t as i32));
        self.eps -= lr * mhat / (vhat.sqrt() + 1e-8);
    }
}

/// Per-graph prepared input: vertex features as a dense matrix (copied once)
/// plus the symmetrized adjacency in CSR form (extracted once). Reused
/// across every epoch, layer and pass that touches the graph.
pub struct GraphCtx {
    pub(crate) h0: Matrix,
    pub(crate) csr: CsrAdjacency,
}

impl GraphCtx {
    /// Prepares a feature graph for encoding/training.
    pub fn from_graph(g: &FeatureGraph) -> Self {
        GraphCtx {
            h0: Matrix::from_row_slices(&g.vertices),
            csr: CsrAdjacency::symmetrized(g),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.h0.rows
    }
}

/// Per-batch backward plan: every layer's `Wᵀ` materialized once and shared
/// (read-only) by all concurrent backward passes of the batch. Weights are
/// constant within a batch, so one transpose amortizes over every graph
/// and keeps the `dx = g·Wᵀ` product on the wide i-k-j kernel.
pub struct BackwardPlan {
    wts: Vec<Matrix>,
}

impl BackwardPlan {
    /// Layer `l`'s pre-materialized `Wᵀ`.
    pub(crate) fn wt(&self, l: usize) -> &Matrix {
        &self.wts[l]
    }
}

/// Gradient accumulator for every encoder parameter. One per concurrent
/// training stream; reduced in fixed batch order before the Adam step.
pub struct GinGrads {
    layers: Vec<LayerGrad>,
}

pub(crate) struct LayerGrad {
    pub(crate) dense: DenseGrad,
    pub(crate) eps: f32,
}

impl GinGrads {
    /// Zero accumulator shaped for `encoder`.
    pub fn zeros_like(encoder: &GinEncoder) -> Self {
        GinGrads {
            layers: encoder
                .layers
                .iter()
                .map(|l| LayerGrad {
                    dense: DenseGrad::zeros_like(&l.mlp),
                    eps: 0.0,
                })
                .collect(),
        }
    }

    /// Deterministic reduction `self += other`.
    pub fn add_assign(&mut self, other: &GinGrads) {
        assert_eq!(self.layers.len(), other.layers.len(), "layer mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.dense.add_assign(&b.dense);
            a.eps += b.eps;
        }
    }

    /// Mutable access to one layer's accumulator slot (for the segmented
    /// backward in `crate::stack`).
    pub(crate) fn layer_mut(&mut self, l: usize) -> &mut LayerGrad {
        &mut self.layers[l]
    }

    /// Resets every accumulated gradient to exactly zero. Pool checkouts
    /// call this so a dirty returned workspace can never leak into the next
    /// batch's accumulation.
    pub fn zero(&mut self) {
        for l in &mut self.layers {
            l.dense.gw.data.iter_mut().for_each(|v| *v = 0.0);
            l.dense.gb.iter_mut().for_each(|v| *v = 0.0);
            l.eps = 0.0;
        }
    }

    /// True when every accumulated gradient is exactly `0.0` — the
    /// checkout invariant asserted (in debug builds) by the gradient pool.
    pub fn is_zero(&self) -> bool {
        self.layers.iter().all(|l| {
            l.eps == 0.0
                && l.dense.gw.data.iter().all(|&v| v == 0.0)
                && l.dense.gb.iter().all(|&v| v == 0.0)
        })
    }

    /// Whether this accumulator's shapes match `encoder`'s parameters (a
    /// pooled accumulator may outlive the encoder it was built for).
    pub fn shape_matches(&self, encoder: &GinEncoder) -> bool {
        self.layers.len() == encoder.layers.len()
            && self.layers.iter().zip(&encoder.layers).all(|(g, l)| {
                g.dense.gw.rows == l.mlp.w.rows
                    && g.dense.gw.cols == l.mlp.w.cols
                    && g.dense.gb.len() == l.mlp.b.len()
            })
    }
}

/// The graph encoder: `L` GINConv layers + sum pooling.
#[derive(Clone)]
pub struct GinEncoder {
    layers: Vec<GinLayer>,
    t: u64,
}

impl GinEncoder {
    /// Builds an encoder mapping `input_dim`-wide vertices through `hidden`
    /// GINConv layers into an `embed_dim` embedding.
    pub fn new(input_dim: usize, hidden: &[usize], embed_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x916);
        let mut dims = vec![input_dim];
        dims.extend_from_slice(hidden);
        dims.push(embed_dim);
        let layers = (0..dims.len() - 1)
            .map(|i| GinLayer::new(dims[i], dims[i + 1], &mut rng))
            .collect();
        GinEncoder { layers, t: 0 }
    }

    /// Width of the vertex rows the encoder takes.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.mlp.input_dim())
    }

    /// Embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.mlp.output_dim())
    }

    /// Inference: encodes a feature graph into its embedding `X⃗`.
    pub fn encode(&self, g: &FeatureGraph) -> Vec<f32> {
        self.encode_ctx(&GraphCtx::from_graph(g))
    }

    /// Inference over a prepared graph (no tape, minimal allocation).
    pub fn encode_ctx(&self, ctx: &GraphCtx) -> Vec<f32> {
        let mut h = ctx.h0.clone();
        let mut m = Matrix::zeros(ctx.h0.rows, ctx.h0.cols);
        for layer in &self.layers {
            if m.cols != h.cols {
                m = Matrix::zeros(h.rows, h.cols);
            }
            layer.aggregate(&h, &ctx.csr, &mut m);
            h = layer.mlp.infer(&m);
        }
        h.sum_rows().data
    }

    /// Runs the GINConv stack over an already-stacked vertex matrix `h0`
    /// with a block-diagonal adjacency `csr`, returning the final per-vertex
    /// activations (pooling is the caller's job). Rows of different graphs
    /// never mix — the SpMM visits only same-block neighbors and the dense
    /// map is row-local — so every row is bit-identical to the per-graph
    /// forward of its block.
    pub(crate) fn stacked_layers_forward(&self, h0: &Matrix, csr: &CsrAdjacency) -> Matrix {
        let mut cur = Matrix::zeros(0, 0);
        let mut next = Matrix::zeros(0, 0);
        let mut m = Matrix::zeros(0, 0);
        for (l, layer) in self.layers.iter().enumerate() {
            // The first layer reads the stacked input in place (no clone);
            // the SpMM inside `aggregate` zeroes its output itself.
            let h = if l == 0 { h0 } else { &cur };
            m.reshape_for_overwrite(h.rows, h.cols);
            layer.aggregate(h, csr, &mut m);
            layer.mlp.infer_into(&m, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        if self.layers.is_empty() {
            h0.clone()
        } else {
            cur
        }
    }

    /// Builds the per-batch backward plan (one `Wᵀ` per layer). Weights
    /// must not change between this call and the backward passes using it.
    pub fn backward_plan(&self) -> BackwardPlan {
        BackwardPlan {
            wts: self.layers.iter().map(|l| l.mlp.w.transpose()).collect(),
        }
    }

    /// The layer stack (for the stacked training path in `crate::stack`).
    pub(crate) fn layers(&self) -> &[GinLayer] {
        &self.layers
    }

    /// One Adam step from a reduced gradient accumulator. A mismatched
    /// accumulator (e.g. pooled for a differently-shaped encoder and never
    /// re-checked out) must fail here rather than silently truncate the
    /// update to the shorter layer list.
    pub fn step_with(&mut self, grads: &GinGrads, lr: f32) {
        assert_eq!(
            grads.layers.len(),
            self.layers.len(),
            "gradient accumulator layer count mismatch"
        );
        debug_assert!(
            grads.shape_matches(self),
            "gradient accumulator shaped for a different encoder"
        );
        self.t += 1;
        for (layer, grad) in self.layers.iter_mut().zip(&grads.layers) {
            layer.step(grad, lr, self.t);
        }
    }

    /// Every parameter flattened in a stable order (weights, biases, ε per
    /// layer) — the bit-exactness witness for determinism tests.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &self.layers {
            out.extend_from_slice(&layer.mlp.w.data);
            out.extend_from_slice(&layer.mlp.b);
            out.push(layer.eps);
        }
        out
    }
}

#[cfg(test)]
impl GinEncoder {
    /// Per-layer parameters `(weights, bias, ε)` — lets the reference
    /// engine clone a trained state for equivalence testing.
    pub(crate) fn layer_params(&self) -> Vec<(&Matrix, &[f32], f32)> {
        self.layers
            .iter()
            .map(|l| (&l.mlp.w, l.mlp.b.as_slice(), l.eps))
            .collect()
    }
}

#[cfg(test)]
impl GinGrads {
    /// ε-gradient of each layer.
    pub(crate) fn epsilon_grads(&self) -> Vec<f32> {
        self.layers.iter().map(|l| l.eps).collect()
    }

    /// Every accumulated gradient flattened in a stable order (weights,
    /// biases, ε per layer) — the bit-exactness witness the stacked-vs-
    /// per-graph backward equivalence tests compare.
    pub(crate) fn flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for l in &self.layers {
            out.extend_from_slice(&l.dense.gw.data);
            out.extend_from_slice(&l.dense.gb);
            out.push(l.eps);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_features::FeatureGraph;

    fn graph(vertices: Vec<Vec<f32>>, edges: Vec<Vec<f32>>) -> FeatureGraph {
        FeatureGraph { vertices, edges }
    }

    #[test]
    fn encode_is_deterministic_and_sized() {
        let enc = GinEncoder::new(4, &[8], 6, 42);
        let g = graph(
            vec![vec![0.1, 0.2, 0.3, 0.4], vec![0.5, 0.6, 0.7, 0.8]],
            vec![vec![0.0, 0.7], vec![0.0, 0.0]],
        );
        let a = enc.encode(&g);
        let b = enc.encode(&g);
        assert_eq!(a.len(), 6);
        assert_eq!(a, b);
        assert_eq!(enc.embed_dim(), 6);
    }

    #[test]
    fn edges_change_the_embedding() {
        let enc = GinEncoder::new(3, &[8], 4, 43);
        let v = vec![vec![0.3, 0.1, 0.5], vec![0.2, 0.9, 0.4]];
        let connected = graph(v.clone(), vec![vec![0.0, 1.0], vec![0.0, 0.0]]);
        let isolated = graph(v, vec![vec![0.0, 0.0], vec![0.0, 0.0]]);
        assert_ne!(enc.encode(&connected), enc.encode(&isolated));
    }

    #[test]
    fn permutation_invariance_of_pooling() {
        // Sum pooling + shared weights: permuting vertices (and the edge
        // matrix consistently) must not change the embedding.
        let enc = GinEncoder::new(3, &[8], 4, 44);
        let g1 = graph(
            vec![vec![0.1, 0.2, 0.3], vec![0.7, 0.8, 0.9]],
            vec![vec![0.0, 0.5], vec![0.0, 0.0]],
        );
        let g2 = graph(
            vec![vec![0.7, 0.8, 0.9], vec![0.1, 0.2, 0.3]],
            vec![vec![0.0, 0.0], vec![0.5, 0.0]],
        );
        let a = enc.encode(&g1);
        let b = enc.encode(&g2);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn training_forward_matches_inference() {
        let enc = GinEncoder::new(4, &[8], 5, 45);
        let g = graph(vec![vec![0.1, 0.2, 0.3, 0.4]], vec![vec![0.0]]);
        let ctx = GraphCtx::from_graph(&g);
        assert_eq!(
            enc.forward_tape(&ctx).embedding(),
            enc.encode(&g).as_slice()
        );
    }

    /// Finite-difference check of the full encoder gradient w.r.t. the first
    /// layer's epsilon.
    #[test]
    fn gradient_check_through_graph() {
        let mut enc = GinEncoder::new(2, &[4], 3, 46);
        let g = graph(
            vec![vec![0.4, -0.3], vec![0.8, 0.1]],
            vec![vec![0.0, 0.6], vec![0.0, 0.0]],
        );
        // Loss = sum of embedding entries.
        let ctx = GraphCtx::from_graph(&g);
        let tape = enc.forward_tape(&ctx);
        let mut acc = GinGrads::zeros_like(&enc);
        let ones = vec![1.0; tape.embedding().len()];
        let plan = enc.backward_plan();
        enc.backward_tape(&ctx, &tape, &ones, &mut acc, &plan);
        let analytic_eps = acc.epsilon_grads()[0];
        let eps = 1e-3f32;
        let loss = |enc: &GinEncoder| -> f32 { enc.encode(&g).iter().sum() };
        enc.layers[0].eps += eps;
        let lp = loss(&enc);
        enc.layers[0].eps -= 2.0 * eps;
        let lm = loss(&enc);
        enc.layers[0].eps += eps;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic_eps).abs() < 0.05 * (1.0 + numeric.abs()),
            "eps grad numeric {numeric} vs analytic {analytic_eps}"
        );
    }

    #[test]
    fn training_moves_embeddings() {
        let mut enc = GinEncoder::new(2, &[4], 3, 47);
        let g = graph(vec![vec![0.5, 0.5]], vec![vec![0.0]]);
        let ctx = GraphCtx::from_graph(&g);
        let before = enc.encode(&g);
        for _ in 0..5 {
            let tape = enc.forward_tape(&ctx);
            // Push the embedding towards zero.
            let grad: Vec<f32> = tape.embedding().iter().map(|&v| 2.0 * v).collect();
            let mut acc = GinGrads::zeros_like(&enc);
            enc.backward_tape(&ctx, &tape, &grad, &mut acc, &enc.backward_plan());
            enc.step_with(&acc, 0.01);
        }
        let after = enc.encode(&g);
        let n_before: f32 = before.iter().map(|v| v * v).sum();
        let n_after: f32 = after.iter().map(|v| v * v).sum();
        assert!(
            n_after < n_before,
            "norm should shrink: {n_before} -> {n_after}"
        );
    }
}
