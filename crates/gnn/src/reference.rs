//! The seed's dense GIN engine, kept verbatim in architecture as the
//! `#[cfg(test)]` oracle the sparse stacked engine is equivalence-tested
//! against.
//!
//! This is the seed implementation's shape: every layer rebuilds a dense
//! n×n aggregation matrix on every forward, activation caches live inside
//! the layers (so training is single-stream by construction), backprop
//! materializes transposes, and each training batch runs **two** forward
//! passes per graph — an inference pass for the loss embeddings and a
//! cache-building pass for backprop. `train_encoder_reference` follows the
//! exact RNG streams of [`crate::train::train_encoder`], so given the same
//! inputs both engines traverse identical batches and must produce equal
//! encoders.

use crate::loss::{performance_similarity, LossGrad, PairSets};
use crate::train::{DmlConfig, LossKind};
use ce_features::FeatureGraph;
use ce_nn::matrix::euclidean;
use ce_nn::{Activation, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

// ---- Seed loss implementations (pre-refactor: per-pair recomputation) ------

fn ref_pair_sets(labels: &[Vec<f64>], tau: f64) -> PairSets {
    let m = labels.len();
    let mut positives = vec![Vec::new(); m];
    let mut negatives = vec![Vec::new(); m];
    for i in 0..m {
        for j in 0..m {
            if i == j {
                continue;
            }
            if performance_similarity(&labels[i], &labels[j]) >= tau {
                positives[i].push(j);
            } else {
                negatives[i].push(j);
            }
        }
    }
    PairSets {
        positives,
        negatives,
    }
}

fn ref_log_sum_exp(vs: &[f64]) -> f64 {
    let max = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return f64::NEG_INFINITY;
    }
    max + vs.iter().map(|v| (v - max).exp()).sum::<f64>().ln()
}

fn ref_add_distance_grad(
    grads: &mut [Vec<f32>],
    embeddings: &[Vec<f32>],
    i: usize,
    k: usize,
    w: f32,
) {
    let u = euclidean(&embeddings[i], &embeddings[k]).max(1e-6);
    for d in 0..embeddings[i].len() {
        let diff = (embeddings[i][d] - embeddings[k][d]) / u;
        grads[i][d] += w * diff;
        grads[k][d] -= w * diff;
    }
}

fn ref_weighted_contrastive(
    embeddings: &[Vec<f32>],
    labels: &[Vec<f64>],
    pairs: &PairSets,
    gamma: f64,
) -> LossGrad {
    let m = embeddings.len();
    let dim = embeddings.first().map_or(0, Vec::len);
    let mut grads = vec![vec![0.0f32; dim]; m];
    let mut loss = 0.0f64;
    let inv_m = 1.0 / m.max(1) as f64;
    let dist = |i: usize, j: usize| euclidean(&embeddings[i], &embeddings[j]) as f64;
    for i in 0..m {
        let pos = &pairs.positives[i];
        let neg = &pairs.negatives[i];
        if !pos.is_empty() {
            let terms: Vec<f64> = pos
                .iter()
                .map(|&k| dist(i, k) + performance_similarity(&labels[i], &labels[k]))
                .collect();
            let lse = ref_log_sum_exp(&terms);
            loss += inv_m * lse;
            for (idx, &k) in pos.iter().enumerate() {
                let w = inv_m * (terms[idx] - lse).exp();
                ref_add_distance_grad(&mut grads, embeddings, i, k, w as f32);
            }
        }
        if !neg.is_empty() {
            let terms: Vec<f64> = neg
                .iter()
                .map(|&k| gamma - dist(i, k) - performance_similarity(&labels[i], &labels[k]))
                .collect();
            let lse = ref_log_sum_exp(&terms);
            loss += inv_m * lse;
            for (idx, &k) in neg.iter().enumerate() {
                let w = -inv_m * (terms[idx] - lse).exp();
                ref_add_distance_grad(&mut grads, embeddings, i, k, w as f32);
            }
        }
    }
    LossGrad { loss, grads }
}

fn ref_basic_contrastive(embeddings: &[Vec<f32>], pairs: &PairSets, gamma: f64) -> LossGrad {
    let m = embeddings.len();
    let dim = embeddings.first().map_or(0, Vec::len);
    let mut grads = vec![vec![0.0f32; dim]; m];
    let mut loss = 0.0f64;
    let inv_m = 1.0 / m.max(1) as f64;
    let dist = |i: usize, j: usize| euclidean(&embeddings[i], &embeddings[j]) as f64;
    for i in 0..m {
        for &k in &pairs.positives[i] {
            let u = dist(i, k);
            loss += inv_m * u * u;
            ref_add_distance_grad(&mut grads, embeddings, i, k, (inv_m * 2.0 * u) as f32);
        }
        for &k in &pairs.negatives[i] {
            let u = dist(i, k);
            if u < gamma {
                loss += inv_m * (gamma - u) * (gamma - u);
                ref_add_distance_grad(
                    &mut grads,
                    embeddings,
                    i,
                    k,
                    (-inv_m * 2.0 * (gamma - u)) as f32,
                );
            }
        }
    }
    LossGrad { loss, grads }
}

/// The seed's matrix product: branchy zero-skip triple loop with an
/// index-checked inner write (kept verbatim so the benchmark baseline is
/// the true pre-refactor kernel, not today's blocked one).
fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "matmul shape mismatch");
    let mut out = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            for (j, &bv) in b_row.iter().enumerate() {
                out_row[j] += av * bv;
            }
        }
    }
    out
}

/// The seed's materializing transpose.
fn ref_transpose(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.cols, m.rows);
    for r in 0..m.rows {
        for c in 0..m.cols {
            *out.get_mut(c, r) = m.get(r, c);
        }
    }
    out
}

/// The seed's dense layer: internal caches, gradients and Adam moments,
/// built on the seed kernels above.
struct RefDense {
    w: Matrix,
    b: Vec<f32>,
    activation: Activation,
    gw: Matrix,
    gb: Vec<f32>,
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f32>,
    vb: Vec<f32>,
    x_cache: Option<Matrix>,
    y_cache: Option<Matrix>,
}

impl RefDense {
    fn new(input: usize, output: usize, activation: Activation, rng: &mut StdRng) -> Self {
        RefDense {
            w: Matrix::xavier(input, output, rng),
            b: vec![0.0; output],
            activation,
            gw: Matrix::zeros(input, output),
            gb: vec![0.0; output],
            mw: Matrix::zeros(input, output),
            vw: Matrix::zeros(input, output),
            mb: vec![0.0; output],
            vb: vec![0.0; output],
            x_cache: None,
            y_cache: None,
        }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = ref_matmul(x, &self.w);
        for r in 0..y.rows {
            for (v, &b) in y.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        self.activation.apply(&mut y);
        self.x_cache = Some(x.clone());
        self.y_cache = Some(y.clone());
        y
    }

    fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = ref_matmul(x, &self.w);
        for r in 0..y.rows {
            for (v, &b) in y.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        self.activation.apply(&mut y);
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let y = self.y_cache.as_ref().expect("backward before forward");
        let x = self.x_cache.as_ref().expect("backward before forward");
        let mut g = grad_out.clone();
        self.activation.backward(y, &mut g);
        let gw = ref_matmul(&ref_transpose(x), &g);
        self.gw.add_assign(&gw);
        for r in 0..g.rows {
            for (acc, &v) in self.gb.iter_mut().zip(g.row(r)) {
                *acc += v;
            }
        }
        ref_matmul(&g, &ref_transpose(&self.w))
    }

    fn adam_step(&mut self, lr: f32, t: u64) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..self.w.data.len() {
            let g = self.gw.data[i];
            self.mw.data[i] = B1 * self.mw.data[i] + (1.0 - B1) * g;
            self.vw.data[i] = B2 * self.vw.data[i] + (1.0 - B2) * g * g;
            let mhat = self.mw.data[i] / bc1;
            let vhat = self.vw.data[i] / bc2;
            self.w.data[i] -= lr * mhat / (vhat.sqrt() + EPS);
            self.gw.data[i] = 0.0;
        }
        for i in 0..self.b.len() {
            let g = self.gb[i];
            self.mb[i] = B1 * self.mb[i] + (1.0 - B1) * g;
            self.vb[i] = B2 * self.vb[i] + (1.0 - B2) * g * g;
            let mhat = self.mb[i] / bc1;
            let vhat = self.vb[i] / bc2;
            self.b[i] -= lr * mhat / (vhat.sqrt() + EPS);
            self.gb[i] = 0.0;
        }
    }
}

/// One GINConv layer with inline caches (the seed layout).
struct RefLayer {
    mlp: RefDense,
    eps: f32,
    eps_m: f32,
    eps_v: f32,
    eps_grad: f32,
    input: Option<Matrix>,
    adjacency: Option<Matrix>,
}

impl RefLayer {
    fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        RefLayer {
            mlp: RefDense::new(input, output, Activation::Relu, rng),
            eps: 0.0,
            eps_m: 0.0,
            eps_v: 0.0,
            eps_grad: 0.0,
            input: None,
            adjacency: None,
        }
    }

    /// Dense symmetrized, ε-augmented aggregation matrix (rebuilt per call).
    fn aggregation(&self, g: &FeatureGraph) -> Matrix {
        let n = g.num_vertices();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            *a.get_mut(i, i) = 1.0 + self.eps;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let w = g.edges[i][j] + g.edges[j][i];
                *a.get_mut(i, j) += w;
            }
        }
        a
    }

    fn forward(&mut self, h: &Matrix, g: &FeatureGraph, train: bool) -> Matrix {
        let a = self.aggregation(g);
        let m = ref_matmul(&a, h);
        if train {
            self.input = Some(h.clone());
            self.adjacency = Some(a);
            self.mlp.forward(&m)
        } else {
            self.mlp.infer(&m)
        }
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let gm = self.mlp.backward(grad_out);
        let a = self.adjacency.as_ref().expect("backward before forward");
        let h = self.input.as_ref().expect("backward before forward");
        for r in 0..gm.rows {
            for c in 0..gm.cols {
                self.eps_grad += gm.get(r, c) * h.get(r, c);
            }
        }
        ref_matmul(&ref_transpose(a), &gm)
    }

    fn step(&mut self, lr: f32, t: u64) {
        self.mlp.adam_step(lr, t);
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        let g = self.eps_grad;
        self.eps_m = B1 * self.eps_m + (1.0 - B1) * g;
        self.eps_v = B2 * self.eps_v + (1.0 - B2) * g * g;
        let mhat = self.eps_m / (1.0 - B1.powi(t as i32));
        let vhat = self.eps_v / (1.0 - B2.powi(t as i32));
        self.eps -= lr * mhat / (vhat.sqrt() + 1e-8);
        self.eps_grad = 0.0;
    }
}

/// The sequential dense-aggregation encoder (seed architecture).
pub struct ReferenceEncoder {
    layers: Vec<RefLayer>,
    t: u64,
}

impl ReferenceEncoder {
    /// Clones a (possibly trained) fast-engine state so both engines can
    /// be compared on identical parameters.
    pub fn from_gin(encoder: &crate::gin::GinEncoder) -> Self {
        let mut rng = StdRng::seed_from_u64(0);
        let layers = encoder
            .layer_params()
            .into_iter()
            .map(|(w, b, eps)| {
                let mut layer = RefLayer::new(w.rows, w.cols, &mut rng);
                layer.mlp.w = w.clone();
                layer.mlp.b = b.to_vec();
                layer.eps = eps;
                layer
            })
            .collect();
        ReferenceEncoder { layers, t: 0 }
    }

    /// Mirrors `GinEncoder::new` (same RNG stream, hence same weights).
    pub fn new(input_dim: usize, hidden: &[usize], embed_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x916);
        let mut dims = vec![input_dim];
        dims.extend_from_slice(hidden);
        dims.push(embed_dim);
        let layers = (0..dims.len() - 1)
            .map(|i| RefLayer::new(dims[i], dims[i + 1], &mut rng))
            .collect();
        ReferenceEncoder { layers, t: 0 }
    }

    /// Inference with per-layer dense aggregation rebuilds.
    pub fn encode(&self, g: &FeatureGraph) -> Vec<f32> {
        let mut h = Matrix::from_rows(g.vertices.clone());
        for layer in &self.layers {
            let a = layer.aggregation(g);
            h = layer.mlp.infer(&ref_matmul(&a, &h));
        }
        h.sum_rows().data
    }

    fn forward_train(&mut self, g: &FeatureGraph) -> Vec<f32> {
        let mut h = Matrix::from_rows(g.vertices.clone());
        for layer in &mut self.layers {
            h = layer.forward(&h, g, true);
        }
        h.sum_rows().data
    }

    fn backward(&mut self, grad_embedding: &[f32], num_vertices: usize) {
        let mut g = Matrix::zeros(num_vertices, grad_embedding.len());
        for r in 0..num_vertices {
            g.row_mut(r).copy_from_slice(grad_embedding);
        }
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
    }

    fn step(&mut self, lr: f32) {
        self.t += 1;
        for layer in &mut self.layers {
            layer.step(lr, self.t);
        }
    }

    /// Every parameter flattened in the same order as
    /// `GinEncoder::flat_params`.
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

fn train_batch(
    encoder: &mut ReferenceEncoder,
    graphs: &[FeatureGraph],
    labels: &[Vec<f64>],
    chunk: &[usize],
    cfg: &DmlConfig,
) {
    // Pass 1: embeddings (inference mode).
    let embeddings: Vec<Vec<f32>> = chunk.iter().map(|&i| encoder.encode(&graphs[i])).collect();
    let batch_labels: Vec<Vec<f64>> = chunk.iter().map(|&i| labels[i].clone()).collect();
    let pairs = ref_pair_sets(&batch_labels, cfg.tau);
    let lg = match cfg.loss {
        LossKind::Weighted => {
            ref_weighted_contrastive(&embeddings, &batch_labels, &pairs, cfg.gamma)
        }
        LossKind::Basic => ref_basic_contrastive(&embeddings, &pairs, cfg.gamma),
    };
    // Pass 2: per-graph cached forward + backward, then one step.
    for (b, &i) in chunk.iter().enumerate() {
        if lg.grads[b].iter().all(|&g| g == 0.0) {
            continue;
        }
        let _ = encoder.forward_train(&graphs[i]);
        encoder.backward(&lg.grads[b], graphs[i].num_vertices());
    }
    encoder.step(cfg.lr);
}

/// Algorithm 1 exactly as the seed ran it: sequential, dense, double-pass.
/// Uses the same seeding and shuffle stream as
/// [`crate::train::train_encoder`].
pub fn train_encoder_reference(
    graphs: &[FeatureGraph],
    labels: &[Vec<f64>],
    cfg: &DmlConfig,
    seed: u64,
) -> ReferenceEncoder {
    assert_eq!(graphs.len(), labels.len(), "graph/label count mismatch");
    let input_dim = graphs.first().map_or(1, FeatureGraph::vertex_dim);
    let mut encoder = ReferenceEncoder::new(input_dim, &cfg.hidden, cfg.embed_dim, seed);
    if graphs.is_empty() {
        return encoder;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd31);
    let mut order: Vec<usize> = (0..graphs.len()).collect();
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch_size) {
            train_batch(&mut encoder, graphs, labels, chunk, cfg);
        }
    }
    encoder
}
