//! Dense layers and activations with explicit backprop and built-in Adam.

use crate::matrix::{simd_kernel, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (no activation).
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation elementwise.
    pub fn apply(&self, x: &mut Matrix) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                // A select, not a branch: it vectorises, and keeps `-0.0`
                // and NaN as they are.
                for v in &mut x.data {
                    *v = if *v < 0.0 { 0.0 } else { *v };
                }
            }
            Activation::Sigmoid => {
                for v in &mut x.data {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
            Activation::Tanh => {
                for v in &mut x.data {
                    *v = v.tanh();
                }
            }
        }
    }

    /// Multiplies `grad` by the activation derivative, evaluated from the
    /// *post-activation* output `y` (all four supported activations admit
    /// this form).
    pub fn backward(&self, y: &Matrix, grad: &mut Matrix) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for (g, &o) in grad.data.iter_mut().zip(&y.data) {
                    *g = if o <= 0.0 { 0.0 } else { *g };
                }
            }
            Activation::Sigmoid => {
                for (g, &o) in grad.data.iter_mut().zip(&y.data) {
                    *g *= o * (1.0 - o);
                }
            }
            Activation::Tanh => {
                for (g, &o) in grad.data.iter_mut().zip(&y.data) {
                    *g *= 1.0 - o * o;
                }
            }
        }
    }
}

/// Externally owned gradient accumulator for one [`Dense`] layer.
///
/// The layer's built-in `forward`/`backward` keep caches and gradients
/// inside the layer, which makes it single-stream. Batch-parallel training
/// (the GIN engine) instead runs the pure [`Dense::backward_owned_wt`]
/// against per-stream accumulators and reduces them in a fixed order
/// before one [`Dense::adam_step_with`].
#[derive(Debug, Clone)]
pub struct DenseGrad {
    /// Accumulated weight gradient.
    pub gw: Matrix,
    /// Accumulated bias gradient.
    pub gb: Vec<f32>,
}

impl DenseGrad {
    /// Zero accumulator shaped for `layer`.
    pub fn zeros_like(layer: &Dense) -> Self {
        DenseGrad {
            gw: Matrix::zeros(layer.w.rows, layer.w.cols),
            gb: vec![0.0; layer.b.len()],
        }
    }

    /// Elementwise reduction `self += other`.
    pub fn add_assign(&mut self, other: &DenseGrad) {
        self.gw.add_assign(&other.gw);
        for (a, &b) in self.gb.iter_mut().zip(&other.gb) {
            *a += b;
        }
    }
}

/// Adam's decay rates of the first and second moments.
const B1: f32 = 0.9;
const B2: f32 = 0.999;
/// Guard added to the second moment's root.
const EPS: f32 = 1e-8;

/// Adam's bias corrections `(1 − β₁ᵗ, 1 − β₂ᵗ)` at step `t`.
fn bias_corrections(t: u64) -> (f32, f32) {
    (1.0 - B1.powi(t as i32), 1.0 - B2.powi(t as i32))
}

// One Adam update per element: each lane is one parameter, and its
// operations are the scalar loop's — separate `mul`/`add`/`div`/`sqrt` in
// the same order, never an FMA — so every arm leaves the scalar arm's bits.
simd_kernel!(adam_kernel, (w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], lr: f32, bc1: f32, bc2: f32), {
    for (((w, m), v), &g) in w.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
        *m = B1 * *m + (1.0 - B1) * g;
        *v = B2 * *v + (1.0 - B2) * g * g;
        let mhat = *m / bc1;
        let vhat = *v / bc2;
        *w -= lr * mhat / (vhat.sqrt() + EPS);
    }
});

/// Adam update of the parameters `w` (moments `m`, `v`) by the gradient `g`
/// at step `t` (1-based) — the one body behind [`Dense::adam_step`] and
/// [`Dense::adam_step_with`].
fn adam(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], lr: f32, t: u64) {
    assert!(
        m.len() == w.len() && v.len() == w.len() && g.len() == w.len(),
        "Adam state and gradient shaped like the parameters"
    );
    let (bc1, bc2) = bias_corrections(t);
    adam_kernel::dispatch(w, m, v, g, lr, bc1, bc2);
}

/// A fully connected layer `y = act(x·W + b)` with Adam state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, `input_dim × output_dim`.
    pub w: Matrix,
    /// Bias, length `output_dim`.
    pub b: Vec<f32>,
    /// Activation applied after the affine map.
    pub activation: Activation,
    // Gradients.
    gw: Matrix,
    gb: Vec<f32>,
    // Adam moments.
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f32>,
    vb: Vec<f32>,
    // Caches for backward.
    #[serde(skip)]
    x_cache: Option<Matrix>,
    #[serde(skip)]
    y_cache: Option<Matrix>,
}

impl Dense {
    /// New layer with Xavier weights.
    pub fn new<R: Rng>(input: usize, output: usize, activation: Activation, rng: &mut R) -> Self {
        Dense {
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

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.w.rows
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.w.cols
    }

    /// Forward pass, caching what backward needs.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_cached(x).clone()
    }

    /// The output cached by the last training forward pass.
    pub(crate) fn cached_output(&self) -> &Matrix {
        self.y_cache
            .as_ref()
            .expect("forward before reading its output")
    }

    /// [`Self::forward`] into the layer's own caches, reusing their
    /// buffers; returns the cached output.
    pub(crate) fn forward_cached(&mut self, x: &Matrix) -> &Matrix {
        let x_cache = self.x_cache.get_or_insert_with(Matrix::default);
        x_cache.reshape_for_overwrite(x.rows, x.cols);
        x_cache.data.copy_from_slice(&x.data);
        let y = self.y_cache.get_or_insert_with(Matrix::default);
        x.matmul_into(&self.w, y);
        for r in 0..y.rows {
            for (v, &b) in y.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        self.activation.apply(y);
        y
    }

    /// Inference-only forward (no caches touched).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        // Start empty: infer_into reshapes and fills the buffer itself.
        let mut y = Matrix::zeros(0, 0);
        self.infer_into(x, &mut y);
        y
    }

    /// Allocation-free inference forward: reshapes `out` (reusing its
    /// buffer) and overwrites it with `act(x·W + b)`. Bit-identical to
    /// [`Self::infer`] — the workspace-pool variant for taped training
    /// forwards and the stacked serving path.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        for r in 0..out.rows {
            for (v, &b) in out.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        self.activation.apply(out);
    }

    /// Backward pass: accumulates weight gradients and returns the gradient
    /// w.r.t. the input. Must follow a `forward` call.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        self.backward_params(&mut g, &mut Matrix::default());
        // dx = g·Wᵀ.
        g.matmul(&self.w.transpose())
    }

    /// The parameter half of [`Self::backward`], on `g` in place (the
    /// output gradient in, the one taken through the activation out):
    /// accumulates the weight and bias gradients, with `product` as the
    /// buffer of the `xᵀ·g` product (reshaped, its allocation reused). A
    /// network's first layer, whose input gradient nobody reads, stops here.
    pub(crate) fn backward_params(&mut self, g: &mut Matrix, product: &mut Matrix) {
        let y = self.y_cache.as_ref().expect("backward before forward");
        let x = self.x_cache.as_ref().expect("backward before forward");
        self.activation.backward(y, g);
        // dW += xᵀ·g ; db += Σ_rows g. The product is taken into a zeroed
        // buffer first, then added: accumulating straight into a non-zero
        // `gw` (several backward calls per step) would re-associate the sum.
        product.reset_zeroed(x.cols, g.cols);
        x.matmul_transposed_left_into(g, product);
        self.gw.add_assign(product);
        for r in 0..g.rows {
            for (acc, &v) in self.gb.iter_mut().zip(g.row(r)) {
                *acc += v;
            }
        }
    }

    /// This layer reading only the input rows `keep` of its weights: those
    /// rows of `w`, of its gradient and of both Adam moments, every other
    /// field copied; no caches.
    pub(crate) fn select_inputs(&self, keep: &[usize]) -> Dense {
        let rows = |m: &Matrix| Matrix {
            rows: keep.len(),
            cols: m.cols,
            data: keep.iter().flat_map(|&r| m.row(r)).copied().collect(),
        };
        Dense {
            w: rows(&self.w),
            b: self.b.clone(),
            activation: self.activation,
            gw: rows(&self.gw),
            gb: self.gb.clone(),
            mw: rows(&self.mw),
            vw: rows(&self.vw),
            mb: self.mb.clone(),
            vb: self.vb.clone(),
            x_cache: None,
            y_cache: None,
        }
    }

    /// Writes `narrow`, made by [`Self::select_inputs`] with the same
    /// `keep`, back: its rows into rows `keep` of `w`, the gradient and both
    /// moments, every other field copied; the caches are dropped.
    pub(crate) fn scatter_inputs(&mut self, narrow: &Dense, keep: &[usize]) {
        for (wide, narrow) in [
            (&mut self.w, &narrow.w),
            (&mut self.gw, &narrow.gw),
            (&mut self.mw, &narrow.mw),
            (&mut self.vw, &narrow.vw),
        ] {
            for (j, &r) in keep.iter().enumerate() {
                wide.row_mut(r).copy_from_slice(narrow.row(j));
            }
        }
        for (wide, narrow) in [
            (&mut self.b, &narrow.b),
            (&mut self.gb, &narrow.gb),
            (&mut self.mb, &narrow.mb),
            (&mut self.vb, &narrow.vb),
        ] {
            wide.clone_from(narrow);
        }
        self.activation = narrow.activation;
        (self.x_cache, self.y_cache) = (None, None);
    }

    /// Pure backward: given the input `x` and the post-activation output
    /// `y` of an [`infer`](Self::infer) call, routes `grad_out` into `acc`
    /// (weight/bias gradients) and returns the gradient w.r.t. `x`. Shares
    /// no mutable state with the layer, so independent streams may run
    /// concurrently against separate accumulators.
    pub fn backward_into(
        &self,
        x: &Matrix,
        y: &Matrix,
        grad_out: &Matrix,
        acc: &mut DenseGrad,
    ) -> Matrix {
        // Convenience form of [`Self::backward_owned_wt`]: transposes the
        // weights per call. Batch training amortizes the transpose via a
        // shared plan instead; both paths are bit-identical.
        let wt = self.w.transpose();
        self.backward_owned_wt(x, y, grad_out.clone(), &wt, acc)
    }

    /// Variant of [`Self::backward_into`] for batch training: consumes the
    /// output gradient (no defensive clone) and takes `Wᵀ` pre-materialized
    /// — one transpose per layer per *batch* instead of a row-dot kernel
    /// per graph, which keeps the `dx` product on the vectorized i-k-j
    /// path. The caller guarantees `wt` is this layer's transposed weights.
    pub fn backward_owned_wt(
        &self,
        x: &Matrix,
        y: &Matrix,
        mut g: Matrix,
        wt: &Matrix,
        acc: &mut DenseGrad,
    ) -> Matrix {
        self.activation.backward(y, &mut g);
        x.matmul_transposed_left_into(&g, &mut acc.gw);
        for r in 0..g.rows {
            for (b, &v) in acc.gb.iter_mut().zip(g.row(r)) {
                *b += v;
            }
        }
        g.matmul(wt)
    }

    /// Adam update reading gradients from an external accumulator (the
    /// reduced batch gradient); the layer's internal gradient buffers are
    /// untouched.
    pub fn adam_step_with(&mut self, grad: &DenseGrad, lr: f32, t: u64) {
        adam(
            &mut self.w.data,
            &mut self.mw.data,
            &mut self.vw.data,
            &grad.gw.data,
            lr,
            t,
        );
        adam(&mut self.b, &mut self.mb, &mut self.vb, &grad.gb, lr, t);
    }

    /// Adam update with bias correction at step `t` (1-based); clears grads.
    pub fn adam_step(&mut self, lr: f32, t: u64) {
        adam(
            &mut self.w.data,
            &mut self.mw.data,
            &mut self.vw.data,
            &self.gw.data,
            lr,
            t,
        );
        adam(&mut self.b, &mut self.mb, &mut self.vb, &self.gb, lr, t);
        self.zero_grad();
    }

    /// Clears accumulated gradients without updating.
    pub fn zero_grad(&mut self) {
        self.gw.data.iter_mut().for_each(|v| *v = 0.0);
        self.gb.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
impl Dense {
    /// Weights, bias, their gradients and all four Adam moments as bit
    /// patterns — everything but the caches.
    pub(crate) fn state_bits(&self) -> Vec<Vec<u32>> {
        let fields = [&self.w.data, &self.b, &self.gw.data, &self.gb];
        let moments = [&self.mw.data, &self.vw.data, &self.mb, &self.vb];
        let bits = |v: &Vec<f32>| v.iter().map(|x| x.to_bits()).collect();
        fields.into_iter().chain(moments).map(bits).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_values::{awkward, ARMS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn activations_forward() {
        let mut m = Matrix::row_vector(&[-1.0, 0.0, 2.0]);
        Activation::Relu.apply(&mut m);
        assert_eq!(m.data, vec![0.0, 0.0, 2.0]);
        let mut s = Matrix::row_vector(&[0.0]);
        Activation::Sigmoid.apply(&mut s);
        assert!((s.data[0] - 0.5).abs() < 1e-6);
    }

    /// Finite-difference check of the dense layer gradient.
    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::row_vector(&[0.3, -0.7, 0.5]);
        // Loss = sum of outputs; dL/dy = ones.
        let loss = |layer: &Dense, x: &Matrix| -> f32 { layer.infer(x).data.iter().sum() };
        let _ = layer.forward(&x);
        let gin = layer.backward(&Matrix::row_vector(&[1.0, 1.0]));
        // Check dL/dW numerically for a few entries.
        let eps = 1e-3f32;
        for &idx in &[0usize, 2, 5] {
            let orig = layer.w.data[idx];
            layer.w.data[idx] = orig + eps;
            let lp = loss(&layer, &x);
            layer.w.data[idx] = orig - eps;
            let lm = loss(&layer, &x);
            layer.w.data[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = layer.gw.data[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "dW[{idx}] numeric {num} vs analytic {ana}"
            );
        }
        // Check dL/dx numerically.
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            assert!(
                (num - gin.data[i]).abs() < 1e-2,
                "dx[{i}] numeric {num} vs analytic {}",
                gin.data[i]
            );
        }
    }

    /// `backward` takes `xᵀ·g` through the fused kernel; the products it
    /// replaced materialised `xᵀ`. Several calls accumulate before a step
    /// (set models backpropagate once per set element).
    #[test]
    fn backward_matches_materialised_transpose_oracle() {
        let mut rng = StdRng::seed_from_u64(6);
        for (rows, input, output) in [(1, 1, 1), (3, 5, 2), (7, 4, 9), (30, 37, 64), (64, 70, 1)] {
            let mut layer = Dense::new(input, output, Activation::Tanh, &mut rng);
            let mut gw = Matrix::zeros(input, output);
            for _ in 0..3 {
                let x = Matrix::xavier(rows, input, &mut rng);
                let y = layer.forward(&x);
                let grad_out = Matrix::xavier(rows, output, &mut rng);
                let dx = layer.backward(&grad_out);
                let mut g = grad_out.clone();
                layer.activation.backward(&y, &mut g);
                gw.add_assign(&x.transpose().matmul(&g));
                assert_eq!(bits(&layer.gw), bits(&gw), "{rows}x{input}x{output}");
                assert_eq!(bits(&dx), bits(&g.matmul(&layer.w.transpose())));
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn infer_into_matches_infer() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Dense::new(4, 3, Activation::Relu, &mut rng);
        let x = Matrix::xavier(6, 4, &mut rng);
        let mut out = Matrix::xavier(1, 1, &mut rng);
        layer.infer_into(&x, &mut out);
        assert_eq!(out, layer.infer(&x));
    }

    /// The Adam update before the kernel — the loop `adam_step` and
    /// `adam_step_with` each ran — over one parameter slice.
    fn scalar_adam(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], lr: f32, t: u64) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..w.len() {
            let g = g[i];
            m[i] = B1 * m[i] + (1.0 - B1) * g;
            v[i] = B2 * v[i] + (1.0 - B2) * g * g;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            w[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }

    /// Every arm of the Adam kernel the host has (`run_arm`), and the
    /// dispatching `adam`, leave the scalar loop's bits in the weights and
    /// both moments (NaN folded): at lengths across the vector widths, at
    /// steps from 1 to past `i32::MAX` (where `t as i32` wraps), over zero
    /// and `-0.0` gradients, `-0.0` weights, subnormal moments and the
    /// awkward values of the other kernels' tests.
    #[test]
    fn adam_kernel_matches_the_scalar_loop_on_every_arm() {
        let rng = &mut StdRng::seed_from_u64(0xada);
        let mut pick = |n: usize, special: &[f32]| -> Vec<f32> {
            (0..n)
                .map(|_| match rng.gen_range(0..4usize) {
                    0 => special[rng.gen_range(0..special.len())],
                    1 => awkward(rng),
                    _ => rng.gen::<f32>() * 2.0 - 1.0,
                })
                .collect()
        };
        let fold =
            |xs: &[f32]| -> Vec<u32> { xs.iter().map(|&x| crate::test_values::bits(x)).collect() };
        let mut covered = Vec::new();
        for len in [0, 1, 7, 8, 15, 16, 17, 33, 100] {
            for t in [1u64, 2, 10, 1_000, 100_000, 1 << 31, u64::MAX] {
                let subnormal = [1e-41, -1e-41, f32::MIN_POSITIVE / 4.0, 1e-45, 0.0];
                let w = pick(len, &[-0.0, 0.0, 1e-41]);
                let m = pick(len, &subnormal);
                let v = pick(len, &subnormal)
                    .iter()
                    .map(|x| x.abs())
                    .collect::<Vec<_>>();
                let g = pick(len, &[0.0, -0.0, 1e-41]);
                let lr = [1e-3, 3e-3, 0.05][len % 3];
                let case = format!("len {len}, t {t}");
                let (mut want_w, mut want_m, mut want_v) = (w.clone(), m.clone(), v.clone());
                scalar_adam(&mut want_w, &mut want_m, &mut want_v, &g, lr, t);
                let want = [fold(&want_w), fold(&want_m), fold(&want_v)];
                let (bc1, bc2) = bias_corrections(t);
                let mut arms = Vec::new();
                for (level, name) in ARMS.iter().enumerate() {
                    let (mut w, mut m, mut v) = (w.clone(), m.clone(), v.clone());
                    if !adam_kernel::run_arm(level as u8, &mut w, &mut m, &mut v, &g, lr, bc1, bc2)
                    {
                        continue;
                    }
                    assert_eq!([fold(&w), fold(&m), fold(&v)], want, "{case}: {name}");
                    arms.push(*name);
                }
                let (mut w, mut m, mut v) = (w.clone(), m.clone(), v.clone());
                adam(&mut w, &mut m, &mut v, &g, lr, t);
                assert_eq!([fold(&w), fold(&m), fold(&v)], want, "{case}: dispatch");
                covered = arms;
            }
        }
        let missing: Vec<_> = ARMS.iter().filter(|arm| !covered.contains(arm)).collect();
        println!("Adam kernel arms covered on this host: {covered:?}; NOT covered: {missing:?}");
    }

    #[test]
    fn adam_reduces_simple_loss() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Dense::new(1, 1, Activation::Linear, &mut rng);
        // Fit y = 3x.
        let xs = [0.0f32, 1.0, 2.0, 3.0];
        let mut last = f32::MAX;
        for t in 1..=400 {
            let mut total = 0.0;
            for &x in &xs {
                let xm = Matrix::row_vector(&[x]);
                let y = layer.forward(&xm);
                let err = y.data[0] - 3.0 * x;
                total += err * err;
                layer.backward(&Matrix::row_vector(&[2.0 * err]));
            }
            layer.adam_step(0.05, t);
            if t % 100 == 0 {
                assert!(total <= last + 1e-3, "loss must not diverge");
                last = total;
            }
        }
        assert!(
            (layer.w.data[0] - 3.0).abs() < 0.05,
            "w = {}",
            layer.w.data[0]
        );
    }
}
