//! Dense layers and activations with explicit backprop and built-in Adam.

use crate::matrix::Matrix;
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
                for v in &mut x.data {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
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
                    if o <= 0.0 {
                        *g = 0.0;
                    }
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
        let mut y = x.matmul(&self.w);
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
        // dx = g·Wᵀ.
        self.backward_params(grad_out).matmul(&self.w.transpose())
    }

    /// The parameter half of [`Self::backward`]: accumulates the weight and
    /// bias gradients and returns `g`, the output gradient taken through
    /// the activation — everything but the `g·Wᵀ` input gradient. A network's
    /// first layer, whose input gradient nobody reads, stops here.
    pub fn backward_params(&mut self, grad_out: &Matrix) -> Matrix {
        let y = self.y_cache.as_ref().expect("backward before forward");
        let x = self.x_cache.as_ref().expect("backward before forward");
        let mut g = grad_out.clone();
        self.activation.backward(y, &mut g);
        // dW += xᵀ·g ; db += Σ_rows g. The product is taken into a zeroed
        // buffer first, then added: accumulating straight into a non-zero
        // `gw` (several backward calls per step) would re-associate the sum.
        let gw = x.matmul_transposed_left(&g);
        self.gw.add_assign(&gw);
        for r in 0..g.rows {
            for (acc, &v) in self.gb.iter_mut().zip(g.row(r)) {
                *acc += v;
            }
        }
        g
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
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..self.w.data.len() {
            let g = grad.gw.data[i];
            self.mw.data[i] = B1 * self.mw.data[i] + (1.0 - B1) * g;
            self.vw.data[i] = B2 * self.vw.data[i] + (1.0 - B2) * g * g;
            let mhat = self.mw.data[i] / bc1;
            let vhat = self.vw.data[i] / bc2;
            self.w.data[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
        for i in 0..self.b.len() {
            let g = grad.gb[i];
            self.mb[i] = B1 * self.mb[i] + (1.0 - B1) * g;
            self.vb[i] = B2 * self.vb[i] + (1.0 - B2) * g * g;
            let mhat = self.mb[i] / bc1;
            let vhat = self.vb[i] / bc2;
            self.b[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }

    /// Adam update with bias correction at step `t` (1-based); clears grads.
    pub fn adam_step(&mut self, lr: f32, t: u64) {
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

    /// Clears accumulated gradients without updating.
    pub fn zero_grad(&mut self) {
        self.gw.data.iter_mut().for_each(|v| *v = 0.0);
        self.gb.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
