//! Sequential multi-layer perceptron.

use crate::layers::{Activation, Dense};
use crate::loss::mse_loss_into;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A stack of [`Dense`] layers trained with Adam.
///
/// `forward` / `backward` / `step` are public so composite architectures
/// (set convolutions, GIN, autoregressive heads) can thread gradients
/// through several MLPs within a single training step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Adam step counter (shared across layers).
    t: u64,
    /// [`Mlp::train_mse`]'s gradient buffers.
    #[serde(skip)]
    buffers: TrainBuffers,
}

/// The gradient buffers one [`Mlp::train_mse`] step leaves for the next
/// (contents are dead between steps, so `Debug` omits them).
#[derive(Clone, Default)]
struct TrainBuffers {
    /// The gradient flowing back, and the next layer's.
    grad: Matrix,
    next: Matrix,
    /// A layer's transposed weights, for the next layer's gradient.
    wt: Matrix,
    /// A layer's `xᵀ·g` before it is added to the weight gradient.
    product: Matrix,
}

impl std::fmt::Debug for TrainBuffers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TrainBuffers")
    }
}

impl Mlp {
    /// Builds an MLP with the given layer sizes; all hidden layers use
    /// `hidden`, the output layer uses `output` activation.
    ///
    /// `sizes = [in, h1, ..., out]` produces `sizes.len() - 1` layers.
    pub fn new<R: Rng>(
        sizes: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let act = if i + 2 == sizes.len() { output } else { hidden };
            layers.push(Dense::new(sizes[i], sizes[i + 1], act, rng));
        }
        Mlp {
            layers,
            t: 0,
            buffers: TrainBuffers::default(),
        }
    }

    /// The layers, input first.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// A copy of this network that reads only the input columns `keep`:
    /// the first layer keeps those rows of its weights, of their gradient
    /// and of both Adam moments; every other parameter, the step counter
    /// included, is copied. Training it on the inputs' `keep` columns is
    /// training this network on inputs whose other columns are `±0`
    /// (`ce-models::lwnn` states when the bits agree); write the result
    /// back with [`Self::scatter_inputs`].
    pub fn select_inputs(&self, keep: &[usize]) -> Mlp {
        let (first, rest) = self.layers.split_first().expect("an MLP has a layer");
        let layers = std::iter::once(first.select_inputs(keep))
            .chain(rest.iter().cloned())
            .collect();
        Mlp {
            layers,
            t: self.t,
            buffers: TrainBuffers::default(),
        }
    }

    /// Writes `narrow`, made by [`Self::select_inputs`] with the same
    /// `keep`, back into this network: its first layer's rows into rows
    /// `keep`, every other parameter, gradient and moment copied. The other
    /// rows keep their values; the first layer's caches are dropped.
    pub fn scatter_inputs(&mut self, narrow: &Mlp, keep: &[usize]) {
        assert_eq!(
            self.layers.len(),
            narrow.layers.len(),
            "networks differ in depth"
        );
        let (first, rest) = self.layers.split_first_mut().expect("an MLP has a layer");
        first.scatter_inputs(&narrow.layers[0], keep);
        rest.clone_from_slice(&narrow.layers[1..]);
        self.t = narrow.t;
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::input_dim)
    }

    /// Training-mode forward pass (caches activations for backward).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Inference-only forward pass.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.infer(&h);
        }
        h
    }

    /// Backpropagates `grad_out`, accumulating parameter gradients, and
    /// returns the gradient w.r.t. the network input.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// One Adam step over all layers; clears gradients.
    pub fn step(&mut self, lr: f32) {
        self.t += 1;
        for layer in &mut self.layers {
            layer.adam_step(lr, self.t);
        }
    }

    /// Convenience: one full MSE training step on a batch. Returns the loss.
    ///
    /// Same parameter bits as `forward` + [`Self::backward`] + `step`; the
    /// first layer's input gradient, which that sequence computes and
    /// drops, is not computed. Activations go to the layers' caches and
    /// gradients to buffers the network keeps, so a step allocates nothing
    /// once the batch shape has been seen.
    pub fn train_mse(&mut self, x: &Matrix, y: &Matrix, lr: f32) -> f32 {
        for i in 0..self.layers.len() {
            let (done, rest) = self.layers.split_at_mut(i);
            let input = done.last().map_or(x, Dense::cached_output);
            rest[0].forward_cached(input);
        }
        let buffers = &mut self.buffers;
        let (first, rest) = self.layers.split_first_mut().expect("an MLP has a layer");
        let pred = rest.last().unwrap_or(first).cached_output();
        let loss = mse_loss_into(pred, y, &mut buffers.grad);
        for layer in rest.iter_mut().rev() {
            layer.backward_params(&mut buffers.grad, &mut buffers.product);
            // dx = g·Wᵀ.
            layer.w.transpose_into(&mut buffers.wt);
            buffers.grad.matmul_into(&buffers.wt, &mut buffers.next);
            std::mem::swap(&mut buffers.grad, &mut buffers.next);
        }
        first.backward_params(&mut buffers.grad, &mut buffers.product);
        self.step(lr);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The step `train_mse` replaced: the full backward pass, first layer's
    /// input gradient included.
    fn train_mse_oracle(mlp: &mut Mlp, x: &Matrix, y: &Matrix, lr: f32) -> f32 {
        let pred = mlp.forward(x);
        let (loss, grad) = mse_loss(&pred, y);
        mlp.backward(&grad);
        mlp.step(lr);
        loss
    }

    proptest! {
        #[test]
        fn train_mse_matches_full_backward_oracle(
            seed in 0u64..1_000_000,
            input in 1usize..9,
            hidden in prop::collection::vec(1usize..12, 0..3),
            output in 1usize..3,
            rows in 1usize..11,
            act in 0usize..4,
        ) {
            let acts = [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Linear];
            let mut sizes = vec![input];
            sizes.extend(&hidden);
            sizes.push(output);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fast = Mlp::new(&sizes, acts[act], acts[(act + 2) % 4], &mut rng);
            let mut slow = fast.clone();
            for step in 0..5 {
                let x = Matrix::xavier(rows, input, &mut rng);
                let y = Matrix::xavier(rows, output, &mut rng);
                let a = fast.train_mse(&x, &y, 1e-2);
                let b = train_mse_oracle(&mut slow, &x, &y, 1e-2);
                prop_assert_eq!(a.to_bits(), b.to_bits(), "loss at step {}", step);
                // `Debug` prints weights, biases, cleared gradients and all
                // four Adam moments of every layer to round-trip precision.
                prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "state at step {}", step);
            }
        }
    }

    /// Every parameter, gradient and Adam moment of every layer, and the
    /// step counter, as bit patterns (the caches are left out).
    fn state_bits(mlp: &Mlp) -> Vec<Vec<u32>> {
        let mut out = vec![vec![mlp.t as u32]];
        out.extend(mlp.layers.iter().flat_map(Dense::state_bits));
        out
    }

    proptest! {
        /// Training a network on the live columns of inputs whose other
        /// columns are `±0` in every row, then writing it back, leaves the
        /// bits full-width training leaves (`ce-models::lwnn` states why).
        #[test]
        fn live_column_training_matches_full_width_training(
            seed in 0u64..1_000_000,
            input in 1usize..24,
            hidden in prop::collection::vec(1usize..12, 0..3),
            rows in 1usize..9,
            dead in prop::collection::vec(0u8..4, 24),
        ) {
            let mut sizes = vec![input];
            sizes.extend(&hidden);
            sizes.push(1);
            let mut rng = StdRng::seed_from_u64(seed);
            let fresh = Mlp::new(&sizes, Activation::Relu, Activation::Sigmoid, &mut rng);
            // Per column: live, or dead as `+0`, `−0` or either sign.
            let keep: Vec<usize> = (0..input).filter(|&c| dead[c] == 0).collect();
            let mut full = fresh.clone();
            let mut narrow = fresh.select_inputs(&keep);
            for step in 0..6 {
                let mut x = Matrix::xavier(rows, input, &mut rng);
                for (i, v) in x.data.iter_mut().enumerate() {
                    match dead[i % input] {
                        0 => {}
                        1 => *v = 0.0,
                        2 => *v = -0.0,
                        _ => *v = if *v < 0.0 { -0.0 } else { 0.0 },
                    }
                }
                let y = Matrix::xavier(rows, 1, &mut rng);
                let narrow_x = Matrix::from_rows(
                    (0..rows).map(|r| keep.iter().map(|&c| x.get(r, c)).collect()).collect(),
                );
                let a = full.train_mse(&x, &y, 1e-2);
                let b = narrow.train_mse(&narrow_x, &y, 1e-2);
                prop_assert_eq!(a.to_bits(), b.to_bits(), "loss at step {}", step);
            }
            let mut wide = fresh.clone();
            wide.scatter_inputs(&narrow, &keep);
            prop_assert_eq!(state_bits(&wide), state_bits(&full));
        }
    }

    #[test]
    fn fits_nonlinear_function() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(
            &[1, 16, 16, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        assert_eq!(mlp.input_dim(), 1);
        assert_eq!(mlp.layers.last().map(Dense::output_dim), Some(1));
        // y = x^2 on [-1, 1].
        let xs: Vec<f32> = (0..64).map(|i| -1.0 + 2.0 * i as f32 / 63.0).collect();
        let x = Matrix::from_rows(xs.iter().map(|&v| vec![v]).collect());
        let y = Matrix::from_rows(xs.iter().map(|&v| vec![v * v]).collect());
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            final_loss = mlp.train_mse(&x, &y, 5e-3);
        }
        assert!(final_loss < 0.01, "loss = {final_loss}");
        let p = mlp.infer(&Matrix::row_vector(&[0.5]));
        assert!((p.data[0] - 0.25).abs() < 0.15, "pred = {}", p.data[0]);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut mlp = Mlp::new(&[3, 8, 2], Activation::Tanh, Activation::Linear, &mut rng);
        let x = Matrix::row_vector(&[0.1, -0.2, 0.3]);
        let a = mlp.forward(&x);
        let b = mlp.infer(&x);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn deterministic_construction() {
        let a = Mlp::new(
            &[4, 8, 1],
            Activation::Relu,
            Activation::Linear,
            &mut StdRng::seed_from_u64(9),
        );
        let b = Mlp::new(
            &[4, 8, 1],
            Activation::Relu,
            Activation::Linear,
            &mut StdRng::seed_from_u64(9),
        );
        let x = Matrix::row_vector(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.infer(&x).data, b.infer(&x).data);
    }

    #[test]
    #[should_panic(expected = "need at least input and output")]
    fn rejects_too_few_sizes() {
        let _ = Mlp::new(
            &[4],
            Activation::Relu,
            Activation::Linear,
            &mut StdRng::seed_from_u64(1),
        );
    }
}
