//! Sequential multi-layer perceptron.

use crate::layers::{Activation, Dense};
use crate::loss::mse_loss;
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
        Mlp { layers, t: 0 }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::input_dim)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::output_dim)
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

    /// Clears accumulated gradients without stepping.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Convenience: one full MSE training step on a batch. Returns the loss.
    ///
    /// Same parameter bits as `forward` + [`Self::backward`] + `step`; the
    /// first layer's input gradient, which that sequence computes and
    /// drops, is not computed.
    pub fn train_mse(&mut self, x: &Matrix, y: &Matrix, lr: f32) -> f32 {
        let pred = self.forward(x);
        let (loss, mut g) = mse_loss(&pred, y);
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("an MLP has at least one layer");
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
        self.step(lr);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(mlp.output_dim(), 1);
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
