//! Sequential multi-layer perceptron.

use crate::layers::{Activation, Dense};
use crate::loss::mse_loss_into;
use crate::matrix::{Matrix, SparseRows};
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
    /// [`Mlp::train_mse_sparse`]'s hidden and output activations.
    hidden: Matrix,
    out: Matrix,
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

    /// [`Self::train_mse`] of a network with one hidden layer and one
    /// output on the rows `batch` of `x` (targets `y`, one per batch row),
    /// at the cost of those rows' non-zero entries: the hidden layer's
    /// product and weight gradient take only the entries, Adam updates
    /// only the first layer's rows of the columns non-zero in some row of
    /// `x`, and the one-output head runs on one-column kernels. Returns
    /// the loss.
    ///
    /// Every parameter, gradient and moment, the step counter and the loss
    /// have `train_mse`'s bits on the dense rows when every first-layer
    /// parameter is finite after the step and the first-layer rows no
    /// entry of `x` names have `+0` moments (as [`Self::new`] leaves them
    /// and these steps keep them): a term left out is `±0` then (see
    /// [`SparseRows`]), and such a row's weight gradient is `+0`, which
    /// Adam turns into no update. `ce-models::lwnn` has the proof. The
    /// layer caches are not touched.
    pub fn train_mse_sparse(
        &mut self,
        x: &SparseRows,
        batch: &[usize],
        y: &Matrix,
        lr: f32,
    ) -> f32 {
        let [first, head] = &mut self.layers[..] else {
            panic!("a sparse step trains one hidden layer and a head");
        };
        assert_eq!(
            head.output_dim(),
            1,
            "a sparse step trains a one-output head"
        );
        let b = &mut self.buffers;
        first.forward_sparse(x, batch, &mut b.hidden);
        head.forward_column(&b.hidden, &mut b.out);
        let loss = mse_loss_into(&b.out, y, &mut b.grad);
        head.backward_column(&b.hidden, &b.out, &mut b.grad, &mut b.next);
        self.t += 1;
        first.train_sparse(x, batch, &b.hidden, &mut b.next, lr, self.t);
        head.adam_step(lr, self.t);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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
        /// [`Mlp::train_mse_sparse`] against `train_mse` on the dense rows,
        /// step by step over several batches: same loss bits and the same
        /// bits in every parameter, gradient and moment. Each column is
        /// dead (`±0` in every row), full (never zero) or mixed (draws,
        /// `1.0`, `+0` and `−0`); batches are chunks of a shuffled order
        /// (past one chunk when `rows > batch`), so they repeat no row.
        #[test]
        fn sparse_step_matches_train_mse(
            seed in 0u64..1_000_000,
            kinds in prop::collection::vec(0u8..3, 1..24),
            hidden in 1usize..70,
            rows in 0usize..12,
            batch in 1usize..6,
            act in 0usize..4,
        ) {
            let acts = [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Linear];
            let mut rng = StdRng::seed_from_u64(seed);
            let input = kinds.len();
            let fresh = Mlp::new(&[input, hidden, 1], acts[act], acts[(act + 2) % 4], &mut rng);
            let xs: Vec<Vec<f32>> = (0..rows)
                .map(|r| {
                    kinds
                        .iter()
                        .enumerate()
                        .map(|(c, &kind)| match (kind, rng.gen_range(0..4)) {
                            (0, _) => if (r + c) % 2 == 0 { 0.0 } else { -0.0 },
                            (_, 0) => 1.0,
                            (2, 1) => 0.0,
                            (2, 2) => -0.0,
                            _ => rng.gen_range(-1.0..1.0),
                        })
                        .collect()
                })
                .collect();
            let ys: Vec<f32> = (0..rows).map(|_| rng.gen()).collect();
            let sparse_rows = SparseRows::new(&xs, input);
            let (mut dense, mut sparse) = (fresh.clone(), fresh);
            let mut order: Vec<usize> = (0..rows).collect();
            for epoch in 0..3 {
                order.shuffle(&mut rng);
                for chunk in order.chunks(batch) {
                    let x = Matrix::from_rows(chunk.iter().map(|&i| xs[i].clone()).collect());
                    let y = Matrix::from_rows(chunk.iter().map(|&i| vec![ys[i]]).collect());
                    let a = dense.train_mse(&x, &y, 1e-2);
                    let b = sparse.train_mse_sparse(&sparse_rows, chunk, &y, 1e-2);
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "loss in epoch {}", epoch);
                    prop_assert_eq!(state_bits(&dense), state_bits(&sparse), "state in epoch {}", epoch);
                }
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
