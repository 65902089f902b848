//! LW-NN — lightweight neural network (Dutt et al., "Selectivity estimation
//! for range predicates using lightweight models").
//!
//! A small fully connected network over the flat range encoding, regressing
//! the normalized log-cardinality with a sigmoid output. Deliberately tiny:
//! the paper's Table V measures its inference at ~0.01 s for a whole
//! workload, the fastest of all models — our single 64-unit hidden layer
//! preserves that profile.
//!
//! # Training on non-zero inputs
//!
//! The flat encoding gives every table and column of the schema its own
//! inputs, and most of each training row is zero (on the end-to-end
//! benchmark's corpus, 38 of 89 inputs per row at 7 tables and 117 of 340
//! at 24). Training takes each row's non-zero entries only
//! ([`SparseRows`]: `−0` counts as zero and NaN as non-zero, so every
//! input left out is `±0`) and leaves the bits full-width training leaves
//! as long as every first-layer weight and every first-layer output
//! gradient `g` is finite:
//!
//! * **Forward.** A hidden activation adds the terms `x·w` of its row's
//!   inputs in ascending column order to a sum that starts at `+0`, then
//!   the bias. A term left out is `±0·w`, which is `±0` for a finite `w`,
//!   and the sum is never `−0` under round-to-nearest (`+0 + −0 = +0`,
//!   `a + −a = +0`), so adding `±0` leaves it unchanged: the activations,
//!   the head, the loss and `g` have the full-width bits.
//! * **Weight gradient.** Row `c`'s gradient adds `x·g` over the batch
//!   rows in batch order from `+0`; a row whose input `c` is left out adds
//!   `±0·g`, which is `±0` for a finite `g`, so summing the entries only
//!   gives the same bits. A column no training row has (a dead one) keeps
//!   a `+0` gradient row.
//! * **Adam.** Adam updates the live rows only. A dead row's gradient and
//!   moments stay `+0`, and with those Adam leaves the row as it is (`w −
//!   lr·0/(√0 + ε) = w`), as full-width training does.
//! * **Guard.** Both conditions are checked once, after training. A
//!   non-finite weight stays non-finite under Adam (NaN stays NaN, `±∞`
//!   less a finite step stays infinite, less an infinite or NaN one turns
//!   NaN). A non-finite `g` makes the bias gradient, which sums `g`,
//!   non-finite, and Adam turns that into a NaN bias (`±∞/∞` or NaN) that
//!   no later step clears. So a trained first layer whose weights and bias
//!   are all finite proves every step matched full width; otherwise the
//!   network is drawn again and trained at full width. A NaN input, for
//!   one, leaves its row's activations and so the bias NaN; an infinite
//!   one turns its column's weight row non-finite.

use crate::encoding::SchemaEncoder;
use crate::traits::{CardEstimator, ModelKind, TrainContext};
use ce_nn::matrix::SparseRows;
use ce_nn::{Activation, Matrix, Mlp};
use ce_storage::Query;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Trained LW-NN model.
pub struct LwNn {
    encoder: SchemaEncoder,
    net: Mlp,
}

impl LwNn {
    /// Number of training epochs over the labeled workload.
    const EPOCHS: usize = 40;
    /// Mini-batch size.
    const BATCH: usize = 64;
    /// Adam learning rate.
    const LR: f32 = 3e-3;

    /// Trains from the labeled query workload.
    pub fn train(ctx: &TrainContext<'_>) -> Self {
        let encoder = SchemaEncoder::capture(ctx.dataset);
        let xs: Vec<Vec<f32>> = ctx
            .train_queries
            .iter()
            .map(|lq| encoder.encode_flat(&lq.query))
            .collect();
        let ys: Vec<f32> = ctx
            .train_queries
            .iter()
            .map(|lq| encoder.normalize_card(lq.true_card as f64))
            .collect();
        let rng = StdRng::seed_from_u64(ctx.seed ^ 0x1f00d);
        let net = Self::fit(encoder.flat_dim(), &xs, &ys, rng);
        LwNn { encoder, net }
    }

    /// The untrained network over `dim` inputs, drawn from `rng`.
    fn network(dim: usize, rng: &mut StdRng) -> Mlp {
        Mlp::new(&[dim, 64, 1], Activation::Relu, Activation::Sigmoid, rng)
    }

    /// A network drawn from `rng` and trained on `xs`/`ys` (`dim` inputs
    /// per row), the batch order drawn from what `rng` draws next: on each
    /// row's non-zero inputs, or drawn again and trained at full width when
    /// the guard fails (see the module notes).
    fn fit(dim: usize, xs: &[Vec<f32>], ys: &[f32], mut rng: StdRng) -> Mlp {
        let draws = rng.clone();
        let mut net = Self::network(dim, &mut rng);
        let rows = SparseRows::new(xs, dim);
        Self::batches(ys, rng.clone(), |batch, by| {
            net.train_mse_sparse(&rows, batch, by, Self::LR);
        });
        let first = &net.layers()[0];
        if first.w.data.iter().chain(&first.b).all(|v| v.is_finite()) {
            return net;
        }
        Self::train_on(Self::network(dim, &mut draws.clone()), xs, ys, rng)
    }

    /// `net` trained on the rows `xs` (one input per column) and targets
    /// `ys` at full width.
    fn train_on(mut net: Mlp, xs: &[Vec<f32>], ys: &[f32], rng: StdRng) -> Mlp {
        // One batch buffer, refilled in place every step.
        let mut bx = Matrix::zeros(0, net.input_dim());
        Self::batches(ys, rng, |batch, by| {
            bx.data.clear();
            for &i in batch {
                bx.data.extend_from_slice(&xs[i]);
            }
            bx.rows = batch.len();
            net.train_mse(&bx, by, Self::LR);
        });
        net
    }

    /// Calls `step` with each batch of row ids and its targets (one column
    /// of `ys`): [`Self::EPOCHS`] passes in an order drawn from `rng`, in
    /// batches of [`Self::BATCH`].
    fn batches(ys: &[f32], mut rng: StdRng, mut step: impl FnMut(&[usize], &Matrix)) {
        let mut order: Vec<usize> = (0..ys.len()).collect();
        let mut by = Matrix::zeros(0, 1);
        for _ in 0..Self::EPOCHS {
            order.shuffle(&mut rng);
            for chunk in order.chunks(Self::BATCH) {
                by.data.clear();
                by.data.extend(chunk.iter().map(|&i| ys[i]));
                by.rows = chunk.len();
                step(chunk, &by);
            }
        }
    }
}

impl CardEstimator for LwNn {
    fn kind(&self) -> ModelKind {
        ModelKind::LwNn
    }

    fn estimate(&self, query: &Query) -> f64 {
        let x = Matrix::row_vector(&self.encoder.encode_flat(query));
        let y = self.net.infer(&x);
        self.encoder.denormalize_card(y.data[0]).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::TrainContext;
    use ce_datagen::{generate_dataset, DatasetSpec};
    use ce_workload::{generate_workload, label_workload, metrics::mean_qerror, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// How a test column fills its training rows.
    #[derive(Clone, Copy)]
    enum Fill {
        /// `+0` or `−0` (by row and column) in every row.
        Dead,
        /// Never zero: `1.0` or a draw.
        Full,
        /// By turns a draw, `1.0`, `+0` and `−0`.
        Mixed,
    }

    /// `n` training rows over the columns `fill` describes, one per
    /// column; when `sparse_rows`, the first row is all zero (`±0`) and the
    /// second has one non-zero input, so that no column is full.
    fn rows(n: usize, fill: &[Fill], sparse_rows: bool, rng: &mut StdRng) -> Vec<Vec<f32>> {
        let mut xs: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..fill.len())
                    .map(|c| match (fill[c], rng.gen_range(0..4)) {
                        (Fill::Dead, _) if (i + c) % 3 == 0 => -0.0,
                        (Fill::Dead, _) => 0.0,
                        (Fill::Full | Fill::Mixed, 0) => 1.0,
                        (Fill::Mixed, 1) => 0.0,
                        (Fill::Mixed, 2) => -0.0,
                        _ => rng.gen_range(-1.0..1.0),
                    })
                    .collect()
            })
            .collect();
        if sparse_rows {
            for (i, x) in xs.iter_mut().take(2).enumerate() {
                for (c, v) in x.iter_mut().enumerate() {
                    *v = match (i, c) {
                        (1, 2) => 0.5,
                        _ if c % 2 == 0 => -0.0,
                        _ => 0.0,
                    };
                }
            }
        }
        xs
    }

    /// Training before the network trained on non-zero inputs only: every
    /// column of every row, every step.
    fn full_width_oracle(net: &Mlp, xs: &[Vec<f32>], ys: &[f32], mut rng: StdRng) -> Mlp {
        let mut net = net.clone();
        let mut order: Vec<usize> = (0..xs.len()).collect();
        for _ in 0..LwNn::EPOCHS {
            order.shuffle(&mut rng);
            for chunk in order.chunks(LwNn::BATCH) {
                let bx = Matrix::from_rows(chunk.iter().map(|&i| xs[i].clone()).collect());
                let by = Matrix::from_rows(chunk.iter().map(|&i| vec![ys[i]]).collect());
                net.train_mse(&bx, &by, LwNn::LR);
            }
        }
        net
    }

    /// `net`'s `Debug` state — every parameter, gradient and Adam moment of
    /// every layer and the step counter — without the layers' caches,
    /// which only full-width training fills.
    fn state(net: &Mlp) -> String {
        let text = format!("{net:?}");
        let (mut out, mut rest) = (String::new(), text.as_str());
        while let Some(at) = rest.find(", x_cache: ") {
            out.push_str(&rest[..at]);
            // Both caches run to the `}` that closes the layer.
            let mut depth = 0usize;
            let end = rest[at..]
                .char_indices()
                .find(|&(_, ch)| match ch {
                    '(' | '[' | '{' => {
                        depth += 1;
                        false
                    }
                    ')' | ']' | '}' if depth > 0 => {
                        depth -= 1;
                        false
                    }
                    '}' => true,
                    _ => false,
                })
                .map_or(rest.len() - at, |(i, _)| i);
            rest = &rest[at + end..];
        }
        out + rest
    }

    /// [`LwNn::fit`] against full-width training from the same draws:
    /// every weight, bias, gradient and Adam moment, the step counter and
    /// the estimates on probes and on the training rows have the oracle's
    /// bits. Returns whether the guard retrained.
    fn check_sparse_fit(xs: &[Vec<f32>], ys: &[f32], seed: u64) -> bool {
        let dims = xs.first().map_or(5, Vec::len);
        let rng = StdRng::seed_from_u64(seed);
        let got = LwNn::fit(dims, xs, ys, rng.clone());
        let mut draws = rng;
        let net = LwNn::network(dims, &mut draws);
        let oracle = full_width_oracle(&net, xs, ys, draws.clone());
        assert_eq!(state(&got), state(&oracle), "state, {} rows", xs.len());
        let probes = rows(
            8,
            &vec![Fill::Full; dims],
            false,
            &mut StdRng::seed_from_u64(seed ^ 1),
        );
        for probe in probes.iter().chain(xs) {
            let x = Matrix::row_vector(probe);
            assert_eq!(
                bits(&got.infer(&x).data),
                bits(&oracle.infer(&x).data),
                "estimate"
            );
        }
        // Whether the sparse steps left a non-finite first layer.
        let (sparse_rows, mut sparse) = (SparseRows::new(xs, dims), net);
        LwNn::batches(ys, draws, |batch, by| {
            sparse.train_mse_sparse(&sparse_rows, batch, by, LwNn::LR);
        });
        let first = &sparse.layers()[0];
        !first.w.data.iter().chain(&first.b).all(|v| v.is_finite())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Rows with `+0`, `−0` and `1.0` entries in live columns, dead and
    /// full columns, an all-zero row and a one-entry row, an all-zero
    /// training set, one batch and more than one (past 64 rows); then a NaN
    /// input, an infinite input and an infinite target, which must take
    /// the full-width retrain.
    #[test]
    fn sparse_training_matches_full_width() {
        let rng = &mut StdRng::seed_from_u64(0x11fe);
        let fill: Vec<Fill> = (0..23)
            .map(|c| [Fill::Dead, Fill::Full, Fill::Mixed, Fill::Mixed][c % 4])
            .collect();
        for n in [1, 30, 64, 65, 100] {
            let ys: Vec<f32> = (0..n).map(|_| rng.gen()).collect();
            for sparse_rows in [false, true] {
                let xs = rows(n, &fill, sparse_rows, rng);
                assert!(
                    !check_sparse_fit(&xs, &ys, n as u64),
                    "{n} rows: no retrain"
                );
            }
            let zeros = rows(n, &[Fill::Dead; 23], false, rng);
            assert!(!check_sparse_fit(&zeros, &ys, n as u64), "{n} zero rows");
        }
        assert!(!check_sparse_fit(&[], &[], 3), "no rows");
        let ys: Vec<f32> = (0..40).map(|_| rng.gen()).collect();
        for (what, value) in [("NaN", f32::NAN), ("infinite", f32::INFINITY)] {
            let mut xs = rows(40, &fill, false, rng);
            xs[9][2] = value;
            assert!(check_sparse_fit(&xs, &ys, 9), "a {what} input retrains");
        }
        // An infinite target makes the loss gradient, and so the first
        // layer's, non-finite: the first layer's bias turns NaN.
        let xs = rows(40, &fill, true, rng);
        let mut ys = ys;
        ys[7] = f32::INFINITY;
        assert!(check_sparse_fit(&xs, &ys, 7), "an infinite target retrains");
        println!("sparse LW-NN training: every case matched full width, three retrained");
    }

    #[test]
    fn learns_better_than_constant_guess() {
        let mut rng = StdRng::seed_from_u64(91);
        let ds = generate_dataset("lw", &DatasetSpec::small().single_table(), &mut rng);
        let queries = generate_workload(
            &ds,
            &WorkloadSpec {
                num_queries: 400,
                ..WorkloadSpec::default()
            },
            &mut rng,
        );
        let labeled = label_workload(&ds, &queries).unwrap();
        let (train, test) = ce_workload::label::train_test_split(labeled, 0.8);
        let model = LwNn::train(&TrainContext {
            dataset: &ds,
            train_queries: &train,
            seed: 1,
        });
        let est: Vec<f64> = test.iter().map(|lq| model.estimate(&lq.query)).collect();
        let tru: Vec<f64> = test.iter().map(|lq| lq.true_card as f64).collect();
        let q = mean_qerror(&est, &tru);
        // Constant-median guessing lands far above this on skewed workloads.
        assert!(q < 30.0, "mean q-error {q}");
        assert!(est.iter().all(|&e| e >= 1.0 && e.is_finite()));
    }
}
