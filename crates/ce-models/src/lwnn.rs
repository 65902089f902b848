//! LW-NN — lightweight neural network (Dutt et al., "Selectivity estimation
//! for range predicates using lightweight models").
//!
//! A small fully connected network over the flat range encoding, regressing
//! the normalized log-cardinality with a sigmoid output. Deliberately tiny:
//! the paper's Table V measures its inference at ~0.01 s for a whole
//! workload, the fastest of all models — our single 64-unit hidden layer
//! preserves that profile.
//!
//! # Live input columns
//!
//! The flat encoding gives every table and column of the schema its own
//! inputs, and most of them are zero in every training query. Training
//! reads only the *live* columns — those non-zero in some training row —
//! and leaves the bits full-width training leaves:
//!
//! * **Forward.** A dead column is `±0` in every row, and its weights are
//!   finite (Xavier draws) and never updated (below), so each of its terms
//!   `x·w` is `±0`. The product adds the terms in ascending column order
//!   to a sum that starts at `+0` and is never `−0` under round-to-nearest
//!   (`+0 + −0 = +0`, and `a + −a = +0`), so adding `±0` leaves it
//!   unchanged: the hidden activations, the loss, every gradient and the
//!   live rows' weight gradients have the full-width bits.
//! * **Adam.** A dead row's weight gradient is `Σ x·g` over the batch,
//!   `+0` when every first-layer output gradient `g` is finite. With a
//!   zero gradient and a positive learning rate Adam leaves that row's
//!   moments at `+0` and its weights as they are (`w − lr·0/(√0 + ε) =
//!   w`), so the row is exactly its initial draw, as narrow training
//!   leaves it.
//! * **Guard.** A non-finite `g` at any step makes the first layer's bias
//!   gradient non-finite, and Adam turns a non-finite gradient into a NaN
//!   bias (`±∞/∞` or NaN), which no later step clears. So a trained bias
//!   that is all finite proves every step's `g` was finite; otherwise the
//!   network is trained again at full width from the same draws.
//!
//! The trained rows are written back into the full-width network, so
//! estimates read every column as before.

use crate::encoding::SchemaEncoder;
use crate::traits::{CardEstimator, ModelKind, TrainContext};
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
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x1f00d);
        let net = Mlp::new(
            &[encoder.flat_dim(), 64, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
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
        let net = Self::fit(net, &xs, &ys, rng);
        LwNn { encoder, net }
    }

    /// `net` trained on `xs`/`ys`, the batch order drawn from `rng`: on the
    /// live input columns and written back, or at full width when every
    /// column is live or the guard fails (see the module notes).
    fn fit(mut net: Mlp, xs: &[Vec<f32>], ys: &[f32], rng: StdRng) -> Mlp {
        let live = live_columns(xs, net.input_dim());
        if live.len() < net.input_dim() {
            let rows: Vec<Vec<f32>> = xs
                .iter()
                .map(|x| live.iter().map(|&c| x[c]).collect())
                .collect();
            let narrow = Self::train_on(net.select_inputs(&live), &rows, ys, rng.clone());
            if narrow.layers()[0].b.iter().all(|b| b.is_finite()) {
                net.scatter_inputs(&narrow, &live);
                return net;
            }
        }
        Self::train_on(net, xs, ys, rng)
    }

    /// `net` trained on the rows `xs` (one input per column) and targets
    /// `ys`: [`Self::EPOCHS`] passes in an order drawn from `rng`, in
    /// batches of [`Self::BATCH`].
    fn train_on(mut net: Mlp, xs: &[Vec<f32>], ys: &[f32], mut rng: StdRng) -> Mlp {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        // One batch buffer per side, refilled in place every step.
        let mut bx = Matrix::zeros(0, net.input_dim());
        let mut by = Matrix::zeros(0, 1);
        for _ in 0..Self::EPOCHS {
            order.shuffle(&mut rng);
            for chunk in order.chunks(Self::BATCH) {
                bx.data.clear();
                for &i in chunk {
                    bx.data.extend_from_slice(&xs[i]);
                }
                by.data.clear();
                by.data.extend(chunk.iter().map(|&i| ys[i]));
                (bx.rows, by.rows) = (chunk.len(), chunk.len());
                net.train_mse(&bx, &by, Self::LR);
            }
        }
        net
    }
}

/// The input columns that are non-zero (`-0.0` counts as zero, NaN as
/// non-zero) in some row of `xs`, ascending.
fn live_columns(xs: &[Vec<f32>], dims: usize) -> Vec<usize> {
    (0..dims)
        .filter(|&c| xs.iter().any(|x| x[c] != 0.0))
        .collect()
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

    /// Training rows over `dims` columns: column `c` is live when
    /// `live(c)`, else `+0` or `−0` (by row and column) in every row.
    fn rows(
        n: usize,
        dims: usize,
        live: impl Fn(usize) -> bool,
        rng: &mut StdRng,
    ) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dims)
                    .map(|c| match (live(c), (i + c) % 3) {
                        (true, _) => rng.gen::<f32>(),
                        (false, 0) => -0.0,
                        (false, _) => 0.0,
                    })
                    .collect()
            })
            .collect()
    }

    /// The network before this module trained live columns only: every
    /// column, every step.
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

    /// Live-column training against full-width training: every weight,
    /// bias, gradient and Adam moment, the step counter and the estimates
    /// on probes have the oracle's bits. Returns whether the guard
    /// retrained.
    fn check_live_columns(dims: usize, xs: &[Vec<f32>], ys: &[f32], seed: u64) -> bool {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(
            &[dims, 64, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        let got = LwNn::fit(net.clone(), xs, ys, rng.clone());
        let oracle = full_width_oracle(&net, xs, ys, rng.clone());
        // Whether the live-column network fails the guard.
        let live = live_columns(xs, dims);
        let narrow_rows: Vec<Vec<f32>> = xs
            .iter()
            .map(|x| live.iter().map(|&c| x[c]).collect())
            .collect();
        let narrow = LwNn::train_on(net.select_inputs(&live), &narrow_rows, ys, rng);
        let retrained = !narrow.layers()[0].b.iter().all(|b| b.is_finite());
        // A written-back network has no first-layer caches; selecting
        // every column copies the oracle but for those.
        let want = if live.len() < dims && !retrained {
            let every: Vec<usize> = (0..dims).collect();
            oracle.select_inputs(&every)
        } else {
            oracle.clone()
        };
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "state, {} rows",
            xs.len()
        );
        let probes = rows(8, dims, |_| true, &mut StdRng::seed_from_u64(seed ^ 1));
        for probe in probes.iter().chain(xs) {
            let x = Matrix::row_vector(probe);
            assert_eq!(
                bits(&got.infer(&x).data),
                bits(&oracle.infer(&x).data),
                "estimate"
            );
        }
        live.len() < dims && retrained
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `−0.0` and `+0.0` dead columns, an all-zero training set, one batch
    /// and more than one (past 64 rows), and a target that makes a
    /// gradient non-finite, which must take the full-width retrain.
    #[test]
    fn live_column_training_matches_full_width() {
        let rng = &mut StdRng::seed_from_u64(0x11fe);
        let dims = 23;
        let some_dead = |c: usize| c % 3 != 1;
        for n in [1, 30, 64, 65, 100] {
            let xs = rows(n, dims, some_dead, rng);
            let ys: Vec<f32> = (0..n).map(|_| rng.gen()).collect();
            assert!(
                !check_live_columns(dims, &xs, &ys, n as u64),
                "{n} rows: no retrain"
            );
            let zeros = rows(n, dims, |_| false, rng);
            assert!(
                !check_live_columns(dims, &zeros, &ys, n as u64),
                "{n} zero rows"
            );
        }
        // An infinite target makes the loss gradient, and so the first
        // layer's, non-finite: the narrow network's bias turns NaN, and
        // the full-width network's dead rows would too.
        let xs = rows(40, dims, some_dead, rng);
        let mut ys: Vec<f32> = (0..40).map(|_| rng.gen()).collect();
        ys[7] = f32::INFINITY;
        assert!(
            check_live_columns(dims, &xs, &ys, 7),
            "guard retrains at full width"
        );
        println!("live-column LW-NN training: every case matched full width, one retrained");
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
