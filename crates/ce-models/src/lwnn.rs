//! LW-NN — lightweight neural network (Dutt et al., "Selectivity estimation
//! for range predicates using lightweight models").
//!
//! A small fully connected network over the flat range encoding, regressing
//! the normalized log-cardinality with a sigmoid output. Deliberately tiny:
//! the paper's Table V measures its inference at ~0.01 s for a whole
//! workload, the fastest of all models — our single 64-unit hidden layer
//! preserves that profile.

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
        let mut net = Mlp::new(
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
        let mut order: Vec<usize> = (0..xs.len()).collect();
        // One batch buffer per side, refilled in place every step.
        let mut bx = Matrix::zeros(0, encoder.flat_dim());
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
        LwNn { encoder, net }
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
    use rand::SeedableRng;

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
