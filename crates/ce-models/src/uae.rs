//! UAE — unified autoregressive estimator learning from both data and
//! queries (Wu & Cong, SIGMOD 2021).
//!
//! The original makes the autoregressive sampler differentiable
//! (Gumbel-Softmax) so query supervision flows into the density model. Our
//! substitution keeps the unified-information architecture with a simpler
//! mechanism: the NeuroCard-style [`ArModel`](crate::ar::ArModel) supplies the data-driven estimate, and a query-driven **calibration
//! network** trained on the labeled workload corrects it multiplicatively in
//! log space. Both information sources are consulted on every estimate, and
//! inference keeps the high-latency progressive-sampling profile the paper
//! measures for UAE (Table V).

use crate::encoding::SchemaEncoder;
use crate::neurocard::NeuroCard;
use crate::traits::{CardEstimator, ModelKind, TrainContext};
use ce_nn::{Activation, Matrix, Mlp};
use ce_storage::Query;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Maximum absolute log-space correction (natural log).
const MAX_CORRECTION: f32 = 5.0;
/// Calibration training epochs.
const EPOCHS: usize = 30;
/// Adam learning rate.
const LR: f32 = 2e-3;

/// Trained UAE model.
pub struct Uae {
    ar: NeuroCard,
    encoder: SchemaEncoder,
    calibration: Mlp,
}

impl Uae {
    /// Trains the density model on data and the calibration net on queries.
    pub fn train(ctx: &TrainContext<'_>) -> Self {
        let ar = NeuroCard::learn(ctx.dataset, ctx.seed ^ 0x0ae);
        let encoder = SchemaEncoder::capture(ctx.dataset);
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xcab);
        let mut calibration = Mlp::new(
            &[encoder.flat_dim(), 32, 1],
            Activation::Relu,
            Activation::Tanh,
            &mut rng,
        );
        // Calibration targets: log(true/ar_estimate) / MAX_CORRECTION, on a
        // subsample of the training workload (AR inference is expensive).
        let mut idx: Vec<usize> = (0..ctx.train_queries.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(200);
        let mut xs = Vec::with_capacity(idx.len());
        let mut ys = Vec::with_capacity(idx.len());
        for &i in &idx {
            let lq = &ctx.train_queries[i];
            let est = ar.estimate(&lq.query).max(1.0);
            let target = ((lq.true_card.max(1) as f32).ln() - (est as f32).ln())
                .clamp(-MAX_CORRECTION, MAX_CORRECTION)
                / MAX_CORRECTION;
            xs.push(encoder.encode_flat(&lq.query));
            ys.push(vec![target]);
        }
        if !xs.is_empty() {
            let x = Matrix::from_rows(xs);
            let y = Matrix::from_rows(ys);
            for _ in 0..EPOCHS {
                calibration.train_mse(&x, &y, LR);
            }
        }
        Uae {
            ar,
            encoder,
            calibration,
        }
    }
}

impl CardEstimator for Uae {
    fn kind(&self) -> ModelKind {
        ModelKind::Uae
    }

    fn estimate(&self, query: &Query) -> f64 {
        let base = self.ar.estimate(query).max(1.0);
        let x = Matrix::row_vector(&self.encoder.encode_flat(query));
        let corr = self.calibration.infer(&x).data[0] * MAX_CORRECTION;
        (base * (corr as f64).exp()).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_dataset, DatasetSpec};
    use ce_workload::{generate_workload, label_workload, metrics::mean_qerror, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn calibration_does_not_hurt_much_and_estimates_are_finite() {
        let mut rng = StdRng::seed_from_u64(171);
        let ds = generate_dataset("uae", &DatasetSpec::small().single_table(), &mut rng);
        let queries = generate_workload(
            &ds,
            &WorkloadSpec {
                num_queries: 150,
                ..WorkloadSpec::default()
            },
            &mut rng,
        );
        let labeled = label_workload(&ds, &queries).unwrap();
        let (train, test) = ce_workload::label::train_test_split(labeled, 0.8);
        let model = Uae::train(&TrainContext {
            dataset: &ds,
            train_queries: &train,
            seed: 8,
        });
        let est: Vec<f64> = test.iter().map(|lq| model.estimate(&lq.query)).collect();
        let tru: Vec<f64> = test.iter().map(|lq| lq.true_card as f64).collect();
        assert!(est.iter().all(|e| e.is_finite() && *e >= 1.0));
        let q = mean_qerror(&est, &tru);
        assert!(q < 50.0, "mean q-error {q}");
    }
}
