//! Ensemble baseline: the paper's comparison method (8) — "takes the
//! weighted average estimation of all the CE models (the weight is
//! proportional to their performance on the training datasets)".
//!
//! We combine estimates as a weighted average in log space (a weighted
//! geometric mean), the natural averaging domain for cardinalities, with
//! weights proportional to each member's inverse mean Q-error on the
//! training workload. To avoid doubling the cost of every testbed labeling
//! run, the ensemble trains the non-autoregressive members (MSCN, LW-NN,
//! LW-XGB, DeepDB, BayesCard, Postgres); the AR pair's contribution is the
//! dominant training cost and its omission is this module's deviation from
//! the paper.

use crate::traits::{build_model, CardEstimator, ModelKind, TrainContext};
use ce_storage::Query;
use ce_workload::metrics::mean_qerror;

/// Member models of the ensemble.
const MEMBERS: [ModelKind; 6] = [
    ModelKind::Mscn,
    ModelKind::LwNn,
    ModelKind::LwXgb,
    ModelKind::DeepDb,
    ModelKind::BayesCard,
    ModelKind::Postgres,
];

/// Trained ensemble.
pub struct Ensemble {
    members: Vec<Box<dyn CardEstimator>>,
    weights: Vec<f64>,
}

impl Ensemble {
    /// Trains all members and weights them by training-set performance.
    pub fn train(ctx: &TrainContext<'_>) -> Self {
        let members: Vec<Box<dyn CardEstimator>> =
            MEMBERS.iter().map(|&k| build_model(k, ctx)).collect();
        // Weight ∝ 1 / mean Q-error on (a subsample of) the training set.
        let sample: Vec<_> = ctx.train_queries.iter().take(200).collect();
        let truths: Vec<f64> = sample.iter().map(|lq| lq.true_card as f64).collect();
        let weights: Vec<f64> = members
            .iter()
            .map(|m| {
                let est: Vec<f64> = sample.iter().map(|lq| m.estimate(&lq.query)).collect();
                1.0 / mean_qerror(&est, &truths).max(1.0)
            })
            .collect();
        let z: f64 = weights.iter().sum::<f64>().max(1e-12);
        let weights = weights.into_iter().map(|w| w / z).collect();
        Ensemble { members, weights }
    }
}

impl CardEstimator for Ensemble {
    fn kind(&self) -> ModelKind {
        ModelKind::Ensemble
    }

    fn estimate(&self, query: &Query) -> f64 {
        let mut log_est = 0.0f64;
        for (m, &w) in self.members.iter().zip(&self.weights) {
            log_est += w * m.estimate(query).max(1.0).ln();
        }
        log_est.exp().max(1.0)
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
    fn weighted_combination_is_reasonable() {
        let mut rng = StdRng::seed_from_u64(181);
        let ds = generate_dataset("en", &DatasetSpec::small().single_table(), &mut rng);
        let queries = generate_workload(
            &ds,
            &WorkloadSpec {
                num_queries: 250,
                ..WorkloadSpec::default()
            },
            &mut rng,
        );
        let labeled = label_workload(&ds, &queries).unwrap();
        let (train, test) = ce_workload::label::train_test_split(labeled, 0.8);
        let model = Ensemble::train(&TrainContext {
            dataset: &ds,
            train_queries: &train,
            seed: 21,
        });
        assert_eq!(model.weights.len(), MEMBERS.len());
        let wsum: f64 = model.weights.iter().sum();
        assert!((wsum - 1.0).abs() < 1e-9, "weights normalized");
        let est: Vec<f64> = test.iter().map(|lq| model.estimate(&lq.query)).collect();
        let tru: Vec<f64> = test.iter().map(|lq| lq.true_card as f64).collect();
        let q = mean_qerror(&est, &tru);
        assert!(q < 40.0, "mean q-error {q}");
    }
}
