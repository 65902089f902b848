//! Ground-truth labeling of workloads (paper Stage 1, step "acquire the true
//! cardinalities by running the queries in the database").

use ce_storage::exec::CardinalityCounter;
use ce_storage::{Dataset, Query, StorageError};
use serde::{Deserialize, Serialize};

/// A query paired with its exact result cardinality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabeledQuery {
    /// The SPJ query.
    pub query: Query,
    /// Exact result cardinality.
    pub true_card: u64,
}

/// Labels every query with its exact cardinality, through one
/// [`CardinalityCounter`] prepared over `ds`.
pub fn label_workload(ds: &Dataset, queries: &[Query]) -> Result<Vec<LabeledQuery>, StorageError> {
    let mut counter = CardinalityCounter::new(ds);
    queries
        .iter()
        .map(|q| {
            Ok(LabeledQuery {
                query: q.clone(),
                true_card: counter.count(q)?,
            })
        })
        .collect()
}

/// Splits a labeled workload into training and testing portions, following
/// the paper's 9,000 / 1,000 convention (`train_fraction = 0.9`).
pub fn train_test_split(
    labeled: Vec<LabeledQuery>,
    train_fraction: f64,
) -> (Vec<LabeledQuery>, Vec<LabeledQuery>) {
    let cut = ((labeled.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize;
    let mut train = labeled;
    let test = train.split_off(cut.min(train.len()));
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_workload, WorkloadSpec};
    use ce_datagen::{generate_dataset, DatasetSpec};
    use ce_storage::exec::query_cardinality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels_match_direct_counting() {
        let mut rng = StdRng::seed_from_u64(61);
        let ds = generate_dataset("l", &DatasetSpec::small(), &mut rng);
        let queries = generate_workload(
            &ds,
            &WorkloadSpec {
                num_queries: 30,
                ..WorkloadSpec::default()
            },
            &mut rng,
        );
        let labeled = label_workload(&ds, &queries).unwrap();
        assert_eq!(labeled.len(), 30);
        for lq in &labeled {
            assert_eq!(
                lq.true_card,
                query_cardinality(&ds, &lq.query).unwrap(),
                "labels must be reproducible"
            );
        }
    }

    #[test]
    fn split_sizes() {
        let mut rng = StdRng::seed_from_u64(62);
        let ds = generate_dataset("s", &DatasetSpec::small().single_table(), &mut rng);
        let queries = generate_workload(
            &ds,
            &WorkloadSpec {
                num_queries: 100,
                ..WorkloadSpec::default()
            },
            &mut rng,
        );
        let labeled = label_workload(&ds, &queries).unwrap();
        let (train, test) = train_test_split(labeled, 0.9);
        assert_eq!(train.len(), 90);
        assert_eq!(test.len(), 10);
    }
}
