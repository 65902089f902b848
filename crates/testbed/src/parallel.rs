//! Parallel batch labeling.
//!
//! Stage-1 labeling trains every model on every dataset — the paper reports
//! ~2 hours for its corpus. Datasets are independent, so we fan the work out
//! over scoped worker threads pulling from a shared atomic work queue.
//! Nothing is shared between workers but that queue: each `label_dataset`
//! call owns its cardinality counter, its GBDT presort and its networks.
//!
//! # Where one label's time goes
//!
//! On the end-to-end benchmark's testbed ({Postgres, LW-XGB, LW-NN}, 30
//! training + 15 testing queries, `DatasetSpec::small()`, one pinned CPU),
//! milliseconds per dataset at 7 tables / at 24 tables:
//!
//! | stage | per-node-sort GBDT, per-query key maps | presorted GBDT, prepared counter |
//! |---|---|---|
//! | `LwXgb::train` | 11.3 / 26.1 | 2.7 / 4.9 |
//! | `LwNn::train` | 3.1 / 9.6 | 2.3 / 6.4 |
//! | `label_workload` | 3.1 / 3.2 | 1.7 / 2.0 |
//! | `PostgresEstimator` | 0.9 / 3.0 | 1.0 / 3.1 |
//! | `generate_workload` | 0.6 / 0.7 | 0.2 / 0.5 |
//! | all 135 estimates | 0.1 / 0.1 | 0.1 / 0.1 |
//! | `label_dataset` | ≈19 / ≈43 | ≈8 / ≈17 |
//!
//! The left column re-sorted every feature at every node of every tree,
//! rebuilt hash maps per join edge per query, and computed an input
//! gradient nobody read; the right column is what remains once none of
//! that is done (same bits — `tests/golden_label_bits.rs`). What is left is
//! spread evenly: the network's two matmuls, the histogram build, the
//! scan of 60 trees' candidate splits, and the row passes of the counter.

use crate::label::{label_dataset, DatasetLabel, TestbedConfig};
use ce_storage::Dataset;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Labels all datasets, using up to `threads` worker threads (0 = all
/// available cores). Output order matches input order; per-dataset seeds are
/// derived from `seed` and the dataset index so results are independent of
/// scheduling.
pub fn label_datasets(
    datasets: &[Dataset],
    cfg: &TestbedConfig,
    seed: u64,
    threads: usize,
) -> Vec<DatasetLabel> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, usize::from)
    } else {
        threads
    };
    let threads = threads.min(datasets.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<DatasetLabel>>> =
        (0..datasets.len()).map(|_| Mutex::new(None)).collect();

    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= datasets.len() {
            break;
        }
        let label = label_dataset(&datasets[i], cfg, seed.wrapping_add(i as u64));
        *results[i].lock().expect("label slot poisoned") = Some(label);
    };
    if threads <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(work);
            }
        });
    }

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("label slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_batch, DatasetSpec};
    use ce_models::ModelKind;
    use ce_workload::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(211);
        let datasets = generate_batch("p", 4, &DatasetSpec::small(), &mut rng);
        let cfg = TestbedConfig {
            models: vec![ModelKind::Postgres, ModelKind::LwXgb],
            train_queries: 60,
            test_queries: 30,
            workload: WorkloadSpec::default(),
        };
        let par = label_datasets(&datasets, &cfg, 99, 3);
        let seq: Vec<_> = datasets
            .iter()
            .enumerate()
            .map(|(i, ds)| label_dataset(ds, &cfg, 99u64.wrapping_add(i as u64)))
            .collect();
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.dataset, s.dataset);
            for (a, b) in p.performances.iter().zip(&s.performances) {
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.qerror_bits(), b.qerror_bits());
            }
        }
    }
}
