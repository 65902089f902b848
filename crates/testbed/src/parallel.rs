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
//! | stage | per-node-sort GBDT, per-query key maps | presorted GBDT, prepared counter | `u64` counter, counting runs, branch-free partition, one Adam kernel | membership-mask GBDT with a lane kernel, live-column LW-NN | lane-wide predicate masks, branch-free runs, one extremes scan | LW-NN on non-zero inputs, one-output head, Adam over live rows |
//! |---|---|---|---|---|---|---|
//! | `LwXgb::train` | 11.3 / 26.1 | 2.7 / 4.9 | 1.7 / 4.2 | 0.6 / 1.5 | 0.7 / 1.2 | 0.5 / 1.0 |
//! | `LwNn::train` | 3.1 / 9.6 | 2.3 / 6.4 | 1.4 / 4.1 | 1.4 / 4.1 | 1.3 / 4.0 | 0.8 / 2.6 |
//! | `label_workload` | 3.1 / 3.2 | 1.7 / 2.0 | 1.1 / 1.2 | 1.3 / 1.5 | 0.5 / 0.6 | 0.4 / 0.4 |
//! | `PostgresEstimator` | 0.9 / 3.0 | 1.0 / 3.1 | 0.4 / 1.7 | 0.5 / 1.8 | 0.2 / 0.9 | 0.2 / 0.8 |
//! | `generate_workload` | 0.6 / 0.7 | 0.2 / 0.5 | 0.1 / 0.3 | 0.1 / 0.3 | 0.04 / 0.06 | 0.03 / 0.06 |
//! | all 135 estimates | 0.1 / 0.1 | 0.1 / 0.1 | 0.1 / 0.1 | 0.1 / 0.1 | 0.3 / 0.3 | 0.2 / 0.3 |
//! | `label_dataset` | ≈19 / ≈43 | ≈8 / ≈17 | ≈4.9 / ≈11.5 | ≈4.2 / ≈9.6 | ≈3.9 / ≈7.4 | ≈2.2 / ≈5.3 |
//!
//! The left column re-sorted every feature at every node of every tree,
//! rebuilt hash maps per join edge per query, and computed an input
//! gradient nobody read; the middle column is what remains once none of
//! that is done (same bits — `tests/golden_label_bits.rs`). The right
//! column replaces four kernels, again at the same bits: the counter's
//! saturating `u128` weights and selection vectors by `u64` weights masked
//! in place, the histogram's clone-and-sort by counting into one slot per
//! value, the GBDT's branchy partition by a branch-free one, and two
//! scalar Adam loops by one `simd_kernel!` body. It was measured
//! alternately with the middle column's code on one host, where that code
//! read 2.4 / 5.0 (`LwXgb::train`), 1.7 / 4.2 (`LwNn::train`), 2.0 / 2.0
//! (`label_workload`), 0.9 / 3.0 (`PostgresEstimator`) and 7.2 / 14.6
//! (`label_dataset`). The kernels alone, from `micro.rs -- label_kernels`
//! on that host, before → after:
//!
//! | kernel | 7 tables | 24 tables |
//! |---|---|---|
//! | `count_workload` (45 queries) | 1.86 → 1.05 ms | 1.96 → 1.08 ms |
//! | `histogram_build` (every data column) | 0.77 → 0.35 ms | 2.65 → 1.40 ms |
//! | `gbdt_fit` (LW-XGB, 30 rows) | 2.30 → 1.66 ms | 4.50 → 4.12 ms |
//! | `adam_step` (LW-NN's two layers) | 6.2 → 5.4 µs | 22.2 → 19.9 µs |
//!
//! The Adam step gains least: per element it is three divisions and a
//! square root, which no vector width makes cheaper per lane.
//!
//! The fourth column, again at the same bits, grows each tree over node
//! membership masks (no split rewrites an order array) and scans sixteen
//! features per AVX-512F lane group, and trains LW-NN on the input columns
//! that are non-zero in some training row (79 % of them at 24 tables, all
//! of them at 7) with buffers kept across steps and a branch-free ReLU. It
//! was measured on a slower, noisier host than the third (best of 30 calls
//! per stage, the least of four rounds alternated with the third column's
//! code, which read 2.0 / 4.8 for `LwXgb::train`, 1.7 / 5.1 for
//! `LwNn::train`, 1.3 / 1.4 for `label_workload` and 6.2 / 13.9 for
//! `label_dataset` there). `gbdt_fit` fell 3.1–3.4 → 0.8 ms at 7 tables
//! and 7.4–8.6 → 1.1–1.6 ms at 24 (`micro.rs -- label_kernels`,
//! medians, same host). What is left is LW-NN's two matmuls, which every
//! live column still pays, the counter's row passes and query validation.
//!
//! The fifth column takes the row passes off branches the data decides,
//! again at the same bits: each predicate masks its weights in one
//! `simd_kernel!` (`(lo <= v) & (v <= hi)`, where the short-circuit test
//! mispredicted on random data), the histogram compacts its counting slots
//! without a `filter`, and every column bound — the histogram's, the
//! workload generator's, `SchemaEncoder::capture`'s (twice per label) and
//! the counter's key spans — comes from one lane-wide extremes pass instead
//! of two scalar folds. It was measured like the fourth (best of 30 calls
//! per stage, least of four rounds alternated with the fourth column's
//! code, which read 0.7 / 1.5, 1.4 / 4.2, 1.3 / 1.6, 0.5 / 1.9, 0.1 / 0.3,
//! 0.2 / 0.3 and 4.4 / 10.1 down the rows on that host; its estimates row
//! counts 3 models × 45 queries, and moved within noise). `LwXgb::train`
//! and `LwNn::train` change only in their schema capture, which at 7
//! tables is inside the noise.
//!
//! The sixth column trains LW-NN at the cost of each row's non-zero
//! inputs, again at the same bits (`ce-models::lwnn` has the proof): the
//! first layer's forward adds only the weight rows of a row's entries,
//! its weight gradient is scattered entry by entry, Adam updates only the
//! live rows, and the one-output head runs on one-column kernels. On this
//! testbed 38 of 89 inputs per row are non-zero at 7 tables and 117 of 340
//! at 24. It was measured like the fifth (best of 30 calls per stage,
//! least of four rounds alternated with the fifth column's code, which
//! read 0.65 / 1.02, 1.61 / 3.75, 0.41 / 0.43, 0.18 / 0.73, 0.03 / 0.05,
//! 0.17 / 0.29 and 2.65 / 6.48 down the rows on that host); only
//! `LwNn::train` changed, and the other rows moved within this host's
//! noise. Of an LW-NN step (`micro.rs -- label_kernels`, `lwnn_step`:
//! ≈19–25 / ≈63–76 µs at 7 / 24 tables), Adam over the live rows costs
//! about what the parent's full-width `adam_step` (7 / 26 µs over 89 / 340
//! rows) does per row: three divisions and a square root per parameter,
//! which no kernel can drop at the same bits.

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
