//! NeuroCard — one deep autoregressive estimator over the full join (Yang
//! et al., VLDB 2021).
//!
//! Training draws uniform samples from the full join of *all* tables (via
//! the engine's weighted join sampler — the same mechanism NeuroCard uses)
//! and fits the shared [`ArModel`] over every data column. A query is
//! answered as `P(predicates) × |full join of the query's subtree|`, with
//! `P` estimated by progressive sampling.
//!
//! Deviation from the original: `P` is measured in the full-join
//! distribution rather than re-weighted per query subtree by fanout columns;
//! this keeps the model faithful on single tables and full joins, and is an
//! approximation for partial-join queries — an error profile of the same
//! shape as the original's fanout-scaling approximation.

use crate::ar::ArModel;
use crate::joinglue::JoinIndex;
use crate::traits::{CardEstimator, ModelKind, TrainContext};
use ce_storage::exec::sample_join;
use ce_storage::{Dataset, Query, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Training-sample budget.
const TRAIN_SAMPLES: usize = 1_500;
/// Monte-Carlo samples per estimate (the dominant inference cost).
const MC_SAMPLES: usize = 48;
/// Cap on modeled columns (widest datasets are truncated).
const MAX_COLUMNS: usize = 12;

/// Trained NeuroCard model.
pub struct NeuroCard {
    model: ArModel,
    /// Maps `(table, column)` to the modeled column slot.
    slots: HashMap<(usize, usize), usize>,
    join_index: JoinIndex,
}

impl NeuroCard {
    /// Trains on full-join samples of the dataset.
    pub fn train(ctx: &TrainContext<'_>) -> Self {
        Self::learn(ctx.dataset, ctx.seed)
    }

    /// Direct data-driven construction.
    pub fn learn(ds: &Dataset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xca2d);
        // Modeled columns: data columns of all tables, in schema order.
        let mut modeled: Vec<(usize, usize)> = Vec::new();
        for (t, table) in ds.tables.iter().enumerate() {
            for c in table.data_column_indices() {
                modeled.push((t, c));
            }
        }
        modeled.truncate(MAX_COLUMNS);

        // Full-join sample (single table: direct row sample).
        let full_query = Query {
            tables: (0..ds.num_tables()).collect(),
            joins: ds.joins.iter().map(|j| (j.fk_table, j.pk_table)).collect(),
            predicates: vec![],
        };
        let sample = sample_join(ds, &full_query, TRAIN_SAMPLES, &mut rng)
            .expect("dataset join graph is a connected tree");
        // Project the sample onto the modeled columns.
        let proj: Vec<usize> = modeled
            .iter()
            .map(|&(t, c)| {
                sample
                    .schema
                    .iter()
                    .position(|&(st, sc)| st == t && sc == c)
                    .expect("modeled column present in join sample schema")
            })
            .collect();
        let rows: Vec<Vec<Value>> = sample
            .rows
            .iter()
            .map(|r| proj.iter().map(|&i| r[i]).collect())
            .collect();
        let bounds: Vec<(Value, Value)> = modeled
            .iter()
            .map(|&(t, c)| ds.tables[t].columns[c].bounds())
            .collect();
        let model = ArModel::fit(&rows, &bounds, MC_SAMPLES, seed ^ 0x0ca);
        let slots = modeled
            .into_iter()
            .enumerate()
            .map(|(slot, key)| (key, slot))
            .collect();
        NeuroCard {
            model,
            slots,
            join_index: JoinIndex::build(ds),
        }
    }
}

impl CardEstimator for NeuroCard {
    fn kind(&self) -> ModelKind {
        ModelKind::NeuroCard
    }

    fn estimate(&self, query: &Query) -> f64 {
        let mut ranges: Vec<Option<(Value, Value)>> = vec![None; self.model.num_columns()];
        for p in &query.predicates {
            if let Some(&slot) = self.slots.get(&(p.table, p.column)) {
                // Conjoin with any existing range on the same column.
                ranges[slot] = Some(match ranges[slot] {
                    Some((lo, hi)) => (lo.max(p.lo), hi.min(p.hi)),
                    None => (p.lo, p.hi),
                });
            }
        }
        let p = self.model.prob(&ranges);
        let scale = self.join_index.full_join_size(query).unwrap_or(0) as f64;
        (p * scale).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
    use ce_storage::exec::query_cardinality;
    use ce_storage::Predicate;
    use ce_workload::metrics::qerror;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accurate_on_correlated_single_table() {
        let mut rng = StdRng::seed_from_u64(161);
        let mut spec = DatasetSpec::small().single_table();
        spec.correlation = SpecRange { lo: 0.9, hi: 1.0 };
        spec.skew = SpecRange { lo: 0.0, hi: 0.2 };
        spec.columns = SpecRange { lo: 3, hi: 3 };
        spec.domain = SpecRange { lo: 80, hi: 80 };
        spec.rows = SpecRange {
            lo: 4_000,
            hi: 4_000,
        };
        let ds = generate_dataset("nc", &spec, &mut rng);
        let model = NeuroCard::learn(&ds, 5);
        let q = Query::single_table(
            0,
            vec![
                Predicate {
                    table: 0,
                    column: 0,
                    lo: 1,
                    hi: 25,
                },
                Predicate {
                    table: 0,
                    column: 1,
                    lo: 1,
                    hi: 25,
                },
            ],
        );
        let truth = query_cardinality(&ds, &q).unwrap() as f64;
        let qe = qerror(model.estimate(&q), truth);
        assert!(qe < 3.0, "q-error {qe}");
    }

    #[test]
    fn join_query_scale_is_subtree_size() {
        let mut rng = StdRng::seed_from_u64(162);
        let ds = generate_dataset("ncm", &DatasetSpec::small().multi_table(), &mut rng);
        let model = NeuroCard::learn(&ds, 6);
        let q = Query {
            tables: (0..ds.num_tables()).collect(),
            joins: ds.joins.iter().map(|j| (j.fk_table, j.pk_table)).collect(),
            predicates: vec![],
        };
        let truth = query_cardinality(&ds, &q).unwrap() as f64;
        // No predicates → P = 1 → exact full-join size.
        assert!((model.estimate(&q) - truth.max(1.0)).abs() < 1e-6);
    }
}
