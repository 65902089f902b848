//! PostgreSQL-style baseline estimator.
//!
//! Per-column equi-depth histograms with the attribute-value-independence
//! assumption, and the System-R join formula
//! `|A ⋈ B| = |A|·|B| / max(ndv_A(k), ndv_B(k))` — the default estimator the
//! paper compares against (Fig. 9 "Postgres" and Table V "PostgreSQL").

use crate::traits::{CardEstimator, ModelKind, TrainContext};
use ce_storage::stats::{ndv_with, EquiDepthHistogram, StatsScratch};
use ce_storage::{Dataset, Query};
use std::collections::HashMap;

/// Histogram bucket budget per column (PostgreSQL's default statistics
/// target is 100).
const BUCKETS: usize = 100;

/// Trained (analyzed) PostgreSQL-style estimator.
pub struct PostgresEstimator {
    /// Histograms for every data column, keyed by `(table, column)`.
    histograms: HashMap<(usize, usize), EquiDepthHistogram>,
    /// Row count per table.
    table_rows: Vec<f64>,
    /// Per join edge `(fk_table, pk_table)`: ndv of both key columns.
    join_ndv: HashMap<(usize, usize), (f64, f64)>,
}

impl PostgresEstimator {
    /// "ANALYZE": builds histograms and distinct counts.
    pub fn train(ctx: &TrainContext<'_>) -> Self {
        Self::analyze(ctx.dataset)
    }

    /// Direct construction from a dataset (no workload needed).
    pub fn analyze(ds: &Dataset) -> Self {
        let mut histograms = HashMap::new();
        for (t, table) in ds.tables.iter().enumerate() {
            for c in table.data_column_indices() {
                histograms.insert(
                    (t, c),
                    EquiDepthHistogram::build(&table.columns[c], BUCKETS),
                );
            }
        }
        let mut join_ndv = HashMap::new();
        let mut scratch = StatsScratch::default();
        for e in &ds.joins {
            let mut ndv =
                |t: usize, c: usize| ndv_with(&ds.tables[t].columns[c], &mut scratch) as f64;
            let ndv_fk = ndv(e.fk_table, e.fk_col);
            let ndv_pk = ndv(e.pk_table, e.pk_col);
            join_ndv.insert((e.fk_table, e.pk_table), (ndv_fk, ndv_pk));
        }
        PostgresEstimator {
            histograms,
            table_rows: ds.tables.iter().map(|t| t.num_rows() as f64).collect(),
            join_ndv,
        }
    }

    /// Selectivity of all predicates on one table under independence.
    fn table_selectivity(&self, query: &Query, table: usize) -> f64 {
        let mut sel = 1.0f64;
        for p in query.predicates_on(table) {
            if let Some(h) = self.histograms.get(&(table, p.column)) {
                sel *= h.selectivity(p.lo, p.hi);
            }
        }
        sel
    }
}

impl CardEstimator for PostgresEstimator {
    fn kind(&self) -> ModelKind {
        ModelKind::Postgres
    }

    fn estimate(&self, query: &Query) -> f64 {
        let mut card = 1.0f64;
        for &t in &query.tables {
            let rows = self.table_rows.get(t).copied().unwrap_or(0.0);
            card *= rows * self.table_selectivity(query, t);
        }
        for &(a, b) in &query.joins {
            let (ndv_fk, ndv_pk) = self.join_ndv.get(&(a, b)).copied().unwrap_or((1.0, 1.0));
            card /= ndv_fk.max(ndv_pk).max(1.0);
        }
        card.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_dataset, DatasetSpec};
    use ce_storage::exec::query_cardinality;
    use ce_storage::Predicate;
    use ce_workload::{generate_workload, metrics::qerror, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_on_full_scan() {
        let mut rng = StdRng::seed_from_u64(131);
        let ds = generate_dataset("pg", &DatasetSpec::small().single_table(), &mut rng);
        let est = PostgresEstimator::analyze(&ds);
        let q = Query::single_table(0, vec![]);
        let rows = ds.tables[0].num_rows() as f64;
        assert!((est.estimate(&q) - rows).abs() < 1e-9);
    }

    #[test]
    fn accurate_on_independent_single_table_ranges() {
        let mut rng = StdRng::seed_from_u64(132);
        let mut spec = DatasetSpec::small().single_table();
        spec.correlation = ce_datagen::SpecRange { lo: 0.0, hi: 0.0 };
        spec.skew = ce_datagen::SpecRange { lo: 0.0, hi: 0.1 };
        let ds = generate_dataset("pg2", &spec, &mut rng);
        let est = PostgresEstimator::analyze(&ds);
        let queries = generate_workload(
            &ds,
            &WorkloadSpec {
                num_queries: 100,
                max_predicates_per_table: 1,
                ..WorkloadSpec::default()
            },
            &mut rng,
        );
        let mut bad = 0;
        for q in &queries {
            let truth = query_cardinality(&ds, q).unwrap() as f64;
            let e = est.estimate(q);
            if qerror(e, truth) > 3.0 {
                bad += 1;
            }
        }
        // One-predicate uniform queries: histograms should nail most.
        assert!(bad < 15, "bad = {bad}/100");
    }

    #[test]
    fn degrades_under_correlation() {
        // Two perfectly correlated columns: independence halves the exponent.
        let mut rng = StdRng::seed_from_u64(133);
        let mut spec = DatasetSpec::small().single_table();
        spec.correlation = ce_datagen::SpecRange { lo: 1.0, hi: 1.0 };
        spec.skew = ce_datagen::SpecRange { lo: 0.0, hi: 0.0 };
        spec.columns = ce_datagen::SpecRange { lo: 2, hi: 2 };
        spec.domain = ce_datagen::SpecRange { lo: 100, hi: 100 };
        let ds = generate_dataset("pg3", &spec, &mut rng);
        let est = PostgresEstimator::analyze(&ds);
        // Predicate selecting ~20% on both (identical) columns.
        let q = Query::single_table(
            0,
            vec![
                Predicate {
                    table: 0,
                    column: 0,
                    lo: 1,
                    hi: 20,
                },
                Predicate {
                    table: 0,
                    column: 1,
                    lo: 1,
                    hi: 20,
                },
            ],
        );
        let truth = query_cardinality(&ds, &q).unwrap() as f64;
        let e = est.estimate(&q);
        // Independence predicts sel ≈ 0.04 while the truth is ≈ 0.2.
        assert!(
            qerror(e, truth) > 2.0,
            "expected visible underestimate, got est {e} vs true {truth}"
        );
        assert!(e < truth);
    }
}
