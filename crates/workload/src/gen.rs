//! Randomized SPJ query generation.
//!
//! Each query joins a random connected subtree of the dataset's join graph
//! (1..=`max_tables` tables) and applies 0..=`max_predicates_per_table`
//! closed range predicates to randomly chosen non-key columns, with range
//! centers drawn from the actual data so queries are rarely empty — the
//! standard recipe of the NeuroCard/Naru workloads the paper borrows.

use ce_storage::{Dataset, Predicate, Query, Value};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Workload generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of queries to generate.
    pub num_queries: usize,
    /// Minimum number of joined tables per query (clamped to the dataset).
    pub min_tables: usize,
    /// Maximum number of joined tables per query.
    pub max_tables: usize,
    /// Minimum predicates per query (over all tables).
    pub min_predicates: usize,
    /// Maximum predicates per joined table.
    pub max_predicates_per_table: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            num_queries: 100,
            min_tables: 1,
            max_tables: 5,
            min_predicates: 1,
            max_predicates_per_table: 3,
        }
    }
}

/// Generates `spec.num_queries` valid queries over `ds`. A column's bounds
/// are scanned once for the whole workload, however many predicates land
/// on it.
pub fn generate_workload<R: Rng>(ds: &Dataset, spec: &WorkloadSpec, rng: &mut R) -> Vec<Query> {
    let mut bounds = ColumnBounds::new(ds);
    (0..spec.num_queries)
        .map(|_| query_within(&mut bounds, spec, rng))
        .collect()
}

/// Generates one query.
pub fn generate_query<R: Rng>(ds: &Dataset, spec: &WorkloadSpec, rng: &mut R) -> Query {
    query_within(&mut ColumnBounds::new(ds), spec, rng)
}

/// `(min, max)` of every column a predicate has been drawn on so far, each
/// found by one scan on first use (`(0, 0)` for an empty column).
struct ColumnBounds<'a> {
    ds: &'a Dataset,
    known: Vec<Vec<Option<(Value, Value)>>>,
}

impl<'a> ColumnBounds<'a> {
    fn new(ds: &'a Dataset) -> Self {
        ColumnBounds {
            ds,
            known: ds
                .tables
                .iter()
                .map(|t| vec![None; t.num_columns()])
                .collect(),
        }
    }

    fn of(&mut self, table: usize, col: usize) -> (Value, Value) {
        let column = &self.ds.tables[table].columns[col];
        *self.known[table][col]
            .get_or_insert_with(|| (column.min().unwrap_or(0), column.max().unwrap_or(0)))
    }
}

/// The column's value span as a float, at least 1. Subtracts in `i128`: a
/// column may span more than `i64::MAX`.
pub(crate) fn span_f64((lo_v, hi_v): (Value, Value)) -> f64 {
    ((i128::from(hi_v) - i128::from(lo_v)) as f64).max(1.0)
}

/// The closed range `width` either side of `center`, clamped to the
/// column's bounds (and to `i64` on the way there).
pub(crate) fn range_around(
    table: usize,
    column: usize,
    center: Value,
    width: Value,
    (lo_v, hi_v): (Value, Value),
) -> Predicate {
    Predicate {
        table,
        column,
        lo: center.saturating_sub(width).max(lo_v),
        hi: center.saturating_add(width).min(hi_v),
    }
}

fn query_within<R: Rng>(bounds: &mut ColumnBounds<'_>, spec: &WorkloadSpec, rng: &mut R) -> Query {
    let ds = bounds.ds;
    let hi = spec.max_tables.min(ds.num_tables()).max(1);
    let lo = spec.min_tables.clamp(1, hi);
    let want = rng.gen_range(lo..=hi);
    // Grow a random connected subtree.
    let start = rng.gen_range(0..ds.num_tables());
    let mut tables = vec![start];
    let mut joins: Vec<(usize, usize)> = Vec::new();
    while tables.len() < want {
        let mut frontier: Vec<(usize, usize)> = Vec::new();
        for &t in &tables {
            for e in ds.joins_of(t) {
                let other = if e.fk_table == t {
                    e.pk_table
                } else {
                    e.fk_table
                };
                if !tables.contains(&other) {
                    frontier.push((e.fk_table, e.pk_table));
                }
            }
        }
        let Some(&(fk, pk)) = frontier.as_slice().choose(rng) else {
            break; // component exhausted
        };
        let newcomer = if tables.contains(&fk) { pk } else { fk };
        tables.push(newcomer);
        joins.push((fk, pk));
    }

    // Predicates on non-key columns with data-centered ranges.
    let mut predicates = Vec::new();
    for &t in &tables {
        let table = &ds.tables[t];
        let mut cols = table.data_column_indices();
        if cols.is_empty() {
            continue;
        }
        cols.shuffle(rng);
        let n_preds = rng.gen_range(0..=spec.max_predicates_per_table.min(cols.len()));
        for &c in cols.iter().take(n_preds) {
            predicates.push(random_predicate(bounds, t, c, rng));
        }
    }
    // Honor the minimum predicate count by force-adding to random tables.
    let mut guard = 0;
    while predicates.len() < spec.min_predicates && guard < 32 {
        guard += 1;
        let &t = tables.as_slice().choose(rng).expect("tables nonempty");
        let cols = ds.tables[t].data_column_indices();
        if let Some(&c) = cols.as_slice().choose(rng) {
            predicates.push(random_predicate(bounds, t, c, rng));
        }
    }

    Query {
        tables,
        joins,
        predicates,
    }
}

fn random_predicate<R: Rng>(
    bounds: &mut ColumnBounds<'_>,
    table: usize,
    col: usize,
    rng: &mut R,
) -> Predicate {
    let column = &bounds.ds.tables[table].columns[col];
    let (lo_v, hi_v) = bounds.of(table, col);
    // Center on an existing row value; width is a random fraction of the range.
    let center = if column.is_empty() {
        lo_v
    } else {
        column.data[rng.gen_range(0..column.len())]
    };
    let span = span_f64((lo_v, hi_v));
    let width = (rng.gen::<f64>().powi(2) * span * 0.5) as Value;
    range_around(table, col, center, width, (lo_v, hi_v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_dataset, DatasetSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_dataset("w", &DatasetSpec::small().multi_table(), &mut rng)
    }

    #[test]
    fn all_generated_queries_validate() {
        let ds = dataset(51);
        let mut rng = StdRng::seed_from_u64(52);
        let spec = WorkloadSpec {
            num_queries: 200,
            ..WorkloadSpec::default()
        };
        for q in generate_workload(&ds, &spec, &mut rng) {
            q.validate(&ds).unwrap();
        }
    }

    #[test]
    fn min_predicates_respected() {
        let ds = dataset(53);
        let mut rng = StdRng::seed_from_u64(54);
        let spec = WorkloadSpec {
            num_queries: 50,
            min_predicates: 2,
            ..WorkloadSpec::default()
        };
        for q in generate_workload(&ds, &spec, &mut rng) {
            assert!(q.predicates.len() >= 2);
        }
    }

    #[test]
    fn single_table_dataset_yields_single_table_queries() {
        let mut rng = StdRng::seed_from_u64(55);
        let ds = generate_dataset("s", &DatasetSpec::small().single_table(), &mut rng);
        let spec = WorkloadSpec::default();
        for q in generate_workload(&ds, &spec, &mut rng) {
            assert_eq!(q.tables, vec![0]);
            assert!(q.joins.is_empty());
        }
    }

    #[test]
    fn predicates_only_touch_data_columns() {
        let ds = dataset(56);
        let mut rng = StdRng::seed_from_u64(57);
        let spec = WorkloadSpec {
            num_queries: 100,
            ..WorkloadSpec::default()
        };
        for q in generate_workload(&ds, &spec, &mut rng) {
            for p in &q.predicates {
                assert!(!ds.tables[p.table].columns[p.column].is_key());
            }
        }
    }
}
