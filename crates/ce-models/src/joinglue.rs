//! Join handling for the per-table data-driven models (DeepDB, BayesCard).
//!
//! DeepDB answers join queries through precomputed fanout statistics; we
//! reproduce the same architecture: at training time the exact full-join
//! cardinality of **every connected subtree** of the dataset's join graph is
//! computed once (cheap — the join graph has at most 5 tables), and at
//! inference a join query is estimated as
//!
//! ```text
//! card(Q) ≈ |full join of Q's subtree| · Π_t sel_t(preds on t)
//! ```
//!
//! i.e. per-table selectivities are assumed independent *within the join
//! distribution*. This is exactly the regime in which the paper observes
//! data-driven models losing to query-driven ones on multi-table datasets
//! (Example 1) — the error grows when predicate columns correlate with join
//! fanout.

use ce_storage::exec::CardinalityCounter;
use ce_storage::{Dataset, Query};
use std::collections::HashMap;

/// Precomputed full-join sizes of every connected subtree.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    /// Key: sorted table-index set. Value: exact full-join cardinality.
    sizes: HashMap<Vec<usize>, u64>,
}

impl JoinIndex {
    /// Builds the index by enumerating connected subsets of the join graph.
    pub fn build(ds: &Dataset) -> Self {
        let n = ds.num_tables();
        let mut sizes = HashMap::new();
        // Enumerate all non-empty subsets (n ≤ 5 in the paper's generator;
        // cap at 12 tables to keep this bounded for exotic schemas).
        assert!(
            n <= 20,
            "join index enumeration not intended for >20 tables"
        );
        let mut counter = CardinalityCounter::new(ds);
        for mask in 1u32..(1 << n) {
            let tables: Vec<usize> = (0..n).filter(|&t| mask & (1 << t) != 0).collect();
            let Some(joins) = spanning_joins(ds, &tables) else {
                continue; // not connected
            };
            let q = Query {
                tables: tables.clone(),
                joins,
                predicates: vec![],
            };
            if let Ok(card) = counter.count(&q) {
                sizes.insert(tables, card);
            }
        }
        JoinIndex { sizes }
    }

    /// Full-join size of the query's table set, if the set is connected.
    pub fn full_join_size(&self, query: &Query) -> Option<u64> {
        let mut key = query.tables.clone();
        key.sort_unstable();
        key.dedup();
        self.sizes.get(&key).copied()
    }

    /// Combines per-table selectivities into a join-cardinality estimate.
    pub fn estimate(&self, query: &Query, sel_of_table: impl Fn(usize) -> f64) -> f64 {
        let full = self.full_join_size(query).unwrap_or(0) as f64;
        let mut sel = 1.0f64;
        for &t in &query.tables {
            sel *= sel_of_table(t).clamp(0.0, 1.0);
        }
        (full * sel).max(0.0)
    }
}

/// Returns the join edges connecting `tables` if they form a connected
/// subtree of the dataset join graph, else `None`.
fn spanning_joins(ds: &Dataset, tables: &[usize]) -> Option<Vec<(usize, usize)>> {
    if tables.len() <= 1 {
        return Some(Vec::new());
    }
    let mut joins = Vec::new();
    let mut reached = vec![tables[0]];
    let mut frontier = true;
    while frontier {
        frontier = false;
        for e in &ds.joins {
            let (a, b) = (e.fk_table, e.pk_table);
            if !tables.contains(&a) || !tables.contains(&b) {
                continue;
            }
            let has_a = reached.contains(&a);
            let has_b = reached.contains(&b);
            if has_a != has_b {
                reached.push(if has_a { b } else { a });
                joins.push((a, b));
                frontier = true;
            }
        }
    }
    if reached.len() == tables.len() {
        Some(joins)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_dataset, DatasetSpec};
    use ce_storage::exec::query_cardinality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn indexes_all_connected_subtrees() {
        let mut rng = StdRng::seed_from_u64(121);
        let ds = generate_dataset("ji", &DatasetSpec::small().multi_table(), &mut rng);
        let idx = JoinIndex::build(&ds);
        // All singletons are connected.
        assert!(idx.sizes.len() >= ds.num_tables());
        for t in 0..ds.num_tables() {
            let q = Query::single_table(t, vec![]);
            assert_eq!(
                idx.full_join_size(&q).unwrap(),
                ds.tables[t].num_rows() as u64
            );
        }
        // The full set is connected by construction.
        let q = Query {
            tables: (0..ds.num_tables()).collect(),
            joins: ds.joins.iter().map(|j| (j.fk_table, j.pk_table)).collect(),
            predicates: vec![],
        };
        let full = idx.full_join_size(&q).unwrap();
        assert_eq!(full, query_cardinality(&ds, &q).unwrap());
    }

    #[test]
    fn estimate_multiplies_selectivities() {
        let mut rng = StdRng::seed_from_u64(122);
        let ds = generate_dataset("je", &DatasetSpec::small().multi_table(), &mut rng);
        let idx = JoinIndex::build(&ds);
        let q = Query {
            tables: (0..ds.num_tables()).collect(),
            joins: ds.joins.iter().map(|j| (j.fk_table, j.pk_table)).collect(),
            predicates: vec![],
        };
        let full = idx.full_join_size(&q).unwrap() as f64;
        let est = idx.estimate(&q, |_| 0.5);
        let expect = full * 0.5f64.powi(ds.num_tables() as i32);
        assert!((est - expect).abs() < 1e-6);
        // Selectivity 1 reproduces the full size.
        assert!((idx.estimate(&q, |_| 1.0) - full).abs() < 1e-9);
    }
}
