//! The shared SPJ (select-project-join) query representation.
//!
//! A query joins a connected subset of a dataset's tables along PK-FK edges
//! and applies a conjunction of closed range predicates on non-key columns —
//! the query class used throughout the paper's evaluation (§VII-A: "10,000
//! SPJ queries similar to [NeuroCard/Naru]"; CEB templates with `GROUP BY`
//! and `LIKE` removed).

use crate::column::Value;
use crate::dataset::Dataset;
use crate::error::StorageError;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A closed range predicate `lo <= table.column <= hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Predicate {
    /// Dataset table index.
    pub table: usize,
    /// Column index within the table.
    pub column: usize,
    /// Inclusive lower bound.
    pub lo: Value,
    /// Inclusive upper bound.
    pub hi: Value,
}

impl Predicate {
    /// True if `v` satisfies the predicate. Both bounds are compared and
    /// the results ANDed, so a row costs no branch that its data decides.
    #[inline]
    pub fn matches(&self, v: Value) -> bool {
        (self.lo <= v) & (v <= self.hi)
    }
}

/// An SPJ query over a dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Indices of the joined tables (connected in the dataset's join graph).
    pub tables: Vec<usize>,
    /// Pairs `(fk_table, pk_table)` of join edges used by the query. Each
    /// pair must exist in [`Dataset::joins`].
    pub joins: Vec<(usize, usize)>,
    /// Conjunctive range predicates on the joined tables' columns.
    pub predicates: Vec<Predicate>,
}

impl Query {
    /// A single-table query with the given predicates.
    pub fn single_table(table: usize, predicates: Vec<Predicate>) -> Self {
        Query {
            tables: vec![table],
            joins: Vec::new(),
            predicates,
        }
    }

    /// Predicates restricted to one table.
    pub fn predicates_on(&self, table: usize) -> Vec<&Predicate> {
        self.predicates
            .iter()
            .filter(|p| p.table == table)
            .collect()
    }

    /// Validates the query against a dataset: tables exist, join edges exist,
    /// the joined subgraph is a connected tree, and predicates reference
    /// joined tables and in-range columns.
    pub fn validate(&self, ds: &Dataset) -> Result<(), StorageError> {
        if self.tables.is_empty() {
            return Err(StorageError::EmptyQuery);
        }
        let tset: HashSet<usize> = self.tables.iter().copied().collect();
        for &t in &self.tables {
            ds.table(t)?;
        }
        for &(a, b) in &self.joins {
            if !tset.contains(&a) || !tset.contains(&b) {
                return Err(StorageError::NonTreeJoin(format!(
                    "join ({a},{b}) touches a table outside the query"
                )));
            }
            let edge = ds.join_between(a, b).ok_or(StorageError::UnknownJoin {
                fk_table: a,
                pk_table: b,
            })?;
            // Direction must match the dataset edge.
            if !(edge.fk_table == a && edge.pk_table == b) {
                return Err(StorageError::UnknownJoin {
                    fk_table: a,
                    pk_table: b,
                });
            }
        }
        // Tree check: |edges| == |tables| - 1 and connected.
        if self.joins.len() + 1 != self.tables.len() {
            return Err(StorageError::NonTreeJoin(format!(
                "{} tables but {} joins",
                self.tables.len(),
                self.joins.len()
            )));
        }
        if !self.is_connected() {
            return Err(StorageError::NonTreeJoin("join graph disconnected".into()));
        }
        for p in &self.predicates {
            if !tset.contains(&p.table) {
                return Err(StorageError::PredicateOutsideQuery { table: p.table });
            }
            ds.table(p.table)?.column(p.column)?;
        }
        Ok(())
    }

    fn is_connected(&self) -> bool {
        if self.tables.len() <= 1 {
            return true;
        }
        let mut reached = HashSet::new();
        let mut stack = vec![self.tables[0]];
        reached.insert(self.tables[0]);
        while let Some(t) = stack.pop() {
            for &(a, b) in &self.joins {
                let other = if a == t {
                    b
                } else if b == t {
                    a
                } else {
                    continue;
                };
                if reached.insert(other) {
                    stack.push(other);
                }
            }
        }
        reached.len() == self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::dataset::JoinEdge;
    use crate::table::Table;

    fn ds() -> Dataset {
        let a = Table::with_columns(
            "a",
            vec![
                Column::primary_key("id", vec![1, 2]),
                Column::data("x", vec![5, 6]),
            ],
        )
        .unwrap();
        let b = Table::with_columns(
            "b",
            vec![
                Column::foreign_key("a_id", vec![1, 2, 2]),
                Column::data("y", vec![1, 2, 3]),
            ],
        )
        .unwrap();
        Dataset::new(
            "ds",
            vec![a, b],
            vec![JoinEdge {
                fk_table: 1,
                fk_col: 0,
                pk_table: 0,
                pk_col: 0,
            }],
        )
        .unwrap()
    }

    #[test]
    fn predicate_matches() {
        let p = Predicate {
            table: 0,
            column: 1,
            lo: 3,
            hi: 7,
        };
        assert!(p.matches(3) && p.matches(7) && p.matches(5));
        assert!(!p.matches(2) && !p.matches(8));
        // The short-circuit form it replaced answers the same everywhere,
        // an empty range (`lo > hi`) and the ends of `i64` included.
        let edges = [
            i64::MIN,
            i64::MIN + 1,
            -1,
            0,
            1,
            3,
            7,
            i64::MAX - 1,
            i64::MAX,
        ];
        for lo in edges {
            for hi in edges {
                let p = Predicate { lo, hi, ..p };
                for v in edges {
                    assert_eq!(p.matches(v), lo <= v && v <= hi, "{lo}..={hi} at {v}");
                }
            }
        }
    }

    #[test]
    fn valid_join_query() {
        let q = Query {
            tables: vec![0, 1],
            joins: vec![(1, 0)],
            predicates: vec![Predicate {
                table: 1,
                column: 1,
                lo: 1,
                hi: 2,
            }],
        };
        q.validate(&ds()).unwrap();
    }

    #[test]
    fn wrong_direction_rejected() {
        let q = Query {
            tables: vec![0, 1],
            joins: vec![(0, 1)], // reversed
            predicates: vec![],
        };
        assert!(q.validate(&ds()).is_err());
    }

    #[test]
    fn disconnected_rejected() {
        let q = Query {
            tables: vec![0, 1],
            joins: vec![],
            predicates: vec![],
        };
        assert!(matches!(
            q.validate(&ds()),
            Err(StorageError::NonTreeJoin(_))
        ));
    }

    #[test]
    fn predicate_outside_query_rejected() {
        let q = Query::single_table(
            0,
            vec![Predicate {
                table: 1,
                column: 1,
                lo: 0,
                hi: 9,
            }],
        );
        assert!(matches!(
            q.validate(&ds()),
            Err(StorageError::PredicateOutsideQuery { table: 1 })
        ));
    }
}
