//! Datasets: tables plus a PK-FK join graph.

use crate::error::StorageError;
use crate::table::Table;
use serde::{Deserialize, Serialize};

/// A PK-FK join edge: column `fk_col` of table `fk_table` references the
/// primary-key column `pk_col` of table `pk_table`.
///
/// In the paper's feature-graph edge matrix `E`, this edge occupies
/// `E[pk_table][fk_table]` and stores the *join correlation* (the fraction of
/// the PK domain covered by the FK column — §V-A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinEdge {
    /// Index of the referencing (fact-side) table.
    pub fk_table: usize,
    /// Column index of the foreign key inside `fk_table`.
    pub fk_col: usize,
    /// Index of the referenced (dimension / "main") table.
    pub pk_table: usize,
    /// Column index of the primary key inside `pk_table`.
    pub pk_col: usize,
}

/// A dataset: a set of tables connected by PK-FK joins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Dataset name.
    pub name: String,
    /// Tables; indices are stable identifiers used by joins and queries.
    pub tables: Vec<Table>,
    /// PK-FK join edges. The generator guarantees the undirected join graph
    /// is acyclic (a forest), which exact counting relies on.
    pub joins: Vec<JoinEdge>,
}

impl Dataset {
    /// Creates a dataset, validating each table and every join edge.
    pub fn new(
        name: impl Into<String>,
        tables: Vec<Table>,
        joins: Vec<JoinEdge>,
    ) -> Result<Self, StorageError> {
        let ds = Dataset {
            name: name.into(),
            tables,
            joins,
        };
        ds.validate()?;
        Ok(ds)
    }

    /// Table access by index.
    pub fn table(&self, idx: usize) -> Result<&Table, StorageError> {
        self.tables.get(idx).ok_or(StorageError::IndexOutOfRange {
            what: "table",
            index: idx,
        })
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::num_rows).sum()
    }

    /// Looks up the join edge between two tables (either direction).
    pub fn join_between(&self, a: usize, b: usize) -> Option<&JoinEdge> {
        self.join_position(a, b).map(|e| &self.joins[e])
    }

    /// Index into [`Self::joins`] of the edge [`Self::join_between`] finds.
    pub(crate) fn join_position(&self, a: usize, b: usize) -> Option<usize> {
        self.joins.iter().position(|j| {
            (j.fk_table == a && j.pk_table == b) || (j.fk_table == b && j.pk_table == a)
        })
    }

    /// Join edges incident to `table` (as either side).
    pub fn joins_of(&self, table: usize) -> Vec<&JoinEdge> {
        self.joins
            .iter()
            .filter(|j| j.fk_table == table || j.pk_table == table)
            .collect()
    }

    /// The half of [`Self::validate`] that reads no row: equal column
    /// lengths per table and every join edge naming a table and a column
    /// that exist — O(tables · columns + joins). It is what the statistics
    /// and the feature extractor index by, so a request path checks it
    /// before extracting (`tables` and `joins` are `pub`; a dataset built
    /// field by field never met [`Self::new`]).
    pub fn validate_shape(&self) -> Result<(), StorageError> {
        for t in &self.tables {
            t.validate_shape()?;
        }
        for j in &self.joins {
            self.table(j.fk_table)?.column(j.fk_col)?;
            self.table(j.pk_table)?.column(j.pk_col)?;
        }
        Ok(())
    }

    /// Validates tables, join-edge indices, and acyclicity of the undirected
    /// join graph.
    pub fn validate(&self) -> Result<(), StorageError> {
        self.validate_shape()?;
        for t in &self.tables {
            t.validate()?;
        }
        // Union-find cycle check on the undirected join graph.
        let mut parent: Vec<usize> = (0..self.tables.len()).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != c {
                let next = parent[c];
                parent[c] = r;
                c = next;
            }
            r
        }
        for j in &self.joins {
            let a = find(&mut parent, j.fk_table);
            let b = find(&mut parent, j.pk_table);
            if a == b {
                return Err(StorageError::NonTreeJoin(format!(
                    "join edge {} -> {} creates a cycle",
                    j.fk_table, j.pk_table
                )));
            }
            parent[a] = b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn two_table_dataset() -> Dataset {
        let main = Table::with_columns(
            "main",
            vec![
                Column::primary_key("id", vec![1, 2, 3]),
                Column::data("x", vec![7, 8, 9]),
            ],
        )
        .unwrap();
        let fact = Table::with_columns(
            "fact",
            vec![
                Column::foreign_key("main_id", vec![1, 1, 2, 3]),
                Column::data("y", vec![4, 5, 6, 7]),
            ],
        )
        .unwrap();
        Dataset::new(
            "ds",
            vec![main, fact],
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
    fn build_and_lookup() {
        let ds = two_table_dataset();
        assert_eq!(ds.num_tables(), 2);
        assert_eq!(ds.total_rows(), 7);
        assert!(ds.join_between(0, 1).is_some());
        assert!(ds.join_between(1, 0).is_some());
        assert_eq!(ds.joins_of(0).len(), 1);
    }

    #[test]
    fn cycle_rejected() {
        let mut ds = two_table_dataset();
        // Add a second edge between the same pair: undirected cycle.
        ds.joins.push(JoinEdge {
            fk_table: 1,
            fk_col: 0,
            pk_table: 0,
            pk_col: 0,
        });
        assert!(matches!(ds.validate(), Err(StorageError::NonTreeJoin(_))));
    }

    #[test]
    fn bad_join_index_rejected() {
        let mut ds = two_table_dataset();
        ds.joins[0].pk_table = 9;
        assert!(matches!(
            ds.validate(),
            Err(StorageError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn shape_check_reads_no_row() {
        let good = two_table_dataset();
        assert!(good.validate_shape().is_ok());
        // Edge indices: table and column, on either side.
        let breaks: [fn(&mut JoinEdge); 4] = [
            |e| e.fk_table = 9,
            |e| e.pk_table = 9,
            |e| e.fk_col = usize::MAX,
            |e| e.pk_col = usize::MAX,
        ];
        for (i, break_edge) in breaks.iter().enumerate() {
            let mut ds = good.clone();
            break_edge(&mut ds.joins[0]);
            assert!(
                matches!(
                    ds.validate_shape(),
                    Err(StorageError::IndexOutOfRange { .. })
                ),
                "edge broken in way {i}"
            );
        }
        // A column shorter than its table.
        let mut ragged = good.clone();
        ragged.tables[1].columns[1].data.pop();
        assert!(matches!(
            ragged.validate_shape(),
            Err(StorageError::ColumnLengthMismatch { .. })
        ));
        // Row contents are not its business: a repeated primary key passes
        // here and fails the full check.
        let mut repeated = good.clone();
        repeated.tables[0].columns[0].data[1] = 1;
        assert!(repeated.validate_shape().is_ok());
        assert!(repeated.validate().is_err());
    }
}
