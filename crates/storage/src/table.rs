//! Tables: ordered collections of equal-length columns.

use crate::column::{Column, ColumnRole};
use crate::error::StorageError;
use crate::stats::first_duplicate;
use serde::{Deserialize, Serialize};

/// A named table of equal-length columns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Table name (unique within its dataset).
    pub name: String,
    /// Columns in schema order.
    pub columns: Vec<Column>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Creates a table from columns, checking that all lengths agree.
    pub fn with_columns(
        name: impl Into<String>,
        columns: Vec<Column>,
    ) -> Result<Self, StorageError> {
        let mut t = Table::new(name);
        for c in columns {
            t.push_column(c)?;
        }
        Ok(t)
    }

    /// Appends a column, checking row-count consistency.
    pub fn push_column(&mut self, column: Column) -> Result<(), StorageError> {
        if let Some(first) = self.columns.first() {
            if first.len() != column.len() {
                return Err(StorageError::ColumnLengthMismatch {
                    table: self.name.clone(),
                    expected: first.len(),
                    got: column.len(),
                });
            }
        }
        self.columns.push(column);
        Ok(())
    }

    /// Number of rows (0 for a table with no columns).
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column access by index.
    pub fn column(&self, idx: usize) -> Result<&Column, StorageError> {
        self.columns.get(idx).ok_or(StorageError::IndexOutOfRange {
            what: "column",
            index: idx,
        })
    }

    /// Indices of the non-key (plain data) columns.
    pub fn data_column_indices(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_key())
            .map(|(i, _)| i)
            .collect()
    }

    /// Index of the primary-key column, if the table has one.
    pub fn primary_key_index(&self) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.role == ColumnRole::PrimaryKey)
    }

    /// The half of [`Self::validate`] that reads no row: every column as
    /// long as the first (`columns` is `pub`, so a table built field by
    /// field may be ragged).
    pub(crate) fn validate_shape(&self) -> Result<(), StorageError> {
        let n = self.num_rows();
        for c in &self.columns {
            if c.len() != n {
                return Err(StorageError::ColumnLengthMismatch {
                    table: self.name.clone(),
                    expected: n,
                    got: c.len(),
                });
            }
        }
        Ok(())
    }

    /// Validates internal consistency: equal column lengths and primary-key
    /// uniqueness.
    pub fn validate(&self) -> Result<(), StorageError> {
        self.validate_shape()?;
        if let Some(pk) = self.primary_key_index() {
            if let Some(v) = first_duplicate(&self.columns[pk].data) {
                return Err(StorageError::NonTreeJoin(format!(
                    "duplicate primary key value {v} in table `{}`",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatched_column_rejected() {
        let mut t = Table::new("t");
        t.push_column(Column::data("a", vec![1, 2, 3])).unwrap();
        let err = t.push_column(Column::data("b", vec![1])).unwrap_err();
        assert!(matches!(err, StorageError::ColumnLengthMismatch { .. }));
    }

    #[test]
    fn pk_uniqueness_checked() {
        let t = Table::with_columns("t", vec![Column::primary_key("id", vec![1, 2, 2])]).unwrap();
        assert!(t.validate().is_err());
        // The message names the first row value that repeats an earlier one.
        let t = Table::with_columns("t", vec![Column::primary_key("id", vec![5, 3, 9, 3, 5, 5])])
            .unwrap();
        let msg = t.validate().unwrap_err().to_string();
        assert!(msg.contains("value 3 in table `t`"), "{msg}");
    }

    #[test]
    fn lookup_helpers() {
        let t = Table::with_columns(
            "t",
            vec![
                Column::primary_key("id", vec![1, 2]),
                Column::data("x", vec![10, 20]),
                Column::foreign_key("fk", vec![1, 1]),
            ],
        )
        .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.primary_key_index(), Some(0));
        assert_eq!(t.data_column_indices(), vec![1]);
        let row: Vec<crate::Value> = t.columns.iter().map(|c| c.data[1]).collect();
        assert_eq!(row, vec![2, 20, 1]);
    }
}
