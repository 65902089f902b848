//! Predicate filtering over single tables.

use crate::query::Predicate;
use crate::table::Table;

/// Returns the row indices of `table` satisfying **all** predicates.
///
/// Predicates must already be restricted to this table (see
/// [`Query::predicates_on`](crate::query::Query::predicates_on)).
pub fn filter_table(table: &Table, predicates: &[&Predicate]) -> Vec<u32> {
    let n = table.num_rows();
    let mut out = Vec::new();
    'rows: for row in 0..n {
        for p in predicates {
            if !p.matches(table.columns[p.column].data[row]) {
                continue 'rows;
            }
        }
        out.push(row as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        Table::with_columns(
            "t",
            vec![
                Column::data("a", vec![1, 2, 3, 4, 5]),
                Column::data("b", vec![5, 4, 3, 2, 1]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn conjunction() {
        let t = table();
        let p1 = Predicate {
            table: 0,
            column: 0,
            lo: 2,
            hi: 4,
        };
        let p2 = Predicate {
            table: 0,
            column: 1,
            lo: 3,
            hi: 5,
        };
        let rows = filter_table(&t, &[&p1, &p2]);
        assert_eq!(rows, vec![1, 2]); // rows with a in 2..=4 and b in 3..=5
    }

    #[test]
    fn no_predicates_selects_everything() {
        let t = table();
        assert_eq!(filter_table(&t, &[]), vec![0, 1, 2, 3, 4]);
    }
}
