//! Uniform sampling from the full join result without materializing it.
//!
//! NeuroCard (and UAE) train an autoregressive model over *samples of the
//! full outer join of the base tables*. This module provides the equivalent
//! sampler for our PK-FK inner-join trees: it computes per-row subtree
//! weights (how many full-join rows each base row participates in) and then
//! draws exact uniform samples top-down, picking each child row with
//! probability proportional to its subtree weight.

use crate::column::Value;
use crate::dataset::Dataset;
use crate::error::StorageError;
use crate::query::Query;
use rand::Rng;
use std::collections::HashMap;

/// A sample of the join result.
#[derive(Debug, Clone)]
pub struct JoinSample {
    /// Schema of each output column as `(table index, column index)`.
    pub schema: Vec<(usize, usize)>,
    /// Sampled rows; each row is aligned with `schema`.
    pub rows: Vec<Vec<Value>>,
}

/// Draws `n` uniform samples from the join of `query.tables` along
/// `query.joins` (predicates on the query are ignored: the sampler always
/// samples the *full* join, as NeuroCard does at training time).
pub fn sample_join<R: Rng>(
    ds: &Dataset,
    query: &Query,
    n: usize,
    rng: &mut R,
) -> Result<JoinSample, StorageError> {
    let stripped = Query {
        tables: query.tables.clone(),
        joins: query.joins.clone(),
        predicates: Vec::new(),
    };
    stripped.validate(ds)?;

    let schema: Vec<(usize, usize)> = stripped
        .tables
        .iter()
        .flat_map(|&t| (0..ds.tables[t].num_columns()).map(move |c| (t, c)))
        .collect();

    // Tree structure rooted at the first query table.
    let root = stripped.tables[0];
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for &(a, b) in &stripped.joins {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default().push(a);
    }
    let mut order = Vec::new();
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut stack = vec![root];
    let mut seen: HashMap<usize, bool> = HashMap::new();
    while let Some(t) = stack.pop() {
        if seen.insert(t, true).is_some() {
            continue;
        }
        order.push(t);
        for &nb in adj.get(&t).into_iter().flatten() {
            if !seen.contains_key(&nb) {
                parent.insert(nb, t);
                stack.push(nb);
            }
        }
    }
    // Children in visit order, not in `parent`'s hash order: the draws
    // below follow this order, and a sample is a function of its seed.
    let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
    for &c in &order {
        if let Some(&p) = parent.get(&c) {
            children.entry(p).or_default().push(c);
        }
    }

    // Bottom-up subtree weights.
    let mut weights: HashMap<usize, Vec<u128>> = stripped
        .tables
        .iter()
        .map(|&t| (t, vec![1u128; ds.tables[t].num_rows()]))
        .collect();
    // For sampling we also need, per edge, an index from parent key to the
    // candidate child rows with cumulative weights.
    type KeyIndex = HashMap<Value, (Vec<u32>, Vec<u128>)>; // rows, cumulative weights
    let mut edge_index: HashMap<(usize, usize), KeyIndex> = HashMap::new();

    for &child in order.iter().rev() {
        let Some(&par) = parent.get(&child) else {
            continue;
        };
        let edge = ds
            .join_between(child, par)
            .expect("validated query edge must exist");
        let child_w = weights[&child].clone();
        // Key of each child row that the parent must match, and the parent's
        // own key column.
        let (child_key_col, parent_key_col) = if edge.fk_table == child {
            (edge.fk_col, edge.pk_col)
        } else {
            (edge.pk_col, edge.fk_col)
        };
        let ckeys = &ds.tables[child].columns[child_key_col].data;
        let mut index: KeyIndex = HashMap::new();
        for (row, &w) in child_w.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let entry = index.entry(ckeys[row]).or_default();
            let prev = entry.1.last().copied().unwrap_or(0);
            entry.0.push(row as u32);
            entry.1.push(prev + w);
        }
        let pkeys = &ds.tables[par].columns[parent_key_col].data;
        let par_w = weights.get_mut(&par).expect("parent weights");
        for (row, w) in par_w.iter_mut().enumerate() {
            let total = index
                .get(&pkeys[row])
                .and_then(|(_, cum)| cum.last().copied())
                .unwrap_or(0);
            *w = w.saturating_mul(total);
        }
        edge_index.insert((par, child), index);
    }

    // Root cumulative distribution.
    let root_w = &weights[&root];
    let mut root_cum: Vec<u128> = Vec::with_capacity(root_w.len());
    let mut acc = 0u128;
    for &w in root_w {
        acc += w;
        root_cum.push(acc);
    }
    if acc == 0 {
        return Ok(JoinSample {
            schema,
            rows: Vec::new(),
        });
    }

    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut chosen: HashMap<usize, u32> = HashMap::new();
        let target = rng.gen_range(0..acc);
        let root_row = partition_point(&root_cum, target);
        chosen.insert(root, root_row as u32);
        // Walk the tree in visit order; parents are always chosen first.
        for &t in &order {
            let Some(kids) = children.get(&t) else {
                continue;
            };
            let prow = chosen[&t] as usize;
            for &c in kids {
                let edge = ds.join_between(c, t).expect("edge exists");
                let parent_key_col = if edge.fk_table == c {
                    edge.pk_col
                } else {
                    edge.fk_col
                };
                let key = ds.tables[t].columns[parent_key_col].data[prow];
                let (rows_for_key, cum) = &edge_index[&(t, c)][&key];
                let total = *cum.last().expect("nonempty by construction");
                let tgt = rng.gen_range(0..total);
                let pos = partition_point(cum, tgt);
                chosen.insert(c, rows_for_key[pos]);
            }
        }
        let row: Vec<Value> = schema
            .iter()
            .map(|&(t, c)| ds.tables[t].columns[c].data[chosen[&t] as usize])
            .collect();
        rows.push(row);
    }
    Ok(JoinSample { schema, rows })
}

/// First index whose cumulative weight exceeds `target`.
fn partition_point(cum: &[u128], target: u128) -> usize {
    let mut lo = 0usize;
    let mut hi = cum.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cum[mid] <= target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::dataset::JoinEdge;
    use crate::exec::count::query_cardinality;
    use crate::table::Table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ds() -> Dataset {
        let main = Table::with_columns(
            "main",
            vec![
                Column::primary_key("id", vec![1, 2, 3]),
                Column::data("x", vec![10, 20, 30]),
            ],
        )
        .unwrap();
        let fact = Table::with_columns(
            "fact",
            vec![
                Column::foreign_key("main_id", vec![1, 1, 1, 2]),
                Column::data("y", vec![100, 200, 300, 400]),
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
    fn sample_distribution_matches_join() {
        let ds = ds();
        let q = Query {
            tables: vec![0, 1],
            joins: vec![(1, 0)],
            predicates: vec![],
        };
        let card = query_cardinality(&ds, &q).unwrap(); // 4 join rows
        assert_eq!(card, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let s = sample_join(&ds, &q, 4000, &mut rng).unwrap();
        assert_eq!(s.rows.len(), 4000);
        assert_eq!(s.schema.len(), 4); // 2 cols per table
                                       // P(main id = 1) should be 3/4 (three fact rows reference id 1).
        let id_col = 0; // (table 0, col 0)
        let ones = s.rows.iter().filter(|r| r[id_col] == 1).count();
        let frac = ones as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.05, "frac = {frac}");
        // main id = 3 never appears in the inner join.
        assert!(s.rows.iter().all(|r| r[id_col] != 3));
    }

    #[test]
    fn a_sample_is_a_function_of_its_seed() {
        // A root with four children: the sampler draws one row per child,
        // in an order that used to follow a `HashMap` walk.
        let root = Table::with_columns(
            "root",
            vec![
                Column::primary_key("id", (1..=6).collect()),
                Column::data("x", (10..16).collect()),
            ],
        )
        .unwrap();
        let mut tables = vec![root];
        let mut joins = Vec::new();
        for c in 1..=4 {
            let fk: Vec<Value> = (0..30).map(|r| 1 + (r * c) % 6).collect();
            let y: Vec<Value> = (0..30).map(|r| 100 * c + r).collect();
            let child = Table::with_columns(
                format!("child{c}"),
                vec![Column::foreign_key("root_id", fk), Column::data("y", y)],
            )
            .unwrap();
            tables.push(child);
            joins.push(JoinEdge {
                fk_table: c as usize,
                fk_col: 0,
                pk_table: 0,
                pk_col: 0,
            });
        }
        let ds = Dataset::new("star", tables, joins).unwrap();
        let q = Query {
            tables: vec![0, 1, 2, 3, 4],
            joins: vec![(1, 0), (2, 0), (3, 0), (4, 0)],
            predicates: vec![],
        };
        let draw = || {
            let mut rng = StdRng::seed_from_u64(11);
            sample_join(&ds, &q, 200, &mut rng).unwrap().rows
        };
        let first = draw();
        assert_eq!(first.len(), 200);
        for _ in 0..4 {
            assert_eq!(draw(), first);
        }
    }

    #[test]
    fn empty_join_yields_no_rows() {
        let main = Table::with_columns("m", vec![Column::primary_key("id", vec![1])]).unwrap();
        let fact = Table::with_columns("f", vec![Column::foreign_key("m_id", vec![2, 2])]).unwrap();
        let ds = Dataset::new(
            "e",
            vec![main, fact],
            vec![JoinEdge {
                fk_table: 1,
                fk_col: 0,
                pk_table: 0,
                pk_col: 0,
            }],
        )
        .unwrap();
        let q = Query {
            tables: vec![0, 1],
            joins: vec![(1, 0)],
            predicates: vec![],
        };
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_join(&ds, &q, 10, &mut rng).unwrap();
        assert!(s.rows.is_empty());
    }
}
