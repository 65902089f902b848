//! Exact cardinality of acyclic SPJ queries.
//!
//! Uses the classic Yannakakis bottom-up weighted count: each table starts
//! with per-row weights of 1 (filtered rows) or 0, and every join edge folds
//! the child table's weights into the parent through the join key. The total
//! weight at the root equals the exact join-result cardinality, in time
//! linear in the table sizes — this is what lets the testbed label thousands
//! of datasets with ground truth quickly (paper Stage 1, steps 4-6).
//!
//! # The prepared counter
//!
//! A workload asks many queries of one dataset, and every query that
//! crosses a join edge needs the same fact about it: which rows of the two
//! tables carry the same key. [`CardinalityCounter`] works that out once
//! per edge, on the edge's first use, as **dense key ids** — one `u32` per
//! row of the PK column and of the FK column, equal exactly when the keys
//! are. A fold is then two passes over plain arrays,
//! `acc[fk_id[row]] += w` and `w[row] *= acc[pk_id[row]]`, with no hashing
//! per query.
//!
//! The ids come from one of two tables, chosen by `direct_ids` from the
//! key span and the row count alone (no knob; the same kind of rule as the
//! statistics kernels' `dense_words`):
//!
//! * **direct** — `id = key − min` when the span `min..=max` over both
//!   columns holds no more values than the two columns have rows, so the
//!   accumulator is no larger than the data (generated keys are `1..=n`);
//! * **hashed** — otherwise one `HashMap` built per edge numbers the
//!   distinct keys in first-seen order (sparse keys over the whole `i64`
//!   range).
//!
//! Duplicate primary keys and dangling foreign keys behave as they did
//! under per-query key maps: a foreign key without a match contributes
//! nothing, and among child rows sharing a primary key the last selected
//! one is the one a referencing parent row sees.
//!
//! A counter borrows its dataset and owns scratch buffers; it is built per
//! workload (or per call, by [`query_cardinality`]) and never shared
//! between threads.

use crate::column::Value;
use crate::dataset::Dataset;
use crate::error::StorageError;
use crate::exec::filter::selection_bitmap;
use crate::query::Query;
use std::collections::HashMap;

/// Computes the exact result cardinality of `query` against `ds`.
///
/// The query must validate (connected acyclic join subgraph). Intermediate
/// weights use saturating `u128` so deep star joins cannot overflow; the
/// final count saturates at `u64::MAX`. One-shot form of
/// [`CardinalityCounter`]; callers with a workload should build the counter
/// once.
pub fn query_cardinality(ds: &Dataset, query: &Query) -> Result<u64, StorageError> {
    CardinalityCounter::new(ds).count(query)
}

/// The direct/hashed rule: `Some(ids)` when numbering the keys of
/// `min..=max` by `key − min` takes no more ids than the edge's two columns
/// have rows, else `None`. A function of the span and the row count only.
#[inline]
fn direct_ids(min: Value, max: Value, rows: usize) -> Option<usize> {
    let ids = i128::from(max) - i128::from(min) + 1;
    (ids <= rows as i128).then_some(ids as usize)
}

/// Dense key ids of one join edge: rows of the PK and FK column share an id
/// exactly when they share a key.
#[derive(Default)]
struct EdgeKeys {
    pk_id: Vec<u32>,
    fk_id: Vec<u32>,
    /// Ids are `0..num_ids`.
    num_ids: usize,
}

impl EdgeKeys {
    fn build(pk: &[Value], fk: &[Value]) -> Self {
        let rows = pk.len() + fk.len();
        assert!(
            u32::try_from(rows).is_ok(),
            "join edge rows fit u32 key ids"
        );
        let keys = || pk.iter().chain(fk).copied();
        let (Some(min), Some(max)) = (keys().min(), keys().max()) else {
            return EdgeKeys::default();
        };
        if let Some(num_ids) = direct_ids(min, max, rows) {
            // `direct_ids` bounds `v - min` by the row count.
            let id = |&v: &Value| v.wrapping_sub(min) as u32;
            return EdgeKeys {
                pk_id: pk.iter().map(id).collect(),
                fk_id: fk.iter().map(id).collect(),
                num_ids,
            };
        }
        // Ids follow first appearance, so they never depend on the map's
        // iteration order.
        let mut seen: HashMap<Value, u32> = HashMap::new();
        let mut id = |&v: &Value| {
            let next = seen.len() as u32;
            *seen.entry(v).or_insert(next)
        };
        let pk_id = pk.iter().map(&mut id).collect();
        let fk_id = fk.iter().map(&mut id).collect();
        EdgeKeys {
            pk_id,
            fk_id,
            num_ids: seen.len(),
        }
    }
}

/// Exact cardinalities of many queries over one dataset (see the module
/// notes): join-key ids are prepared once per edge, on first use, and the
/// per-table weight buffers are reused from query to query.
pub struct CardinalityCounter<'a> {
    ds: &'a Dataset,
    /// Per entry of `ds.joins`, its key ids once a query has crossed it.
    edges: Vec<Option<EdgeKeys>>,
    /// Per table, its row weights during a count.
    weights: Vec<Vec<u128>>,
    /// Per key id of the edge being folded, the child weight under it.
    acc: Vec<u128>,
}

impl<'a> CardinalityCounter<'a> {
    /// A counter over `ds`; nothing is prepared until a query needs it.
    pub fn new(ds: &'a Dataset) -> Self {
        CardinalityCounter {
            ds,
            edges: ds.joins.iter().map(|_| None).collect(),
            weights: vec![Vec::new(); ds.num_tables()],
            acc: Vec::new(),
        }
    }

    /// Computes the exact result cardinality of `query`.
    ///
    /// The query must validate (connected acyclic join subgraph).
    /// Intermediate weights use saturating `u128`; the final count saturates
    /// at `u64::MAX`.
    pub fn count(&mut self, query: &Query) -> Result<u64, StorageError> {
        let ds = self.ds;
        query.validate(ds)?;

        // Per-query-table selection weights.
        for &t in &query.tables {
            let sel = selection_bitmap(ds.table(t)?, &query.predicates_on(t));
            let w = &mut self.weights[t];
            w.clear();
            w.extend(sel.into_iter().map(u128::from));
        }

        // Iterative DFS from the first query table; a table's neighbours
        // are met in the order the query lists its join edges.
        let root = query.tables[0];
        let mut order = Vec::with_capacity(query.tables.len());
        let mut parent = vec![usize::MAX; ds.num_tables()];
        let mut visited = vec![false; ds.num_tables()];
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            if std::mem::replace(&mut visited[t], true) {
                continue;
            }
            order.push(t);
            for &(a, b) in &query.joins {
                let n = if a == t {
                    b
                } else if b == t {
                    a
                } else {
                    continue;
                };
                if !visited[n] {
                    parent[n] = t;
                    stack.push(n);
                }
            }
        }

        // Fold children into parents in reverse visit order.
        for &child in order.iter().rev() {
            let par = parent[child];
            if par == usize::MAX {
                continue; // root
            }
            let e = ds
                .join_position(child, par)
                .expect("validated query edge must exist");
            let edge = &ds.joins[e];
            let keys = self.edges[e].get_or_insert_with(|| {
                EdgeKeys::build(
                    &ds.tables[edge.pk_table].columns[edge.pk_col].data,
                    &ds.tables[edge.fk_table].columns[edge.fk_col].data,
                )
            });
            self.acc.clear();
            self.acc.resize(keys.num_ids, 0);
            let acc = &mut self.acc;
            let child_w = std::mem::take(&mut self.weights[child]);
            let par_w = &mut self.weights[par];
            let par_id = if edge.fk_table == child {
                // Child rows reference parent PKs: sum child weight per key.
                for (&id, &w) in keys.fk_id.iter().zip(&child_w) {
                    acc[id as usize] = acc[id as usize].saturating_add(w);
                }
                &keys.pk_id
            } else {
                // Parent rows reference child PKs: child PK is unique (of
                // repeated ones the last selected row wins).
                for (&id, &w) in keys.pk_id.iter().zip(&child_w) {
                    if w > 0 {
                        acc[id as usize] = w;
                    }
                }
                &keys.fk_id
            };
            for (&id, w) in par_id.iter().zip(par_w.iter_mut()) {
                if *w > 0 {
                    *w = w.saturating_mul(acc[id as usize]);
                }
            }
            // Hand the buffer back for the next query.
            self.weights[child] = child_w;
        }

        let total = self.weights[root]
            .iter()
            .fold(0u128, |sum, &w| sum.saturating_add(w));
        Ok(total.min(u128::from(u64::MAX)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The counter this module replaced: key maps, weights, adjacency,
    /// parents and visited set rebuilt as `HashMap`s per edge per query.
    /// Its `u128` additions wrap where the prepared counter saturates; no
    /// test input comes near either.
    mod oracle {
        use crate::dataset::Dataset;
        use crate::error::StorageError;
        use crate::exec::filter::selection_bitmap;
        use crate::query::Query;
        use std::collections::HashMap;

        pub fn query_cardinality(ds: &Dataset, query: &Query) -> Result<u64, StorageError> {
            query.validate(ds)?;

            // Per-query-table selection weights.
            let mut weights: HashMap<usize, Vec<u128>> = HashMap::new();
            for &t in &query.tables {
                let table = ds.table(t)?;
                let preds = query.predicates_on(t);
                let sel = selection_bitmap(table, &preds);
                weights.insert(t, sel.into_iter().map(|b| b as u128).collect());
            }

            if query.tables.len() == 1 {
                let total: u128 = weights[&query.tables[0]].iter().sum();
                return Ok(total.min(u64::MAX as u128) as u64);
            }

            // Adjacency over query join edges.
            let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
            for &(a, b) in &query.joins {
                adj.entry(a).or_default().push(b);
                adj.entry(b).or_default().push(a);
            }

            // Iterative post-order DFS from the first query table.
            let root = query.tables[0];
            let mut order = Vec::with_capacity(query.tables.len());
            let mut parent: HashMap<usize, usize> = HashMap::new();
            let mut stack = vec![root];
            let mut visited: HashMap<usize, bool> = HashMap::new();
            while let Some(t) = stack.pop() {
                if visited.insert(t, true).is_some() {
                    continue;
                }
                order.push(t);
                for &n in adj.get(&t).into_iter().flatten() {
                    if !visited.contains_key(&n) {
                        parent.insert(n, t);
                        stack.push(n);
                    }
                }
            }

            // Fold children into parents in reverse visit order.
            for &child in order.iter().rev() {
                let Some(&par) = parent.get(&child) else {
                    continue; // root
                };
                let edge = ds
                    .join_between(child, par)
                    .expect("validated query edge must exist");
                let child_w = weights.remove(&child).expect("child weights present");
                let par_w = weights.get_mut(&par).expect("parent weights present");
                if edge.fk_table == child {
                    // Child rows reference parent PKs: sum child weight per key.
                    let fk = &ds.tables[child].columns[edge.fk_col].data;
                    let mut by_key: HashMap<i64, u128> = HashMap::new();
                    for (row, &w) in child_w.iter().enumerate() {
                        if w > 0 {
                            *by_key.entry(fk[row]).or_insert(0) += w;
                        }
                    }
                    let pk = &ds.tables[par].columns[edge.pk_col].data;
                    for (row, w) in par_w.iter_mut().enumerate() {
                        if *w > 0 {
                            *w = w.saturating_mul(*by_key.get(&pk[row]).unwrap_or(&0));
                        }
                    }
                } else {
                    // Parent rows reference child PKs: child PK is unique.
                    let pk = &ds.tables[child].columns[edge.pk_col].data;
                    let mut by_key: HashMap<i64, u128> = HashMap::with_capacity(child_w.len());
                    for (row, &w) in child_w.iter().enumerate() {
                        if w > 0 {
                            by_key.insert(pk[row], w);
                        }
                    }
                    let fk = &ds.tables[par].columns[edge.fk_col].data;
                    for (row, w) in par_w.iter_mut().enumerate() {
                        if *w > 0 {
                            *w = w.saturating_mul(*by_key.get(&fk[row]).unwrap_or(&0));
                        }
                    }
                }
            }

            let total: u128 = weights[&root].iter().sum();
            Ok(total.min(u64::MAX as u128) as u64)
        }
    }
    use crate::column::Column;
    use crate::dataset::JoinEdge;
    use crate::query::Predicate;
    use crate::table::Table;

    /// main(id, x) ; fact(main_id, y): fan-outs 2,1,0 for ids 1,2,3.
    fn star() -> Dataset {
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
                Column::foreign_key("main_id", vec![1, 1, 2]),
                Column::data("y", vec![100, 200, 300]),
            ],
        )
        .unwrap();
        Dataset::new(
            "star",
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
    fn single_table_count() {
        let ds = star();
        let q = Query::single_table(
            0,
            vec![Predicate {
                table: 0,
                column: 1,
                lo: 15,
                hi: 35,
            }],
        );
        assert_eq!(query_cardinality(&ds, &q).unwrap(), 2);
    }

    #[test]
    fn join_count_no_predicates() {
        let ds = star();
        let q = Query {
            tables: vec![0, 1],
            joins: vec![(1, 0)],
            predicates: vec![],
        };
        // Full join: 3 fact rows each match exactly one main row.
        assert_eq!(query_cardinality(&ds, &q).unwrap(), 3);
    }

    #[test]
    fn join_count_with_predicates_both_sides() {
        let ds = star();
        let q = Query {
            tables: vec![0, 1],
            joins: vec![(1, 0)],
            predicates: vec![
                Predicate {
                    table: 0,
                    column: 1,
                    lo: 10,
                    hi: 10,
                }, // main id=1 only
                Predicate {
                    table: 1,
                    column: 1,
                    lo: 150,
                    hi: 400,
                }, // fact rows 1,2
            ],
        };
        // main id=1 joins fact rows {0,1}; of those only row 1 passes y-pred.
        assert_eq!(query_cardinality(&ds, &q).unwrap(), 1);
    }

    /// Chain a -> b -> c with multiplicities, exercising both edge
    /// directions relative to the DFS root.
    #[test]
    fn chain_count_matches_bruteforce() {
        let a = Table::with_columns(
            "a",
            vec![
                Column::primary_key("id", vec![1, 2]),
                Column::data("v", vec![1, 2]),
            ],
        )
        .unwrap();
        let b = Table::with_columns(
            "b",
            vec![
                Column::primary_key("id", vec![10, 20, 30]),
                Column::foreign_key("a_id", vec![1, 1, 2]),
            ],
        )
        .unwrap();
        let c = Table::with_columns(
            "c",
            vec![
                Column::foreign_key("b_id", vec![10, 10, 20, 30, 30]),
                Column::data("w", vec![1, 2, 3, 4, 5]),
            ],
        )
        .unwrap();
        let ds = Dataset::new(
            "chain",
            vec![a, b, c],
            vec![
                JoinEdge {
                    fk_table: 1,
                    fk_col: 1,
                    pk_table: 0,
                    pk_col: 0,
                },
                JoinEdge {
                    fk_table: 2,
                    fk_col: 0,
                    pk_table: 1,
                    pk_col: 0,
                },
            ],
        )
        .unwrap();

        // Brute force: every (a,b,c) row triple with matching keys.
        let mut expected = 0u64;
        for ra in 0..2 {
            for rb in 0..3 {
                if ds.tables[1].columns[1].data[rb] != ds.tables[0].columns[0].data[ra] {
                    continue;
                }
                for rc in 0..5 {
                    if ds.tables[2].columns[0].data[rc] == ds.tables[1].columns[0].data[rb] {
                        expected += 1;
                    }
                }
            }
        }
        let q = Query {
            tables: vec![0, 1, 2],
            joins: vec![(1, 0), (2, 1)],
            predicates: vec![],
        };
        assert_eq!(query_cardinality(&ds, &q).unwrap(), expected);
        // Root the DFS differently by listing tables in another order.
        let q2 = Query {
            tables: vec![2, 1, 0],
            joins: vec![(1, 0), (2, 1)],
            predicates: vec![],
        };
        assert_eq!(query_cardinality(&ds, &q2).unwrap(), expected);
    }

    #[test]
    fn empty_result() {
        let ds = star();
        let q = Query {
            tables: vec![0, 1],
            joins: vec![(1, 0)],
            predicates: vec![Predicate {
                table: 1,
                column: 1,
                lo: 999,
                hi: 1000,
            }],
        };
        assert_eq!(query_cardinality(&ds, &q).unwrap(), 0);
    }

    /// A tree of up to four tables `(id PK, x data, ref FK → an earlier
    /// table)`, built field by field: validation would reject the repeated
    /// and dangling keys these tests are about. `kind` shapes the keys:
    /// unique dense PKs with some dangling FKs, heavy duplicates on both
    /// sides, or sparse values over the whole `i64` range (the hashed ids).
    fn key_tree(kind: usize, rows: &[usize], raw: &[Value]) -> Dataset {
        const SPARSE: [Value; 6] = [i64::MIN, -7, 0, 1 << 40, i64::MAX - 1, i64::MAX];
        let mut draws = raw.iter().copied().cycle();
        let mut draw = |modulus: i64| draws.next().expect("raw is not empty").rem_euclid(modulus);
        let mut tables = Vec::new();
        let mut joins = Vec::new();
        for (t, &n) in rows.iter().enumerate() {
            let pk: Vec<Value> = (0..n)
                .map(|row| match kind % 3 {
                    0 => row as Value + 1,
                    1 => draw(4),
                    _ => SPARSE[draw(6) as usize],
                })
                .collect();
            let mut table = Table::new(format!("t{t}"));
            table.columns.push(Column::primary_key("id", pk));
            let x = (0..n).map(|_| draw(10)).collect();
            table.columns.push(Column::data("x", x));
            if t > 0 {
                let pk_table = draw(t as i64) as usize;
                let fk = (0..n)
                    .map(|_| match kind % 3 {
                        0 => draw(rows[pk_table] as i64 + 2),
                        1 => draw(6),
                        _ => SPARSE[draw(6) as usize].saturating_add(draw(2)),
                    })
                    .collect();
                table.columns.push(Column::foreign_key("ref", fk));
                joins.push(JoinEdge {
                    fk_table: t,
                    fk_col: 2,
                    pk_table,
                    pk_col: 0,
                });
            }
            tables.push(table);
        }
        Dataset {
            name: "tree".into(),
            tables,
            joins,
        }
    }

    proptest! {
        #[test]
        fn prepared_counter_matches_hash_map_oracle(
            raw in prop::collection::vec(i64::MIN..=i64::MAX, 16..200),
            rows in prop::collection::vec(0usize..9, 1..5),
            kind in 0usize..3,
            lo in 0i64..10,
            width in -2i64..8,
        ) {
            let ds = key_tree(kind, &rows, &raw);
            let mut counter = CardinalityCounter::new(&ds);
            // Every connected prefix of the tree (a table only references
            // earlier ones), rooted at each of its tables in turn, so every
            // edge is folded in both directions; one counter serves all.
            for m in 1..=rows.len() {
                for root in 0..m {
                    let mut tables: Vec<usize> = (0..m).collect();
                    tables.rotate_left(root);
                    let q = Query {
                        tables,
                        joins: ds.joins[..m - 1].iter().map(|j| (j.fk_table, j.pk_table)).collect(),
                        // A selective range on one table, sometimes empty
                        // (`width < 0`), sometimes on all of them.
                        predicates: (0..m)
                            .filter(|t| (t + root) % 2 == 0 || width > 5)
                            .map(|table| Predicate { table, column: 1, lo, hi: lo + width })
                            .collect(),
                    };
                    let want = oracle::query_cardinality(&ds, &q);
                    prop_assert_eq!(counter.count(&q), want.clone());
                    prop_assert_eq!(query_cardinality(&ds, &q), want);
                }
            }
            // Invalid queries fail the same way, and leave the counter usable.
            let bad = Query { tables: vec![0, rows.len()], joins: vec![], predicates: vec![] };
            prop_assert_eq!(counter.count(&bad), oracle::query_cardinality(&ds, &bad));
            let all = Query::single_table(0, vec![]);
            prop_assert_eq!(counter.count(&all), Ok(rows[0] as u64));
        }
    }

    #[test]
    fn key_ids_take_both_paths() {
        // Direct: keys 1..=4 over 4 + 3 rows. Hashed: two keys 2⁴⁰ apart.
        assert_eq!(direct_ids(1, 4, 7), Some(4));
        assert_eq!(direct_ids(0, 1 << 40, 5), None);
        assert_eq!(direct_ids(i64::MIN, i64::MAX, usize::MAX), None);
        // The cut-over is `ids <= rows`.
        assert_eq!(direct_ids(-3, 3, 7), Some(7));
        assert_eq!(direct_ids(-3, 4, 7), None);
        let direct = EdgeKeys::build(&[1, 2, 3, 4], &[4, 4, 1]);
        assert_eq!(
            (direct.pk_id, direct.fk_id),
            (vec![0, 1, 2, 3], vec![3, 3, 0])
        );
        assert_eq!(direct.num_ids, 4);
        let hashed = EdgeKeys::build(&[i64::MAX, i64::MIN], &[7, i64::MIN, 7]);
        assert_eq!((hashed.pk_id, hashed.fk_id), (vec![0, 1], vec![2, 1, 2]));
        assert_eq!(hashed.num_ids, 3);
        assert_eq!(EdgeKeys::build(&[], &[]).num_ids, 0);
    }

    #[test]
    fn weights_saturate_instead_of_wrapping() {
        // Eight fact tables of 2¹⁶ rows around one key: (2¹⁶)⁸ = 2¹²⁸ join
        // rows overflow `u128` by one bit; the count clamps to `u64::MAX`.
        let fan = 1usize << 16;
        let mut tables =
            vec![Table::with_columns("hub", vec![Column::primary_key("id", vec![1])]).unwrap()];
        let mut joins = Vec::new();
        for t in 1..=8 {
            tables.push(
                Table::with_columns(
                    format!("f{t}"),
                    vec![Column::foreign_key("hub_id", vec![1; fan])],
                )
                .unwrap(),
            );
            joins.push(JoinEdge {
                fk_table: t,
                fk_col: 0,
                pk_table: 0,
                pk_col: 0,
            });
        }
        let ds = Dataset::new("fan", tables, joins).unwrap();
        let q = Query {
            tables: (0..=8).collect(),
            joins: (1..=8).map(|t| (t, 0)).collect(),
            predicates: vec![],
        };
        assert_eq!(query_cardinality(&ds, &q).unwrap(), u64::MAX);
        // Rooted at a fact table the hub's weight (2¹¹²) is *added* 2¹⁶
        // times on the way up — the sum that used to wrap to zero.
        let q = Query {
            tables: vec![1, 0, 2, 3, 4, 5, 6, 7, 8],
            ..q
        };
        assert_eq!(query_cardinality(&ds, &q).unwrap(), u64::MAX);
    }
}
