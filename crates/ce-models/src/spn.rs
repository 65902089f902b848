//! DeepDB — relational sum-product networks (Hilprecht et al., VLDB 2020).
//!
//! Per-table SPNs learned exactly like the original: **sum nodes** split rows
//! into clusters (k-means, the paper's "row clusters"), **product nodes**
//! split columns into independent groups ("column clusters", via pairwise
//! correlation), and **leaves** hold per-column histograms over their row
//! subset. Probability of a conjunctive range query is evaluated bottom-up.
//! Join queries go through the fanout-style [`JoinIndex`].

use crate::joinglue::JoinIndex;
use crate::traits::{CardEstimator, ModelKind, TrainContext};
use ce_nn::kmeans;
use ce_storage::stats::EquiDepthHistogram;
use ce_storage::{Column, Dataset, Query, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Pearson threshold above which two columns land in the same product group.
const CORR_THRESHOLD: f64 = 0.3;
/// Minimum rows for a sum split.
const MIN_ROWS: usize = 16;
/// Maximum recursion depth.
const MAX_DEPTH: usize = 8;
/// Histogram buckets at leaves.
const LEAF_BUCKETS: usize = 40;

/// One SPN over a subset of a table's columns.
#[derive(Debug, Clone)]
enum SpnNode {
    /// Weighted mixture over row clusters.
    Sum {
        weights: Vec<f64>,
        children: Vec<SpnNode>,
    },
    /// Product over independent column groups.
    Product { children: Vec<SpnNode> },
    /// Histogram over one column's rows.
    Leaf {
        col: usize,
        hist: EquiDepthHistogram,
    },
}

impl SpnNode {
    /// Probability of the conjunctive ranges (keyed by table column index).
    fn prob(&self, ranges: &HashMap<usize, (Value, Value)>) -> f64 {
        match self {
            SpnNode::Leaf { col, hist } => match ranges.get(col) {
                Some(&(lo, hi)) => hist.selectivity(lo, hi),
                None => 1.0,
            },
            SpnNode::Product { children } => children.iter().map(|c| c.prob(ranges)).product(),
            SpnNode::Sum { weights, children } => weights
                .iter()
                .zip(children)
                .map(|(w, c)| w * c.prob(ranges))
                .sum(),
        }
    }
}

/// SPN for a whole table.
#[derive(Debug, Clone)]
struct TableSpn {
    root: SpnNode,
    num_rows: f64,
}

impl TableSpn {
    fn learn(table: &Table, rng: &mut StdRng) -> Self {
        let cols = table.data_column_indices();
        let rows: Vec<u32> = (0..table.num_rows() as u32).collect();
        let root = if cols.is_empty() {
            // Key-only table: constant probability 1.
            SpnNode::Product { children: vec![] }
        } else {
            learn_node(table, &rows, &cols, 0, rng)
        };
        TableSpn {
            root,
            num_rows: table.num_rows() as f64,
        }
    }

    fn selectivity(&self, ranges: &HashMap<usize, (Value, Value)>) -> f64 {
        self.root.prob(ranges).clamp(0.0, 1.0)
    }
}

fn subset_column(table: &Table, col: usize, rows: &[u32]) -> Column {
    Column::data(
        table.columns[col].name.clone(),
        rows.iter()
            .map(|&r| table.columns[col].data[r as usize])
            .collect(),
    )
}

fn leaf(table: &Table, col: usize, rows: &[u32]) -> SpnNode {
    let column = subset_column(table, col, rows);
    SpnNode::Leaf {
        col,
        hist: EquiDepthHistogram::build(&column, LEAF_BUCKETS),
    }
}

fn learn_node(
    table: &Table,
    rows: &[u32],
    cols: &[usize],
    depth: usize,
    rng: &mut StdRng,
) -> SpnNode {
    if cols.len() == 1 {
        return leaf(table, cols[0], rows);
    }
    if depth >= MAX_DEPTH || rows.len() < MIN_ROWS {
        // Independence fallback: product of leaves.
        return SpnNode::Product {
            children: cols.iter().map(|&c| leaf(table, c, rows)).collect(),
        };
    }

    // Try a column split: group correlated columns via union-find.
    let groups = correlation_groups(table, rows, cols);
    if groups.len() > 1 {
        return SpnNode::Product {
            children: groups
                .into_iter()
                .map(|g| learn_node(table, rows, &g, depth + 1, rng))
                .collect(),
        };
    }

    // Row split: k-means with k = 2 on min-max normalized values.
    let bounds: Vec<(Value, Value)> = cols.iter().map(|&c| table.columns[c].bounds()).collect();
    let points: Vec<Vec<f32>> = rows
        .iter()
        .map(|&r| {
            cols.iter()
                .zip(&bounds)
                .map(|(&c, &(lo, hi))| {
                    if hi <= lo {
                        0.0
                    } else {
                        ((table.columns[c].data[r as usize] - lo) as f32) / ((hi - lo) as f32)
                    }
                })
                .collect()
        })
        .collect();
    let result = kmeans(&points, 2, 12, rng);
    let mut cluster_rows: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
    for (i, &r) in rows.iter().enumerate() {
        cluster_rows[result.assignments[i]].push(r);
    }
    if cluster_rows.iter().any(|c| c.is_empty()) {
        // Degenerate clustering: fall back to independence.
        return SpnNode::Product {
            children: cols.iter().map(|&c| leaf(table, c, rows)).collect(),
        };
    }
    let total = rows.len() as f64;
    let weights: Vec<f64> = cluster_rows
        .iter()
        .map(|c| c.len() as f64 / total)
        .collect();
    let children = cluster_rows
        .iter()
        .map(|cr| learn_node(table, cr, cols, depth + 1, rng))
        .collect();
    SpnNode::Sum { weights, children }
}

/// Partitions `cols` into groups of mutually correlated columns.
fn correlation_groups(table: &Table, rows: &[u32], cols: &[usize]) -> Vec<Vec<usize>> {
    let n = cols.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut Vec<usize>, x: usize) -> usize {
        if p[x] != x {
            let r = find(p, p[x]);
            p[x] = r;
        }
        p[x]
    }
    // Sample rows for the correlation test to stay cheap on big tables.
    let sample: Vec<u32> = if rows.len() > 2_000 {
        let step = rows.len() / 2_000;
        rows.iter().step_by(step.max(1)).copied().collect()
    } else {
        rows.to_vec()
    };
    let sub: Vec<Column> = cols
        .iter()
        .map(|&c| subset_column(table, c, &sample))
        .collect();
    for i in 0..n {
        for j in i + 1..n {
            let rho = ce_storage::stats::pearson(&sub[i], &sub[j]).abs();
            if rho > CORR_THRESHOLD {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, &col) in cols.iter().enumerate().take(n) {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(col);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort();
    out
}

/// Trained DeepDB model: one SPN per table plus the join index.
pub struct DeepDb {
    spns: Vec<TableSpn>,
    join_index: JoinIndex,
}

impl DeepDb {
    /// Learns the per-table SPNs and the join index.
    pub fn train(ctx: &TrainContext<'_>) -> Self {
        Self::learn(ctx.dataset, ctx.seed)
    }

    /// Direct data-driven construction.
    pub fn learn(ds: &Dataset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdeeb);
        DeepDb {
            spns: ds
                .tables
                .iter()
                .map(|t| TableSpn::learn(t, &mut rng))
                .collect(),
            join_index: JoinIndex::build(ds),
        }
    }

    fn table_selectivity(&self, query: &Query, table: usize) -> f64 {
        let ranges: HashMap<usize, (Value, Value)> = query
            .predicates_on(table)
            .into_iter()
            .map(|p| (p.column, (p.lo, p.hi)))
            .collect();
        if ranges.is_empty() {
            return 1.0;
        }
        self.spns[table].selectivity(&ranges)
    }
}

impl CardEstimator for DeepDb {
    fn kind(&self) -> ModelKind {
        ModelKind::DeepDb
    }

    fn estimate(&self, query: &Query) -> f64 {
        if query.tables.len() == 1 {
            let t = query.tables[0];
            return (self.spns[t].num_rows * self.table_selectivity(query, t)).max(1.0);
        }
        self.join_index
            .estimate(query, |t| self.table_selectivity(query, t))
            .max(1.0)
    }
}

#[cfg(test)]
impl SpnNode {
    fn node_count(&self) -> usize {
        match self {
            SpnNode::Leaf { .. } => 1,
            SpnNode::Product { children } | SpnNode::Sum { children, .. } => {
                1 + children.iter().map(SpnNode::node_count).sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
impl DeepDb {
    /// Total SPN node count.
    fn total_nodes(&self) -> usize {
        self.spns.iter().map(|s| s.root.node_count()).sum()
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
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn handles_correlated_columns_better_than_independence() {
        // Perfectly correlated pair: the SPN's sum splits capture it.
        let mut rng = StdRng::seed_from_u64(141);
        let mut spec = DatasetSpec::small().single_table();
        spec.correlation = SpecRange { lo: 0.95, hi: 1.0 };
        spec.skew = SpecRange { lo: 0.0, hi: 0.1 };
        spec.columns = SpecRange { lo: 2, hi: 2 };
        spec.domain = SpecRange { lo: 60, hi: 60 };
        spec.rows = SpecRange {
            lo: 4_000,
            hi: 4_000,
        };
        let ds = generate_dataset("spn", &spec, &mut rng);
        let model = DeepDb::learn(&ds, 7);
        let pg = crate::postgres::PostgresEstimator::analyze(&ds);
        let mut spn_total = 0.0;
        let mut pg_total = 0.0;
        for i in 0..20 {
            let lo = 1 + (i % 4) * 10;
            let q = Query::single_table(
                0,
                vec![
                    Predicate {
                        table: 0,
                        column: 0,
                        lo,
                        hi: lo + 14,
                    },
                    Predicate {
                        table: 0,
                        column: 1,
                        lo,
                        hi: lo + 14,
                    },
                ],
            );
            let truth = query_cardinality(&ds, &q).unwrap() as f64;
            spn_total += qerror(model.estimate(&q), truth);
            pg_total += qerror(pg.estimate(&q), truth);
        }
        assert!(
            spn_total < pg_total,
            "SPN {spn_total} should beat independence {pg_total} under correlation"
        );
    }

    #[test]
    fn single_table_no_predicates_is_exact() {
        let mut rng = StdRng::seed_from_u64(142);
        let ds = generate_dataset("s", &DatasetSpec::small().single_table(), &mut rng);
        let model = DeepDb::learn(&ds, 1);
        let q = Query::single_table(0, vec![]);
        assert!((model.estimate(&q) - ds.tables[0].num_rows() as f64).abs() < 1e-6);
    }

    #[test]
    fn multi_table_estimates_are_sane() {
        let mut rng = StdRng::seed_from_u64(143);
        let ds = generate_dataset("m", &DatasetSpec::small().multi_table(), &mut rng);
        let model = DeepDb::learn(&ds, 2);
        let q = Query {
            tables: (0..ds.num_tables()).collect(),
            joins: ds.joins.iter().map(|j| (j.fk_table, j.pk_table)).collect(),
            predicates: vec![],
        };
        let truth = query_cardinality(&ds, &q).unwrap() as f64;
        let est = model.estimate(&q);
        assert!(
            (est - truth.max(1.0)).abs() < 1e-6,
            "no-predicate join is exact"
        );
        let _ = rng.gen::<u8>();
    }

    #[test]
    fn spn_builds_nontrivial_structure() {
        let mut rng = StdRng::seed_from_u64(144);
        let mut spec = DatasetSpec::small().single_table();
        spec.rows = SpecRange {
            lo: 3_000,
            hi: 3_000,
        };
        spec.columns = SpecRange { lo: 4, hi: 4 };
        let ds = generate_dataset("n", &spec, &mut rng);
        let model = DeepDb::learn(&ds, 3);
        assert!(model.total_nodes() > 3, "nodes = {}", model.total_nodes());
    }
}
