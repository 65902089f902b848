//! BayesCard — Bayesian-network cardinality estimation (Wu et al.).
//!
//! Per table: columns are discretized into equi-width bins, a Chow-Liu tree
//! (maximum-spanning-tree over pairwise mutual information) provides the
//! network structure, and Laplace-smoothed CPTs `P(child | parent)` are
//! estimated by counting. Range-predicate probabilities are computed exactly
//! over the tree by bottom-up message passing with fractional bin coverage.
//! Join queries use the fanout-style [`JoinIndex`], as in DeepDB.

use crate::joinglue::JoinIndex;
use crate::traits::{CardEstimator, ModelKind, TrainContext};
use ce_storage::{Dataset, Query, Table, Value};
use std::collections::HashMap;

/// Bins per column.
const BINS: usize = 40;
/// Laplace smoothing pseudo-count.
const ALPHA: f64 = 0.1;

/// Equi-width discretizer for one column.
#[derive(Debug, Clone)]
struct Binner {
    min: Value,
    max: Value,
    width: f64,
}

impl Binner {
    fn new(min: Value, max: Value) -> Self {
        let width = (((max - min + 1) as f64) / BINS as f64).max(1e-9);
        Binner { min, max, width }
    }

    fn bin_of(&self, v: Value) -> usize {
        (((v - self.min) as f64 / self.width) as usize).min(BINS - 1)
    }

    /// Fraction of bin `b` that overlaps `[lo, hi]`.
    fn coverage(&self, b: usize, lo: Value, hi: Value) -> f64 {
        let b_lo = self.min as f64 + b as f64 * self.width;
        let b_hi = (b_lo + self.width).min(self.max as f64 + 1.0);
        let o_lo = b_lo.max(lo as f64);
        let o_hi = b_hi.min(hi as f64 + 1.0);
        ((o_hi - o_lo) / (b_hi - b_lo).max(1e-9)).clamp(0.0, 1.0)
    }
}

/// Chow-Liu tree Bayesian network over one table.
#[derive(Debug, Clone)]
struct TableBayesNet {
    binners: Vec<Binner>,
    /// Original table column index per network node.
    columns: Vec<usize>,
    /// Children lists.
    children: Vec<Vec<usize>>,
    /// Root marginal `P(bin)`.
    root_marginal: Vec<f64>,
    /// Per non-root node: CPT `P(bin | parent_bin)` as `[parent_bin][bin]`.
    cpts: Vec<Vec<Vec<f64>>>,
    root: usize,
}

impl TableBayesNet {
    fn learn(table: &Table) -> Option<Self> {
        let columns = table.data_column_indices();
        if columns.is_empty() {
            return None;
        }
        let n = columns.len();
        let rows = table.num_rows();
        let binners: Vec<Binner> = columns
            .iter()
            .map(|&c| {
                let (lo, hi) = table.columns[c].bounds();
                Binner::new(lo, hi)
            })
            .collect();
        let binned: Vec<Vec<usize>> = columns
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                table.columns[c]
                    .data
                    .iter()
                    .map(|&v| binners[i].bin_of(v))
                    .collect()
            })
            .collect();

        // Pairwise mutual information.
        let mut mi = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                mi[i][j] = mutual_information(&binned[i], &binned[j], rows);
                mi[j][i] = mi[i][j];
            }
        }
        // Maximum spanning tree (Prim).
        let root = 0usize;
        let mut in_tree = vec![false; n];
        in_tree[root] = true;
        let mut parents = vec![usize::MAX; n];
        for _ in 1..n {
            let mut best: Option<(usize, usize, f64)> = None;
            for a in 0..n {
                if !in_tree[a] {
                    continue;
                }
                for b in 0..n {
                    if in_tree[b] {
                        continue;
                    }
                    if best.is_none_or(|(_, _, w)| mi[a][b] > w) {
                        best = Some((a, b, mi[a][b]));
                    }
                }
            }
            let (a, b, _) = best.expect("spanning tree grows one node per step");
            parents[b] = a;
            in_tree[b] = true;
        }
        let mut children = vec![Vec::new(); n];
        for b in 0..n {
            if parents[b] != usize::MAX {
                children[parents[b]].push(b);
            }
        }

        // Root marginal.
        let mut root_marginal = vec![ALPHA; BINS];
        for r in 0..rows {
            root_marginal[binned[root][r]] += 1.0;
        }
        let z: f64 = root_marginal.iter().sum();
        root_marginal.iter_mut().for_each(|p| *p /= z);

        // CPTs.
        let mut cpts = vec![Vec::new(); n];
        for node in 0..n {
            let p = parents[node];
            if p == usize::MAX {
                continue;
            }
            let mut cpt = vec![vec![ALPHA; BINS]; BINS];
            for r in 0..rows {
                cpt[binned[p][r]][binned[node][r]] += 1.0;
            }
            for row in &mut cpt {
                let z: f64 = row.iter().sum();
                row.iter_mut().for_each(|v| *v /= z);
            }
            cpts[node] = cpt;
        }

        Some(TableBayesNet {
            binners,
            columns,

            children,
            root_marginal,
            cpts,
            root,
        })
    }

    /// Probability that a random row satisfies all ranges (keyed by table
    /// column index).
    fn selectivity(&self, ranges: &HashMap<usize, (Value, Value)>) -> f64 {
        // Per-node, per-bin coverage factor.
        let coverage: Vec<Vec<f64>> = (0..self.columns.len())
            .map(|node| {
                let col = self.columns[node];
                match ranges.get(&col) {
                    Some(&(lo, hi)) => (0..BINS)
                        .map(|b| self.binners[node].coverage(b, lo, hi))
                        .collect(),
                    None => vec![1.0; BINS],
                }
            })
            .collect();
        let msg = self.message(self.root, &coverage);
        (0..BINS)
            .map(|b| self.root_marginal[b] * msg[b])
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Bottom-up message: `m(node)[bin] = cov(node, bin) · Π_child Σ_cb
    /// P(cb|bin)·m(child)[cb]` — computed iteratively to avoid recursion.
    fn message(&self, node: usize, coverage: &[Vec<f64>]) -> Vec<f64> {
        let mut out: Vec<f64> = coverage[node].clone();
        for &child in &self.children[node] {
            let child_msg = self.message(child, coverage);
            for (b, o) in out.iter_mut().enumerate() {
                let s: f64 = (0..BINS)
                    .map(|cb| self.cpts[child][b][cb] * child_msg[cb])
                    .sum();
                *o *= s;
            }
        }
        out
    }
}

fn mutual_information(a: &[usize], b: &[usize], rows: usize) -> f64 {
    if rows == 0 {
        return 0.0;
    }
    let mut joint = vec![vec![0.0f64; BINS]; BINS];
    let mut pa = vec![0.0f64; BINS];
    let mut pb = vec![0.0f64; BINS];
    for r in 0..rows {
        joint[a[r]][b[r]] += 1.0;
        pa[a[r]] += 1.0;
        pb[b[r]] += 1.0;
    }
    let n = rows as f64;
    let mut mi = 0.0;
    for i in 0..BINS {
        for j in 0..BINS {
            let pij = joint[i][j] / n;
            if pij > 1e-12 {
                mi += pij * (pij / ((pa[i] / n) * (pb[j] / n))).ln();
            }
        }
    }
    mi.max(0.0)
}

/// Trained BayesCard model.
pub struct BayesCardModel {
    nets: Vec<Option<TableBayesNet>>,
    table_rows: Vec<f64>,
    join_index: JoinIndex,
}

impl BayesCardModel {
    /// Learns per-table networks and the join index.
    pub fn train(ctx: &TrainContext<'_>) -> Self {
        Self::learn(ctx.dataset)
    }

    /// Direct data-driven construction.
    pub fn learn(ds: &Dataset) -> Self {
        BayesCardModel {
            nets: ds.tables.iter().map(TableBayesNet::learn).collect(),
            table_rows: ds.tables.iter().map(|t| t.num_rows() as f64).collect(),
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
        match &self.nets[table] {
            Some(net) => net.selectivity(&ranges),
            None => 1.0,
        }
    }
}

impl CardEstimator for BayesCardModel {
    fn kind(&self) -> ModelKind {
        ModelKind::BayesCard
    }

    fn estimate(&self, query: &Query) -> f64 {
        if query.tables.len() == 1 {
            let t = query.tables[0];
            return (self.table_rows[t] * self.table_selectivity(query, t)).max(1.0);
        }
        self.join_index
            .estimate(query, |t| self.table_selectivity(query, t))
            .max(1.0)
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
    use rand::SeedableRng;

    #[test]
    fn captures_pairwise_dependence() {
        let mut rng = StdRng::seed_from_u64(151);
        let mut spec = DatasetSpec::small().single_table();
        spec.correlation = SpecRange { lo: 1.0, hi: 1.0 };
        spec.skew = SpecRange { lo: 0.0, hi: 0.0 };
        spec.columns = SpecRange { lo: 2, hi: 2 };
        spec.domain = SpecRange { lo: 120, hi: 120 };
        spec.rows = SpecRange {
            lo: 5_000,
            hi: 5_000,
        };
        let ds = generate_dataset("bc", &spec, &mut rng);
        let model = BayesCardModel::learn(&ds);
        let pg = crate::postgres::PostgresEstimator::analyze(&ds);
        let q = Query::single_table(
            0,
            vec![
                Predicate {
                    table: 0,
                    column: 0,
                    lo: 1,
                    hi: 30,
                },
                Predicate {
                    table: 0,
                    column: 1,
                    lo: 1,
                    hi: 30,
                },
            ],
        );
        let truth = query_cardinality(&ds, &q).unwrap() as f64;
        let qe_bayes = qerror(model.estimate(&q), truth);
        let qe_pg = qerror(pg.estimate(&q), truth);
        assert!(
            qe_bayes < qe_pg,
            "BayesCard {qe_bayes} should beat independence {qe_pg}"
        );
        assert!(qe_bayes < 2.0, "q-error {qe_bayes}");
    }

    #[test]
    fn selectivity_of_full_range_is_one() {
        let mut rng = StdRng::seed_from_u64(152);
        let ds = generate_dataset("bc2", &DatasetSpec::small().single_table(), &mut rng);
        let model = BayesCardModel::learn(&ds);
        let col = ds.tables[0].data_column_indices()[0];
        let (lo, hi) = ds.tables[0].columns[col].bounds();
        let q = Query::single_table(
            0,
            vec![Predicate {
                table: 0,
                column: col,
                lo,
                hi,
            }],
        );
        let est = model.estimate(&q);
        let rows = ds.tables[0].num_rows() as f64;
        assert!((est - rows).abs() / rows < 0.05, "est {est} vs rows {rows}");
    }

    #[test]
    fn multi_table_path_works() {
        let mut rng = StdRng::seed_from_u64(153);
        let ds = generate_dataset("bc3", &DatasetSpec::small().multi_table(), &mut rng);
        let model = BayesCardModel::learn(&ds);
        let q = Query {
            tables: (0..ds.num_tables()).collect(),
            joins: ds.joins.iter().map(|j| (j.fk_table, j.pk_table)).collect(),
            predicates: vec![],
        };
        let truth = query_cardinality(&ds, &q).unwrap() as f64;
        assert!((model.estimate(&q) - truth.max(1.0)).abs() < 1e-6);
    }
}
