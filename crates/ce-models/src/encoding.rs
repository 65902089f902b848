//! Query featurization shared by the query-driven models.
//!
//! The schema snapshot ([`SchemaEncoder`]) is captured at training time so
//! inference never touches base data. Two encodings are provided:
//!
//! * a **flat encoding** (LW-NN / LW-XGB / UAE calibration): table one-hots
//!   plus `[has_pred, lo, hi]` per column, ranges normalized to `[0, 1]` —
//!   the "sequence of selection ranges" of the LW paper;
//! * a **set encoding** (MSCN): separate table / join / predicate feature
//!   sets, each later average-pooled by its own small MLP.
//!
//! Cardinalities are regressed in normalized log space: `y =
//! ln(1+card) / ln(1+card_max)` with `card_max` the product of table sizes —
//! the same trick MSCN uses so a sigmoid output covers the label range.

use ce_storage::{Dataset, Query, Value};
use serde::{Deserialize, Serialize};

/// Immutable schema snapshot + normalization constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemaEncoder {
    /// Number of tables.
    pub num_tables: usize,
    /// Per-table row counts.
    pub table_rows: Vec<usize>,
    /// `(table, column)` of every *data* column, defining feature order.
    pub data_columns: Vec<(usize, usize)>,
    /// Per data column `(min, max)` captured at training time.
    pub column_bounds: Vec<(Value, Value)>,
    /// Join edges `(fk_table, pk_table)` in dataset order.
    pub join_edges: Vec<(usize, usize)>,
    /// `ln(1 + product of all table row counts)` — the log-card normalizer.
    pub log_card_max: f64,
}

impl SchemaEncoder {
    /// Captures the schema of `ds`.
    pub fn capture(ds: &Dataset) -> Self {
        let mut data_columns = Vec::new();
        let mut column_bounds = Vec::new();
        for (t, table) in ds.tables.iter().enumerate() {
            for c in table.data_column_indices() {
                data_columns.push((t, c));
                column_bounds.push(table.columns[c].bounds());
            }
        }
        let mut log_card_max = 0.0f64;
        for t in &ds.tables {
            log_card_max += (t.num_rows() as f64 + 1.0).ln();
        }
        SchemaEncoder {
            num_tables: ds.num_tables(),
            table_rows: ds.tables.iter().map(|t| t.num_rows()).collect(),
            data_columns,
            column_bounds,
            join_edges: ds.joins.iter().map(|j| (j.fk_table, j.pk_table)).collect(),
            log_card_max: log_card_max.max(1.0),
        }
    }

    /// Index of `(table, column)` in the flat feature order.
    pub fn column_slot(&self, table: usize, column: usize) -> Option<usize> {
        self.data_columns
            .iter()
            .position(|&(t, c)| t == table && c == column)
    }

    /// Flat feature dimension: `num_tables + 3·|columns| + 1` (join count).
    pub fn flat_dim(&self) -> usize {
        self.num_tables + 3 * self.data_columns.len() + 1
    }

    /// Normalizes a raw value into `[0, 1]` against column `slot`'s bounds.
    fn norm(&self, slot: usize, v: Value) -> f32 {
        let (lo, hi) = self.column_bounds[slot];
        if hi <= lo {
            return 0.0;
        }
        // Subtract in `i128`: bounds and literals may lie more than
        // `i64::MAX` apart.
        let wide = |a: Value, b: Value| (i128::from(a) - i128::from(b)) as f64;
        ((wide(v, lo) / wide(hi, lo)).clamp(0.0, 1.0)) as f32
    }

    /// Flat encoding of a query.
    pub fn encode_flat(&self, query: &Query) -> Vec<f32> {
        let mut out = vec![0.0f32; self.flat_dim()];
        for &t in &query.tables {
            if t < self.num_tables {
                out[t] = 1.0;
            }
        }
        let base = self.num_tables;
        // Default ranges: [0,1] with has_pred = 0 for untouched columns.
        for slot in 0..self.data_columns.len() {
            out[base + 3 * slot + 1] = 0.0; // lo
            out[base + 3 * slot + 2] = 1.0; // hi
        }
        for p in &query.predicates {
            if let Some(slot) = self.column_slot(p.table, p.column) {
                out[base + 3 * slot] = 1.0;
                out[base + 3 * slot + 1] = self.norm(slot, p.lo);
                out[base + 3 * slot + 2] = self.norm(slot, p.hi);
            }
        }
        let jn = &mut out[self.flat_dim() - 1];
        *jn = query.joins.len() as f32 / self.num_tables.max(1) as f32;
        out
    }

    /// Normalized log-cardinality label in `[0, 1]`.
    pub fn normalize_card(&self, card: f64) -> f32 {
        (((card.max(0.0) + 1.0).ln()) / self.log_card_max).clamp(0.0, 1.0) as f32
    }

    /// Inverse of [`normalize_card`](Self::normalize_card).
    pub fn denormalize_card(&self, y: f32) -> f64 {
        ((y as f64).clamp(0.0, 1.0) * self.log_card_max).exp() - 1.0
    }
}

/// MSCN-style set encoding of one query.
#[derive(Debug, Clone)]
pub struct SetEncoding {
    /// One feature row per joined table: `[one-hot table | log(rows)/20]`.
    pub tables: Vec<Vec<f32>>,
    /// One feature row per join edge: one-hot over the dataset's edges.
    pub joins: Vec<Vec<f32>>,
    /// One feature row per predicate: `[one-hot column | lo | hi]`.
    pub predicates: Vec<Vec<f32>>,
}

impl SchemaEncoder {
    /// Per-element feature width of the table set.
    pub fn table_feat_dim(&self) -> usize {
        self.num_tables + 1
    }

    /// Per-element feature width of the join set (≥ 1 even without joins).
    pub fn join_feat_dim(&self) -> usize {
        self.join_edges.len().max(1)
    }

    /// Per-element feature width of the predicate set.
    pub fn pred_feat_dim(&self) -> usize {
        self.data_columns.len() + 2
    }

    /// Builds the MSCN set encoding for `query`.
    pub fn encode_sets(&self, query: &Query) -> SetEncoding {
        let tables = query
            .tables
            .iter()
            .map(|&t| {
                let mut f = vec![0.0f32; self.table_feat_dim()];
                if t < self.num_tables {
                    f[t] = 1.0;
                    f[self.num_tables] = ((self.table_rows[t] as f32) + 1.0).ln() / 20.0;
                }
                f
            })
            .collect();
        let joins = query
            .joins
            .iter()
            .map(|&(a, b)| {
                let mut f = vec![0.0f32; self.join_feat_dim()];
                if let Some(i) = self.join_edges.iter().position(|&e| e == (a, b)) {
                    f[i] = 1.0;
                }
                f
            })
            .collect();
        let predicates = query
            .predicates
            .iter()
            .filter_map(|p| {
                let slot = self.column_slot(p.table, p.column)?;
                let mut f = vec![0.0f32; self.pred_feat_dim()];
                f[slot] = 1.0;
                f[self.data_columns.len()] = self.norm(slot, p.lo);
                f[self.data_columns.len() + 1] = self.norm(slot, p.hi);
                Some(f)
            })
            .collect();
        SetEncoding {
            tables,
            joins,
            predicates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_dataset, DatasetSpec};
    use ce_storage::Predicate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Dataset, SchemaEncoder) {
        let mut rng = StdRng::seed_from_u64(81);
        let ds = generate_dataset("e", &DatasetSpec::small().multi_table(), &mut rng);
        let enc = SchemaEncoder::capture(&ds);
        (ds, enc)
    }

    #[test]
    fn flat_dim_consistent() {
        let (_, enc) = setup();
        assert_eq!(
            enc.flat_dim(),
            enc.num_tables + 3 * enc.data_columns.len() + 1
        );
    }

    #[test]
    fn flat_encoding_marks_tables_and_predicates() {
        let (ds, enc) = setup();
        let (t, c) = enc.data_columns[0];
        let (lo, hi) = enc.column_bounds[0];
        let q = Query::single_table(
            t,
            vec![Predicate {
                table: t,
                column: c,
                lo,
                hi,
            }],
        );
        let f = enc.encode_flat(&q);
        assert_eq!(f.len(), enc.flat_dim());
        assert_eq!(f[t], 1.0, "table one-hot set");
        let base = enc.num_tables;
        assert_eq!(f[base], 1.0, "has_pred set");
        assert_eq!(f[base + 1], 0.0, "full-range lo normalizes to 0");
        assert_eq!(f[base + 2], 1.0, "full-range hi normalizes to 1");
        let _ = ds;
    }

    #[test]
    fn card_normalization_roundtrip() {
        let (_, enc) = setup();
        for &card in &[0.0, 1.0, 10.0, 1e4] {
            let y = enc.normalize_card(card);
            let back = enc.denormalize_card(y);
            let q = (back.max(1.0) / card.max(1.0)).max(card.max(1.0) / back.max(1.0));
            assert!(q < 1.01, "roundtrip q-error {q} at {card}");
        }
        assert!(enc.normalize_card(0.0) >= 0.0);
        assert!(enc.normalize_card(f64::MAX) <= 1.0);
    }

    #[test]
    fn set_encoding_shapes() {
        let (ds, enc) = setup();
        let q = Query {
            tables: (0..ds.num_tables()).collect(),
            joins: ds.joins.iter().map(|j| (j.fk_table, j.pk_table)).collect(),
            predicates: vec![],
        };
        let s = enc.encode_sets(&q);
        assert_eq!(s.tables.len(), ds.num_tables());
        assert_eq!(s.joins.len(), ds.joins.len());
        assert!(s.predicates.is_empty());
        assert!(s.tables.iter().all(|f| f.len() == enc.table_feat_dim()));
        assert!(s.joins.iter().all(|f| f.len() == enc.join_feat_dim()));
    }
}
