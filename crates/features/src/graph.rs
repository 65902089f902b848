//! Feature extraction and graph modeling.
//!
//! [`extract_features`] is the first layer of every `Dataset` request, and
//! on a cache-missing one nearly all of its time. It owns one
//! [`StatsScratch`] per call — local, so parallel callers share nothing —
//! and hands it to `ce_storage::stats`' kernels: the data columns of a
//! table are summarised together ([`ColumnStats::compute_table_with`]),
//! then every used column pair and join edge. The kernels may change latency, never bits:
//! `tests/golden_bits.rs` pins a checksum of every vertex and edge value
//! captured before the hash-free kernels, and one of every `f64` statistic
//! underneath captured before the table-at-a-time ones.
//!
//! # Where one extraction's time goes
//!
//! On the end-to-end benchmark's `dataset-cold` pool (seed 7: 4–10 tables
//! of 600–2000 rows, 41.4 k row-columns per dataset, 2–6 used columns per
//! table), microseconds per dataset, warm, best of 15, one CPU with
//! AVX-512:
//!
//! | kernel | a column at a time | a table at a time |
//! |---|---|---|
//! | first pass: `min`, `max`, `mean` | 34 (one `f64` add chain) | 6 (integers, exact under the guard) |
//! | second pass: four central sums | 58 (four add chains per column) | 26 (one lane per column) |
//! | distinct count (`mark` + popcount) | 48 | 48 |
//! | `equality_rate`, every used pair | 26 | 14 (AVX-512F arm) |
//! | join coverage, every edge | 23 | 24 |
//! | `squash`, vectors, the rest | ≈11 | ≈6 |
//! | `extract_features` | ≈200 | ≈125 |
//!
//! Inside a served request the data is cold (the pool is 85 MB): the
//! benchmark's traced replay of this function reads ≈209 → ≈120–140 µs,
//! the whole request 230 → 166 µs. What is left is mostly the `mark` loops
//! of the distinct and coverage counts (≈0.8 ns per row).
//!
//! Measured dead ends, so they are not walked again. A second pass in
//! plain Rust lost to the scalar loop or barely beat it (a column-wise tile
//! fill becomes `vscatterqpd`, a transposed read or a shuffle butterfly
//! over `[f64; 8]` arrays costs as much as it saves; within one column four
//! adds per row on two ports cannot beat 2 cycles a row) — the in-register
//! transpose is the kernel, hence intrinsics. The `mark` loops read the
//! same under a byte map, four interleaved bitmaps and a BMI2 arm; a
//! counted `EquiDepthHistogram::build` halves that call but is ≈5 % of a
//! label.

use ce_storage::stats::{equality_rate, join_correlation_with, ColumnStats, StatsScratch};
use ce_storage::{Column, Dataset};
use serde::{Deserialize, Serialize};

/// Number of per-column statistics (`k` in the paper): skewness, kurtosis,
/// standard deviation, mean deviation, range, domain size.
pub const COLUMN_FEATURES: usize = 6;

/// Global featurization parameters. Every dataset fed to one graph encoder
/// must share the config so vertex vectors have equal width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// `m`: maximum number of data columns represented per table; extra
    /// columns are ignored, missing ones are zero-padded.
    pub max_columns: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { max_columns: 6 }
    }
}

impl FeatureConfig {
    /// Width of each vertex vector: `(k + m)·m + 2`.
    pub fn vertex_dim(&self) -> usize {
        (COLUMN_FEATURES + self.max_columns) * self.max_columns + 2
    }
}

/// A dataset modeled as a feature graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureGraph {
    /// Vertex matrix `V`, one row per table, each of width
    /// [`FeatureConfig::vertex_dim`].
    pub vertices: Vec<Vec<f32>>,
    /// Edge matrix `E` (`n × n`): `E[i][j]` holds the join correlation when
    /// a FK in table `j` references the PK of table `i`, else 0.
    pub edges: Vec<Vec<f32>>,
}

impl FeatureGraph {
    /// Number of vertices (tables).
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Vertex feature width.
    pub fn vertex_dim(&self) -> usize {
        self.vertices.first().map_or(0, Vec::len)
    }
}

/// Squashes an unbounded statistic into `(-1, 1)`.
#[inline]
fn squash(v: f64) -> f32 {
    (v / (1.0 + v.abs())) as f32
}

/// Log-scale normalization for counts/ranges (maps `[0, ∞)` into `[0, ~1]`).
#[inline]
fn log_norm(v: f64) -> f32 {
    ((v.max(0.0) + 1.0).ln() / 20.0) as f32
}

/// Extracts the feature graph of a dataset (§V-A, Figure 4).
pub fn extract_features(ds: &Dataset, cfg: &FeatureConfig) -> FeatureGraph {
    let m = cfg.max_columns;
    let per_col = COLUMN_FEATURES + m;
    let mut scratch = StatsScratch::default();
    let mut vertices = Vec::with_capacity(ds.num_tables());
    for table in &ds.tables {
        // The first `m` data columns, summarised together.
        let cols: Vec<&Column> = table
            .columns
            .iter()
            .filter(|c| !c.is_key())
            .take(m)
            .collect();
        let used = cols.len();
        let stats = ColumnStats::compute_table_with(&cols, &mut scratch);
        let mut v = vec![0.0f32; cfg.vertex_dim()];
        for (slot, (&col, s)) in cols.iter().zip(&stats).enumerate() {
            let base = slot * per_col;
            v[base] = squash(s.skewness);
            v[base + 1] = squash(s.kurtosis);
            v[base + 2] = squash(s.std_dev / s.range().max(1.0));
            v[base + 3] = squash(s.mean_dev / s.range().max(1.0));
            v[base + 4] = log_norm(s.range());
            v[base + 5] = log_norm(s.ndv as f64);
            // Correlation slots against the later (first m) columns; the
            // rate is symmetric, so one pass fills both columns' slots.
            for (other_slot, &other) in cols.iter().enumerate().skip(slot + 1) {
                let rate = equality_rate(col, other) as f32;
                v[base + COLUMN_FEATURES + other_slot] = rate;
                v[other_slot * per_col + COLUMN_FEATURES + slot] = rate;
            }
        }
        let tail = cfg.vertex_dim() - 2;
        v[tail] = log_norm(table.num_rows() as f64);
        v[tail + 1] = used as f32 / m as f32;
        vertices.push(v);
    }

    let n = ds.num_tables();
    let mut edges = vec![vec![0.0f32; n]; n];
    for e in &ds.joins {
        edges[e.pk_table][e.fk_table] = join_correlation_with(ds, e, &mut scratch) as f32;
    }
    FeatureGraph { vertices, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{generate_dataset, DatasetSpec, SpecRange};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn vertex_dim_formula() {
        let cfg = FeatureConfig { max_columns: 4 };
        // Example 3 of the paper: (6 + 4)·4 + 2 = 42.
        assert_eq!(cfg.vertex_dim(), 42);
    }

    #[test]
    fn graph_shape_matches_dataset() {
        let mut rng = StdRng::seed_from_u64(191);
        let ds = generate_dataset("fg", &DatasetSpec::small().multi_table(), &mut rng);
        let cfg = FeatureConfig::default();
        let g = extract_features(&ds, &cfg);
        assert_eq!(g.num_vertices(), ds.num_tables());
        assert_eq!(g.vertex_dim(), cfg.vertex_dim());
        assert_eq!(g.edges.len(), ds.num_tables());
        // One nonzero edge entry per join.
        let nonzero: usize = g.edges.iter().flatten().filter(|&&w| w > 0.0).count();
        assert_eq!(nonzero, ds.joins.len());
        // Edge orientation: E[pk][fk].
        for e in &ds.joins {
            assert!(g.edges[e.pk_table][e.fk_table] > 0.0);
            assert_eq!(g.edges[e.fk_table][e.pk_table], 0.0);
        }
    }

    #[test]
    fn skew_feature_tracks_generated_skew() {
        let make = |skew: f64, seed: u64| {
            let mut spec = DatasetSpec::small().single_table();
            spec.skew = SpecRange { lo: skew, hi: skew };
            spec.columns = SpecRange { lo: 1, hi: 1 };
            spec.rows = SpecRange {
                lo: 4_000,
                hi: 4_000,
            };
            spec.domain = SpecRange {
                lo: 1_000,
                hi: 1_000,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let ds = generate_dataset("sk", &spec, &mut rng);
            extract_features(&ds, &FeatureConfig::default()).vertices[0][0]
        };
        let low = make(0.0, 1);
        let high = make(0.95, 1);
        assert!(
            high > low + 0.1,
            "skew feature should rise with generated skew: {low} vs {high}"
        );
    }

    #[test]
    fn correlation_feature_tracks_generated_correlation() {
        let make = |corr: f64| {
            let mut spec = DatasetSpec::small().single_table();
            spec.correlation = SpecRange { lo: corr, hi: corr };
            spec.columns = SpecRange { lo: 2, hi: 2 };
            spec.rows = SpecRange {
                lo: 3_000,
                hi: 3_000,
            };
            let mut rng = StdRng::seed_from_u64(7);
            let ds = generate_dataset("cr", &spec, &mut rng);
            let g = extract_features(&ds, &FeatureConfig::default());
            // Correlation slot of column 0 against column 1.
            g.vertices[0][COLUMN_FEATURES + 1]
        };
        let none = make(0.0);
        let full = make(1.0);
        assert!(none < 0.1, "uncorrelated eq-rate {none}");
        // r = 1 places 0.7 of the correlation mass on the adjacent column
        // (the rest feeds the generator's v-structures).
        assert!(full > 0.6, "correlated eq-rate {full}");
    }

    #[test]
    fn padding_for_narrow_tables() {
        let mut spec = DatasetSpec::small().single_table();
        spec.columns = SpecRange { lo: 1, hi: 1 };
        let mut rng = StdRng::seed_from_u64(193);
        let ds = generate_dataset("pad", &spec, &mut rng);
        let cfg = FeatureConfig { max_columns: 5 };
        let g = extract_features(&ds, &cfg);
        let per_col = COLUMN_FEATURES + 5;
        // Slots for columns 1..5 are all zero.
        let v = &g.vertices[0];
        for slot in 1..5 {
            let base = slot * per_col;
            assert!(v[base..base + per_col].iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn all_features_are_finite_and_bounded() {
        let mut rng = StdRng::seed_from_u64(194);
        for _ in 0..10 {
            let ds = generate_dataset("b", &DatasetSpec::small(), &mut rng);
            let g = extract_features(&ds, &FeatureConfig::default());
            for v in &g.vertices {
                assert!(v.iter().all(|x| x.is_finite() && x.abs() <= 2.0));
            }
        }
    }

    #[test]
    fn full_i64_span_column_yields_finite_features() {
        use ce_storage::{Column, Table};
        // `max - min` overflows i64 here; the range must not.
        let wide = Column::data("w", vec![i64::MIN, 0, i64::MAX]);
        let table = Table::with_columns("t", vec![wide]).unwrap();
        let ds = Dataset::new("wide", vec![table], vec![]).unwrap();
        let g = extract_features(&ds, &FeatureConfig::default());
        assert!(g.vertices[0].iter().all(|x| x.is_finite()));
        assert_eq!(g.vertices[0][4], log_norm(2f64.powi(64)));
        assert_eq!(g.vertices[0][5], log_norm(3.0));
    }
}
