//! Per-column and cross-column statistics.
//!
//! These summaries feed two consumers:
//!
//! * the feature extractor (`ce-features`), which needs exactly the data
//!   features the paper lists in §V-A1 — skewness, kurtosis, standard/mean
//!   deviation, range, domain size, column-to-column correlation and join
//!   correlation;
//! * the histogram-based estimators (`ce-models::postgres`), which need
//!   equi-depth histograms and distinct counts.
//!
//! # Distinct values and set coverage: dense or sorted, never hashed
//!
//! Every "how many distinct values" question in this module (a column's
//! NDV, a join edge's FK-over-PK coverage, primary-key uniqueness) goes
//! through one private kernel with two paths, picked by `dense_words` from
//! the input's value span and row count alone:
//!
//! * **dense** — values are dictionary codes (`1..=domain`), so the span
//!   `max - min` is normally small next to the row count. When a bitmap of
//!   the span takes no more words than the rows it describes, the kernel
//!   marks one bit per value and popcounts;
//! * **sorted** — otherwise (a few rows spread over a huge span) it sorts a
//!   scratch copy and counts runs.
//!
//! Both paths produce integers, and the float passes of
//! [`ColumnStats::compute`] keep their row order, so the kernels **may
//! change latency, never bits**: every statistic is bit-identical to the
//! `HashSet` definitions they replaced, which live on as `#[cfg(test)]`
//! oracles that the proptests below compare against.
//!
//! Callers that summarise many columns in a row (`ce-features`) pass one
//! [`StatsScratch`] through the `*_with` variants so the bitmap and the sort
//! buffer are allocated once.

use crate::column::{Column, Value};
use crate::dataset::{Dataset, JoinEdge};
use serde::{Deserialize, Serialize};

/// Reusable buffers of the distinct/coverage kernels: a bitmap for the
/// dense path and a value buffer for the sorted path. Contents between
/// calls are meaningless; every kernel overwrites what it reads.
#[derive(Debug, Default)]
pub struct StatsScratch {
    bits: Vec<u64>,
    sorted: Vec<Value>,
}

/// `max - min` without overflow: columns may hold values more than
/// `i64::MAX` apart.
#[inline]
fn wide_span(min: Value, max: Value) -> i128 {
    i128::from(max) - i128::from(min)
}

/// The dense/sorted rule: `Some(words)` when a bitmap with one bit per
/// value of `min..=max` takes no more 64-bit words than there are rows
/// (for a join edge, the rows of both columns) — memory and work of the
/// order of the copy the sorted path would make — else `None`. A function
/// of the span and the row count only.
#[inline]
fn dense_words(min: Value, max: Value, rows: usize) -> Option<usize> {
    let words = wide_span(min, max) / 64 + 1;
    (words <= rows as i128).then_some(words as usize)
}

/// Sets the bit at `v - min` for every value of `data` whose bit lies
/// inside `bits`; the rest are skipped. `bits` covers `min..=max` rounded
/// up to whole words, and only values of `min..=max` reach the bits below
/// `max - min`: a value just above `max` may land in the last word's
/// padding, and so may one so far below `min` that `v - min` wraps (the
/// wrapped offset is at least `2⁶³ - min`, which exceeds `max - min`).
/// Callers either pass no such value (a column under its own extremes) or
/// mask the padding off (coverage ANDs with the PK bitmap, which has none).
#[inline]
fn mark(bits: &mut [u64], data: &[Value], min: Value) {
    for &v in data {
        // One range check per row — the bounds check — keeps the loop at
        // one branch.
        let off = v.wrapping_sub(min) as u64;
        let word = usize::try_from(off >> 6).unwrap_or(usize::MAX);
        if let Some(w) = bits.get_mut(word) {
            *w |= 1u64 << (off & 63);
        }
    }
}

/// Sorted path: number of distinct values in the concatenation of `parts`.
fn sorted_distinct(buf: &mut Vec<Value>, parts: &[&[Value]]) -> usize {
    buf.clear();
    for part in parts {
        buf.extend_from_slice(part);
    }
    buf.sort_unstable();
    buf.dedup();
    buf.len()
}

fn popcount(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// Number of distinct values in `data`, whose extremes are `min` and `max`.
fn distinct_count(data: &[Value], min: Value, max: Value, scratch: &mut StatsScratch) -> usize {
    if data.is_empty() {
        return 0;
    }
    let Some(words) = dense_words(min, max, data.len()) else {
        return sorted_distinct(&mut scratch.sorted, &[data]);
    };
    scratch.bits.clear();
    scratch.bits.resize(words, 0);
    mark(&mut scratch.bits, data, min);
    popcount(&scratch.bits)
}

/// `(|set(pk) ∩ set(fk)|, |set(pk)|)`.
fn coverage_counts(pk: &[Value], fk: &[Value], scratch: &mut StatsScratch) -> (usize, usize) {
    let Some((min, max)) = min_max(pk) else {
        return (0, 0);
    };
    let Some(words) = dense_words(min, max, pk.len() + fk.len()) else {
        // |P ∩ F| = |P| + |F| − |P ∪ F|, each a sorted run count.
        let buf = &mut scratch.sorted;
        let keys = sorted_distinct(buf, &[pk]);
        let refs = sorted_distinct(buf, &[fk]);
        let union = sorted_distinct(buf, &[pk, fk]);
        return (keys + refs - union, keys);
    };
    // Two bitmaps over the PK span: `popcount(P & F) / popcount(P)`. FK
    // values outside the span cannot be covered; `mark` skips them or
    // leaves them in padding bits that `P` never has.
    scratch.bits.clear();
    scratch.bits.resize(2 * words, 0);
    let (p, f) = scratch.bits.split_at_mut(words);
    mark(p, pk, min);
    mark(f, fk, min);
    let both = p
        .iter()
        .zip(f.iter())
        .map(|(a, b)| (a & b).count_ones() as usize);
    (both.sum(), popcount(p))
}

/// Extremes of a slice; `None` when empty.
fn min_max(data: &[Value]) -> Option<(Value, Value)> {
    let (&first, rest) = data.split_first()?;
    Some(
        rest.iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

/// The value of the first row that repeats an earlier row's value, if any
/// — what primary-key validation reports.
pub(crate) fn first_duplicate(data: &[Value]) -> Option<Value> {
    let (min, max) = min_max(data)?;
    if distinct_count(data, min, max, &mut StatsScratch::default()) == data.len() {
        return None;
    }
    // Cold path: order rows by (value, row); every row but the first of a
    // run of equal values is a repeat, and the lowest such row is the one
    // an insertion-order scan would have tripped over.
    let mut rows: Vec<usize> = (0..data.len()).collect();
    rows.sort_unstable_by_key(|&r| (data[r], r));
    rows.windows(2)
        .filter(|w| data[w[0]] == data[w[1]])
        .map(|w| w[1])
        .min()
        .map(|r| data[r])
}

/// Moment-based summary of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of rows.
    pub count: usize,
    /// Minimum value (0 for empty columns).
    pub min: Value,
    /// Maximum value (0 for empty columns).
    pub max: Value,
    /// Number of distinct values.
    pub ndv: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Mean absolute deviation from the mean.
    pub mean_dev: f64,
    /// Sample skewness (third standardized moment); 0 when degenerate.
    pub skewness: f64,
    /// Excess kurtosis (fourth standardized moment − 3); 0 when degenerate.
    pub kurtosis: f64,
}

impl ColumnStats {
    /// Computes all moments in two float passes plus one distinct-count
    /// pass (see the module docs).
    pub fn compute(column: &Column) -> Self {
        Self::compute_with(column, &mut StatsScratch::default())
    }

    /// [`Self::compute`] on caller-provided scratch; same bits.
    pub fn compute_with(column: &Column, scratch: &mut StatsScratch) -> Self {
        let n = column.len();
        if n == 0 {
            return ColumnStats {
                count: 0,
                min: 0,
                max: 0,
                ndv: 0,
                mean: 0.0,
                std_dev: 0.0,
                mean_dev: 0.0,
                skewness: 0.0,
                kurtosis: 0.0,
            };
        }
        let data = &column.data;
        let (mut min, mut max) = (data[0], data[0]);
        let mut sum = 0.0f64;
        for &v in data {
            min = min.min(v);
            max = max.max(v);
            sum += v as f64;
        }
        let mean = sum / n as f64;
        let (mut m2, mut m3, mut m4, mut adev) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for &v in data {
            let d = v as f64 - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
            adev += d.abs();
        }
        m2 /= n as f64;
        m3 /= n as f64;
        m4 /= n as f64;
        adev /= n as f64;
        let std_dev = m2.sqrt();
        let (skewness, kurtosis) = if std_dev > 1e-12 {
            (m3 / (std_dev * std_dev * std_dev), m4 / (m2 * m2) - 3.0)
        } else {
            (0.0, 0.0)
        };
        let ndv = distinct_count(data, min, max, scratch);
        ColumnStats {
            count: n,
            min,
            max,
            ndv,
            mean,
            std_dev,
            mean_dev: adev,
            skewness,
            kurtosis,
        }
    }

    /// Value range (`max - min`), as used in the feature matrix. Finite
    /// for any pair of values: the difference is taken in `i128`.
    pub fn range(&self) -> f64 {
        wide_span(self.min, self.max) as f64
    }
}

/// Equi-depth histogram over a column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquiDepthHistogram {
    /// Bucket upper bounds (inclusive), ascending. `bounds.len()` buckets.
    pub bounds: Vec<Value>,
    /// Rows per bucket.
    pub counts: Vec<usize>,
    /// Total rows.
    pub total: usize,
    /// Column minimum (lower bound of the first bucket).
    pub min: Value,
}

impl EquiDepthHistogram {
    /// Builds a histogram with at most `buckets` buckets.
    pub fn build(column: &Column, buckets: usize) -> Self {
        let mut sorted = column.data.clone();
        sorted.sort_unstable();
        let total = sorted.len();
        if total == 0 || buckets == 0 {
            return EquiDepthHistogram {
                bounds: Vec::new(),
                counts: Vec::new(),
                total: 0,
                min: 0,
            };
        }
        let min = sorted[0];
        let per = total.div_ceil(buckets);
        // Run-length encode, then pack runs greedily into buckets of target
        // depth `per`. A run at least as large as `per` (a heavy hitter)
        // always gets its own bucket, so point queries on skewed columns stay
        // accurate — the behavior PostgreSQL gets from its MCV list.
        let mut runs: Vec<(Value, usize)> = Vec::new();
        for &v in &sorted {
            match runs.last_mut() {
                Some((rv, c)) if *rv == v => *c += 1,
                _ => runs.push((v, 1)),
            }
        }
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        let mut acc = 0usize;
        for (i, &(v, c)) in runs.iter().enumerate() {
            if c >= per && acc > 0 {
                // Close the current bucket before the heavy run.
                bounds.push(runs[i - 1].0);
                counts.push(acc);
                acc = 0;
            }
            acc += c;
            if acc >= per || i + 1 == runs.len() {
                bounds.push(v);
                counts.push(acc);
                acc = 0;
            }
        }
        EquiDepthHistogram {
            bounds,
            counts,
            total,
            min,
        }
    }

    /// Estimated selectivity of `lo <= x <= hi`, assuming uniformity inside
    /// each bucket.
    pub fn selectivity(&self, lo: Value, hi: Value) -> f64 {
        if self.total == 0 || hi < lo {
            return 0.0;
        }
        let mut selected = 0.0f64;
        let mut lower = self.min;
        for (i, &ub) in self.bounds.iter().enumerate() {
            let bucket_lo = lower;
            let bucket_hi = ub;
            // Only the last bound can be `i64::MAX`.
            lower = ub.saturating_add(1);
            if bucket_hi < lo || bucket_lo > hi {
                continue;
            }
            let width = (wide_span(bucket_lo, bucket_hi) + 1) as f64;
            let overlap = (wide_span(lo.max(bucket_lo), hi.min(bucket_hi)) + 1) as f64;
            selected += self.counts[i] as f64 * (overlap / width).clamp(0.0, 1.0);
        }
        (selected / self.total as f64).clamp(0.0, 1.0)
    }
}

/// Pearson correlation between two equal-length columns; 0 when degenerate.
pub fn pearson(a: &Column, b: &Column) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let (a, b) = (&a.data[..n], &b.data[..n]);
    let mean_a = a.iter().map(|&v| v as f64).sum::<f64>() / nf;
    let mean_b = b.iter().map(|&v| v as f64).sum::<f64>() / nf;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        let da = x as f64 - mean_a;
        let db = y as f64 - mean_b;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va <= 1e-12 || vb <= 1e-12 {
        return 0.0;
    }
    (cov / (va.sqrt() * vb.sqrt())).clamp(-1.0, 1.0)
}

/// Fraction of positions where two columns hold the same value — the direct
/// inverse of the generator's F2 correlation parameter (§IV-A).
pub fn equality_rate(a: &Column, b: &Column) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    // `zip` stops at the shorter column.
    let equal: usize = a
        .data
        .iter()
        .zip(&b.data)
        .map(|(x, y)| usize::from(x == y))
        .sum();
    equal as f64 / n as f64
}

/// Join correlation of an edge: the fraction of the PK column's value set
/// covered by the FK column's value set (§V-A1 — "taking the set of the FK
/// column data, then calculating its ratio over the PK column data").
pub fn join_correlation(ds: &Dataset, edge: &JoinEdge) -> f64 {
    join_correlation_with(ds, edge, &mut StatsScratch::default())
}

/// [`join_correlation`] on caller-provided scratch; same bits.
pub fn join_correlation_with(ds: &Dataset, edge: &JoinEdge, scratch: &mut StatsScratch) -> f64 {
    let fk = &ds.tables[edge.fk_table].columns[edge.fk_col].data;
    let pk = &ds.tables[edge.pk_table].columns[edge.pk_col].data;
    let (covered, keys) = coverage_counts(pk, fk, scratch);
    if keys == 0 {
        return 0.0;
    }
    covered as f64 / keys as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    #[test]
    fn moments_of_uniform() {
        let c = Column::data("u", (1..=100).collect());
        let s = ColumnStats::compute(&c);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.ndv, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!(s.skewness.abs() < 1e-9, "uniform is symmetric");
        assert!(s.kurtosis < 0.0, "uniform is platykurtic");
        assert_eq!(s.range(), 99.0);
    }

    #[test]
    fn skewed_column_has_positive_skew() {
        let mut data = vec![1; 90];
        data.extend(vec![100; 10]);
        let s = ColumnStats::compute(&Column::data("s", data));
        assert!(s.skewness > 1.0);
    }

    #[test]
    fn degenerate_column() {
        let s = ColumnStats::compute(&Column::data("k", vec![7, 7, 7]));
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.ndv, 1);
        let e = ColumnStats::compute(&Column::data("e", vec![]));
        assert_eq!(e.count, 0);
    }

    #[test]
    fn histogram_selectivity() {
        let c = Column::data("h", (1..=1000).collect());
        let h = EquiDepthHistogram::build(&c, 10);
        assert_eq!(h.total, 1000);
        let s = h.selectivity(1, 1000);
        assert!((s - 1.0).abs() < 1e-9);
        let half = h.selectivity(1, 500);
        assert!((half - 0.5).abs() < 0.01, "half = {half}");
        assert_eq!(h.selectivity(2000, 3000), 0.0);
        assert_eq!(h.selectivity(10, 5), 0.0);
    }

    #[test]
    fn histogram_selectivity_spans_the_whole_i64_range() {
        // Bucket widths and overlaps exceed `i64::MAX`; the last upper
        // bound has no successor.
        let c = Column::data("ext", vec![i64::MIN, 0, i64::MAX, 0]);
        let h = EquiDepthHistogram::build(&c, 2);
        assert_eq!(h.selectivity(i64::MIN, i64::MAX), 1.0);
        let upper = h.selectivity(1, i64::MAX);
        assert!(upper > 0.0 && upper < 1.0, "upper = {upper}");
        assert_eq!(h.selectivity(i64::MAX, i64::MIN), 0.0);
    }

    #[test]
    fn histogram_heavy_hitter_not_split() {
        let mut data = vec![5; 500];
        data.extend(1..=500);
        let h = EquiDepthHistogram::build(&Column::data("hh", data), 4);
        let s = h.selectivity(5, 5);
        assert!(s > 0.3, "point query on heavy hitter, s = {s}");
    }

    #[test]
    fn pearson_perfect_and_none() {
        let a = Column::data("a", (1..=50).collect());
        let b = Column::data("b", (1..=50).map(|v| v * 2).collect());
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-9);
        let c = Column::data("c", (1..=50).rev().collect());
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-9);
        let k = Column::data("k", vec![3; 50]);
        assert_eq!(pearson(&a, &k), 0.0);
    }

    #[test]
    fn equality_rate_counts_positions() {
        let a = Column::data("a", vec![1, 2, 3, 4]);
        let b = Column::data("b", vec![1, 9, 3, 9]);
        assert!((equality_rate(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn join_correlation_ratio() {
        let main =
            Table::with_columns("m", vec![Column::primary_key("id", vec![1, 2, 3, 4])]).unwrap();
        let fact =
            Table::with_columns("f", vec![Column::foreign_key("m_id", vec![1, 1, 2, 2])]).unwrap();
        let ds = Dataset::new(
            "d",
            vec![main, fact],
            vec![JoinEdge {
                fk_table: 1,
                fk_col: 0,
                pk_table: 0,
                pk_col: 0,
            }],
        )
        .unwrap();
        // FK covers {1,2} of PK {1,2,3,4} -> 0.5.
        assert!((join_correlation(&ds, &ds.joins[0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn range_and_distinct_survive_the_full_i64_span() {
        let s = ColumnStats::compute(&Column::data("w", vec![i64::MIN, 0, i64::MAX]));
        assert_eq!(s.ndv, 3);
        assert_eq!(s.range(), 2f64.powi(64));
        // Bit-identical to the old `(max - min) as f64` wherever that was defined.
        let s = ColumnStats::compute(&Column::data("n", vec![-7, 12, 3]));
        assert_eq!(s.range().to_bits(), 19f64.to_bits());
    }

    /// The definitions the kernels replaced, kept as test oracles only.
    mod oracle {
        use super::Value;
        use std::collections::HashSet;

        pub fn ndv(data: &[Value]) -> usize {
            data.iter().copied().collect::<HashSet<_>>().len()
        }

        pub fn join_correlation(pk: &[Value], fk: &[Value]) -> f64 {
            let fk: HashSet<Value> = fk.iter().copied().collect();
            let pk: HashSet<Value> = pk.iter().copied().collect();
            if pk.is_empty() {
                return 0.0;
            }
            fk.intersection(&pk).count() as f64 / pk.len() as f64
        }

        pub fn equality_rate(a: &[Value], b: &[Value]) -> f64 {
            let n = a.len().min(b.len());
            if n == 0 {
                return 0.0;
            }
            (0..n).filter(|&i| a[i] == b[i]).count() as f64 / n as f64
        }

        pub fn pearson(a: &[Value], b: &[Value]) -> f64 {
            let n = a.len().min(b.len());
            if n == 0 {
                return 0.0;
            }
            let nf = n as f64;
            let mean_a = a[..n].iter().map(|&v| v as f64).sum::<f64>() / nf;
            let mean_b = b[..n].iter().map(|&v| v as f64).sum::<f64>() / nf;
            let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
            for i in 0..n {
                let da = a[i] as f64 - mean_a;
                let db = b[i] as f64 - mean_b;
                cov += da * db;
                va += da * da;
                vb += db * db;
            }
            if va <= 1e-12 || vb <= 1e-12 {
                return 0.0;
            }
            (cov / (va.sqrt() * vb.sqrt())).clamp(-1.0, 1.0)
        }

        pub fn first_duplicate(data: &[Value]) -> Option<Value> {
            let mut seen = HashSet::new();
            data.iter().copied().find(|&v| !seen.insert(v))
        }
    }

    /// Shapes a column out of raw 64-bit draws: dictionary codes, negative
    /// codes, all-equal, spans hugging the dense/sorted cut-over, and
    /// sparse values over the whole `i64` range (always the sorted path).
    fn shaped(kind: usize, raw: &[Value]) -> Vec<Value> {
        let n = raw.len().max(1) as i64;
        raw.iter()
            .map(|&v| match kind % 5 {
                0 => 1 + v.rem_euclid(40),
                1 => -3 - v.rem_euclid(500),
                2 => raw[0],
                3 => v.rem_euclid(64 * n + 64) - 32 * n,
                _ => v,
            })
            .collect()
    }

    fn pk_fk_dataset(pk: Vec<Value>, fk: Vec<Value>) -> Dataset {
        // Built field by field: validation would reject the repeated and
        // out-of-range keys these tests are about.
        let mut main = Table::new("m");
        main.columns.push(Column::primary_key("id", pk));
        let mut fact = Table::new("f");
        fact.columns.push(Column::foreign_key("m_id", fk));
        Dataset {
            name: "d".into(),
            tables: vec![main, fact],
            joins: vec![JoinEdge {
                fk_table: 1,
                fk_col: 0,
                pk_table: 0,
                pk_col: 0,
            }],
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn distinct_count_matches_hashset_oracle(
            raw in prop::collection::vec(i64::MIN..=i64::MAX, 0..200),
            kind in 0usize..5,
        ) {
            let data = shaped(kind, &raw);
            let mut scratch = StatsScratch::default();
            // A dirty scratch from an unrelated column must not leak in.
            ColumnStats::compute_with(&Column::data("dirt", vec![9, -4, 77, 9]), &mut scratch);
            let s = ColumnStats::compute_with(&Column::data("c", data.clone()), &mut scratch);
            prop_assert_eq!(s.ndv, oracle::ndv(&data));
            prop_assert_eq!(s, ColumnStats::compute(&Column::data("c", data.clone())));
            prop_assert_eq!(first_duplicate(&data), oracle::first_duplicate(&data));
        }

        #[test]
        fn distinct_count_agrees_on_both_sides_of_the_cut_over(
            raw in prop::collection::vec(0i64..=i64::MAX, 1..120),
            lo in -1_000_000i64..1_000_000,
        ) {
            // `words <= rows` flips between span 64·n − 1 and 64·n.
            let n = raw.len() as i64;
            for (span, dense) in [(64 * n - 2, true), (64 * n - 1, true), (64 * n, false)] {
                let mut data: Vec<Value> = raw.iter().map(|v| lo + v % (span + 1)).collect();
                data[0] = lo;
                data[raw.len() - 1] = lo + span;
                if n == 1 {
                    // One row cannot span anything; only the rule is checked.
                    prop_assert_eq!(dense_words(lo, lo + span, 1).is_some(), dense);
                    continue;
                }
                prop_assert_eq!(dense_words(lo, lo + span, data.len()).is_some(), dense);
                let s = ColumnStats::compute(&Column::data("c", data.clone()));
                prop_assert_eq!((s.min, s.max), (lo, lo + span));
                prop_assert_eq!(s.ndv, oracle::ndv(&data));
            }
        }

        #[test]
        fn join_coverage_matches_hashset_oracle(
            pk_raw in prop::collection::vec(i64::MIN..=i64::MAX, 0..120),
            fk_raw in prop::collection::vec(i64::MIN..=i64::MAX, 0..200),
            pk_kind in 0usize..5,
            fk_kind in 0usize..5,
        ) {
            let pk = shaped(pk_kind, &pk_raw);
            // FK values on, inside and far outside the PK span.
            let mut fk = shaped(fk_kind, &fk_raw);
            fk.extend(pk.iter().step_by(3));
            fk.extend([i64::MIN, -1, 0, 41, i64::MAX]);
            let ds = pk_fk_dataset(pk.clone(), fk.clone());
            let got = join_correlation(&ds, &ds.joins[0]);
            prop_assert_eq!(got.to_bits(), oracle::join_correlation(&pk, &fk).to_bits());
            let mut scratch = StatsScratch::default();
            let (_, keys) = coverage_counts(&pk, &fk, &mut scratch);
            prop_assert_eq!(keys, oracle::ndv(&pk));
        }

        #[test]
        fn pair_kernels_match_indexed_oracles(
            a_raw in prop::collection::vec(i64::MIN..=i64::MAX, 0..150),
            b_raw in prop::collection::vec(i64::MIN..=i64::MAX, 0..150),
            kind in 0usize..3,
        ) {
            // Unequal lengths: both kernels stop at the shorter column.
            let (a, b) = (shaped(kind, &a_raw), shaped(kind, &b_raw));
            let (ca, cb) = (Column::data("a", a.clone()), Column::data("b", b.clone()));
            let rate = equality_rate(&ca, &cb);
            prop_assert_eq!(rate.to_bits(), oracle::equality_rate(&a, &b).to_bits());
            prop_assert_eq!(rate.to_bits(), equality_rate(&cb, &ca).to_bits());
            prop_assert_eq!(pearson(&ca, &cb).to_bits(), oracle::pearson(&a, &b).to_bits());
        }
    }

    #[test]
    fn coverage_takes_both_paths() {
        // Dense: PK span 1..=4 over 8 rows. Sorted: two keys 2⁴⁰ apart.
        assert_eq!(dense_words(1, 4, 8), Some(1));
        assert_eq!(dense_words(0, 1 << 40, 5), None);
        let mut scratch = StatsScratch::default();
        assert_eq!(
            coverage_counts(&[1, 2, 3, 4], &[1, 1, 2, 9], &mut scratch),
            (2, 4)
        );
        assert_eq!(
            coverage_counts(&[0, 1 << 40], &[1 << 40, 7, 7], &mut scratch),
            (1, 2)
        );
        assert_eq!(coverage_counts(&[], &[1, 2], &mut scratch), (0, 0));
        // Dense spans at either end of `i64`: FK values whose offset wraps
        // or overshoots land in padding bits and must not count.
        let (lo, hi) = (i64::MIN, i64::MAX);
        assert_eq!(
            coverage_counts(&[hi - 1, hi], &[lo, lo + 1, lo + 2, hi], &mut scratch),
            (1, 2)
        );
        assert_eq!(
            coverage_counts(&[lo, lo + 1], &[hi, lo + 2, lo + 63, lo], &mut scratch),
            (1, 2)
        );
    }
}
