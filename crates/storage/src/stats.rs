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
//! Every kernel here **may change latency, never bits**: each statistic is
//! bit-identical to the definition it replaced, which lives on as a
//! `#[cfg(test)]` oracle that the proptests below compare against.
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
//! Both paths produce integers; their oracles are the `HashSet`
//! definitions.
//!
//! # Histograms: counting runs
//!
//! [`EquiDepthHistogram::build`] packs a column's sorted run-length
//! encoding — each distinct value once, ascending, with its row count —
//! into buckets. It scans the column's extremes once (the lane-wide pass
//! behind [`Column::bounds`]) and hands them to the runs, which come from
//! one of two paths, picked by `counting_slots` from the value span and
//! row count alone:
//!
//! * **counting** — when the span `min..=max` has at most eight values per
//!   row, each row adds one to the slot at `v − min`. The slots ascend
//!   with the values they stand for, so the non-zero slots in slot order,
//!   each with its count, are exactly the runs a sort would have produced:
//!   the same values, in the same order, with the same counts. They are
//!   compacted without a branch (every slot is written, the end advances
//!   by `c > 0`): at a span of about two slots per row, half the slots are
//!   empty and a `filter` mispredicts every other one;
//! * **sorted** — otherwise it sorts a copy and counts runs, as the build
//!   always did (that build is the test oracle).
//!
//! The bucket packing after either path is unchanged, so the histogram is
//! equal field for field.
//!
//! # Moments: a table at a time
//!
//! [`ColumnStats`] is defined by two row-order `f64` loops per column
//! (`sum += v as f64`, then four sums of powers of `v as f64 − mean`) —
//! chains of dependent adds no compiler may reorder. A table's columns
//! are summarised together by [`ColumnStats::compute_table_with`], which
//! keeps every such chain and changes only what runs beside it:
//!
//! * **first pass, in integers.** `min`, `max` and the wrapping `i64` sum
//!   are order-free, so one pass takes them over eight lane accumulators.
//!   When `max(|min|, |max|) · n ≤ 2⁵³` every value and every partial sum
//!   of the `f64` loop is an integer of magnitude at most 2⁵³, so each of
//!   its additions is exact and its result *is* the integer sum, which is
//!   then converted once (`exact_sum`). Dictionary codes always pass;
//!   a column that does not takes the row-order loop, which stays the only
//!   correct path on such input.
//! * **second pass, one lane per column.** The columns of a table have one
//!   row count, so groups of up to eight of them advance together, each in
//!   its own `f64` lane of a 512-bit register: per lane the operations and
//!   their order are the scalar loop's (no FMA), so every lane is one
//!   column's row-order sum (`lane_central_sums`, AVX-512F + DQ
//!   intrinsics behind an in-register 8 × 8 transpose). A group of one, a
//!   ragged group (columns of unequal length — `Table`'s fields are `pub`)
//!   and a host without those features take the scalar loop
//!   (`central_sums`). Platform and input shape choose, never a setting.
//!
//! The integer pass and [`equality_rate`]'s count compile under scalar /
//! AVX2 / AVX-512F through `ce_nn::simd_kernel!`, the workspace's one
//! dispatch macro. The oracle is the two-loop definition, verbatim. Every
//! other bound this module takes (distinct counts, coverage, histograms)
//! comes from the one extremes pass of [`crate::column`].
//!
//! Callers that summarise many columns in a row (`ce-features`) pass one
//! [`StatsScratch`] through the `*_with` variants so the bitmap and the sort
//! buffer are allocated once; [`ndv_with`] is the distinct count alone, for
//! callers that want no moments.

use crate::column::{extremes, Column, Value};
use crate::dataset::{Dataset, JoinEdge};
use ce_nn::simd_kernel;
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

/// Number of distinct values in `column` (its [`ColumnStats::ndv`]) without
/// the moments.
pub fn ndv_with(column: &Column, scratch: &mut StatsScratch) -> usize {
    let (min, max) = column.bounds();
    distinct_count(&column.data, min, max, scratch)
}

/// `(|set(pk) ∩ set(fk)|, |set(pk)|)`.
fn coverage_counts(pk: &[Value], fk: &[Value], scratch: &mut StatsScratch) -> (usize, usize) {
    let Some((min, max)) = extremes(pk) else {
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

/// The value of the first row that repeats an earlier row's value, if any
/// — what primary-key validation reports.
pub(crate) fn first_duplicate(data: &[Value]) -> Option<Value> {
    let (min, max) = extremes(data)?;
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

/// Columns the second pass advances together: the `f64` lanes of one
/// 512-bit register.
const LANES: usize = 8;

simd_kernel!(extremes_sum_kernel, (data: &[Value], out: &mut [Value; 3]), {
    // `[min, max, wrapping sum]`. Order-free integers, written as plain
    // reductions: each arm splits them over as many lane accumulators as
    // it has (4 × 8 under AVX-512F). An explicit eight-lane array form
    // compiled to gathers instead.
    let (mut min, mut max, mut sum) = (Value::MAX, Value::MIN, 0 as Value);
    for &v in data {
        min = min.min(v);
        max = max.max(v);
        sum = sum.wrapping_add(v);
    }
    *out = [min, max, sum];
});

simd_kernel!(equal_count_kernel, (a: &[Value], b: &[Value], out: &mut usize), {
    // Positions where two slices agree, up to the shorter one's length;
    // order-free like the kernel above.
    *out = a.iter().zip(b).map(|(x, y)| usize::from(x == y)).sum();
});

/// The guard of the integer first pass: whether the row-order `f64` sum of
/// `n` values inside `min..=max` is exact. Every value and every partial
/// sum is then an integer of magnitude at most `max(|min|, |max|) · n ≤
/// 2⁵³`, which `f64` holds exactly — so each addition of the loop is exact,
/// its result is the integer sum, and an `i64` sum of that size never
/// wrapped.
#[inline]
fn exact_sum(min: Value, max: Value, n: usize) -> bool {
    let magnitude = min.unsigned_abs().max(max.unsigned_abs());
    u128::from(magnitude) * n as u128 <= 1 << 53
}

/// The definition of a column's sum: row order, one rounding per row.
fn row_order_sum(data: &[Value]) -> f64 {
    let mut sum = 0.0f64;
    for &v in data {
        sum += v as f64;
    }
    sum
}

/// First pass: `(min, max, mean)` of a non-empty column.
fn extremes_mean(data: &[Value]) -> (Value, Value, f64) {
    let mut out = [0; 3];
    extremes_sum_kernel::dispatch(data, &mut out);
    let [min, max, wrapped] = out;
    let sum = if exact_sum(min, max, data.len()) {
        wrapped as f64
    } else {
        row_order_sum(data)
    };
    (min, max, sum / data.len() as f64)
}

/// Second pass, the definition: row-order central sums of one column,
/// `[Σ d², Σ d²·d, Σ d²·d², Σ |d|]` with `d = v as f64 − mean`. The path
/// of every column [`lane_central_sums`] does not take.
fn central_sums(data: &[Value], mean: f64) -> [f64; 4] {
    let (mut m2, mut m3, mut m4, mut adev) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &v in data {
        let d = v as f64 - mean;
        let d2 = d * d;
        m2 += d2;
        m3 += d2 * d;
        m4 += d2 * d2;
        adev += d.abs();
    }
    [m2, m3, m4, adev]
}

/// [`central_sums`] of up to [`LANES`] equal-length columns at once: lane
/// `l` of sum `s` is `central_sums(cols[l], mean[l])[s]`, bit for bit
/// (lanes past `cols.len()` are zero). Each lane performs that function's
/// operations on its own column in row order — separate multiplies and
/// adds, never an FMA.
///
/// Per block of eight rows: one 8-wide load per column, converted and
/// centred (`d[l]` = eight rows of column `l`), an in-register 8 × 8
/// transpose (each result = one row of all columns), then the eight row
/// vectors feed the accumulators in row order. Tail rows are gathered one
/// at a time.
///
/// Panics unless the columns number at most [`LANES`] and share one
/// length; the loads rely on that check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn lane_central_sums(cols: &[&[Value]], mean: &[f64; LANES]) -> [[f64; LANES]; 4] {
    use std::arch::x86_64::*;

    let rows = cols.first().map_or(0, |c| c.len());
    assert!(cols.len() <= LANES && cols.iter().all(|c| c.len() == rows));

    let zero = _mm512_setzero_pd();
    let (mut m2, mut m3, mut m4, mut adev) = (zero, zero, zero, zero);
    let mut accumulate = |d: __m512d| {
        let d2 = _mm512_mul_pd(d, d);
        m2 = _mm512_add_pd(m2, d2);
        m3 = _mm512_add_pd(m3, _mm512_mul_pd(d2, d));
        m4 = _mm512_add_pd(m4, _mm512_mul_pd(d2, d2));
        adev = _mm512_add_pd(adev, _mm512_abs_pd(d));
    };

    let mut row = 0;
    while row + LANES <= rows {
        let mut d = [zero; LANES];
        for ((d, col), &mean) in d.iter_mut().zip(cols).zip(mean) {
            // SAFETY: `row + LANES <= rows == col.len()` (asserted above),
            // so the eight values read lie inside `col`; the load is an
            // unaligned one.
            let v = unsafe { _mm512_loadu_si512(col.as_ptr().add(row).cast()) };
            *d = _mm512_sub_pd(_mm512_cvtepi64_pd(v), _mm512_set1_pd(mean));
        }
        // Column pairs interleaved per 128-bit lane: `t[2p + h]` holds rows
        // `h, h + 2, h + 4, h + 6` of columns `2p, 2p + 1`.
        let t = [
            _mm512_unpacklo_pd(d[0], d[1]),
            _mm512_unpackhi_pd(d[0], d[1]),
            _mm512_unpacklo_pd(d[2], d[3]),
            _mm512_unpackhi_pd(d[2], d[3]),
            _mm512_unpacklo_pd(d[4], d[5]),
            _mm512_unpackhi_pd(d[4], d[5]),
            _mm512_unpacklo_pd(d[6], d[7]),
            _mm512_unpackhi_pd(d[6], d[7]),
        ];
        // Two rounds of 128-bit-lane shuffles (0x88 keeps lanes 0 and 2 of
        // each operand, 0xdd lanes 1 and 3): `u[q]` holds rows `q, q + 4`
        // of columns 0–3, `u[q + 4]` the same rows of columns 4–7.
        let u = [
            _mm512_shuffle_f64x2::<0x88>(t[0], t[2]),
            _mm512_shuffle_f64x2::<0x88>(t[1], t[3]),
            _mm512_shuffle_f64x2::<0xdd>(t[0], t[2]),
            _mm512_shuffle_f64x2::<0xdd>(t[1], t[3]),
            _mm512_shuffle_f64x2::<0x88>(t[4], t[6]),
            _mm512_shuffle_f64x2::<0x88>(t[5], t[7]),
            _mm512_shuffle_f64x2::<0xdd>(t[4], t[6]),
            _mm512_shuffle_f64x2::<0xdd>(t[5], t[7]),
        ];
        // Rows 0–3, then 4–7.
        for q in 0..4 {
            accumulate(_mm512_shuffle_f64x2::<0x88>(u[q], u[q + 4]));
        }
        for q in 0..4 {
            accumulate(_mm512_shuffle_f64x2::<0xdd>(u[q], u[q + 4]));
        }
        row += LANES;
    }
    for row in row..rows {
        let mut d = [0.0f64; LANES];
        for ((d, col), &mean) in d.iter_mut().zip(cols).zip(mean) {
            *d = col[row] as f64 - mean;
        }
        // SAFETY: `d` is eight `f64`s; the load is an unaligned one.
        accumulate(unsafe { _mm512_loadu_pd(d.as_ptr()) });
    }

    let mut sums = [[0.0f64; LANES]; 4];
    for (out, acc) in sums.iter_mut().zip([m2, m3, m4, adev]) {
        // SAFETY: `out` is eight `f64`s; the store is an unaligned one.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), acc) };
    }
    sums
}

/// Whether [`lane_central_sums`] may run on this CPU.
fn lane_kernel_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // Level 2 is `simd_kernel!`'s cached AVX-512F probe.
        ce_nn::matrix::simd_level() == 2 && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Second pass over a group of up to [`LANES`] columns: lane `l` of sum
/// `s` is `central_sums(group[l], mean[l])[s]`. Equal-length columns, two
/// or more, share the lane kernel when `lane_kernel` says the CPU has it
/// ([`lane_kernel_detected`]'s answer; the tests also pass `false`, to run
/// what a host without it runs); every other group takes the definition.
fn group_central_sums(
    group: &[&Column],
    mean: &[f64; LANES],
    lane_kernel: bool,
) -> [[f64; LANES]; 4] {
    #[cfg(target_arch = "x86_64")]
    if lane_kernel && group.len() >= 2 && group.iter().all(|c| c.len() == group[0].len()) {
        let mut cols: [&[Value]; LANES] = [&[]; LANES];
        for (slot, column) in cols.iter_mut().zip(group) {
            *slot = &column.data;
        }
        // SAFETY: `lane_kernel` is true only where AVX-512F and AVX-512DQ
        // were detected on this CPU, which is all the kernel's
        // `target_feature` asks; it checks its arguments itself.
        return unsafe { lane_central_sums(&cols[..group.len()], mean) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = lane_kernel;
    let mut sums = [[0.0f64; LANES]; 4];
    for (l, column) in group.iter().enumerate() {
        for (sum, s) in sums.iter_mut().zip(central_sums(&column.data, mean[l])) {
            sum[l] = s;
        }
    }
    sums
}

/// Appends the summaries of up to [`LANES`] columns to `out`.
fn summarise_group(
    group: &[&Column],
    lane_kernel: bool,
    scratch: &mut StatsScratch,
    out: &mut Vec<ColumnStats>,
) {
    let mut extremes = [(0, 0); LANES];
    let mut mean = [0.0f64; LANES];
    for (l, column) in group.iter().enumerate() {
        if !column.is_empty() {
            let (min, max, m) = extremes_mean(&column.data);
            extremes[l] = (min, max);
            mean[l] = m;
        }
    }
    let sums = group_central_sums(group, &mean, lane_kernel);
    for (l, column) in group.iter().enumerate() {
        let (min, max) = extremes[l];
        let ndv = distinct_count(&column.data, min, max, scratch);
        out.push(ColumnStats::from_sums(
            column.len(),
            (min, max),
            ndv,
            mean[l],
            sums.map(|sum| sum[l]),
        ));
    }
}

impl ColumnStats {
    /// Computes all moments in two passes plus one distinct-count pass
    /// (see the module docs).
    pub fn compute(column: &Column) -> Self {
        Self::compute_with(column, &mut StatsScratch::default())
    }

    /// [`Self::compute`] on caller-provided scratch; same bits. The
    /// group-of-one case of [`Self::compute_table_with`].
    pub fn compute_with(column: &Column, scratch: &mut StatsScratch) -> Self {
        Self::compute_table_with(&[column], scratch)
            .pop()
            .expect("one column in, one summary out")
    }

    /// [`Self::compute`] of each of `columns` — one table's, normally —
    /// with the passes shared across them (see the module docs); same bits
    /// whatever the columns' lengths.
    pub fn compute_table_with(columns: &[&Column], scratch: &mut StatsScratch) -> Vec<Self> {
        let lane_kernel = lane_kernel_detected();
        let mut out = Vec::with_capacity(columns.len());
        for group in columns.chunks(LANES) {
            summarise_group(group, lane_kernel, scratch, &mut out);
        }
        out
    }

    /// The one place sums become a summary: `sums` is [`central_sums`] of
    /// the column's `count` rows around `mean`.
    fn from_sums(
        count: usize,
        (min, max): (Value, Value),
        ndv: usize,
        mean: f64,
        sums: [f64; 4],
    ) -> Self {
        if count == 0 {
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
        let [m2, m3, m4, adev] = sums.map(|sum| sum / count as f64);
        let std_dev = m2.sqrt();
        let (skewness, kurtosis) = if std_dev > 1e-12 {
            (m3 / (std_dev * std_dev * std_dev), m4 / (m2 * m2) - 3.0)
        } else {
            (0.0, 0.0)
        };
        ColumnStats {
            count,
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

/// Value slots per row up to which [`value_runs`] counts instead of sorting.
const COUNTING_SLOTS_PER_ROW: i128 = 8;

/// The counting/sorted rule of [`value_runs`]: `Some(slots)` when one
/// counter per value of `min..=max` takes at most
/// [`COUNTING_SLOTS_PER_ROW`] counters per row (and a `u32` holds any
/// count), else `None`. A function of the span and the row count only.
#[inline]
fn counting_slots(min: Value, max: Value, rows: usize) -> Option<usize> {
    let slots = wide_span(min, max) + 1;
    (slots <= COUNTING_SLOTS_PER_ROW * rows as i128 && u32::try_from(rows).is_ok())
        .then_some(slots as usize)
}

/// The non-zero slots of `counts` as runs, slot `s` standing for the value
/// `min + s`, in slot order. Branch-free compaction: every slot is written
/// at the next free position, which advances by `c > 0`, so a column whose
/// span is half empty costs no coin-flip branch per slot.
fn compact_runs(counts: &[u32], min: Value) -> Vec<(Value, usize)> {
    let mut runs = vec![(0, 0); counts.len()];
    let mut len = 0;
    for (slot, &c) in counts.iter().enumerate() {
        // `len <= slot`: at most one run per slot before this one.
        runs[len] = (min.wrapping_add(slot as Value), c as usize);
        len += usize::from(c > 0);
    }
    runs.truncate(len);
    runs
}

/// The sorted run-length encoding of `data`, whose extremes are `min` and
/// `max`: each distinct value once, in ascending order, with the number of
/// rows holding it. Counted into one slot per value of the span when
/// [`counting_slots`] allows (the non-zero slots in slot order *are* the
/// runs in value order; [`compact_runs`] collects them without a branch),
/// else sorted.
fn value_runs(data: &[Value], min: Value, max: Value) -> Vec<(Value, usize)> {
    if let Some(slots) = counting_slots(min, max, data.len()) {
        let mut counts = vec![0u32; slots];
        for &v in data {
            // `min..=max` holds every value, so the offset is below `slots`.
            counts[v.wrapping_sub(min) as u64 as usize] += 1;
        }
        return compact_runs(&counts, min);
    }
    let mut sorted = data.to_vec();
    sorted.sort_unstable();
    let mut runs: Vec<(Value, usize)> = Vec::new();
    for &v in &sorted {
        match runs.last_mut() {
            Some((rv, c)) if *rv == v => *c += 1,
            _ => runs.push((v, 1)),
        }
    }
    runs
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
        let total = column.len();
        let Some((min, max)) = extremes(&column.data).filter(|_| buckets > 0) else {
            return EquiDepthHistogram {
                bounds: Vec::new(),
                counts: Vec::new(),
                total: 0,
                min: 0,
            };
        };
        let per = total.div_ceil(buckets);
        // Pack the runs greedily into buckets of target depth `per`. A run
        // at least as large as `per` (a heavy hitter) always gets its own
        // bucket, so point queries on skewed columns stay accurate — the
        // behavior PostgreSQL gets from its MCV list.
        let runs = value_runs(&column.data, min, max);
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
    // The count stops at the shorter column, like `n`.
    let mut equal = 0;
    equal_count_kernel::dispatch(&a.data, &b.data, &mut equal);
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
    fn histogram_of_nothing_is_empty() {
        let empty = oracle::histogram(&[], 10);
        assert_eq!(
            EquiDepthHistogram::build(&Column::data("e", vec![]), 10),
            empty
        );
        assert_eq!(empty.total, 0);
        let no_buckets = EquiDepthHistogram::build(&Column::data("b", vec![3, 1]), 0);
        assert_eq!(no_buckets, oracle::histogram(&[3, 1], 0));
        assert_eq!(value_runs(&[], 0, 0), vec![]);
        // The rule: slots up to eight per row are counted.
        assert_eq!(counting_slots(0, 15, 2), Some(16));
        assert_eq!(counting_slots(0, 16, 2), None);
        assert_eq!(counting_slots(i64::MIN, i64::MAX, usize::MAX), None);
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
        use super::{ColumnStats, EquiDepthHistogram, Value};
        use std::collections::HashSet;

        pub fn ndv(data: &[Value]) -> usize {
            data.iter().copied().collect::<HashSet<_>>().len()
        }

        /// `ColumnStats::compute_with` as it stood before the table
        /// kernels — two row-order `f64` loops per column — verbatim but
        /// for the distinct count, which is the `HashSet` one above.
        pub fn column_stats(data: &[Value]) -> ColumnStats {
            let n = data.len();
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
            ColumnStats {
                count: n,
                min,
                max,
                ndv: ndv(data),
                mean,
                std_dev,
                mean_dev: adev,
                skewness,
                kurtosis,
            }
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

        /// `EquiDepthHistogram::build` before the counting runs: clone,
        /// sort, run-length encode, pack.
        pub fn histogram(data: &[Value], buckets: usize) -> EquiDepthHistogram {
            let mut sorted = data.to_vec();
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
    }

    /// `value_runs`' compaction before it went branch-free: a `filter` over
    /// the slots.
    fn runs_by_filter(counts: &[u32], min: Value) -> Vec<(Value, usize)> {
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(slot, &c)| (min.wrapping_add(slot as Value), c as usize))
            .collect()
    }

    /// The counting slots of `data` over `min..=max`, as `value_runs` fills
    /// them.
    fn slot_counts(data: &[Value], min: Value, slots: usize) -> Vec<u32> {
        let mut counts = vec![0u32; slots];
        for &v in data {
            counts[v.wrapping_sub(min) as u64 as usize] += 1;
        }
        counts
    }

    #[test]
    fn branch_free_runs_match_the_filter_oracle() {
        let (lo, hi) = (i64::MIN, i64::MAX);
        // All slots full, none full, one distinct value, alternating and
        // ragged occupancy; slot bases at either end of `i64`.
        let shapes: [Vec<u32>; 7] = [
            vec![],
            vec![3; 17],
            vec![0; 9],
            vec![5],
            (0..33).map(|s| s % 2).collect(),
            (0..40).map(|s| u32::from(s % 7 == 3) * s).collect(),
            (0..25).map(|s| (s * 7919) % 3).collect(),
        ];
        for counts in &shapes {
            for min in [lo, -4, 0, 1, hi - counts.len() as i64] {
                assert_eq!(compact_runs(counts, min), runs_by_filter(counts, min));
            }
        }
        // Through `value_runs`: one distinct value, every value of a full
        // span, and spans right at the counting rule's bound (`8·n` slots
        // counted), at both ends of `i64`.
        let counted = |data: &[Value]| {
            let (min, max) = extremes(data).expect("non-empty");
            let slots = counting_slots(min, max, data.len()).expect("counted");
            let want = runs_by_filter(&slot_counts(data, min, slots), min);
            assert_eq!(value_runs(data, min, max), want, "{data:?}");
        };
        counted(&[7; 5]);
        counted(&[hi; 3]);
        counted(&(1..=64).rev().collect::<Vec<_>>());
        for n in [1i64, 2, 3, 8, 13] {
            let span = 8 * n - 1; // `8n` slots: the most a count may take
            for base in [lo, -span / 2, hi - span] {
                let mut data: Vec<Value> = (0..n).map(|r| base + (r * 5) % (span + 1)).collect();
                data[0] = base;
                data[n as usize - 1] = base + span;
                counted(&data);
            }
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        fn counting_histogram_matches_the_sort_oracle(
            raw in prop::collection::vec(i64::MIN..=i64::MAX, 0..200),
            kind in 0usize..7,
            buckets in 0usize..12,
        ) {
            // Five `shaped` kinds (codes, negative codes, one value, spans
            // near 64·n, the whole `i64` range), then spans on either side
            // of the counting rule's bound — `8·n` slots counted, `8·n + 1`
            // sorted — pinned to `i64::MIN` or `i64::MAX`.
            let n = raw.len();
            let mut data = shaped(kind, &raw);
            if kind >= 5 && n > 1 {
                let span = 8 * n as i64 - 6 + kind as i64; // 8n − 1 or 8n
                let lo = if raw[0] % 2 == 0 { i64::MIN } else { i64::MAX - span };
                data = raw.iter().map(|v| lo + v.rem_euclid(span + 1)).collect();
                data[0] = lo;
                data[n - 1] = lo + span;
                prop_assert_eq!(counting_slots(lo, lo + span, n).is_some(), kind == 5);
            }
            let column = Column::data("c", data.clone());
            prop_assert_eq!(
                EquiDepthHistogram::build(&column, buckets),
                oracle::histogram(&data, buckets)
            );
        }

        #[test]
        fn branch_free_runs_match_the_filter_oracle_on_any_counts(
            raw in prop::collection::vec(0u32..4, 0..120),
            min in i64::MIN..=i64::MAX,
            full in 0usize..3,
        ) {
            // One draw in three has every slot full.
            let counts: Vec<u32> = raw.iter().map(|&c| if full == 0 { c + 1 } else { c }).collect();
            let min = min.min(i64::MAX - counts.len() as i64);
            prop_assert_eq!(compact_runs(&counts, min), runs_by_filter(&counts, min));
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

    // ---- the table-at-a-time moment kernels against the oracle -----------

    const ARMS: [&str; 3] = ["scalar", "avx2", "avx512f"];
    /// How the covered-arms report names [`lane_central_sums`].
    const LANE_ARM: &str = "lane-per-column (avx512f+avx512dq)";

    /// Every field of a summary as integers and bit patterns, NaN folded to
    /// one pattern: which NaN an operation returns is not specified by
    /// Rust, and no column can produce one anyway.
    fn stat_bits(s: &ColumnStats) -> (usize, Value, Value, usize, [u64; 5]) {
        let floats = [s.mean, s.std_dev, s.mean_dev, s.skewness, s.kurtosis];
        let bits = |v: f64| if v.is_nan() { f64::NAN } else { v }.to_bits();
        (s.count, s.min, s.max, s.ndv, floats.map(bits))
    }

    /// A column whose `max(|min|, |max|) · n` hugs the integer pass's
    /// guard, in one of four ways picked by the first draw: values of
    /// `±⌊2⁵³ / n⌋` and a little inside, signs mixed so the partial sums
    /// cancel and grow again (admitted); the same with one value just past
    /// the guard on either side (refused); odd values of one sign and twice
    /// that size, so the loop's partial sums pass 2⁵³ and round — where a
    /// looser guard would move bits.
    fn guard_hugging(raw: &[Value]) -> Vec<Value> {
        let Some(&first) = raw.first() else {
            return Vec::new();
        };
        let edge = (1i64 << 53) / raw.len() as i64;
        let near = |v: Value| (v >> 2).rem_euclid(1000);
        if first.rem_euclid(4) == 3 {
            return raw.iter().map(|&v| (2 * edge - near(v)) | 1).collect();
        }
        let mut data: Vec<Value> = raw
            .iter()
            .map(|&v| match v.rem_euclid(4) {
                0 => edge,
                1 => -edge,
                2 => edge - near(v),
                _ => near(v) - edge,
            })
            .collect();
        let at = (first >> 12).rem_euclid(raw.len() as i64) as usize;
        match first.rem_euclid(4) {
            1 => data[at] = edge + 1,
            2 => data[at] = -edge - 1,
            _ => {}
        }
        data
    }

    /// The five `shaped` kinds, then the guard-hugging one.
    fn moment_shaped(kind: usize, raw: &[Value]) -> Vec<Value> {
        match kind % 6 {
            5 => guard_hugging(raw),
            kind => shaped(kind, raw),
        }
    }

    fn raw_draws(rng: &mut StdRng, n: usize) -> Vec<Value> {
        (0..n).map(|_| rng.gen()).collect()
    }

    /// The table kernel — as dispatched on this host, and as a host
    /// without the lane kernel runs it — and every `simd_kernel!` arm under
    /// it against the oracles, on every field's bits. Returns the arms
    /// that ran.
    fn check_table(data: &[Vec<Value>], scratch: &mut StatsScratch) -> Vec<&'static str> {
        let columns: Vec<Column> = data.iter().map(|d| Column::data("c", d.clone())).collect();
        let refs: Vec<&Column> = columns.iter().collect();
        let want: Vec<_> = data
            .iter()
            .map(|d| stat_bits(&oracle::column_stats(d)))
            .collect();
        let shape: Vec<usize> = data.iter().map(Vec::len).collect();

        let got = ColumnStats::compute_table_with(&refs, scratch);
        let got: Vec<_> = got.iter().map(stat_bits).collect();
        assert_eq!(got, want, "dispatched, rows {shape:?}");
        let mut scalar = Vec::new();
        for group in refs.chunks(LANES) {
            summarise_group(group, false, scratch, &mut scalar);
        }
        let got: Vec<_> = scalar.iter().map(stat_bits).collect();
        assert_eq!(got, want, "scalar second pass, rows {shape:?}");

        let mut covered = Vec::new();
        for (level, name) in ARMS.iter().enumerate() {
            let level = level as u8;
            // Each column alone, and against its (perhaps longer or
            // shorter) neighbour.
            let ran = data
                .iter()
                .zip(data.iter().cycle().skip(1))
                .all(|(d, next)| {
                    let (mut sums, mut equal) = ([0; 3], usize::MAX);
                    if !(extremes_sum_kernel::run_arm(level, d, &mut sums)
                        && equal_count_kernel::run_arm(level, d, next, &mut equal))
                    {
                        return false;
                    }
                    let wrapped = d.iter().fold(0 as Value, |acc, &v| acc.wrapping_add(v));
                    if let (Some(&min), Some(&max)) = (d.iter().min(), d.iter().max()) {
                        assert_eq!(sums, [min, max, wrapped], "{name}, {} rows", d.len());
                    }
                    let want = d.iter().zip(next).filter(|(x, y)| x == y).count();
                    assert_eq!(equal, want, "{name}, {} and {} rows", d.len(), next.len());
                    true
                });
            if ran {
                covered.push(*name);
            }
        }
        if lane_kernel_detected() {
            covered.push(LANE_ARM);
        }
        covered
    }

    #[test]
    fn table_kernel_matches_the_oracle_on_the_shape_grid() {
        let mut rng = StdRng::seed_from_u64(0x7ab1e);
        let mut scratch = StatsScratch::default();
        let mut covered = Vec::new();
        // Column counts cross the eight-lane group; row counts the
        // eight-row block and the integer pass's 32-row stride.
        for columns in [1, 2, 3, 6, 7, 8, 9, 12] {
            for rows in [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65] {
                for kind in 0..6 {
                    let data: Vec<_> = (0..columns)
                        .map(|_| moment_shaped(kind, &raw_draws(&mut rng, rows)))
                        .collect();
                    covered = check_table(&data, &mut scratch);
                }
            }
        }
        let missing: Vec<_> = ARMS
            .iter()
            .chain([&LANE_ARM])
            .filter(|arm| !covered.contains(arm))
            .collect();
        println!(
            "statistics kernel arms covered on this host: {covered:?}; NOT covered: {missing:?}"
        );
    }

    #[test]
    fn the_integer_sum_is_taken_only_where_the_float_loop_is_exact() {
        let two52 = 1i64 << 52;
        let equals_the_oracle = |data: &[Value]| {
            let got = ColumnStats::compute(&Column::data("g", data.to_vec()));
            assert_eq!(
                stat_bits(&got),
                stat_bits(&oracle::column_stats(data)),
                "{data:?}"
            );
        };
        // On the edge: 2 · 2⁵² = 2⁵³ is admitted, and is the loop's sum.
        assert!(exact_sum(two52, two52, 2));
        assert_eq!(row_order_sum(&[two52, two52]), (2 * two52) as f64);
        equals_the_oracle(&[two52, two52]);
        // One past it is refused.
        assert!(!exact_sum(two52, two52 + 1, 2));
        assert!(!exact_sum(-two52 - 1, two52, 2));
        equals_the_oracle(&[two52 + 1, two52]);
        // Where the refusal matters: the loop rounds 2⁵³ + 1 back to 2⁵³
        // twice, the integer sum does not.
        let rounds = [2 * two52, 1, 1];
        assert!(!exact_sum(1, 2 * two52, 3));
        assert_ne!(row_order_sum(&rounds), (2 * two52 + 2) as f64);
        equals_the_oracle(&rounds);
        // `|i64::MIN|` does not fit `i64`; it does not fit the guard either.
        assert!(!exact_sum(i64::MIN, i64::MIN, 1));
        equals_the_oracle(&[i64::MIN]);
        equals_the_oracle(&[i64::MIN, i64::MAX, i64::MIN, -1]);
        // One row: admitted up to 2⁵³ itself.
        assert!(exact_sum(2 * two52, 2 * two52, 1));
        assert!(!exact_sum(2 * two52 + 1, 2 * two52 + 1, 1));
        equals_the_oracle(&[2 * two52]);
        equals_the_oracle(&[2 * two52 + 1]);
        equals_the_oracle(&[-7]);
        // No row: nothing to admit, nothing summed.
        equals_the_oracle(&[]);
    }

    proptest! {
        #[test]
        fn table_kernel_matches_the_oracle(
            seed in 0u64..1_000_000,
            columns in 1usize..=12,
            rows in 0usize..14,
            ragged in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = match [0, 1, 7, 8, 9, 63, 64, 65].get(rows) {
                Some(&edge) => edge,
                None => rng.gen_range(0..300),
            };
            // One table in four is ragged (the scalar fallback); kinds mix
            // inside a table, so one group holds admitted and refused sums.
            let data: Vec<_> = (0..columns)
                .map(|_| {
                    let n = if ragged == 0 { rng.gen_range(0..=rows + 3) } else { rows };
                    moment_shaped(rng.gen_range(0..6), &raw_draws(&mut rng, n))
                })
                .collect();
            // A dirty scratch from an unrelated column must not leak in.
            let mut scratch = StatsScratch::default();
            ColumnStats::compute_with(&Column::data("dirt", vec![9, -4, 77, 9]), &mut scratch);
            let covered = check_table(&data, &mut scratch);
            prop_assert!(covered.contains(&"scalar"));
            prop_assert_eq!(covered.contains(&LANE_ARM), lane_kernel_detected());
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
