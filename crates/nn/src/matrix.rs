//! Row-major `f32` matrices with the operations the models need.
//!
//! # Kernel notes
//!
//! The hot kernels ([`Matrix::matmul`], the fused transposed products and
//! [`spmm_csr`]) are written for the shapes the GIN training engine
//! produces: tall-thin activations (a handful of graph vertices × 32–64
//! features) multiplied against small square-ish weight matrices. The
//! matmul uses an i-k-j loop order — the innermost loop streams one row of
//! `b` into one row of `out` with no branches, which vectorizes — and
//! blocks the `k` dimension in panels of `KERNEL_BLOCK` so a panel of
//! `b` rows stays in L1 across successive `i` rows when `a` has many rows.
//! `k` advances in ascending order within and across panels, so the
//! accumulation order (and hence the exact floating-point result) is
//! independent of the blocking and identical to the naive triple loop.
//!
//! The transposed products (`matmul_transposed_left` = `selfᵀ·other`,
//! `matmul_transposed_right` = `self·otherᵀ`) index the transposed operand
//! directly instead of materializing the transpose; backprop calls them on
//! every layer of every graph, where the saved allocation dominates the
//! cost at GIN sizes.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// `k`-panel size of the blocked matmul (rows of `b` kept hot in L1).
const KERNEL_BLOCK: usize = 64;

// ---- SIMD dispatch ---------------------------------------------------------
//
// The hot kernels are all lane-parallel (`out[j] += a · b[j]` with
// independent `j` lanes, accumulation order fixed along `k`), so compiling
// the *same* body under wider target features only widens the vectors —
// per-lane IEEE math is unchanged and results stay bit-identical to the
// scalar build. Rust never contracts `a*b + c` into an FMA, so enabling
// AVX-512F/AVX2 cannot change rounding. Feature detection is cached and
// checked once per kernel call (thousands of flops), not per row.

/// Generates scalar + AVX2 + AVX-512F instantiations of one kernel body
/// (same code, wider autovectorization) plus a caller dispatching on cached
/// runtime CPU features. Non-x86-64 targets always take the scalar body.
///
/// Exported for the workspace's other kernel crate (`ce-storage::stats`),
/// so there is one copy of the macro and of the feature probe; not a
/// public API.
#[doc(hidden)]
#[macro_export]
macro_rules! simd_kernel {
    ($name:ident, ($($arg:ident: $ty:ty),* $(,)?), $body:block) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[inline(always)]
            fn body($($arg: $ty),*) $body

            fn scalar($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512($($arg: $ty),*) {
                body($($arg),*)
            }

            pub(super) fn dispatch($($arg: $ty),*) {
                #[cfg(target_arch = "x86_64")]
                match $crate::matrix::simd_level() {
                    // SAFETY: the matching feature was detected at runtime.
                    2 => return unsafe { avx512($($arg),*) },
                    1 => return unsafe { avx2($($arg),*) },
                    _ => {}
                }
                scalar($($arg),*)
            }

            /// Runs one named arm (0 = scalar, 1 = AVX2, 2 = AVX-512F) for
            /// the differential tests; `false` when the host lacks it.
            #[cfg(test)]
            #[allow(dead_code, clippy::too_many_arguments)]
            pub(super) fn run_arm(level: u8, $($arg: $ty),*) -> bool {
                match level {
                    0 => scalar($($arg),*),
                    // SAFETY: the matching feature was detected just now.
                    #[cfg(target_arch = "x86_64")]
                    1 if std::arch::is_x86_feature_detected!("avx2") => unsafe {
                        avx2($($arg),*)
                    },
                    #[cfg(target_arch = "x86_64")]
                    2 if std::arch::is_x86_feature_detected!("avx512f") => unsafe {
                        avx512($($arg),*)
                    },
                    _ => return false,
                }
                true
            }
        }
    };
}
pub(crate) use simd_kernel;

/// Cached SIMD capability: 0 = baseline, 1 = AVX2, 2 = AVX-512F.
#[doc(hidden)]
#[cfg(target_arch = "x86_64")]
pub fn simd_level() -> u8 {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<u8> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx512f") {
            2
        } else if std::arch::is_x86_feature_detected!("avx2") {
            1
        } else {
            0
        }
    })
}

simd_kernel!(matmul_kernel, (a: &[f32], b: &[f32], out: &mut [f32], rows: usize, inner: usize, cols: usize), {
    // Cache-blocked branchless i-k-j product with a 4×4 register micro-
    // kernel: four output rows advance together through four fused `k`
    // steps, so each loaded `b` row feeds four accumulators (4× less `b`
    // traffic) and the four per-row dependency chains run independently
    // (4× the ILP of a single-row pass). Each output element still chains
    // its adds in ascending `k`, so the result is bit-identical to the
    // naive triple loop at any blocking or fusion width. Row blocking is
    // why the batch-stacked serving path pays off: a 4-vertex graph's
    // matmul never fills a row block, a 500-row stacked batch does.
    for k0 in (0..inner).step_by(KERNEL_BLOCK) {
        let k1 = (k0 + KERNEL_BLOCK).min(inner);
        let klen = k1 - k0;
        let mut i = 0usize;
        while i + 4 <= rows {
            let (a0, a1, a2, a3) = (
                &a[i * inner + k0..i * inner + k1],
                &a[(i + 1) * inner + k0..(i + 1) * inner + k1],
                &a[(i + 2) * inner + k0..(i + 2) * inner + k1],
                &a[(i + 3) * inner + k0..(i + 3) * inner + k1],
            );
            let (o01, o23) = out[i * cols..(i + 4) * cols].split_at_mut(2 * cols);
            let (o0, o1) = o01.split_at_mut(cols);
            let (o2, o3) = o23.split_at_mut(cols);
            let mut k = 0usize;
            while k + 4 <= klen {
                let base = (k0 + k) * cols;
                let b0 = &b[base..base + cols];
                let b1 = &b[base + cols..base + 2 * cols];
                let b2 = &b[base + 2 * cols..base + 3 * cols];
                let b3 = &b[base + 3 * cols..base + 4 * cols];
                for j in 0..cols {
                    let (w0, w1, w2, w3) = (b0[j], b1[j], b2[j], b3[j]);
                    let mut v0 = o0[j];
                    v0 += a0[k] * w0;
                    v0 += a0[k + 1] * w1;
                    v0 += a0[k + 2] * w2;
                    v0 += a0[k + 3] * w3;
                    o0[j] = v0;
                    let mut v1 = o1[j];
                    v1 += a1[k] * w0;
                    v1 += a1[k + 1] * w1;
                    v1 += a1[k + 2] * w2;
                    v1 += a1[k + 3] * w3;
                    o1[j] = v1;
                    let mut v2 = o2[j];
                    v2 += a2[k] * w0;
                    v2 += a2[k + 1] * w1;
                    v2 += a2[k + 2] * w2;
                    v2 += a2[k + 3] * w3;
                    o2[j] = v2;
                    let mut v3 = o3[j];
                    v3 += a3[k] * w0;
                    v3 += a3[k + 1] * w1;
                    v3 += a3[k + 2] * w2;
                    v3 += a3[k + 3] * w3;
                    o3[j] = v3;
                }
                k += 4;
            }
            while k < klen {
                let b_row = &b[(k0 + k) * cols..(k0 + k + 1) * cols];
                for (j, &bv) in b_row.iter().enumerate() {
                    o0[j] += a0[k] * bv;
                    o1[j] += a1[k] * bv;
                    o2[j] += a2[k] * bv;
                    o3[j] += a3[k] * bv;
                }
                k += 1;
            }
            i += 4;
        }
        // Remainder rows (and any matrix shorter than one row block).
        while i < rows {
            let a_row = &a[i * inner + k0..i * inner + k1];
            let out_row = &mut out[i * cols..(i + 1) * cols];
            let mut k = 0usize;
            while k + 4 <= klen {
                let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
                let base = (k0 + k) * cols;
                let b0 = &b[base..base + cols];
                let b1 = &b[base + cols..base + 2 * cols];
                let b2 = &b[base + 2 * cols..base + 3 * cols];
                let b3 = &b[base + 3 * cols..base + 4 * cols];
                for j in 0..cols {
                    let mut v = out_row[j];
                    v += a0 * b0[j];
                    v += a1 * b1[j];
                    v += a2 * b2[j];
                    v += a3 * b3[j];
                    out_row[j] = v;
                }
                k += 4;
            }
            while k < klen {
                let av = a_row[k];
                let b_row = &b[(k0 + k) * cols..(k0 + k + 1) * cols];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
                k += 1;
            }
            i += 1;
        }
    }
});

simd_kernel!(tmatmul_left_kernel, (x: &[f32], g: &[f32], out: &mut [f32], rows: usize, xc: usize, gc: usize), {
    // out (xc×gc) += xᵀ·g with k (shared rows) ascending; four `k` rows
    // fused per pass over `out` (same chained-add ordering as one-by-one).
    let mut k = 0usize;
    while k + 4 <= rows {
        let x0 = &x[k * xc..(k + 1) * xc];
        let x1 = &x[(k + 1) * xc..(k + 2) * xc];
        let x2 = &x[(k + 2) * xc..(k + 3) * xc];
        let x3 = &x[(k + 3) * xc..(k + 4) * xc];
        let g0 = &g[k * gc..(k + 1) * gc];
        let g1 = &g[(k + 1) * gc..(k + 2) * gc];
        let g2 = &g[(k + 2) * gc..(k + 3) * gc];
        let g3 = &g[(k + 3) * gc..(k + 4) * gc];
        for i in 0..xc {
            let (v0, v1, v2, v3) = (x0[i], x1[i], x2[i], x3[i]);
            let out_row = &mut out[i * gc..(i + 1) * gc];
            for j in 0..gc {
                let mut v = out_row[j];
                v += v0 * g0[j];
                v += v1 * g1[j];
                v += v2 * g2[j];
                v += v3 * g3[j];
                out_row[j] = v;
            }
        }
        k += 4;
    }
    // Fused k-tails: a 2- or 3-row remainder (the whole matrix, for a
    // 2-3-vertex graph) makes one pass over `out` instead of one per row —
    // per-element adds still chain in ascending `k`, so the result is
    // bit-identical to the one-at-a-time loop. Tiny-graph weight gradients
    // are accumulator-traffic-bound, so this is the kernel's hot tail.
    match rows - k {
        3 => {
            let x0 = &x[k * xc..(k + 1) * xc];
            let x1 = &x[(k + 1) * xc..(k + 2) * xc];
            let x2 = &x[(k + 2) * xc..(k + 3) * xc];
            let g0 = &g[k * gc..(k + 1) * gc];
            let g1 = &g[(k + 1) * gc..(k + 2) * gc];
            let g2 = &g[(k + 2) * gc..(k + 3) * gc];
            for i in 0..xc {
                let (v0, v1, v2) = (x0[i], x1[i], x2[i]);
                let out_row = &mut out[i * gc..(i + 1) * gc];
                for j in 0..gc {
                    let mut v = out_row[j];
                    v += v0 * g0[j];
                    v += v1 * g1[j];
                    v += v2 * g2[j];
                    out_row[j] = v;
                }
            }
        }
        2 => {
            let x0 = &x[k * xc..(k + 1) * xc];
            let x1 = &x[(k + 1) * xc..(k + 2) * xc];
            let g0 = &g[k * gc..(k + 1) * gc];
            let g1 = &g[(k + 1) * gc..(k + 2) * gc];
            for i in 0..xc {
                let (v0, v1) = (x0[i], x1[i]);
                let out_row = &mut out[i * gc..(i + 1) * gc];
                for j in 0..gc {
                    let mut v = out_row[j];
                    v += v0 * g0[j];
                    v += v1 * g1[j];
                    out_row[j] = v;
                }
            }
        }
        1 => {
            let x_row = &x[k * xc..(k + 1) * xc];
            let g_row = &g[k * gc..(k + 1) * gc];
            for (i, &xv) in x_row.iter().enumerate() {
                let out_row = &mut out[i * gc..(i + 1) * gc];
                for (o, &gv) in out_row.iter_mut().zip(g_row) {
                    *o += xv * gv;
                }
            }
        }
        _ => {}
    }
});

simd_kernel!(add_slices_kernel, (acc: &mut [f32], other: &[f32]), {
    for (a, &b) in acc.iter_mut().zip(other) {
        *a += b;
    }
});

simd_kernel!(segsum_kernel, (h: &[f32], offsets: &[usize], out: &mut [f32], cols: usize), {
    // Per segment, rows accumulate in ascending order — the same chained
    // adds `sum_rows` performs on a standalone matrix holding just that
    // segment, so segmented and per-matrix pooling agree bit-for-bit.
    for s in 0..offsets.len() - 1 {
        let out_row = &mut out[s * cols..(s + 1) * cols];
        out_row.iter_mut().for_each(|v| *v = 0.0);
        for r in offsets[s]..offsets[s + 1] {
            let h_row = &h[r * cols..(r + 1) * cols];
            for (o, &v) in out_row.iter_mut().zip(h_row) {
                *o += v;
            }
        }
    }
});

simd_kernel!(segbroadcast_kernel, (src: &[f32], offsets: &[usize], out: &mut [f32], cols: usize), {
    // Pure row copies (no arithmetic): every vertex row of segment `s`
    // receives an exact bit copy of source row `s`, the same bits the
    // per-graph backward writes when it broadcasts one embedding gradient
    // over that graph's vertices.
    for s in 0..offsets.len() - 1 {
        let src_row = &src[s * cols..(s + 1) * cols];
        for r in offsets[s]..offsets[s + 1] {
            out[r * cols..(r + 1) * cols].copy_from_slice(src_row);
        }
    }
});

simd_kernel!(spmm_kernel, (indptr: &[usize], indices: &[usize], weights: &[f32], diag: f32, h: &[f32], out: &mut [f32], cols: usize), {
    let n = indptr.len() - 1;
    out.iter_mut().for_each(|v| *v = 0.0);
    for i in 0..n {
        let lo = indptr[i];
        let hi = indptr[i + 1];
        let split = lo + indices[lo..hi].partition_point(|&j| j < i);
        let out_row = &mut out[i * cols..(i + 1) * cols];
        for idx in lo..split {
            let j = indices[idx];
            axpy(out_row, &h[j * cols..(j + 1) * cols], weights[idx]);
        }
        axpy(out_row, &h[i * cols..(i + 1) * cols], diag);
        for idx in split..hi {
            let j = indices[idx];
            axpy(out_row, &h[j * cols..(j + 1) * cols], weights[idx]);
        }
    }
});

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` entries.
    pub data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a nested `Vec` (each inner vec is one row).
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        Matrix::from_row_slices(&rows)
    }

    /// Builds from borrowed row slices — one straight copy per row, no
    /// intermediate `Vec` clones (the hot-path replacement for
    /// `from_rows(rows.clone())`).
    pub fn from_row_slices(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Reshapes this matrix to `rows × cols` with all entries zeroed,
    /// reusing the existing allocation when it is large enough. This is the
    /// pool-recycling primitive: checked-out workspace matrices are resized
    /// into shape without a fresh `Vec` per use.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows × cols` reusing the allocation, **without**
    /// clearing: surviving entries keep stale values (growth is
    /// zero-filled). Only for outputs a kernel fully overwrites — e.g.
    /// [`spmm_csr`], which zeroes its output itself — where
    /// [`Self::reset_zeroed`] would clear the buffer twice.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// A single-row matrix.
    pub fn row_vector(v: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Xavier/Glorot-uniform initialization, deterministic from `rng`.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self (r×k) · other (k×c)`.
    ///
    /// Cache-blocked branchless i-k-j kernel dispatched to the widest
    /// available SIMD level; see the module notes. The result is
    /// bit-identical to the naive ascending-`k` triple loop at any width.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        // Start empty: matmul_into's reset_zeroed performs the only
        // zero-fill (a pre-sized buffer would be cleared twice).
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// Allocation-free variant of [`Self::matmul`]: reshapes `out` to
    /// `self.rows × other.cols` (reusing its buffer) and overwrites it with
    /// the product. Bit-identical to `matmul` — same kernel, same order.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reset_zeroed(self.rows, other.cols);
        matmul_kernel::dispatch(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Fused product `selfᵀ (k×r) · other (k×c)` without materializing the
    /// transpose. Used for weight gradients (`xᵀ·g`). `k` runs over shared
    /// rows in ascending order, matching `self.transpose().matmul(other)`
    /// bit-for-bit.
    pub fn matmul_transposed_left(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_transposed_left_into(other, &mut out);
        out
    }

    /// Accumulating variant of [`Self::matmul_transposed_left`]:
    /// `out += selfᵀ·other`, with no temporary product matrix. This is the
    /// gradient-accumulation shape (`gw += xᵀ·g`) of backprop.
    pub fn matmul_transposed_left_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_transposed_left mismatch");
        assert_eq!(out.rows, self.cols, "output rows mismatch");
        assert_eq!(out.cols, other.cols, "output cols mismatch");
        tmatmul_left_kernel::dispatch(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Fused product `self (r×k) · otherᵀ (k×c)` without materializing the
    /// transpose. Used for input gradients (`g·Wᵀ`); each output entry is a
    /// dot product of two rows, the cache-optimal layout for row-major
    /// storage.
    pub fn matmul_transposed_right(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transposed_right mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *out.get_mut(c, r) = self.get(r, c);
            }
        }
        out
    }

    /// Elementwise in-place addition (SIMD-dispatched; this is the
    /// gradient-reduction primitive, called per graph per batch).
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch");
        add_slices_kernel::dispatch(&mut self.data, &other.data);
    }

    /// Fused elementwise `self += s · other` (matrix axpy).
    pub fn add_scaled(&mut self, other: &Matrix, s: f32) {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch");
        axpy(&mut self.data, &other.data, s);
    }

    /// Elementwise in-place scaling.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Appends `other`'s columns to the right (row counts must match).
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hconcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Sum over rows producing a single-row matrix.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Mean over rows producing a single-row matrix.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = self.sum_rows();
        if self.rows > 0 {
            out.scale(1.0 / self.rows as f32);
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Fused slice axpy: `y += a · x`.
#[inline]
pub fn axpy(y: &mut [f32], x: &[f32], a: f32) {
    debug_assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (o, &v) in y.iter_mut().zip(x) {
        *o += a * v;
    }
}

/// Sparse-times-dense product for a symmetric CSR adjacency with an implicit
/// scaled diagonal: `out = diag·H + A·H`, row by row.
///
/// `indptr`/`indices`/`weights` are standard CSR arrays over `h.rows`
/// vertices; `indices` within a row must be sorted ascending and exclude the
/// diagonal. Row `i` accumulates neighbors with index `< i` first, then the
/// `diag·h_i` term, then neighbors `> i` — exactly the ascending-`k` order a
/// dense `((diag·I + A)·H)` matmul that skips zero entries would use, so the
/// sparse and dense paths agree bit-for-bit. Because the aggregation matrix
/// is symmetric (`A = Aᵀ`), the same kernel routes gradients in backprop.
pub fn spmm_csr(
    indptr: &[usize],
    indices: &[usize],
    weights: &[f32],
    diag: f32,
    h: &Matrix,
    out: &mut Matrix,
) {
    let n = h.rows;
    assert_eq!(indptr.len(), n + 1, "indptr length mismatch");
    assert_eq!(out.rows, n, "output rows mismatch");
    assert_eq!(out.cols, h.cols, "output cols mismatch");
    spmm_kernel::dispatch(
        indptr,
        indices,
        weights,
        diag,
        &h.data,
        &mut out.data,
        h.cols,
    );
}

/// Segmented row reduction: `out.row(s) = Σ h.row(r)` for
/// `r ∈ offsets[s]..offsets[s+1]`, the pooling step of the batch-stacked
/// embedding service (one vertically stacked activation matrix holding many
/// graphs, one output row per graph).
///
/// `offsets` must be non-decreasing with `offsets[0] == 0` and
/// `offsets.last() == h.rows`; `out` must be `(offsets.len() - 1) × h.cols`.
/// Rows accumulate in ascending order within each segment, so every output
/// row is bit-identical to `Matrix::sum_rows` over that segment alone.
pub fn segmented_sum_rows(h: &Matrix, offsets: &[usize], out: &mut Matrix) {
    assert!(
        !offsets.is_empty(),
        "offsets must contain at least one entry"
    );
    assert_eq!(offsets[0], 0, "offsets must start at 0");
    assert_eq!(
        *offsets.last().expect("non-empty"),
        h.rows,
        "offsets must cover all rows"
    );
    debug_assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "offsets must be sorted"
    );
    assert_eq!(out.rows, offsets.len() - 1, "output rows mismatch");
    assert_eq!(out.cols, h.cols, "output cols mismatch");
    segsum_kernel::dispatch(&h.data, offsets, &mut out.data, h.cols);
}

/// Segmented row broadcast — the scatter dual of [`segmented_sum_rows`]:
/// `out.row(r) = src.row(s)` for every `r ∈ offsets[s]..offsets[s+1]`. This
/// seeds the segmented backward of stacked training: each graph's embedding
/// gradient is replicated onto all of its vertex rows with the exact bits
/// the per-graph backward would write (the kernel only copies).
///
/// `offsets` must be non-decreasing with `offsets[0] == 0` and
/// `offsets.last() == out.rows`; `src` must be `(offsets.len() - 1) × out.cols`.
/// Rows of `out` outside every segment cannot exist by construction; empty
/// segments copy nothing.
pub fn segmented_broadcast_rows(src: &Matrix, offsets: &[usize], out: &mut Matrix) {
    assert!(
        !offsets.is_empty(),
        "offsets must contain at least one entry"
    );
    assert_eq!(offsets[0], 0, "offsets must start at 0");
    assert_eq!(
        *offsets.last().expect("non-empty"),
        out.rows,
        "offsets must cover all output rows"
    );
    debug_assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "offsets must be sorted"
    );
    assert_eq!(src.rows, offsets.len() - 1, "one source row per segment");
    assert_eq!(src.cols, out.cols, "column mismatch");
    segbroadcast_kernel::dispatch(&src.data, offsets, &mut out.data, src.cols);
}

/// Per-segment accumulating transposed product — the split half of the
/// segmented backward: `out += x[seg]ᵀ · g[seg]` over the row range `seg`
/// of both operands. The kernel sees exactly the segment's rows starting
/// at its own `k = 0`, so the chained accumulation order per output entry
/// is identical to [`Matrix::matmul_transposed_left_into`] called on that
/// graph's standalone matrices — splitting a stacked batch's weight
/// gradients at segment boundaries and reducing per graph in fixed batch
/// order therefore reproduces per-graph training bit for bit.
pub fn tmatmul_left_segment_into(x: &Matrix, g: &Matrix, seg: Range<usize>, out: &mut Matrix) {
    assert_eq!(x.rows, g.rows, "segment operand row mismatch");
    assert!(
        seg.start <= seg.end && seg.end <= x.rows,
        "segment out of bounds"
    );
    assert_eq!(out.rows, x.cols, "output rows mismatch");
    assert_eq!(out.cols, g.cols, "output cols mismatch");
    tmatmul_left_kernel::dispatch(
        &x.data[seg.start * x.cols..seg.end * x.cols],
        &g.data[seg.start * g.cols..seg.end * g.cols],
        &mut out.data,
        seg.end - seg.start,
        x.cols,
        g.cols,
    );
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// Cosine similarity between two equal-length slices (0 when degenerate).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|v| v * v).sum::<f32>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod arm_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows, 3);
        assert_eq!(t.cols, 2);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn concat_and_reductions() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![5.0], vec![6.0]]);
        let c = a.hconcat(&b);
        assert_eq!(c.cols, 3);
        assert_eq!(c.row(1), &[3.0, 4.0, 6.0]);
        assert_eq!(a.sum_rows().data, vec![4.0, 6.0]);
        assert_eq!(a.mean_rows().data, vec![2.0, 3.0]);
    }

    #[test]
    fn transposed_products_match_materialized_transpose() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::xavier(7, 5, &mut rng);
        let b = Matrix::xavier(7, 4, &mut rng);
        assert_eq!(a.matmul_transposed_left(&b), a.transpose().matmul(&b));
        let c = Matrix::xavier(3, 5, &mut rng);
        let d = Matrix::xavier(6, 5, &mut rng);
        assert_eq!(c.matmul_transposed_right(&d), c.matmul(&d.transpose()));
        let mut acc = Matrix::xavier(5, 4, &mut rng);
        let mut expect = acc.clone();
        expect.add_assign(&a.transpose().matmul(&b));
        a.matmul_transposed_left_into(&b, &mut acc);
        for (x, y) in acc.data.iter().zip(&expect.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn blocked_matmul_handles_wide_inner_dim() {
        // Inner dimension spanning multiple KERNEL_BLOCK panels.
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::xavier(3, 150, &mut rng);
        let b = Matrix::xavier(150, 4, &mut rng);
        let c = a.matmul(&b);
        // Naive reference.
        let mut expect = Matrix::zeros(3, 4);
        for i in 0..3 {
            for k in 0..150 {
                for j in 0..4 {
                    *expect.get_mut(i, j) += a.get(i, k) * b.get(k, j);
                }
            }
        }
        for (x, y) in c.data.iter().zip(&expect.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn spmm_matches_dense_formula() {
        // 4 vertices, ring topology with asymmetric raw weights.
        let n = 4;
        let mut dense = Matrix::zeros(n, n);
        let edges = [
            (0usize, 1usize, 0.5f32),
            (1, 2, 0.25),
            (2, 3, 0.75),
            (3, 0, 0.1),
        ];
        let diag = 1.3f32;
        for i in 0..n {
            *dense.get_mut(i, i) = diag;
        }
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut weights = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let w: f32 = edges
                    .iter()
                    .filter(|&&(a, b, _)| (a == i && b == j) || (a == j && b == i))
                    .map(|&(_, _, w)| w)
                    .sum();
                if w != 0.0 {
                    *dense.get_mut(i, j) = w;
                    indices.push(j);
                    weights.push(w);
                }
            }
            indptr.push(indices.len());
        }
        let mut rng = StdRng::seed_from_u64(11);
        let h = Matrix::xavier(n, 6, &mut rng);
        let mut out = Matrix::zeros(n, 6);
        spmm_csr(&indptr, &indices, &weights, diag, &h, &mut out);
        let expect = dense.matmul(&h);
        assert_eq!(
            out, expect,
            "sparse and dense aggregation agree bit-for-bit"
        );
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Matrix::xavier(5, 9, &mut rng);
        let b = Matrix::xavier(9, 7, &mut rng);
        // Start from a wrongly-shaped dirty output to prove the reshape.
        let mut out = Matrix::xavier(2, 3, &mut rng);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn reset_zeroed_reshapes_and_clears() {
        let mut m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.reset_zeroed(3, 1);
        assert_eq!((m.rows, m.cols), (3, 1));
        assert!(m.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn segmented_sum_matches_per_segment_sum_rows() {
        let mut rng = StdRng::seed_from_u64(13);
        let h = Matrix::xavier(10, 6, &mut rng);
        // Segments of mixed width, including an empty one.
        let offsets = [0usize, 3, 3, 7, 10];
        let mut out = Matrix::zeros(4, 6);
        segmented_sum_rows(&h, &offsets, &mut out);
        for s in 0..4 {
            let rows: Vec<Vec<f32>> = (offsets[s]..offsets[s + 1])
                .map(|r| h.row(r).to_vec())
                .collect();
            let expect = Matrix::from_row_slices(&rows);
            let expect = if rows.is_empty() {
                vec![0.0; 6]
            } else {
                expect.sum_rows().data
            };
            assert_eq!(out.row(s), expect.as_slice(), "segment {s}");
        }
    }

    #[test]
    fn segmented_broadcast_replicates_rows_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let src = Matrix::xavier(4, 5, &mut rng);
        // Mixed-width segments, including an empty one.
        let offsets = [0usize, 2, 2, 5, 9];
        let mut out = Matrix::xavier(9, 5, &mut rng); // dirty: must be overwritten
        segmented_broadcast_rows(&src, &offsets, &mut out);
        for s in 0..4 {
            for r in offsets[s]..offsets[s + 1] {
                assert_eq!(out.row(r), src.row(s), "segment {s} row {r}");
            }
        }
        // Round trip through the sum: broadcasting then segment-summing
        // scales each source row by its segment width.
        let mut pooled = Matrix::zeros(4, 5);
        segmented_sum_rows(&out, &offsets, &mut pooled);
        for s in 0..4 {
            let width = (offsets[s + 1] - offsets[s]) as f32;
            for (p, &v) in pooled.row(s).iter().zip(src.row(s)) {
                assert!((p - width * v).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one source row per segment")]
    fn segmented_broadcast_rejects_mismatched_source() {
        let src = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(4, 3);
        segmented_broadcast_rows(&src, &[0, 1, 2, 4], &mut out);
    }

    #[test]
    fn segment_tmatmul_matches_standalone_transposed_product() {
        let mut rng = StdRng::seed_from_u64(22);
        let x = Matrix::xavier(11, 5, &mut rng);
        let g = Matrix::xavier(11, 4, &mut rng);
        for seg in [0usize..3, 3..3, 3..10, 10..11] {
            // Standalone per-graph reference: copy the segment rows out and
            // run the full-matrix accumulating product.
            let xs = Matrix::from_row_slices(
                &seg.clone().map(|r| x.row(r).to_vec()).collect::<Vec<_>>(),
            );
            let gs = Matrix::from_row_slices(
                &seg.clone().map(|r| g.row(r).to_vec()).collect::<Vec<_>>(),
            );
            let mut expect = Matrix::xavier(5, 4, &mut rng);
            let mut got = expect.clone();
            if seg.is_empty() {
                // Zero-row matrices carry cols = 0; the accumulating kernel
                // is a no-op either way.
                tmatmul_left_segment_into(&x, &g, seg.clone(), &mut got);
                assert_eq!(got, expect, "empty segment must not touch out");
                continue;
            }
            xs.matmul_transposed_left_into(&gs, &mut expect);
            tmatmul_left_segment_into(&x, &g, seg.clone(), &mut got);
            assert_eq!(got, expect, "segment {seg:?} must match bitwise");
        }
    }

    #[test]
    #[should_panic(expected = "offsets must cover all rows")]
    fn segmented_sum_rejects_short_offsets() {
        let h = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(1, 2);
        segmented_sum_rows(&h, &[0, 3], &mut out);
    }

    #[test]
    fn from_row_slices_matches_from_rows() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        assert_eq!(Matrix::from_row_slices(&rows), Matrix::from_rows(rows));
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier(30, 20, &mut rng);
        let limit = (6.0f32 / 50.0).sqrt();
        assert!(m.data.iter().all(|&v| v.abs() <= limit));
        // Not all zero.
        assert!(m.norm() > 0.0);
    }

    #[test]
    fn distances() {
        assert_eq!(euclidean(&[0.0, 3.0], &[4.0, 0.0]), 5.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
