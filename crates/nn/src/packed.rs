//! Lane-per-row exact distances: many rows against one query.
//!
//! [`euclidean`](crate::matrix::euclidean) sums its `dim` squared
//! differences strictly left to right — one chain of dependent `f32` adds
//! that no compiler may vectorise. A scan of many rows against one query
//! pays that chain once per row. [`PackedRows`] stores the rows so the
//! chains of sixteen rows sit side by side: the kernel vectorises *across
//! rows*, each row in its own accumulator lane, every lane still adding its
//! terms in ascending dimension.
//!
//! # Bits contract
//!
//! `dists_into(q, out)` leaves `out[i].to_bits() ==
//! euclidean(q, row_i).to_bits()` for every row, at any dimension
//! (including zero), row count and dispatch arm: per lane the operations
//! are `t = q[d] − x; acc += t·t` from `f32`'s empty-sum value, exactly the
//! sequence `euclidean` performs, and Rust never contracts them into an
//! FMA. `euclidean` stays the one-pair primitive and this kernel's oracle.
//! The kernel may change latency, never bits.
//!
//! # Layout
//!
//! Rows are grouped in blocks of [`LANES`]; inside a block the data is
//! dimension-major: `data[(block · dim + d) · LANES + lane]`. The lanes
//! past the last row of the final block hold zeros and are never read back.

use crate::matrix::simd_kernel;
#[cfg(target_arch = "x86_64")]
use crate::matrix::simd_level;

/// Rows per block: one accumulator lane each.
pub const LANES: usize = 16;

/// Blocks advanced together. One block is still a chain of `dim` dependent
/// vector adds; four independent chains keep the adder busy.
const BLOCKS: usize = 4;

/// Rows repacked for many-vs-one distance scans; see the module docs.
#[derive(Debug, Clone)]
pub struct PackedRows {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl PackedRows {
    /// Packs `rows` (all of one dimension; panics with `euclidean`'s
    /// `"dimension mismatch"` otherwise).
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        let dim = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = vec![0f32; rows.len().div_ceil(LANES) * dim * LANES];
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), dim, "dimension mismatch");
            let base = (i / LANES) * dim * LANES + i % LANES;
            for (d, &v) in row.iter().enumerate() {
                data[base + d * LANES] = v;
            }
        }
        PackedRows {
            rows: rows.len(),
            dim,
            data,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no row was packed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// `out[i] = Σ_d (q[d] − row_i[d])²`, summed in ascending `d` — the
    /// bits of [`euclidean`](crate::matrix::euclidean) before its square
    /// root. `out` is resized to [`Self::len`].
    pub fn sq_dists_into(&self, q: &[f32], out: &mut Vec<f32>) {
        self.sq_dists_with(sq_dists_kernel::dispatch, q, out);
    }

    /// `out[i] = euclidean(q, row_i)`, bit for bit.
    pub fn dists_into(&self, q: &[f32], out: &mut Vec<f32>) {
        self.sq_dists_into(q, out);
        for d in out.iter_mut() {
            *d = d.sqrt();
        }
    }

    fn sq_dists_with(
        &self,
        kernel: impl Fn(&[f32], &[f32], f32, &mut [f32]),
        q: &[f32],
        out: &mut Vec<f32>,
    ) {
        if !self.is_empty() {
            assert_eq!(q.len(), self.dim, "dimension mismatch");
        }
        // What `euclidean` starts from (`-0.0` on current toolchains).
        let empty_sum: f32 = std::iter::empty::<f32>().sum();
        out.clear();
        if self.dim == 0 {
            out.resize(self.rows, empty_sum);
            return;
        }
        out.resize(self.rows.div_ceil(LANES) * LANES, 0.0);
        kernel(&self.data, q, empty_sum, out);
        out.truncate(self.rows);
    }
}

/// `acc[lane] += (q − x[lane])²` over one dimension of one block.
#[inline(always)]
fn accumulate(acc: &mut [f32; LANES], x: &[f32], q: f32) {
    for (a, &x) in acc.iter_mut().zip(x) {
        let t = q - x;
        *a += t * t;
    }
}

simd_kernel!(sq_dists_kernel, (data: &[f32], q: &[f32], empty_sum: f32, out: &mut [f32]), {
    // `data` holds whole blocks of `q.len() · LANES` floats (`q` is not
    // empty), `out` one lane per packed slot. Four separately named
    // accumulators, not an array of four: the array form compiled to
    // scalar code.
    let stride = q.len() * LANES;
    let mut groups = data.chunks_exact(BLOCKS * stride);
    let mut outs = out.chunks_exact_mut(BLOCKS * LANES);
    for (group, o) in (&mut groups).zip(&mut outs) {
        let (b0, rest) = group.split_at(stride);
        let (b1, rest) = rest.split_at(stride);
        let (b2, b3) = rest.split_at(stride);
        let mut a0 = [empty_sum; LANES];
        let mut a1 = [empty_sum; LANES];
        let mut a2 = [empty_sum; LANES];
        let mut a3 = [empty_sum; LANES];
        let lanes = b0
            .chunks_exact(LANES)
            .zip(b1.chunks_exact(LANES))
            .zip(b2.chunks_exact(LANES))
            .zip(b3.chunks_exact(LANES));
        for ((((x0, x1), x2), x3), &qd) in lanes.zip(q) {
            accumulate(&mut a0, x0, qd);
            accumulate(&mut a1, x1, qd);
            accumulate(&mut a2, x2, qd);
            accumulate(&mut a3, x3, qd);
        }
        o[..LANES].copy_from_slice(&a0);
        o[LANES..2 * LANES].copy_from_slice(&a1);
        o[2 * LANES..3 * LANES].copy_from_slice(&a2);
        o[3 * LANES..].copy_from_slice(&a3);
    }
    let tail = groups.remainder().chunks_exact(stride);
    for (block, o) in tail.zip(outs.into_remainder().chunks_exact_mut(LANES)) {
        let mut acc = [empty_sum; LANES];
        for (x, &qd) in block.chunks_exact(LANES).zip(q) {
            accumulate(&mut acc, x, qd);
        }
        o.copy_from_slice(&acc);
    }
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::euclidean;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ARMS: [&str; 3] = ["scalar", "avx2", "avx512f"];

    /// Mostly ordinary magnitudes; one value in eight stresses the bit
    /// contract: both zeros, both infinities, NaN, a subnormal, a huge one.
    fn awkward(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..56usize) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 => 1e-41,
            6 => -3.0e38,
            _ => rng.gen::<f32>() * 4.0 - 2.0,
        }
    }

    /// `to_bits()`, with every NaN folded to one pattern. Which NaN an
    /// operation returns (x86's default NaN of `∞ − ∞` is negative; with two
    /// NaN operands the first one's payload wins, and LLVM may commute) is
    /// not specified by Rust, not even for `euclidean` itself, and no caller
    /// can tell: `f32::min` skips NaN, `is_finite` drops it, `partial_cmp`
    /// panics on it.
    fn bits(d: f32) -> u32 {
        if d.is_nan() {
            f32::NAN.to_bits()
        } else {
            d.to_bits()
        }
    }

    fn rows_of(n: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| (0..dim).map(|_| awkward(rng)).collect())
            .collect()
    }

    /// Every dispatch arm the host supports against per-row `euclidean`;
    /// returns the arms that could not run.
    fn check_all_arms(rows: &[Vec<f32>], q: &[f32]) -> Vec<&'static str> {
        let packed = PackedRows::from_rows(rows);
        let want: Vec<u32> = rows.iter().map(|r| bits(euclidean(q, r))).collect();
        let mut out = Vec::new();
        packed.dists_into(q, &mut out);
        let got: Vec<u32> = out.iter().map(|&d| bits(d)).collect();
        assert_eq!(got, want, "dispatch, {} rows × {}", rows.len(), q.len());
        let mut skipped = Vec::new();
        for (level, name) in ARMS.iter().enumerate() {
            let ran = std::cell::Cell::new(true);
            packed.sq_dists_with(
                |data, q, zero, out| {
                    ran.set(sq_dists_kernel::run_arm(level as u8, data, q, zero, out))
                },
                q,
                &mut out,
            );
            if !ran.get() {
                skipped.push(*name);
                continue;
            }
            let got: Vec<u32> = out.iter().map(|s| bits(s.sqrt())).collect();
            assert_eq!(got, want, "{name}, {} rows × {}", rows.len(), q.len());
        }
        skipped
    }

    #[test]
    fn every_arm_matches_euclidean_on_the_shape_grid() {
        let mut rng = StdRng::seed_from_u64(0x9ac4);
        let mut skipped = Vec::new();
        for dim in [0, 1, 2, 3, 7, 8, 31, 32, 33] {
            for n in [0, 1, 15, 16, 17, 63, 64, 65, 100, 135] {
                let rows = rows_of(n, dim, &mut rng);
                let q: Vec<f32> = (0..dim).map(|_| awkward(&mut rng)).collect();
                skipped = check_all_arms(&rows, &q);
            }
        }
        println!("packed kernel arms skipped on this host: {skipped:?}");
    }

    #[test]
    fn empty_sum_matches_euclidean_at_dimension_zero() {
        let rows = vec![Vec::<f32>::new(); 5];
        let mut out = Vec::new();
        PackedRows::from_rows(&rows).dists_into(&[], &mut out);
        assert_eq!(out.len(), 5);
        for d in out {
            assert_eq!(d.to_bits(), euclidean(&[], &[]).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn ragged_rows_are_rejected() {
        PackedRows::from_rows(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn query_of_another_dimension_is_rejected() {
        let mut out = Vec::new();
        PackedRows::from_rows(&[vec![1.0, 2.0]]).sq_dists_into(&[1.0], &mut out);
    }

    proptest! {
        #[test]
        fn every_arm_matches_euclidean(
            seed in 0u64..1_000_000,
            dim in 0usize..40,
            blocks in 0usize..10,
            extra in 0usize..LANES,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = rows_of(blocks * LANES + extra, dim, &mut rng);
            let q: Vec<f32> = (0..dim).map(|_| awkward(&mut rng)).collect();
            check_all_arms(&rows, &q);
        }
    }
}
