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
//! dimension-major: `data[block · dim + d].0[lane]`, one 64-byte-aligned
//! `Lane` per dimension, so a lane load never splits a cache line wherever
//! the allocator put the block. The lanes past the last row of the final
//! block hold zeros and are never read back.
//!
//! A pack can also be kept beside rows that change: [`PackedRows::push`]
//! appends and [`PackedRows::set_row`] overwrites in O(dim), leaving the
//! bits [`PackedRows::from_rows`] would over the same final rows.

use crate::matrix::simd_kernel;

/// Rows per block: one accumulator lane each.
pub const LANES: usize = 16;

/// Blocks advanced together. One block is still a chain of `dim` dependent
/// vector adds; four independent chains keep the adder busy.
const BLOCKS: usize = 4;

/// One dimension of one block: the same coordinate of [`LANES`] rows, on a
/// cache line of its own.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Lane([f32; LANES]);

/// Rows repacked for many-vs-one distance scans; see the module docs.
#[derive(Debug, Clone)]
pub struct PackedRows {
    rows: usize,
    dim: usize,
    data: Vec<Lane>,
}

impl PackedRows {
    /// Packs `rows` (all of one dimension; panics with `euclidean`'s
    /// `"dimension mismatch"` otherwise).
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        let dim = rows.first().map_or(0, |r| r.as_ref().len());
        let mut packed = PackedRows {
            rows: rows.len(),
            dim,
            data: vec![Lane([0.0; LANES]); rows.len().div_ceil(LANES) * dim],
        };
        for (i, row) in rows.iter().enumerate() {
            packed.set_row(i, row.as_ref());
        }
        packed
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no row was packed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The rows' dimension; `None` while there is no row to fix it.
    pub fn dim(&self) -> Option<usize> {
        (self.rows > 0).then_some(self.dim)
    }

    /// Appends one row in O(dim). The first row fixes the dimension; a
    /// later row of another one panics with `"dimension mismatch"`.
    pub fn push(&mut self, row: &[f32]) {
        let dim = self.dim().unwrap_or(row.len());
        assert_eq!(row.len(), dim, "dimension mismatch");
        self.dim = dim;
        if self.rows.is_multiple_of(LANES) {
            let blocks = self.rows / LANES + 1;
            self.data.resize(blocks * dim, Lane([0.0; LANES]));
        }
        self.rows += 1;
        self.set_row(self.rows - 1, row);
    }

    /// Overwrites row `i` in O(dim).
    pub fn set_row(&mut self, i: usize, row: &[f32]) {
        assert!(i < self.rows, "row {i} of {}", self.rows);
        assert_eq!(row.len(), self.dim, "dimension mismatch");
        let block = &mut self.data[i / LANES * self.dim..][..self.dim];
        for (lane, &v) in block.iter_mut().zip(row) {
            lane.0[i % LANES] = v;
        }
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
        kernel: impl Fn(&[Lane], &[f32], f32, &mut [f32]),
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
fn accumulate(acc: &mut [f32; LANES], x: &Lane, q: f32) {
    for (a, &x) in acc.iter_mut().zip(&x.0) {
        let t = q - x;
        *a += t * t;
    }
}

simd_kernel!(sq_dists_kernel, (data: &[Lane], q: &[f32], empty_sum: f32, out: &mut [f32]), {
    // `data` holds whole blocks of `q.len()` lanes (`q` is not empty),
    // `out` one float per packed slot. Four separately named accumulators,
    // not an array of four: the array form compiled to scalar code.
    let stride = q.len();
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
        let lanes = b0.iter().zip(b1).zip(b2).zip(b3);
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
        for (x, &qd) in block.iter().zip(q) {
            accumulate(&mut acc, x, qd);
        }
        o.copy_from_slice(&acc);
    }
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::euclidean;
    use crate::test_values::{awkward, bits, ARMS};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn every_block_starts_on_a_cache_line() {
        // Sizes on both sides of the allocator's mmap threshold, built both
        // ways; a grown pack must stay aligned through its reallocations.
        for (n, dim) in [(1, 1), (17, 3), (96, 32), (6000, 32)] {
            let rows = vec![vec![1.0f32; dim]; n];
            let mut grown = PackedRows::from_rows(&rows[..0]);
            rows.iter().for_each(|r| grown.push(r));
            for packed in [PackedRows::from_rows(&rows), grown] {
                assert_eq!(packed.data.as_ptr() as usize % 64, 0, "{n} × {dim}");
                assert_eq!(packed.data.len(), n.div_ceil(LANES) * dim);
            }
        }
        assert_eq!(std::mem::size_of::<Lane>(), LANES * 4, "no padding");
    }

    #[test]
    fn the_first_row_fixes_the_dimension() {
        let mut packed = PackedRows::from_rows(&[] as &[Vec<f32>]);
        assert_eq!(packed.dim(), None);
        packed.push(&[1.0, 2.0, 3.0]);
        assert_eq!((packed.len(), packed.dim()), (1, Some(3)));
        let mut out = Vec::new();
        packed.dists_into(&[1.0, 2.0, 5.0], &mut out);
        assert_eq!(out, [2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn a_pushed_row_of_another_dimension_is_rejected() {
        PackedRows::from_rows(&[vec![1.0, 2.0]]).push(&[1.0]);
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

        /// Any interleaving of `push` and `set_row` leaves the bits — data
        /// and padding lanes — `from_rows` leaves over the final rows.
        #[test]
        fn in_place_updates_match_a_fresh_pack(
            seed in 0u64..1_000_000,
            dim in 0usize..4,
            start in 0usize..5,
            pushes in 0usize..5,
            overwrites in 0usize..4,
        ) {
            // Row counts cross 15/16/17 and 63/64/65.
            let dim = [0, 1, 32, 33][dim];
            let start = [0, 1, 15, 16, 62][start];
            let pushes = [0, 1, 2, 3, 50][pushes];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows = rows_of(start, dim, &mut rng);
            let mut packed = PackedRows::from_rows(&rows);
            for round in 0..=pushes {
                if round > 0 {
                    rows.push((0..dim).map(|_| awkward(&mut rng)).collect());
                    packed.push(rows.last().expect("just pushed"));
                }
                for _ in 0..overwrites.min(rows.len()) {
                    let i = rng.gen_range(0..rows.len());
                    rows[i] = (0..dim).map(|_| awkward(&mut rng)).collect();
                    packed.set_row(i, &rows[i]);
                }
                let fresh = PackedRows::from_rows(&rows);
                prop_assert_eq!((packed.rows, packed.dim), (fresh.rows, fresh.dim));
                let lanes = |p: &PackedRows| -> Vec<u32> {
                    p.data.iter().flat_map(|l| l.0.map(f32::to_bits)).collect()
                };
                prop_assert_eq!(lanes(&packed), lanes(&fresh), "after {} rows", rows.len());
            }
        }
    }
}
