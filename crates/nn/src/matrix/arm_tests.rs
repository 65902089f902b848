//! Differential tests of the `simd_kernel!` bodies in [`crate::matrix`]
//! and [`crate::index`]: every arm the host has (`run_arm`) must leave the
//! scalar arm's bits, on ragged shapes and on NaN / ±∞ / subnormal inputs
//! (NaN folded to one pattern — see [`bits`]). The packed distance kernel
//! has its own, against `euclidean`, in [`crate::packed`].

use super::{
    add_slices_kernel, matmul_kernel, segbroadcast_kernel, segsum_kernel, spmm_kernel,
    tmatmul_left_kernel,
};
use crate::index::{
    sq_dist_f16_arm, sq_dist_i8_arm, sq_dists_f16, sq_dists_f16_arm, sq_dists_i8, sq_dists_i8_arm,
};
use crate::test_values::{awkward_vec, bits, ARMS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `kernel` on a fresh copy of `init` once per arm; every arm that
/// runs must leave the scalar arm's bits. Returns the arms that ran.
fn arms_agree(
    what: &str,
    init: &[f32],
    kernel: impl Fn(u8, &mut [f32]) -> bool,
) -> Vec<&'static str> {
    let mut covered = Vec::new();
    let mut want = Vec::new();
    for (level, name) in ARMS.iter().enumerate() {
        let mut out = init.to_vec();
        if !kernel(level as u8, &mut out) {
            continue;
        }
        let got: Vec<u32> = out.iter().map(|&v| bits(v)).collect();
        if level == 0 {
            want = got;
        } else {
            assert_eq!(got, want, "{what}: {name} against scalar");
        }
        covered.push(*name);
    }
    assert_eq!(
        covered.first(),
        Some(&"scalar"),
        "the scalar arm always runs"
    );
    covered
}

/// `n` inputs: NaN, ±∞, zeros, a subnormal and a huge value among them when
/// `special`, ordinary magnitudes otherwise (a long dot product over
/// special values is NaN almost surely, which proves little).
fn values(n: usize, special: bool, rng: &mut StdRng) -> Vec<f32> {
    if special {
        awkward_vec(n, rng)
    } else {
        (0..n).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect()
    }
}

/// Ascending offsets `0 ..= rows` cutting `rows` into `segments` runs,
/// empty ones included.
fn offsets(rows: usize, segments: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut cuts: Vec<usize> = (1..segments).map(|_| rng.gen_range(0..=rows)).collect();
    cuts.sort_unstable();
    [vec![0], cuts, vec![rows]].concat()
}

/// All eight bodies on one seeded case of the given shape; returns the arms
/// every one of them ran.
fn check_every_kernel(
    seed: u64,
    (rows, inner, cols): (usize, usize, usize),
    special: bool,
) -> Vec<&'static str> {
    let rng = &mut StdRng::seed_from_u64(seed);
    let shape = format!("{rows} × {inner} × {cols}, seed {seed}");
    let mut covered: Option<Vec<&'static str>> = None;
    let mut ran = |arms: Vec<&'static str>| match &covered {
        None => covered = Some(arms),
        Some(first) => assert_eq!(&arms, first, "every kernel has the same arms"),
    };

    // `out (rows × cols) += a (rows × inner) · b (inner × cols)`.
    let (a, b) = (
        values(rows * inner, special, rng),
        values(inner * cols, special, rng),
    );
    ran(arms_agree(
        &format!("matmul {shape}"),
        &vec![0.0; rows * cols],
        |level, out| matmul_kernel::run_arm(level, &a, &b, out, rows, inner, cols),
    ));

    // `out (inner × cols) += xᵀ · g` over `rows` shared rows, onto a
    // gradient that is already there.
    let (x, g) = (
        values(rows * inner, special, rng),
        values(rows * cols, special, rng),
    );
    ran(arms_agree(
        &format!("tmatmul_left {shape}"),
        &values(inner * cols, false, rng),
        |level, out| tmatmul_left_kernel::run_arm(level, &x, &g, out, rows, inner, cols),
    ));

    let other = values(inner * cols, special, rng);
    ran(arms_agree(
        &format!("add_slices {shape}"),
        &values(inner * cols, special, rng),
        |level, acc| add_slices_kernel::run_arm(level, acc, &other),
    ));

    // Segmented sum and its scatter dual; both overwrite `out`.
    let segments = 1 + seed as usize % 5;
    let cut = offsets(inner, segments, rng);
    let h = values(inner * cols, special, rng);
    ran(arms_agree(
        &format!("segsum {shape}"),
        &vec![7.0; segments * cols],
        |level, out| segsum_kernel::run_arm(level, &h, &cut, out, cols),
    ));
    let src = values(segments * cols, special, rng);
    ran(arms_agree(
        &format!("segbroadcast {shape}"),
        &vec![7.0; inner * cols],
        |level, out| segbroadcast_kernel::run_arm(level, &src, &cut, out, cols),
    ));

    // `out = diag · h + A · h` over a random sorted CSR without diagonal.
    let mut indptr = vec![0];
    let mut indices = Vec::new();
    for i in 0..rows {
        indices.extend((0..rows).filter(|&j| j != i && rng.gen_range(0..5) < 2));
        indptr.push(indices.len());
    }
    let weights = values(indices.len(), special, rng);
    let diag = values(1, special, rng)[0];
    let h = values(rows * cols, special, rng);
    ran(arms_agree(
        &format!("spmm {shape}"),
        &vec![7.0; rows * cols],
        |level, out| spmm_kernel::run_arm(level, &indptr, &indices, &weights, diag, &h, out, cols),
    ));

    // Coarse distances over `inner` dimensions; the operands may differ in
    // length (the kernels stop at the shorter one). Any `u16` is a half.
    let codes = |n: usize, rng: &mut StdRng| -> Vec<i8> { (0..n).map(|_| rng.gen()).collect() };
    let (qa, qb) = (codes(inner, rng), codes(inner + seed as usize % 3, rng));
    let want = sq_dist_i8_arm(0, &qa, &qb);
    for (level, name) in ARMS.iter().enumerate().skip(1) {
        if let Some(d) = sq_dist_i8_arm(level as u8, &qa, &qb) {
            assert_eq!(Some(d), want, "sq_dist_i8 {shape}: {name} against scalar");
        }
    }
    let q = values(inner + seed as usize % 2, special, rng);
    let halves: Vec<u16> = (0..inner).map(|_| rng.gen()).collect();
    ran(arms_agree(
        &format!("sq_dist_f16 {shape}"),
        &[0.0],
        |level, out| {
            sq_dist_f16_arm(level, &q, &halves)
                .map(|d| out[0] = d)
                .is_some()
        },
    ));

    covered.expect("eight kernels ran")
}

#[test]
fn every_arm_matches_scalar_on_the_shape_grid() {
    let mut covered = Vec::new();
    let mut seed = 0;
    // Rows cross the 4-row micro-kernel and its 1/2/3-row tails, the inner
    // dimension the 4-step fusion and the 64-wide `k` panel, columns the
    // 8- and 16-lane vectors.
    for rows in [0, 1, 2, 3, 4, 5, 8, 9] {
        for inner in [0, 1, 3, 4, 5, 63, 64, 65, 129] {
            for cols in [0, 1, 7, 8, 15, 16, 17, 33] {
                for special in [false, true] {
                    seed += 1;
                    covered = check_every_kernel(seed, (rows, inner, cols), special);
                }
            }
        }
    }
    let missing: Vec<_> = ARMS.iter().filter(|arm| !covered.contains(arm)).collect();
    println!("ce-nn kernel arms covered on this host: {covered:?}; NOT covered: {missing:?}");
}

/// The batched coarse proxies (`sq_dists_i8` / `sq_dists_f16`, one
/// dispatch per query) against the one-pair kernels: every arm the host has
/// leaves, row by row, the scalar pair kernel's value — integers exactly,
/// halves bit for bit (NaN folded) — at row counts on both sides of the
/// vector widths, at dimensions 0 through 65, over any code and any half.
#[test]
fn batched_proxies_match_the_pair_kernels_on_every_arm() {
    let rng = &mut StdRng::seed_from_u64(0x9b0c);
    let mut covered = Vec::new();
    for rows in [0, 1, 2, 7, 8, 15, 16, 17, 100] {
        for dim in [0, 1, 3, 4, 31, 32, 33, 65] {
            for special in [false, true] {
                let q: Vec<i8> = (0..dim).map(|_| rng.gen()).collect();
                let codes: Vec<i8> = (0..rows * dim).map(|_| rng.gen()).collect();
                let want: Vec<i32> = (0..rows)
                    .map(|c| &codes[c * dim..(c + 1) * dim])
                    .map(|row| sq_dist_i8_arm(0, &q, row).expect("scalar runs"))
                    .collect();
                let qf = values(dim, special, rng);
                let halves: Vec<u16> = (0..rows * dim).map(|_| rng.gen()).collect();
                let want_f16: Vec<u32> = (0..rows)
                    .map(|c| &halves[c * dim..(c + 1) * dim])
                    .map(|row| bits(sq_dist_f16_arm(0, &qf, row).expect("scalar runs")))
                    .collect();
                let case = format!("{rows} rows × {dim}, special {special}");
                let mut arms = Vec::new();
                for (level, name) in ARMS.iter().enumerate() {
                    let mut out = vec![7; rows];
                    let mut out_f16 = vec![7.0; rows];
                    let ran = sq_dists_i8_arm(level as u8, &q, &codes, &mut out);
                    let ran_f16 = sq_dists_f16_arm(level as u8, &qf, &halves, &mut out_f16);
                    assert_eq!(ran, ran_f16, "{case}: both kernels have the same arms");
                    if !ran {
                        continue;
                    }
                    assert_eq!(out, want, "sq_dists_i8 {case}: {name} against the pair");
                    let got: Vec<u32> = out_f16.iter().map(|&d| bits(d)).collect();
                    assert_eq!(
                        got, want_f16,
                        "sq_dists_f16 {case}: {name} against the pair"
                    );
                    arms.push(*name);
                }
                // The dispatching wrappers size their output from the rows.
                if dim > 0 {
                    let (mut out, mut out_f16) = (Vec::new(), Vec::new());
                    sq_dists_i8(&q, &codes, &mut out);
                    sq_dists_f16(&qf, &halves, &mut out_f16);
                    assert_eq!(out, want, "sq_dists_i8 {case}: dispatch");
                    let got: Vec<u32> = out_f16.iter().map(|&d| bits(d)).collect();
                    assert_eq!(got, want_f16, "sq_dists_f16 {case}: dispatch");
                }
                covered = arms;
            }
        }
    }
    let missing: Vec<_> = ARMS.iter().filter(|arm| !covered.contains(arm)).collect();
    println!(
        "batched coarse proxies: arms covered on this host: {covered:?}; NOT covered: {missing:?}"
    );
}

proptest! {
    #[test]
    fn every_arm_matches_scalar(
        seed in 0u64..1_000_000,
        rows in 0usize..12,
        inner in 0usize..140,
        cols in 0usize..40,
        special in 0usize..2,
    ) {
        check_every_kernel(seed, (rows, inner, cols), special == 1);
    }
}
