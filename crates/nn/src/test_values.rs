//! Inputs and comparisons shared by the kernels' differential tests.

use rand::rngs::StdRng;
use rand::Rng;

/// Names of the `simd_kernel!` arms, by `run_arm` level.
pub(crate) const ARMS: [&str; 3] = ["scalar", "avx2", "avx512f"];

/// Mostly ordinary magnitudes; one value in eight stresses the bit
/// contract: both zeros, both infinities, NaN, a subnormal, a huge one.
pub(crate) fn awkward(rng: &mut StdRng) -> f32 {
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

/// `n` [`awkward`] values.
pub(crate) fn awkward_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n).map(|_| awkward(rng)).collect()
}

/// `to_bits()`, with every NaN folded to one pattern. Which NaN an
/// operation returns (x86's default NaN of `∞ − ∞` is negative; with two
/// NaN operands the first one's payload wins, and LLVM may commute) is
/// not specified by Rust, not even for `euclidean` itself, and no caller
/// can tell: `f32::min` skips NaN, `is_finite` drops it, `partial_cmp`
/// panics on it.
pub(crate) fn bits(d: f32) -> u32 {
    if d.is_nan() {
        f32::NAN.to_bits()
    } else {
        d.to_bits()
    }
}

/// `n` rows over `dim` columns for the sparse kernels: each column dead
/// (`±0` in every row), full (never zero) or mixed (`+0`, `−0`, `1.0` and
/// draws); the draws are [`awkward`] when `special` (NaN and ±∞ inputs
/// among them), ordinary magnitudes otherwise.
pub(crate) fn sparse_rows(n: usize, dim: usize, special: bool, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let kinds: Vec<usize> = (0..dim).map(|_| rng.gen_range(0..3usize)).collect();
    (0..n)
        .map(|r| {
            kinds
                .iter()
                .enumerate()
                .map(|(c, &kind)| match (kind, rng.gen_range(0..4)) {
                    (0, _) if (r + c) % 2 == 0 => -0.0,
                    (0, _) => 0.0,
                    (_, 0) => 1.0,
                    (2, 1) => 0.0,
                    (2, 2) => -0.0,
                    _ => {
                        let v = if special {
                            awkward(rng)
                        } else {
                            rng.gen::<f32>() * 4.0 - 2.0
                        };
                        if v == 0.0 {
                            0.5
                        } else {
                            v
                        }
                    }
                })
                .collect()
        })
        .collect()
}
