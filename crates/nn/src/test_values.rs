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
