//! Vector-level substrate for the coarse stage of the two-stage KNN
//! index: f16/i8 centroid quantization plus SIMD-dispatched squared-
//! distance kernels over the quantized forms.
//!
//! These kernels exist to *order partitions for probing* — never to
//! produce final distances. The exact re-rank and the admissibility
//! bound upstream (`autoce::index`) recompute every distance that can
//! influence an answer in exact `f32`, so quantization error here can
//! change which partitions get probed (a performance effect) but never
//! which neighbours are returned (a correctness effect). That split is
//! what lets the quantized bodies use genuinely reduction-friendly
//! arithmetic: the i8 kernel accumulates in integers, which are
//! associative, so the autovectorizer may reorder the sum freely —
//! something the exact `f32` kernels must never allow.
//!
//! The kernels reuse the scalar/AVX2/AVX-512F dispatch pattern from
//! [`crate::matrix`]: one body compiled under successively wider target
//! features, selected once per call on cached CPU detection. Integer
//! accumulation is exact at any vector width; the f16 kernel chains its
//! `f32` accumulation in a fixed order (Rust never contracts `a*b + c`
//! into an FMA), so both are bit-stable across the dispatch tiers.

use crate::matrix::simd_kernel;

// ---- f16 (IEEE binary16) conversion ---------------------------------------

/// Converts `f32` to IEEE binary16 bits, round-to-nearest-even.
/// Overflow saturates to infinity; underflow flushes through the
/// binary16 subnormal range to signed zero.
pub fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN: keep NaN payload non-zero so NaN stays NaN.
        return sign | 0x7c00 | u16::from(man != 0) << 9;
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal binary16: drop 13 mantissa bits, round to nearest even.
        let mut half_exp = (unbiased + 15) as u32;
        let mut half_man = man >> 13;
        let rem = man & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && half_man & 1 == 1) {
            half_man += 1;
            if half_man == 0x400 {
                half_man = 0;
                half_exp += 1;
                if half_exp >= 31 {
                    return sign | 0x7c00;
                }
            }
        }
        return sign | ((half_exp as u16) << 10) | half_man as u16;
    }
    if unbiased >= -25 {
        // Binary16 subnormal: shift the full 24-bit significand down.
        let full_man = man | 0x0080_0000;
        let shift = (13 - 14 - unbiased) as u32;
        let mut half_man = full_man >> shift;
        let rem = full_man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        if rem > halfway || (rem == halfway && half_man & 1 == 1) {
            half_man += 1; // may carry into exponent 1 — encoding works out
        }
        return sign | half_man as u16;
    }
    sign // underflow → ±0
}

/// Converts IEEE binary16 bits back to `f32`. Exact: every binary16
/// value is representable in `f32`.
#[inline(always)]
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x3ff) as u32;
    if exp == 31 {
        return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: man · 2⁻²⁴, exact in f32.
        let mag = man as f32 * f32::from_bits(0x3380_0000);
        return f32::from_bits(sign | mag.to_bits());
    }
    // Rebias 15 → 127.
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// Quantizes a vector to binary16 bits, element-wise round-to-nearest.
pub fn quantize_f16(v: &[f32]) -> Vec<u16> {
    v.iter().map(|&x| f16_from_f32(x)).collect()
}

// ---- i8 symmetric quantization ---------------------------------------------

/// Symmetric i8 scale covering `max_abs`: `code = round(x / scale)`,
/// codes in `[-127, 127]`. A zero (or non-finite) spread maps to scale 1
/// so quantization stays total.
pub fn i8_scale(max_abs: f32) -> f32 {
    if max_abs.is_finite() && max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantizes a vector with a shared symmetric scale (see [`i8_scale`]).
pub fn quantize_i8(v: &[f32], scale: f32) -> Vec<i8> {
    v.iter()
        .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8)
        .collect()
}

// ---- coarse distance kernels -----------------------------------------------

simd_kernel!(sq_dist_i8_kernel, (a: &[i8], b: &[i8], out: &mut [i32]), {
    // Integer accumulation is associative, so this reduction vectorizes
    // at full width. Bound: 254² · dim fits i32 for dim ≤ 2¹⁵.
    let n = a.len().min(b.len());
    let mut acc = 0i32;
    for i in 0..n {
        let d = a[i] as i32 - b[i] as i32;
        acc += d * d;
    }
    out[0] = acc;
});

simd_kernel!(sq_dist_f16_kernel, (q: &[f32], h: &[u16], out: &mut [f32]), {
    let n = q.len().min(h.len());
    let mut acc = 0f32;
    for i in 0..n {
        let d = q[i] - f16_to_f32(h[i]);
        acc += d * d;
    }
    out[0] = acc;
});

/// Squared L2 distance between two i8 code vectors (exact, integer).
/// Distances share a scale factor of `scale²`, which is positive, so
/// ordering by this proxy equals ordering by dequantized distance.
pub fn sq_dist_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert!(a.len() < (1 << 15), "i8 kernel accumulator bound");
    let mut out = [0i32];
    sq_dist_i8_kernel::dispatch(a, b, &mut out);
    out[0]
}

/// Squared L2 distance between an exact `f32` query and an f16-encoded
/// centroid, accumulated in `f32` in fixed index order.
pub fn sq_dist_f16(q: &[f32], h: &[u16]) -> f32 {
    let mut out = [0f32];
    sq_dist_f16_kernel::dispatch(q, h, &mut out);
    out[0]
}

/// One named arm of each coarse kernel (`None` when the host lacks it),
/// for the differential tests in `matrix::arm_tests`: a kernel's module is
/// private to the file that declares it.
#[cfg(test)]
pub(crate) fn sq_dist_i8_arm(level: u8, a: &[i8], b: &[i8]) -> Option<i32> {
    let mut out = [0i32];
    sq_dist_i8_kernel::run_arm(level, a, b, &mut out).then_some(out[0])
}

#[cfg(test)]
pub(crate) fn sq_dist_f16_arm(level: u8, q: &[f32], h: &[u16]) -> Option<f32> {
    let mut out = [0f32];
    sq_dist_f16_kernel::run_arm(level, q, h, &mut out).then_some(out[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_representable_values() {
        for &x in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 1024.0, 0.000061035156] {
            assert_eq!(f16_to_f32(f16_from_f32(x)), x, "{x}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2⁻¹¹ sits exactly between 1.0 and the next half; even wins.
        let x = 1.0 + 2f32.powi(-11);
        assert_eq!(f16_to_f32(f16_from_f32(x)), 1.0);
        // 1 + 3·2⁻¹¹ sits between half steps 1 and 2; rounds to step 2.
        let x = 1.0 + 3.0 * 2f32.powi(-11);
        assert_eq!(f16_to_f32(f16_from_f32(x)), 1.0 + 2.0 * 2f32.powi(-10));
    }

    #[test]
    fn f16_saturates_and_flushes() {
        assert_eq!(f16_from_f32(1e9), 0x7c00);
        assert_eq!(f16_from_f32(-1e9), 0xfc00);
        assert_eq!(f16_from_f32(1e-9), 0x0000);
        assert!(f16_to_f32(f16_from_f32(f32::NAN)).is_nan());
    }

    #[test]
    fn i8_distance_matches_scalar_reference() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.71).cos()).collect();
        let scale = i8_scale(1.0);
        let (qa, qb) = (quantize_i8(&a, scale), quantize_i8(&b, scale));
        let reference: i32 = qa
            .iter()
            .zip(&qb)
            .map(|(&x, &y)| (x as i32 - y as i32).pow(2))
            .sum();
        assert_eq!(sq_dist_i8(&qa, &qb), reference);
    }

    #[test]
    fn f16_distance_matches_scalar_reference() {
        let q: Vec<f32> = (0..41).map(|i| (i as f32 * 0.13).sin()).collect();
        let c: Vec<f32> = (0..41).map(|i| (i as f32 * 0.29).cos()).collect();
        let h = quantize_f16(&c);
        let mut reference = 0f32;
        for i in 0..41 {
            let d = q[i] - f16_to_f32(h[i]);
            reference += d * d;
        }
        assert_eq!(sq_dist_f16(&q, &h).to_bits(), reference.to_bits());
    }
}
