//! Golden bits of the set-up paths: the drift-detector fit and the KNN
//! index build.
//!
//! The distance scans under `DriftDetector::from_embeddings` and
//! `KnnIndex::build` may change latency, never bits. The constants below
//! were captured on the commit *before* the lane-per-row kernel landed (one
//! `euclidean` call per pair); every later kernel must reproduce them. The
//! end-to-end benchmark cannot see such a drift: `knn-read` never reads the
//! threshold, and an index over different partitions still serves the
//! right answers.
//!
//! `crates/bench/benches/micro.rs` includes this file by path and asserts
//! the same checksums before it times `detector_fit` and `index_build`.

use autoce::index::{IndexConfig, KnnIndex, QuantMode};
use autoce::online::DriftDetector;
use autoce::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the `to_bits()` of every golden threshold, as computed by
/// the parent commit.
pub const DETECTOR_GOLDEN: u64 = 0x3a65_637c_f935_2975;

/// FNV-1a over the structure checksum (members, radii bits, centroid
/// bits) of every golden index, as built by the parent commit.
pub const INDEX_GOLDEN: u64 = 0xddb8_63aa_cc6c_09e6;

const SIZES: [usize; 6] = [0, 1, 2, 17, 96, 1000];
const DIMS: [usize; 3] = [1, 8, 32];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `n` seeded embeddings around `1 + n / 40` blob centres in `[-1, 1]^dim`.
pub fn seeded_embeddings(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let blobs: Vec<Vec<f32>> = (0..1 + n / 40)
        .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect())
        .collect();
    (0..n)
        .map(|i| {
            blobs[i % blobs.len()]
                .iter()
                .map(|c| c + (rng.gen::<f32>() - 0.5) * 0.2)
                .collect()
        })
        .collect()
}

/// The fitted threshold's bits.
pub fn threshold_bits(embeddings: &[Vec<f32>]) -> u32 {
    let refs: Vec<&[f32]> = embeddings.iter().map(Vec::as_slice).collect();
    DriftDetector::from_embeddings(&refs).threshold().to_bits()
}

/// Checksum of the fitted threshold over every size × dimension, then over
/// a set with duplicated rows (nearest distance zero) and one with a NaN
/// row (its own minimum is dropped, every other row skips it).
pub fn detector_checksum() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, &n) in SIZES.iter().enumerate() {
        for &dim in &DIMS {
            let seed = 0xd71f_0000 + (s * 64 + dim) as u64;
            fnv1a(
                &mut h,
                &threshold_bits(&seeded_embeddings(n, dim, seed)).to_le_bytes(),
            );
        }
    }
    let mut dup = seeded_embeddings(96, 8, 0xd71f_1000);
    for i in 0..30 {
        dup[3 * i + 1] = dup[3 * i].clone();
    }
    fnv1a(&mut h, &threshold_bits(&dup).to_le_bytes());
    let mut nan = seeded_embeddings(50, 8, 0xd71f_2000);
    nan[7] = vec![f32::NAN; 8];
    fnv1a(&mut h, &threshold_bits(&nan).to_le_bytes());
    h
}

/// The benchmark's index shape over one 3000-entry shard.
pub fn bench_index_config() -> IndexConfig {
    IndexConfig::builder()
        .partitions(100)
        .probe(4)
        .quant(QuantMode::I8)
        .build()
        .expect("static index config is valid")
}

/// The structure checksum a built index prints under `Debug`.
fn structure_of(embeddings: &[Vec<f32>], cfg: &IndexConfig) -> u64 {
    let refs: Vec<&[f32]> = embeddings.iter().map(Vec::as_slice).collect();
    let ix = KnnIndex::build(&refs, cfg, 0, &MetricsRegistry::disabled()).expect("index builds");
    let text = format!("{ix:?}");
    let hex = text
        .split("structure: 0x")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .expect("Debug prints the structure checksum");
    u64::from_str_radix(hex, 16).expect("sixteen hex digits")
}

/// Checksum of `KnnIndex::build` over the benchmark's shape and over a
/// build whose k-means runs on a stride sample (`n > sample_cap`).
pub fn index_checksum() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let whole = structure_of(
        &seeded_embeddings(3000, 32, 0x1d8_0001),
        &bench_index_config(),
    );
    fnv1a(&mut h, &whole.to_le_bytes());
    let sampled_cfg = IndexConfig::builder()
        .partitions(24)
        .probe(3)
        .sample_cap(400)
        .min_rcs_for_index(64)
        .build()
        .expect("static index config is valid");
    let sampled = structure_of(&seeded_embeddings(1200, 8, 0x1d8_0002), &sampled_cfg);
    fnv1a(&mut h, &sampled.to_le_bytes());
    h
}

#[test]
fn detector_fit_reproduces_parent_bits() {
    let got = detector_checksum();
    assert_eq!(
        got, DETECTOR_GOLDEN,
        "DriftDetector::from_embeddings moved a bit: {got:#018x}"
    );
}

#[test]
fn index_build_reproduces_parent_bits() {
    let got = index_checksum();
    assert_eq!(
        got, INDEX_GOLDEN,
        "KnnIndex::build moved a bit: {got:#018x}"
    );
}
