//! Golden bits of `kmeans`.
//!
//! The distance scans under k-means — the k-means++ seeding and the Lloyd
//! assignment — may change latency, never bits. The constant below was
//! captured on the commit *before* the lane-per-row kernel landed (one
//! `euclidean` call per pair, seeding recomputed against every centroid
//! each round); every later kernel must reproduce it, down to the state
//! the RNG is left in. The end-to-end benchmark cannot see such a drift:
//! a KNN index over different partitions still serves the right answers.
//!
//! `crates/bench/benches/micro.rs` includes this file by path and asserts
//! the same checksum before it times `index_build`.

use ce_nn::kmeans::kmeans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over every golden case's assignments, centroid bits, inertia bits
/// and the next `u64` of its RNG, as computed by the parent commit.
pub const GOLDEN_CHECKSUM: u64 = 0x4d91_1915_4bbb_850d;

/// `(n, dim, k, max_iters, seed)`: the KNN index's shape, the SPN
/// row-split's shape, and `k > n`.
const CASES: [(usize, usize, usize, usize, u64); 3] = [
    (3000, 32, 100, 8, 0x6b6d_0001),
    (1000, 3, 2, 12, 0x6b6d_0002),
    (5, 4, 9, 10, 0x6b6d_0003),
];

/// FNV-1a step over `bytes`.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `n` seeded points around `1 + n / 40` blob centres in `[-1, 1]^dim`
/// (an embedding-like cloud: clusters to find, no two points equal).
pub fn seeded_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
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

fn fold_run(h: &mut u64, points: &[Vec<f32>], k: usize, max_iters: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let r = kmeans(points, k, max_iters, &mut rng);
    for &a in &r.assignments {
        fnv1a(h, &(a as u64).to_le_bytes());
    }
    for v in r.centroids.iter().flatten() {
        fnv1a(h, &v.to_bits().to_le_bytes());
    }
    fnv1a(h, &r.inertia.to_bits().to_le_bytes());
    fnv1a(h, &rng.gen::<u64>().to_le_bytes());
}

/// Checksum of `kmeans` over the golden cases, then over forty identical
/// points (seeding duplicates a centroid, every later cluster is empty and
/// reseeded).
pub fn golden_checksum() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (n, dim, k, max_iters, seed) in CASES {
        fold_run(&mut h, &seeded_points(n, dim, seed), k, max_iters, seed);
    }
    fold_run(&mut h, &vec![vec![3.0f32, 3.0]; 40], 3, 10, 0x6b6d_0004);
    h
}

#[test]
fn kmeans_reproduces_parent_bits() {
    let got = golden_checksum();
    assert_eq!(got, GOLDEN_CHECKSUM, "kmeans moved a bit: {got:#018x}");
}
