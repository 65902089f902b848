//! k-means clustering (Lloyd's algorithm, k-means++-style seeding).
//!
//! Used by the DeepDB reproduction for the SPN sum-node split (row
//! clustering) and by `autoce::index` to partition the RCS embeddings.
//!
//! # Cost and bits
//!
//! Every many-vs-one scan — seeding and the Lloyd assignment — packs the
//! points once per call and runs on [`PackedRows`], whose distances carry
//! the bits of [`euclidean`]; assignments, centroids, inertia and the RNG
//! draws are those of the one-pair-at-a-time loop (kept as the test
//! oracle), and `tests/golden_kmeans_bits.rs` pins them as captured before
//! the kernel.
//!
//! Seeding keeps each point's running minimum squared distance and folds
//! in only the centroids chosen since the last round: O(n·k) distances
//! where recomputing against every centroid each round cost O(n·k²) — at
//! the index's shape (n 3000, k 100) that was 85 % of the whole call. The
//! minimum is taken over the same values in the same order, so it is the
//! same minimum.
//!
//! # The empty-cluster reseed
//!
//! A cluster left without points takes the point farthest from *point 0's*
//! centroid, as it stands at that moment of the update. Every empty cluster
//! of one iteration therefore gets the same point (unless an earlier update
//! in the loop moved that centroid). Odd, but fixing it moves bits, so it is
//! documented, not fixed.

use crate::matrix::euclidean;
use crate::packed::PackedRows;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Ordering;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster assignment per input point.
    pub assignments: Vec<usize>,
    /// Final centroids, `k × dim`.
    pub centroids: Vec<Vec<f32>>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f32,
}

/// Runs Lloyd's algorithm with k-means++-style seeding (first centroid
/// uniform, the rest weighted by squared distance).
///
/// Degenerate inputs are handled: `k` is clamped to the number of points,
/// and empty clusters are reseeded from the farthest point (see the module
/// docs). Panics on ragged points (`"dimension mismatch"`) and, with two
/// or more centroids, on a NaN distance (`"finite distances"`).
pub fn kmeans<P: AsRef<[f32]>, R: Rng>(
    points: &[P],
    k: usize,
    max_iters: usize,
    rng: &mut R,
) -> KMeansResult {
    let n = points.len();
    let k = k.min(n).max(1);
    if n == 0 {
        return KMeansResult {
            assignments: Vec::new(),
            centroids: Vec::new(),
            inertia: 0.0,
        };
    }
    let dim = points[0].as_ref().len();
    let packed = PackedRows::from_rows(points);
    let mut dists = Vec::new();

    // k-means++ seeding. `d2[i]` is point i's squared distance to the
    // nearest of the first `folded` centroids.
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(points.choose(rng).expect("n > 0").as_ref().to_vec());
    let mut d2 = vec![f32::MAX; n];
    let mut folded = 0;
    while centroids.len() < k {
        for c in &centroids[folded..] {
            packed.dists_into(c, &mut dists);
            for (m, &d) in d2.iter_mut().zip(&dists) {
                *m = m.min(d * d);
            }
        }
        folded = centroids.len();
        let total: f32 = d2.iter().sum();
        if total <= 1e-12 {
            // All points coincide with centroids; duplicate one.
            centroids.push(points[rng.gen_range(0..n)].as_ref().to_vec());
            continue;
        }
        let mut target = rng.gen::<f32>() * total;
        let mut pick = 0;
        for (i, &d) in d2.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                pick = i;
                break;
            }
        }
        centroids.push(points[pick].as_ref().to_vec());
    }

    let mut assignments = vec![0usize; n];
    let mut inertia = f32::MAX;
    let mut nearest = vec![0usize; n];
    let mut nearest_d = vec![0f32; n];
    for _ in 0..max_iters {
        // Assign: one pass per centroid in ascending order; a later
        // centroid wins only when strictly closer (the first minimum).
        packed.dists_into(&centroids[0], &mut nearest_d);
        nearest.fill(0);
        for (j, c) in centroids.iter().enumerate().skip(1) {
            packed.dists_into(c, &mut dists);
            for ((best, best_d), &d) in nearest.iter_mut().zip(&mut nearest_d).zip(&dists) {
                if (*best_d).partial_cmp(&d).expect("finite distances") == Ordering::Greater {
                    *best = j;
                    *best_d = d;
                }
            }
        }
        let mut changed = false;
        let mut new_inertia = 0.0f32;
        for ((a, &best), &dist) in assignments.iter_mut().zip(&nearest).zip(&nearest_d) {
            if *a != best {
                *a = best;
                changed = true;
            }
            new_inertia += dist * dist;
        }
        inertia = new_inertia;
        // Update.
        let mut sums = vec![vec![0.0f32; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (s, &v) in sums[assignments[i]].iter_mut().zip(p.as_ref()) {
                *s += v;
            }
        }
        for j in 0..k {
            if counts[j] == 0 {
                // Reseed empty cluster from the farthest point.
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        let da = euclidean(a.as_ref(), &centroids[assignments[0]]);
                        let db = euclidean(b.as_ref(), &centroids[assignments[0]]);
                        da.partial_cmp(&db).expect("finite")
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                centroids[j] = points[far].as_ref().to_vec();
            } else {
                for (c, &s) in centroids[j].iter_mut().zip(&sums[j]) {
                    *c = s / counts[j] as f32;
                }
            }
        }
        if !changed {
            break;
        }
    }

    KMeansResult {
        assignments,
        centroids,
        inertia,
    }
}

/// The loop [`kmeans`] replaced — one `euclidean` call per pair, seeding
/// recomputed against every centroid each round — kept as its oracle.
#[cfg(test)]
fn kmeans_oracle<R: Rng>(
    points: &[Vec<f32>],
    k: usize,
    max_iters: usize,
    rng: &mut R,
) -> KMeansResult {
    let n = points.len();
    let k = k.min(n).max(1);
    if n == 0 {
        return KMeansResult {
            assignments: Vec::new(),
            centroids: Vec::new(),
            inertia: 0.0,
        };
    }
    let dim = points[0].len();

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(points.choose(rng).expect("n > 0").clone());
    while centroids.len() < k {
        let d2: Vec<f32> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| {
                        let d = euclidean(p, c);
                        d * d
                    })
                    .fold(f32::MAX, f32::min)
            })
            .collect();
        let total: f32 = d2.iter().sum();
        if total <= 1e-12 {
            // All points coincide with centroids; duplicate one.
            centroids.push(points[rng.gen_range(0..n)].clone());
            continue;
        }
        let mut target = rng.gen::<f32>() * total;
        let mut pick = 0;
        for (i, &d) in d2.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                pick = i;
                break;
            }
        }
        centroids.push(points[pick].clone());
    }

    let mut assignments = vec![0usize; n];
    let mut inertia = f32::MAX;
    for _ in 0..max_iters {
        // Assign.
        let mut changed = false;
        let mut new_inertia = 0.0f32;
        for (i, p) in points.iter().enumerate() {
            let (best, dist) = centroids
                .iter()
                .enumerate()
                .map(|(j, c)| (j, euclidean(p, c)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                .expect("k >= 1");
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
            new_inertia += dist * dist;
        }
        inertia = new_inertia;
        // Update.
        let mut sums = vec![vec![0.0f32; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (s, &v) in sums[assignments[i]].iter_mut().zip(p) {
                *s += v;
            }
        }
        for j in 0..k {
            if counts[j] == 0 {
                // Reseed empty cluster from the farthest point.
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        let da = euclidean(a, &centroids[assignments[0]]);
                        let db = euclidean(b, &centroids[assignments[0]]);
                        da.partial_cmp(&db).expect("finite")
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                centroids[j] = points[far].clone();
            } else {
                for (c, &s) in centroids[j].iter_mut().zip(&sums[j]) {
                    *c = s / counts[j] as f32;
                }
            }
        }
        if !changed {
            break;
        }
    }

    KMeansResult {
        assignments,
        centroids,
        inertia,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Everything a caller can observe, as bits, plus the RNG's next draw.
    fn observed(r: &KMeansResult, rng: &mut StdRng) -> (Vec<usize>, Vec<u32>, u32, u64) {
        let centroids = r.centroids.iter().flatten().map(|v| v.to_bits()).collect();
        (
            r.assignments.clone(),
            centroids,
            r.inertia.to_bits(),
            rng.gen::<u64>(),
        )
    }

    proptest! {
        #[test]
        fn matches_the_pairwise_oracle(
            seed in 0u64..1_000_000,
            n in 0usize..150,
            dim in 0usize..9,
            k in 1usize..24,
            max_iters in 0usize..7,
            // Coarse grids make duplicate points, distance ties and empty
            // clusters common.
            grid in 1usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(0..grid) as f32 * 0.25 - 1.0).collect())
                .collect();
            let (mut fast_rng, mut slow_rng) = (rng.clone(), rng);
            let fast = kmeans(&points, k, max_iters, &mut fast_rng);
            let slow = kmeans_oracle(&points, k, max_iters, &mut slow_rng);
            prop_assert_eq!(observed(&fast, &mut fast_rng), observed(&slow, &mut slow_rng));
        }
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn nan_distance_still_panics() {
        let mut rng = StdRng::seed_from_u64(21);
        let points = vec![vec![0.0], vec![f32::NAN], vec![1.0]];
        kmeans(&points, 2, 3, &mut rng);
    }

    #[test]
    fn borrowed_slices_cluster_like_owned_rows() {
        let owned: Vec<Vec<f32>> = (0..60)
            .map(|i| vec![(i % 7) as f32, (i % 5) as f32])
            .collect();
        let borrowed: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let a = kmeans(&owned, 4, 6, &mut StdRng::seed_from_u64(22));
        let b = kmeans(&borrowed, 4, 6, &mut StdRng::seed_from_u64(22));
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut points = Vec::new();
        for _ in 0..50 {
            points.push(vec![rng.gen::<f32>() * 0.1, rng.gen::<f32>() * 0.1]);
        }
        for _ in 0..50 {
            points.push(vec![
                5.0 + rng.gen::<f32>() * 0.1,
                5.0 + rng.gen::<f32>() * 0.1,
            ]);
        }
        let r = kmeans(&points, 2, 50, &mut rng);
        let first = r.assignments[0];
        assert!(r.assignments[..50].iter().all(|&a| a == first));
        assert!(r.assignments[50..].iter().all(|&a| a != first));
        assert!(r.inertia < 10.0);
    }

    #[test]
    fn k_clamped_to_points() {
        let mut rng = StdRng::seed_from_u64(18);
        let points = vec![vec![1.0], vec![2.0]];
        let r = kmeans(&points, 10, 10, &mut rng);
        assert_eq!(r.centroids.len(), 2);
    }

    #[test]
    fn empty_input() {
        let mut rng = StdRng::seed_from_u64(19);
        let r = kmeans::<Vec<f32>, _>(&[], 3, 10, &mut rng);
        assert!(r.assignments.is_empty());
        assert!(r.centroids.is_empty());
    }

    #[test]
    fn identical_points_single_cluster_semantics() {
        let mut rng = StdRng::seed_from_u64(20);
        let points = vec![vec![3.0, 3.0]; 20];
        let r = kmeans(&points, 3, 10, &mut rng);
        assert_eq!(r.assignments.len(), 20);
        assert!(r.inertia < 1e-6);
    }
}
