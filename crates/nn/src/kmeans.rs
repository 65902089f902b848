//! k-means clustering (Lloyd's algorithm, k-means++-style seeding).
//!
//! Used by the DeepDB reproduction for the SPN sum-node split (row
//! clustering) and by `autoce::index` to partition the RCS embeddings.
//!
//! # Cost and bits
//!
//! Assignments, centroids, inertia and the RNG draws are those of the
//! one-pair-at-a-time loop (kept as the test oracle), and
//! `tests/golden_kmeans_bits.rs` pins them as captured before any of the
//! scans below. Every distance has the bits of [`euclidean`]: the seeding
//! packs the points once per call and runs on [`PackedRows`]; a re-scan
//! runs one point against the centroids packed the same way.
//!
//! Seeding keeps each point's running minimum squared distance and folds
//! in only the centroids chosen since the last round: O(n·k) distances
//! where recomputing against every centroid each round cost O(n·k²). The
//! minimum is taken over the same values in the same order, so it is the
//! same minimum. The same fold keeps each point's first nearest centroid
//! (strict `<`, so the lowest index wins a tie) and the least distance to
//! any other; it folds the last centroid too, so that first nearest *is*
//! Lloyd's first assignment, which therefore costs no pass of its own.
//!
//! # Bounded assignment
//!
//! Each later Lloyd iteration moves few points (Hamerly, "Making k-means
//! even faster", 2010). Every point carries a lower bound on its true
//! distance to every centroid but its own: the runner-up distance of its
//! last full scan, less [`slack`], loosened after each update by the
//! largest drift of another centroid (one `euclidean` per centroid) and
//! that subtraction's own slack. The inertia needs every point's exact
//! distance to its own centroid anyway, so that distance is the upper
//! bound. A point keeps its centroid, without a scan, when
//! `own + slack < lower − slack`: its computed distance to its own centroid
//! is then strictly below every other computed distance, so the full scan's
//! first minimum is the same centroid at the same bits. Any other point —
//! a NaN in a bound included — is re-scanned against every centroid in
//! ascending order under the strict rule. [`KMeansResult::nearest`] runs
//! the same test against the final centroids, starting from the bounds the
//! run ends with (a point the run never saw is scanned in full);
//! `autoce::index` assigns its embeddings through it. `docs/knn-index.md`
//! has the proof.
//!
//! # The empty-cluster reseed
//!
//! A cluster left without points takes the point farthest from *point 0's*
//! centroid, as it stands at that moment of the update. Every empty cluster
//! of one iteration therefore gets the same point (unless an earlier update
//! in the loop moved that centroid). Odd, but fixing it moves bits, so it is
//! documented, not fixed.

use crate::matrix::{euclidean, simd_kernel};
use crate::packed::{least, slack, PackedRows};
use rand::seq::SliceRandom;
use rand::Rng;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster assignment per input point.
    pub assignments: Vec<usize>,
    /// Final centroids, `k × dim`.
    pub centroids: Vec<Vec<f32>>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f32,
    /// Per Lloyd iteration run, the points its bounds could not keep in
    /// place and re-scanned against every centroid. The first iteration
    /// takes the seeding's assignment and re-scans none.
    pub rescans: Vec<usize>,
    /// Per point, a lower bound on its true distance to every final
    /// centroid but `assignments[i]`; NaN where none is known.
    lower: Vec<f32>,
}

impl KMeansResult {
    /// Every point's nearest final centroid — the first minimum, strict
    /// `<` — and its distance, `euclidean`'s bits: what a full scan of
    /// every centroid gives. `sample(i)` names the point of this run that
    /// `points[i]` is, if any; such a point starts from the bounds the run
    /// ended with, and any other is scanned in full. Panics on a NaN
    /// distance among two or more centroids, as [`kmeans`] does.
    pub fn nearest<P: AsRef<[f32]>>(
        &self,
        points: &[P],
        sample: impl Fn(usize) -> Option<usize>,
    ) -> Vec<(usize, f32)> {
        let packed = PackedRows::from_rows(&self.centroids);
        let mut dists = Vec::new();
        (points.iter().enumerate())
            .map(|(i, p)| {
                let (mut own, mut lower) =
                    sample(i).map_or((0, f32::NAN), |s| (self.assignments[s], self.lower[s]));
                let (d, _) = settle(
                    p.as_ref(),
                    &mut own,
                    &mut lower,
                    &self.centroids,
                    &packed,
                    &mut dists,
                );
                (own, d)
            })
            .collect()
    }
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
            rescans: Vec::new(),
            lower: Vec::new(),
        };
    }
    let dim = points[0].as_ref().len();
    let packed = PackedRows::from_rows(points);
    let mut dists = Vec::new();

    // k-means++ seeding. `seeds.d2[i]` is point i's squared distance to
    // the nearest of the first `folded` centroids.
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(points.choose(rng).expect("n > 0").as_ref().to_vec());
    let mut seeds = Seeding::new(n);
    let mut folded = 0;
    while centroids.len() < k {
        for (j, c) in centroids.iter().enumerate().skip(folded) {
            packed.dists_into(c, &mut dists);
            seeds.fold(j, &dists);
        }
        folded = centroids.len();
        let total: f32 = seeds.d2.iter().sum();
        if total <= 1e-12 {
            // All points coincide with centroids; duplicate one.
            centroids.push(points[rng.gen_range(0..n)].as_ref().to_vec());
            continue;
        }
        let mut target = rng.gen::<f32>() * total;
        let mut pick = 0;
        for (i, &d) in seeds.d2.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                pick = i;
                break;
            }
        }
        centroids.push(points[pick].as_ref().to_vec());
    }
    for (j, c) in centroids.iter().enumerate().skip(folded) {
        packed.dists_into(c, &mut dists);
        seeds.fold(j, &dists);
    }

    let mut assignments = vec![0usize; n];
    let mut inertia = f32::MAX;
    let mut lower = vec![f32::NAN; n];
    let mut rescans = Vec::with_capacity(max_iters);
    let mut before = Vec::with_capacity(k);
    for iter in 0..max_iters {
        // Assign: the first minimum over the centroids in ascending order,
        // a later centroid winning only when strictly closer.
        let mut changed = false;
        let mut new_inertia = 0.0f32;
        if iter == 0 {
            assert!(k == 1 || !seeds.nan, "finite distances");
            let seeded = seeds.own.iter().zip(&seeds.own_d).zip(&seeds.runner_up);
            for ((a, l), ((&best, &dist), &runner_up)) in
                assignments.iter_mut().zip(&mut lower).zip(seeded)
            {
                changed |= *a != best as usize;
                *a = best as usize;
                *l = runner_up - slack(dim, runner_up);
                new_inertia += dist * dist;
            }
            rescans.push(0);
        } else {
            let packed_centroids = PackedRows::from_rows(&centroids);
            let mut rescanned = 0;
            for ((a, l), p) in assignments.iter_mut().zip(&mut lower).zip(points) {
                let was = *a;
                let (dist, scanned) =
                    settle(p.as_ref(), a, l, &centroids, &packed_centroids, &mut dists);
                changed |= *a != was;
                rescanned += usize::from(scanned);
                new_inertia += dist * dist;
            }
            rescans.push(rescanned);
        }
        inertia = new_inertia;
        // Update.
        before.clone_from(&centroids);
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
        loosen(&mut lower, &assignments, &before, &centroids);
        if !changed {
            break;
        }
    }

    KMeansResult {
        assignments,
        centroids,
        inertia,
        rescans,
        lower,
    }
}

/// What the seeding keeps per point over the centroids folded so far: the
/// least squared distance (the k-means++ weight), and the full scan's first
/// minimum — the first nearest centroid, its distance and the least
/// distance to any other — one centroid's pass at a time.
struct Seeding {
    d2: Vec<f32>,
    own: Vec<u32>,
    own_d: Vec<f32>,
    runner_up: Vec<f32>,
    /// Whether any folded distance was NaN (the full scan panics on it).
    nan: bool,
}

impl Seeding {
    fn new(n: usize) -> Self {
        Seeding {
            d2: vec![f32::MAX; n],
            own: vec![0; n],
            own_d: vec![f32::INFINITY; n],
            runner_up: vec![f32::INFINITY; n],
            nan: false,
        }
    }

    /// Folds centroid `j`'s distance to every point, `j` ascending from 0.
    fn fold(&mut self, j: usize, dists: &[f32]) {
        let j = u32::try_from(j).expect("fewer than 2^32 centroids");
        let Seeding {
            d2,
            own,
            own_d,
            runner_up,
            nan,
        } = self;
        fold_kernel::dispatch(j, dists, d2, own, own_d, runner_up, nan);
        if j == 0 {
            // The full scan starts from centroid 0's distance, NaN included.
            own_d.copy_from_slice(dists);
        }
    }
}

simd_kernel!(fold_kernel, (j: u32, dists: &[f32], d2: &mut [f32], own: &mut [u32], own_d: &mut [f32], runner_up: &mut [f32], nan: &mut bool), {
    // Branch-free selects, so every arm vectorises. A NaN distance makes
    // the first minimum meaningless, but `nan` then refuses it.
    let state = d2.iter_mut().zip(own).zip(own_d).zip(runner_up);
    let mut any_nan = false;
    for ((((d2, own), own_d), runner_up), &d) in state.zip(dists) {
        *d2 = d2.min(d * d);
        let closer = d < *own_d;
        let second = if d < *runner_up { d } else { *runner_up };
        *runner_up = if closer { *own_d } else { second };
        *own = if closer { j } else { *own };
        *own_d = if closer { d } else { *own_d };
        any_nan |= d.is_nan();
    }
    *nan |= any_nan;
});

/// One point's nearest of `centroids` (packed in `packed` for a re-scan)
/// under its bounds: `own` (its centroid so far) stays when the bound test
/// proves it, else the point is re-scanned against every centroid and
/// `own` and `lower` are the scan's. Returns the distance to the nearest
/// centroid and whether the point was re-scanned.
fn settle(
    point: &[f32],
    own: &mut usize,
    lower: &mut f32,
    centroids: &[Vec<f32>],
    packed: &PackedRows,
    dists: &mut Vec<f32>,
) -> (f32, bool) {
    let dim = point.len();
    let d = euclidean(point, &centroids[*own]);
    let s = slack(dim, d + lower.abs());
    if d + s < *lower - s {
        return (d, false);
    }
    packed.dists_into(point, dists);
    let (best, best_d, runner_up) = first_minimum(dists);
    *own = best;
    *lower = runner_up - slack(dim, runner_up);
    (best_d, true)
}

/// The first least of `dists` (strict `<`: the lowest index wins a tie),
/// its value and the least of the others (`+∞` when there are none).
/// Panics on a NaN among two or more, as Lloyd's full scan did.
fn first_minimum(dists: &[f32]) -> (usize, f32, f32) {
    assert!(
        dists.len() < 2 || !dists.iter().any(|d| d.is_nan()),
        "finite distances"
    );
    let best = least(f32::INFINITY, dists);
    // The first value equal to the least: `==` ties `-0.0` with `+0.0`, as
    // the strict rule does. A lone NaN is its own first minimum.
    let j = dists.iter().position(|&d| d == best).unwrap_or(0);
    let runner_up = least(least(f32::INFINITY, &dists[..j]), &dists[j + 1..]);
    (j, dists[j], runner_up)
}

/// Loosens every point's lower bound by the largest drift from `before` to
/// `after` among the centroids other than its own (Hamerly's two largest),
/// plus the slack of that subtraction. A NaN drift leaves every bound NaN.
fn loosen(lower: &mut [f32], own: &[usize], before: &[Vec<f32>], after: &[Vec<f32>]) {
    let (mut top, mut top_j, mut second) = (0.0f32, usize::MAX, 0.0f32);
    for (j, (b, a)) in before.iter().zip(after).enumerate() {
        let drift = euclidean(b, a);
        if drift.is_nan() {
            (top, second) = (f32::NAN, f32::NAN);
            break;
        }
        if drift > top {
            (top, top_j, second) = (drift, j, top);
        } else if drift > second {
            second = drift;
        }
    }
    let dim = before.first().map_or(0, Vec::len);
    for (l, &a) in lower.iter_mut().zip(own) {
        let drift = if a == top_j { second } else { top };
        *l = *l - drift - slack(dim, l.abs() + drift);
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
            rescans: Vec::new(),
            lower: Vec::new(),
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
        rescans: Vec::new(),
        lower: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_values::{awkward, bits, ARMS};
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

        /// [`check_bounded`] at random shapes up to 700 points and 99
        /// centroids, on blob clouds and on 0.25-grids.
        #[test]
        fn bounded_lloyd_matches_the_pairwise_oracle(
            seed in 0u64..1_000_000,
            n in 0usize..700,
            dim in 0usize..5,
            k in 1usize..100,
            max_iters in 0usize..15,
            grid in 0usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = [1, 2, 3, 8, 32][dim];
            let points = match grid {
                0..=5 => blob_points(&mut rng, n, dim),
                _ => grid_points(&mut rng, n, dim, grid),
            };
            check_bounded(&points, k, max_iters, seed);
        }
    }

    /// `n` points around `1 + n / 40` blob centres in `[-1, 1]^dim`, ±0.1
    /// per coordinate (`tests/golden_kmeans_bits.rs`' cloud): clusters the
    /// bounds can prune on.
    fn blob_points(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f32>> {
        let blobs: Vec<Vec<f32>> = (0..1 + n / 40)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect())
            .collect();
        (0..n)
            .map(|i| {
                (blobs[i % blobs.len()].iter())
                    .map(|c| c + (rng.gen::<f32>() - 0.5) * 0.2)
                    .collect()
            })
            .collect()
    }

    /// `n` points on a 0.25-step grid of `grid` values per coordinate:
    /// duplicates, distance ties and empty clusters.
    fn grid_points(rng: &mut StdRng, n: usize, dim: usize, grid: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.gen_range(0..grid) as f32 * 0.25 - 1.0)
                    .collect()
            })
            .collect()
    }

    /// Every point's nearest of `centroids` by a full scan: one `euclidean`
    /// per pair, the first minimum under `partial_cmp`.
    fn full_scan(points: &[Vec<f32>], centroids: &[Vec<f32>]) -> Vec<(usize, u32)> {
        (points.iter())
            .map(|p| {
                let (best, d) = (centroids.iter().map(|c| euclidean(p, c)).enumerate())
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                    .expect("k ≥ 1");
                (best, d.to_bits())
            })
            .collect()
    }

    /// The bounded run against the pairwise oracle — every output bit and
    /// the RNG's next draw — and [`KMeansResult::nearest`], from the run's
    /// bounds and from none, against a full scan of the final centroids.
    /// Returns the run's re-scan counts.
    fn check_bounded(points: &[Vec<f32>], k: usize, max_iters: usize, seed: u64) -> Vec<usize> {
        let case = format!("n={} k={k} iters={max_iters} seed={seed}", points.len());
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut slow_rng = fast_rng.clone();
        let fast = kmeans(points, k, max_iters, &mut fast_rng);
        let slow = kmeans_oracle(points, k, max_iters, &mut slow_rng);
        assert_eq!(
            observed(&fast, &mut fast_rng),
            observed(&slow, &mut slow_rng),
            "{case}"
        );
        assert_eq!(fast.rescans.len(), fast.rescans.len().min(max_iters));
        if points.is_empty() {
            return fast.rescans;
        }
        let want = full_scan(points, &fast.centroids);
        let bits = |got: Vec<(usize, f32)>| -> Vec<(usize, u32)> {
            got.into_iter().map(|(c, d)| (c, d.to_bits())).collect()
        };
        assert_eq!(
            bits(fast.nearest(points, Some)),
            want,
            "{case}: bounded nearest"
        );
        let none = fast.nearest(points, |_| None);
        assert_eq!(bits(none), want, "{case}: unbounded nearest");
        fast.rescans
    }

    /// The shapes where the bounds prune: the index's own (3000 × 32 at
    /// 100 partitions, scaled to 2000), blob clouds at several dimensions
    /// and partition counts, and 0.25-grids dense enough that duplicates
    /// and exact ties are everywhere.
    #[test]
    fn bounded_lloyd_matches_the_pairwise_oracle_at_pruning_shapes() {
        let mut rng = StdRng::seed_from_u64(0xb0d5);
        for (n, dim, k, iters) in [(2000, 32, 100, 8), (2000, 8, 64, 12), (900, 2, 100, 20)] {
            let points = blob_points(&mut rng, n, dim);
            let rescans = check_bounded(&points, k, iters, rng.gen());
            println!("blobs n={n} dim={dim} k={k}: re-scanned per iteration {rescans:?}");
        }
        for (n, dim, k, grid) in [(1500, 3, 100, 6), (1200, 2, 40, 9), (600, 1, 30, 13)] {
            let points = grid_points(&mut rng, n, dim, grid);
            let rescans = check_bounded(&points, k, 15, rng.gen());
            println!("grid n={n} dim={dim} k={k}: re-scanned per iteration {rescans:?}");
        }
    }

    /// The bounds' slack at every float scale: blob clouds and grids scaled
    /// by `2^-shift` from 1 down to `2^-80` — through the band where squared
    /// differences are subnormal, and past it, where every distance is
    /// zero — keep every bit of the pairwise oracle.
    #[test]
    fn bounded_lloyd_matches_the_pairwise_oracle_at_every_float_scale() {
        let mut rng = StdRng::seed_from_u64(0x5ca1e);
        let blobs = blob_points(&mut rng, 600, 8);
        let grid = grid_points(&mut rng, 500, 3, 7);
        for shift in (0..=80).step_by(4) {
            let scale = 2f32.powi(-shift);
            for (points, k) in [(&blobs, 40), (&grid, 30)] {
                let scaled: Vec<Vec<f32>> = (points.iter())
                    .map(|p| p.iter().map(|v| v * scale).collect())
                    .collect();
                check_bounded(&scaled, k, 10, 0x5eed + shift as u64);
            }
        }
    }

    /// On blob data the bounds keep most points in place: every iteration
    /// after the first re-scans fewer than half of them, so the fast path
    /// is the one that runs.
    #[test]
    fn pruning_engages_on_blob_data() {
        let n = 3000;
        let points = blob_points(&mut StdRng::seed_from_u64(0x9e7), n, 32);
        let r = kmeans(&points, 100, 8, &mut StdRng::seed_from_u64(0xa37c));
        println!(
            "blobs 3000 × 32, k 100: re-scanned per iteration {:?}",
            r.rescans
        );
        assert_eq!(
            r.rescans.first(),
            Some(&0),
            "the first assignment is the seeding's"
        );
        assert!(r.rescans.len() > 1, "{:?}", r.rescans);
        for &rescanned in &r.rescans[1..] {
            assert!(rescanned < n / 2, "{:?}", r.rescans);
        }
    }

    /// The seeding's fold on every dispatch arm the host supports against
    /// the branching loop it stands for, over awkward distances (NaN, ±∞,
    /// ties) and ordinary ones, folded in three rounds.
    #[test]
    fn fold_kernel_matches_the_branching_loop_on_every_arm() {
        type State = (Vec<f32>, Vec<u32>, Vec<f32>, Vec<f32>, bool);
        fn oracle(j: u32, dists: &[f32], s: &mut State) {
            for (i, &d) in dists.iter().enumerate() {
                s.0[i] = s.0[i].min(d * d);
                if d < s.2[i] {
                    s.3[i] = s.2[i];
                    s.1[i] = j;
                    s.2[i] = d;
                } else if d < s.3[i] {
                    s.3[i] = d;
                }
                s.4 |= d.is_nan();
            }
        }
        let all_bits = |s: &State| {
            let f = |v: &[f32]| v.iter().map(|&x| bits(x)).collect::<Vec<_>>();
            (f(&s.0), s.1.clone(), f(&s.2), f(&s.3), s.4)
        };
        let mut rng = StdRng::seed_from_u64(0xf01d);
        let mut skipped = Vec::new();
        for n in [0, 1, 15, 16, 17, 64, 100, 257] {
            for awkward_values in [false, true] {
                let rounds: Vec<Vec<f32>> = (0..3)
                    .map(|_| {
                        (0..n)
                            .map(|_| match awkward_values {
                                true => awkward(&mut rng),
                                false => rng.gen_range(0..4) as f32 * 0.5,
                            })
                            .collect()
                    })
                    .collect();
                let fresh = || -> State {
                    (
                        vec![f32::MAX; n],
                        vec![0; n],
                        vec![f32::INFINITY; n],
                        vec![f32::INFINITY; n],
                        false,
                    )
                };
                let mut want = fresh();
                for (j, dists) in rounds.iter().enumerate() {
                    oracle(j as u32 + 1, dists, &mut want);
                }
                for (level, name) in ARMS.iter().enumerate() {
                    let mut got = fresh();
                    let mut ran = true;
                    for (j, dists) in rounds.iter().enumerate() {
                        let (d2, own, own_d, runner_up, nan) = &mut got;
                        ran &= fold_kernel::run_arm(
                            level as u8,
                            j as u32 + 1,
                            dists,
                            d2,
                            own,
                            own_d,
                            runner_up,
                            nan,
                        );
                    }
                    if !ran {
                        skipped.push(*name);
                        continue;
                    }
                    assert_eq!(all_bits(&got), all_bits(&want), "{name}, n={n}");
                }
            }
        }
        skipped.dedup();
        println!("k-means fold kernel arms skipped on this host: {skipped:?}");
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
