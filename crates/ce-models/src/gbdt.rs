//! From-scratch gradient-boosted regression trees (the XGBoost substitute
//! behind LW-XGB — no tree-boosting crate is in the allowed dependency set).
//!
//! Squared-error boosting: each round fits an exact-greedy regression tree
//! to the current residuals and the ensemble advances by `learning_rate`
//! times the tree's prediction. Split gain is variance reduction; leaves
//! predict the residual mean.
//!
//! # The presorted builder
//!
//! Feature values never change between rounds, so [`Gbdt::fit`] orders
//! them once instead of once per feature per node per tree:
//!
//! * **Presort.** The rows are transposed to column-major and every
//!   feature is stable-sorted by value once per fit. Equal values keep
//!   ascending sample order — the order a stable sort over a node's
//!   ascending sample list produces — so the scan below meets the samples
//!   in the order a per-node sort would. Every comparison goes through
//!   `partial_cmp().expect("features are finite")`: a NaN feature panics
//!   here, as it did in the per-node sort.
//! * **Constant features are dropped.** A column whose values are all
//!   equal can never yield a split (no threshold lies between equal
//!   values), so it is neither sorted nor scanned. On LW-XGB's flat
//!   encoding that is most of the `tables + 3·columns + 1` features.
//! * **A node is a range.** Each tree starts from a copy of the root
//!   orders; a node is one range `[lo, hi)` shared by every feature's
//!   order array and by one ascending-sample array (which the node's
//!   residual sum and mean are taken over). A split stable-partitions each
//!   array in place by the row-wise test `x[feature] <= threshold`, so
//!   both children are again sorted by value with ties in ascending
//!   sample order. Within a node, a feature whose first and last values
//!   are equal is skipped.
//!
//! **Bits contract.** The builder may change latency, never bits: the
//! `left_sum` accumulation order, the strict `gain > best` first-wins rule
//! over ascending features and positions, thresholds and leaf means are
//! the same `f32` operations in the same order as the per-node-sort
//! builder's, so the fitted [`Gbdt`] and its serialized form are
//! identical. That builder survives as the test oracle of this module.

use serde::{Deserialize, Serialize};

/// Boosting hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage applied to every tree.
    pub learning_rate: f32,
    /// Minimum samples in a node to consider splitting.
    pub min_samples_split: usize,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            rounds: 60,
            max_depth: 4,
            learning_rate: 0.2,
            min_samples_split: 8,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f32,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f32]) -> f32 {
        match self {
            Node::Leaf { value } => *value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

/// A trained boosted-tree regressor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbdt {
    base: f32,
    trees: Vec<Node>,
    lr: f32,
}

impl Gbdt {
    /// Fits on feature rows `xs` and targets `ys`.
    pub fn fit(xs: &[Vec<f32>], ys: &[f32], params: &GbdtParams) -> Self {
        assert_eq!(xs.len(), ys.len(), "feature/target count mismatch");
        if xs.is_empty() {
            return Gbdt {
                base: 0.0,
                trees: Vec::new(),
                lr: params.learning_rate,
            };
        }
        let base = ys.iter().sum::<f32>() / ys.len() as f32;
        let mut residuals: Vec<f32> = ys.iter().map(|&y| y - base).collect();
        let mut trees = Vec::with_capacity(params.rounds);
        // No feature is ever compared when the root cannot split (or no
        // tree is built at all): then none is presorted, or checked, either.
        let root_splits =
            params.rounds > 0 && params.max_depth > 0 && xs.len() >= params.min_samples_split;
        let mut builder = Presorted::new(xs, if root_splits { xs[0].len() } else { 0 });
        for _ in 0..params.rounds {
            let tree = builder.build_tree(&residuals, params);
            for (i, r) in residuals.iter_mut().enumerate() {
                *r -= params.learning_rate * tree.predict(&xs[i]);
            }
            trees.push(tree);
        }
        Gbdt {
            base,
            trees,
            lr: params.learning_rate,
        }
    }

    /// Predicts one sample.
    pub fn predict(&self, x: &[f32]) -> f32 {
        let mut y = self.base;
        for t in &self.trees {
            y += self.lr * t.predict(x);
        }
        y
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

/// The once-per-fit presort and the per-tree working arrays (see the
/// module notes). Samples are `u32` ids into the training rows.
struct Presorted {
    /// Training rows.
    n: usize,
    /// Original indices of the non-constant features, ascending.
    features: Vec<usize>,
    /// Their values, column-major: feature `k` of sample `i` at `k·n + i`.
    values: Vec<f32>,
    /// Per kept feature, the sample ids sorted by value (ties ascending).
    root_order: Vec<u32>,
    /// Working copy of `root_order`, partitioned as the tree grows.
    order: Vec<u32>,
    /// Sample ids in ascending order, partitioned alongside `order`.
    ids: Vec<u32>,
    /// Per sample: does it fall left of the split being applied?
    goes_left: Vec<bool>,
    /// Right-hand side of a partition in flight.
    scratch: Vec<u32>,
}

impl Presorted {
    /// Presorts the first `dims` features of the (non-empty) rows `xs`.
    fn new(xs: &[Vec<f32>], dims: usize) -> Self {
        let n = xs.len();
        let n_ids = u32::try_from(n).expect("training rows fit u32 sample ids");
        let mut features = Vec::new();
        let mut values = Vec::new();
        let mut root_order = Vec::new();
        for f in 0..dims {
            let first = xs[0][f];
            // A NaN equals nothing, so its column is kept and meets the
            // finiteness check in the sort below.
            if xs.iter().all(|row| row[f] == first) {
                continue;
            }
            let column = values.len();
            values.extend(xs.iter().map(|row| row[f]));
            let column = &values[column..];
            let sorted = root_order.len();
            root_order.extend(0..n_ids);
            root_order[sorted..].sort_by(|&a, &b| {
                column[a as usize]
                    .partial_cmp(&column[b as usize])
                    .expect("features are finite")
            });
            features.push(f);
        }
        Presorted {
            n,
            features,
            values,
            order: vec![0; root_order.len()],
            root_order,
            ids: vec![0; n],
            goes_left: vec![false; n],
            scratch: Vec::with_capacity(n),
        }
    }

    fn build_tree(&mut self, residuals: &[f32], params: &GbdtParams) -> Node {
        self.order.copy_from_slice(&self.root_order);
        for (i, id) in self.ids.iter_mut().enumerate() {
            *id = i as u32;
        }
        self.build_node(residuals, 0, self.n, params.max_depth, params)
    }

    fn leaf(&self, residuals: &[f32], lo: usize, hi: usize) -> Node {
        let value = if lo == hi {
            0.0
        } else {
            let sum: f32 = self.ids[lo..hi]
                .iter()
                .map(|&i| residuals[i as usize])
                .sum();
            sum / (hi - lo) as f32
        };
        Node::Leaf { value }
    }

    fn build_node(
        &mut self,
        residuals: &[f32],
        lo: usize,
        hi: usize,
        depth: usize,
        params: &GbdtParams,
    ) -> Node {
        // Fewer than two samples leave no pair of values to split between.
        if depth == 0 || hi - lo < params.min_samples_split.max(2) {
            return self.leaf(residuals, lo, hi);
        }
        let n = self.n;
        // Best split = max variance reduction, exact greedy over sorted values.
        let total_sum: f32 = self.ids[lo..hi]
            .iter()
            .map(|&i| residuals[i as usize])
            .sum();
        let total_cnt = (hi - lo) as f32;
        let mut best: Option<(usize, f32, f32)> = None; // (kept feature, threshold, gain)
        for k in 0..self.features.len() {
            let column = &self.values[k * n..(k + 1) * n];
            let order = &self.order[k * n + lo..k * n + hi];
            if column[order[0] as usize] == column[order[order.len() - 1] as usize] {
                continue; // constant inside this node
            }
            let mut left_sum = 0.0f32;
            let mut left_cnt = 0.0f32;
            for w in order.windows(2) {
                left_sum += residuals[w[0] as usize];
                left_cnt += 1.0;
                let (xa, xb) = (column[w[0] as usize], column[w[1] as usize]);
                if xa == xb {
                    continue; // cannot split between equal values
                }
                let right_sum = total_sum - left_sum;
                let right_cnt = total_cnt - left_cnt;
                // Variance-reduction gain ∝ n_l·mean_l² + n_r·mean_r².
                let gain = left_sum * left_sum / left_cnt + right_sum * right_sum / right_cnt
                    - total_sum * total_sum / total_cnt;
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((k, (xa + xb) * 0.5, gain));
                }
            }
        }
        let Some((k, threshold, gain)) = best else {
            return self.leaf(residuals, lo, hi);
        };
        if gain <= 1e-9 {
            return self.leaf(residuals, lo, hi);
        }
        // The row-wise test decides the sides, not the scan position: a
        // midpoint may round onto its upper neighbour.
        let column = &self.values[k * n..(k + 1) * n];
        for &i in &self.ids[lo..hi] {
            self.goes_left[i as usize] = column[i as usize] <= threshold;
        }
        let mid = lo + stable_partition(&mut self.ids[lo..hi], &self.goes_left, &mut self.scratch);
        // Only a child that will itself look for a split reads the orders.
        let child_splits = |len: usize| depth > 1 && len >= params.min_samples_split.max(2);
        if child_splits(mid - lo) || child_splits(hi - mid) {
            for order in self.order.chunks_exact_mut(n) {
                stable_partition(&mut order[lo..hi], &self.goes_left, &mut self.scratch);
            }
        }
        Node::Split {
            feature: self.features[k],
            threshold,
            left: Box::new(self.build_node(residuals, lo, mid, depth - 1, params)),
            right: Box::new(self.build_node(residuals, mid, hi, depth - 1, params)),
        }
    }
}

/// Moves the ids marked in `goes_left` to the front of `ids`, both sides
/// keeping their relative order; returns how many went left.
fn stable_partition(ids: &mut [u32], goes_left: &[bool], scratch: &mut Vec<u32>) -> usize {
    scratch.clear();
    let mut left = 0;
    for r in 0..ids.len() {
        let id = ids[r];
        if goes_left[id as usize] {
            ids[left] = id;
            left += 1;
        } else {
            scratch.push(id);
        }
    }
    ids[left..].copy_from_slice(scratch);
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The builder this module replaced: one `to_vec` + stable `sort_by`
    /// per feature per node per tree over the row-major features.
    mod oracle {
        use super::super::{Gbdt, GbdtParams, Node};

        pub fn fit(xs: &[Vec<f32>], ys: &[f32], params: &GbdtParams) -> Gbdt {
            let base = ys.iter().sum::<f32>() / ys.len() as f32;
            let mut residuals: Vec<f32> = ys.iter().map(|&y| y - base).collect();
            let mut trees = Vec::with_capacity(params.rounds);
            let idx: Vec<usize> = (0..xs.len()).collect();
            for _ in 0..params.rounds {
                let tree = build_tree(xs, &residuals, &idx, params.max_depth, params);
                for (i, r) in residuals.iter_mut().enumerate() {
                    *r -= params.learning_rate * tree.predict(&xs[i]);
                }
                trees.push(tree);
            }
            Gbdt {
                base,
                trees,
                lr: params.learning_rate,
            }
        }

        fn mean(residuals: &[f32], idx: &[usize]) -> f32 {
            if idx.is_empty() {
                return 0.0;
            }
            idx.iter().map(|&i| residuals[i]).sum::<f32>() / idx.len() as f32
        }

        fn build_tree(
            xs: &[Vec<f32>],
            residuals: &[f32],
            idx: &[usize],
            depth: usize,
            params: &GbdtParams,
        ) -> Node {
            if depth == 0 || idx.len() < params.min_samples_split {
                return Node::Leaf {
                    value: mean(residuals, idx),
                };
            }
            let dims = xs[0].len();
            // Best split = max variance reduction, exact greedy over sorted values.
            let total_sum: f32 = idx.iter().map(|&i| residuals[i]).sum();
            let total_cnt = idx.len() as f32;
            let mut best: Option<(usize, f32, f32)> = None; // (feature, threshold, gain)
            #[allow(clippy::needless_range_loop)]
            for f in 0..dims {
                let mut order: Vec<usize> = idx.to_vec();
                order.sort_by(|&a, &b| {
                    xs[a][f]
                        .partial_cmp(&xs[b][f])
                        .expect("features are finite")
                });
                let mut left_sum = 0.0f32;
                let mut left_cnt = 0.0f32;
                for w in 0..order.len() - 1 {
                    left_sum += residuals[order[w]];
                    left_cnt += 1.0;
                    let (xa, xb) = (xs[order[w]][f], xs[order[w + 1]][f]);
                    if xa == xb {
                        continue; // cannot split between equal values
                    }
                    let right_sum = total_sum - left_sum;
                    let right_cnt = total_cnt - left_cnt;
                    // Variance-reduction gain ∝ n_l·mean_l² + n_r·mean_r².
                    let gain = left_sum * left_sum / left_cnt + right_sum * right_sum / right_cnt
                        - total_sum * total_sum / total_cnt;
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((f, (xa + xb) * 0.5, gain));
                    }
                }
            }
            let Some((feature, threshold, gain)) = best else {
                return Node::Leaf {
                    value: mean(residuals, idx),
                };
            };
            if gain <= 1e-9 {
                return Node::Leaf {
                    value: mean(residuals, idx),
                };
            }
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| xs[i][feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(build_tree(xs, residuals, &left_idx, depth - 1, params)),
                right: Box::new(build_tree(xs, residuals, &right_idx, depth - 1, params)),
            }
        }
    }

    /// Bit-exact rendering of every field (the serialized form is the
    /// fields): `Debug` prints each `f32` to round-trip precision.
    fn rendered(g: &Gbdt) -> String {
        format!("{g:?}")
    }

    /// Shapes raw draws into feature columns: continuous, heavy ties,
    /// all-constant, all-duplicate (one column copied), and signed zeros
    /// beside two values one ulp apart whose midpoint rounds onto the upper.
    fn shaped(kind: usize, n: usize, dims: usize, raw: &[f32]) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dims)
                    .map(|f| {
                        let v = raw[(i * dims + f) % raw.len()];
                        match kind % 5 {
                            0 => v,
                            1 => (v * 3.0).floor(),
                            2 => 0.25,
                            3 => raw[i % raw.len()],
                            _ => match (v * 4.0) as i32 {
                                0 => 0.0,
                                1 => -0.0,
                                2 => f32::from_bits(1.0f32.to_bits() + 1),
                                _ => f32::from_bits(1.0f32.to_bits() + 2),
                            },
                        }
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #[test]
        fn presorted_fit_matches_per_node_sort_oracle(
            raw in prop::collection::vec(0.0f32..1.0, 1..400),
            ys in prop::collection::vec(-2.0f32..2.0, 40),
            n in 1usize..40,
            dims in 0usize..7,
            kind in 0usize..5,
            max_depth in 0usize..5,
            min_samples_split in 0usize..12,
        ) {
            let xs = shaped(kind, n, dims, &raw);
            let params = GbdtParams {
                rounds: 6,
                max_depth,
                min_samples_split,
                ..GbdtParams::default()
            };
            let ys = &ys[..n];
            prop_assert_eq!(
                rendered(&Gbdt::fit(&xs, ys, &params)),
                rendered(&oracle::fit(&xs, ys, &params))
            );
        }

        #[test]
        fn equal_gain_ties_go_to_the_first_feature_and_position(
            column in prop::collection::vec(0i32..4, 8..32),
            ys in prop::collection::vec(-1.0f32..1.0, 32),
            copies in 2usize..5,
        ) {
            // Every feature is the same column (and one its mirror image,
            // whose best split has the same two sides): all gains tie.
            let xs: Vec<Vec<f32>> = column
                .iter()
                .map(|&v| {
                    let mut row = vec![v as f32; copies];
                    row.push(-(v as f32));
                    row
                })
                .collect();
            let ys = &ys[..xs.len()];
            let params = GbdtParams::default();
            prop_assert_eq!(
                rendered(&Gbdt::fit(&xs, ys, &params)),
                rendered(&oracle::fit(&xs, ys, &params))
            );
        }
    }

    #[test]
    #[should_panic(expected = "features are finite")]
    fn nan_feature_panics_in_the_presort() {
        let xs: Vec<Vec<f32>> = (0..10)
            .map(|i| vec![if i == 7 { f32::NAN } else { i as f32 }])
            .collect();
        Gbdt::fit(&xs, &[0.0; 10], &GbdtParams::default());
    }

    #[test]
    fn unsplittable_fits_never_look_at_features() {
        // One sample, and fewer samples than `min_samples_split`: every
        // tree is the root mean and no value is compared, NaN or not.
        let nan = vec![vec![f32::NAN, 1.0]; 3];
        let params = GbdtParams::default();
        for n in [1, 3] {
            let ys = [1.0, 2.0, 6.0];
            let got = Gbdt::fit(&nan[..n], &ys[..n], &params);
            assert_eq!(
                rendered(&got),
                rendered(&oracle::fit(&nan[..n], &ys[..n], &params))
            );
        }
    }

    #[test]
    fn fits_piecewise_function() {
        // y = 1 if x < 0.5 else 5.
        let xs: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32 / 100.0]).collect();
        let ys: Vec<f32> = xs
            .iter()
            .map(|x| if x[0] < 0.5 { 1.0 } else { 5.0 })
            .collect();
        let g = Gbdt::fit(&xs, &ys, &GbdtParams::default());
        assert!((g.predict(&[0.2]) - 1.0).abs() < 0.2);
        assert!((g.predict(&[0.8]) - 5.0).abs() < 0.2);
        assert_eq!(g.num_trees(), 60);
    }

    #[test]
    fn fits_additive_two_features() {
        let xs: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![(i % 20) as f32 / 20.0, (i / 20) as f32 / 10.0])
            .collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x[0] + 3.0 * x[1]).collect();
        let g = Gbdt::fit(&xs, &ys, &GbdtParams::default());
        let mut mse = 0.0;
        for (x, &y) in xs.iter().zip(&ys) {
            let d = g.predict(x) - y;
            mse += d * d;
        }
        mse /= xs.len() as f32;
        assert!(mse < 0.05, "mse = {mse}");
    }

    #[test]
    fn constant_target_yields_constant_prediction() {
        let xs: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32]).collect();
        let ys = vec![7.0f32; 50];
        let g = Gbdt::fit(&xs, &ys, &GbdtParams::default());
        assert!((g.predict(&[25.0]) - 7.0).abs() < 1e-4);
    }

    #[test]
    fn empty_training_set() {
        let g = Gbdt::fit(&[], &[], &GbdtParams::default());
        assert_eq!(g.predict(&[1.0]), 0.0);
    }
}
