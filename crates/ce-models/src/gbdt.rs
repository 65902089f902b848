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
//! * **A node is its membership.** A stable partition by the row-wise
//!   test only ever leaves each feature's root order filtered to the
//!   node's members, and the node's members in ascending id order. So a
//!   node is a bit mask over the rows (`u64` words, any row count): each
//!   split scan walks every kept feature's root order once and skips the
//!   non-members, and no split rewrites an order array. The children's
//!   masks come from the row-wise test `x[feature] <= threshold`; a node's
//!   residual sum and leaf mean are `.sum()` over its members in
//!   ascending id order, as before.
//! * **The scalar scan** copies, per kept feature, the members' values and
//!   residuals in root order (every position writes, only a member
//!   advances the cursor) and runs the per-node-sort builder's scan over
//!   them. It serves every host without the lane kernel.
//! * **The lane kernel** (AVX-512F, picked by the host, never a setting)
//!   scans sixteen kept features at once, one per `f32` lane, over a
//!   position-major copy of the root ids and values built once per fit.
//!   Per position each lane tests its sample's membership bit (a lane
//!   permute of the mask when it fits one register, 512 rows; a gather
//!   beyond), gathers residuals by id and adds them, and one to its
//!   count, under the membership mask only. A member after another of a
//!   different value is a candidate: it takes the scalar scan's two
//!   divisions and its operations in its order (separate `mul`, `div`,
//!   `add`, `sub`, never an FMA), and the lane keeps its first maximum by
//!   strict `>`. The lanes then fold in ascending feature order by strict
//!   `>`. Sixteen per-feature first maxima folded in feature order are the
//!   scan's first maximum over features and positions whenever the gains
//!   are totally ordered; a NaN gain breaks that (one taken first blocks
//!   its lane but not the features after it), so any NaN candidate makes
//!   the kernel decline and the node is scanned again by the scalar scan.
//!   (With finite features a NaN gain needs the node's `(Σr)²/n` term to be
//!   `+∞` or NaN, and then every gain of the node is NaN or `−∞`, so no
//!   candidate beats the first and both orders agree anyway; the rescan
//!   keeps that argument out of the contract.)
//!
//! **Bits contract.** The builder may change latency, never bits: the
//! `left_sum` accumulation order, the strict `gain > best` first-wins rule
//! over ascending features and positions, thresholds and leaf means are
//! the same `f32` operations in the same order as the per-node-sort
//! builder's, on either scan, so the fitted [`Gbdt`] and its serialized
//! form are identical. That builder survives as the test oracle of this
//! module; the tests run both scans against it and print the ones the
//! host lacks.

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
        Self::fit_with(xs, ys, params, lane_kernel_detected())
    }

    /// [`Self::fit`], its split scan on the lane kernel when `lanes` (only
    /// where [`lane_kernel_detected`]; the tests also pass `false`, to run
    /// what a host without it runs).
    fn fit_with(xs: &[Vec<f32>], ys: &[f32], params: &GbdtParams, lanes: bool) -> Self {
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
        let dims = if root_splits { xs[0].len() } else { 0 };
        let mut builder = Presorted::new(xs, dims, lanes);
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
}

/// A split: kept feature, threshold, gain.
type Split = (usize, f32, f32);

/// The once-per-fit presort (see the module notes). Samples are `u32` ids
/// into the training rows; a node is a membership mask over them, one bit
/// per row in `u64` words.
struct Presorted {
    /// Training rows.
    n: usize,
    /// Original indices of the non-constant features, ascending.
    features: Vec<usize>,
    /// Their values, column-major: feature `k` of sample `i` at `k·n + i`.
    values: Vec<f32>,
    /// Per kept feature, the sample ids sorted by value (ties ascending),
    /// each beside its value.
    root: Vec<(u32, f32)>,
    /// The lane kernel's copy of `root`, where the host has the kernel.
    lanes: Option<LaneOrders>,
    /// Membership masks of the nodes on the path being grown (see
    /// [`Presorted::build_node`]), reused by every tree.
    masks: Vec<u64>,
}

impl Presorted {
    /// Presorts the first `dims` features of the (non-empty) rows `xs`;
    /// `lanes` builds the lane kernel's copy (only where it was detected).
    fn new(xs: &[Vec<f32>], dims: usize, lanes: bool) -> Self {
        let n = xs.len();
        let n_ids = u32::try_from(n).expect("training rows fit u32 sample ids");
        let mut features = Vec::new();
        let mut values = Vec::new();
        let mut root = Vec::new();
        let mut order: Vec<u32> = Vec::with_capacity(n);
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
            order.clear();
            order.extend(0..n_ids);
            order.sort_by(|&a, &b| {
                column[a as usize]
                    .partial_cmp(&column[b as usize])
                    .expect("features are finite")
            });
            root.extend(order.iter().map(|&i| (i, column[i as usize])));
            features.push(f);
        }
        let lanes = (lanes && !features.is_empty()).then(|| LaneOrders::new(n, &root));
        Presorted {
            n,
            features,
            values,
            root,
            lanes,
            masks: Vec::new(),
        }
    }

    fn build_tree(&mut self, residuals: &[f32], params: &GbdtParams) -> Node {
        let words = self.n.div_ceil(64);
        let mut masks = std::mem::take(&mut self.masks);
        masks.clear();
        masks.resize((2 * params.max_depth + 1) * words, 0);
        for (w, word) in masks[..words].iter_mut().enumerate() {
            let rows = (self.n - 64 * w).min(64);
            *word = u64::MAX >> (64 - rows);
        }
        let tree = self.build_node(residuals, &mut masks, self.n, params.max_depth, params);
        self.masks = masks;
        tree
    }

    /// The node whose `count` members are the mask at the head of `masks`.
    /// The rest of `masks` is free space for the subtree: the children's
    /// masks go right after this node's, right then left, and the left
    /// child grows its subtree past both; the right child then reuses
    /// that space, since only its own mask must survive the left subtree.
    fn build_node(
        &self,
        residuals: &[f32],
        masks: &mut [u64],
        count: usize,
        depth: usize,
        params: &GbdtParams,
    ) -> Node {
        let words = self.n.div_ceil(64);
        let mask = &masks[..words];
        // Fewer than two samples leave no pair of values to split between.
        if depth == 0 || count < params.min_samples_split.max(2) {
            return leaf(residuals, mask, count);
        }
        // Best split = max variance reduction, exact greedy over sorted values.
        let total_sum: f32 = members(mask).map(|i| residuals[i]).sum();
        let total_cnt = count as f32;
        let lane_best = match &self.lanes {
            Some(lanes) => lanes.best_split(residuals, mask, total_sum, total_cnt),
            None => None,
        };
        let best = lane_best.unwrap_or_else(|| self.scan(residuals, mask, total_sum, total_cnt));
        let Some((k, threshold, gain)) = best else {
            return leaf(residuals, mask, count);
        };
        if gain <= 1e-9 {
            return leaf(residuals, mask, count);
        }
        // The row-wise test decides the sides, not the scan position: a
        // midpoint may round onto its upper neighbour.
        let column = &self.values[k * self.n..(k + 1) * self.n];
        let (mask, children) = masks.split_at_mut(words);
        let (right, left) = children.split_at_mut(words);
        let mut left_count = 0;
        for (w, ((&word, left), right)) in mask.iter().zip(left).zip(right).enumerate() {
            let mut goes_left = 0u64;
            let mut rest = word;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                goes_left |= u64::from(column[64 * w + bit as usize] <= threshold) << bit;
                rest &= rest - 1;
            }
            (*left, *right) = (goes_left, word & !goes_left);
            left_count += goes_left.count_ones() as usize;
        }
        let (depth, right_count) = (depth - 1, count - left_count);
        let left = self.build_node(
            residuals,
            &mut masks[2 * words..],
            left_count,
            depth,
            params,
        );
        let right = self.build_node(residuals, &mut masks[words..], right_count, depth, params);
        Node::Split {
            feature: self.features[k],
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// The scalar split scan: per kept feature, the node's members in root
    /// order (value and residual, written without a branch from a table of
    /// every row's residual and membership), then the per-node-sort
    /// builder's scan over them, its operations in its order — the path of
    /// every host without the lane kernel, and of every node in which that
    /// kernel met a NaN gain.
    fn scan(
        &self,
        residuals: &[f32],
        mask: &[u64],
        total_sum: f32,
        total_cnt: f32,
    ) -> Option<Split> {
        let n = self.n;
        let rows: Vec<(f32, usize)> = residuals
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, (mask[i / 64] >> (i % 64) & 1) as usize))
            .collect();
        let mut node = vec![(0.0f32, 0.0f32); n];
        let mut best: Option<Split> = None;
        for (k, root) in self.root.chunks_exact(n).enumerate() {
            // Every position writes; only a member advances the cursor.
            let mut len = 0;
            for &(i, x) in root {
                let (r, member) = rows[i as usize];
                node[len] = (x, r);
                len += member;
            }
            let mut left_sum = 0.0f32;
            let mut left_cnt = 0.0f32;
            for w in node[..len].windows(2) {
                let ((xa, r), (xb, _)) = (w[0], w[1]);
                left_sum += r;
                left_cnt += 1.0;
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
        best
    }
}

/// The members of a node, ascending.
fn members(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                64 * w + bit
            })
        })
    })
}

/// The residual mean of a node's `count` members (0 for none).
fn leaf(residuals: &[f32], mask: &[u64], count: usize) -> Node {
    let value = if count == 0 {
        0.0
    } else {
        members(mask).map(|i| residuals[i]).sum::<f32>() / count as f32
    };
    Node::Leaf { value }
}

/// Kept features per lane group: one `f32` lane of a 512-bit register each.
const LANES: usize = 16;

/// Whether the lane kernel may run on this CPU: AVX-512F, by
/// `simd_kernel!`'s cached probe.
fn lane_kernel_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        ce_nn::matrix::simd_level() == 2
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The root orders, position-major, [`LANES`] kept features per group:
/// lane `l` of position `p` of group `g` is the `p`-th sample id of kept
/// feature `LANES·g + l` in value order, and that sample's value. Lanes
/// past the last feature hold sample 0 at value 0 at every position, so
/// they never see two different values and never propose a split.
struct LaneOrders {
    /// Training rows; every id is below it.
    n: usize,
    ids: Vec<u32>,
    values: Vec<f32>,
}

impl LaneOrders {
    fn new(n: usize, root: &[(u32, f32)]) -> Self {
        let groups = (root.len() / n).div_ceil(LANES);
        let mut lanes = LaneOrders {
            n,
            ids: vec![0; groups * n * LANES],
            values: vec![0.0; groups * n * LANES],
        };
        for (k, order) in root.chunks_exact(n).enumerate() {
            let (g, lane) = (k / LANES, k % LANES);
            for (p, &(id, x)) in order.iter().enumerate() {
                let at = (g * n + p) * LANES + lane;
                (lanes.ids[at], lanes.values[at]) = (id, x);
            }
        }
        lanes
    }

    /// [`Presorted::scan`]'s answer, sixteen features at a time; `None`
    /// when some candidate gain is NaN, where the per-lane maxima do not
    /// compose into the scalar scan's (a NaN taken first blocks every later
    /// candidate in its lane, but not in the features after it).
    fn best_split(
        &self,
        residuals: &[f32],
        mask: &[u64],
        total_sum: f32,
        total_cnt: f32,
    ) -> Option<Option<Split>> {
        let stride = self.n * LANES;
        let mut best: Option<Split> = None;
        let groups = self
            .ids
            .chunks_exact(stride)
            .zip(self.values.chunks_exact(stride));
        for (g, (ids, values)) in groups.enumerate() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `LaneOrders` is built only where
            // `lane_kernel_detected` found AVX-512F, which is all the
            // kernel's `target_feature` asks; it checks its arguments
            // itself.
            let lane = unsafe { lane_scan(ids, values, mask, residuals, total_sum, total_cnt) };
            #[cfg(not(target_arch = "x86_64"))]
            let lane: LaneBest = {
                let _ = (ids, values, mask, residuals, total_sum, total_cnt);
                unreachable!("lane orders are built only where the lane kernel runs")
            };
            if lane.nan != 0 {
                return None;
            }
            // Lanes fold in ascending feature order, first maximum kept.
            for l in 0..LANES {
                if lane.found >> l & 1 == 1 && best.is_none_or(|(_, _, b)| lane.gain[l] > b) {
                    best = Some((LANES * g + l, lane.threshold[l], lane.gain[l]));
                }
            }
        }
        Some(best)
    }
}

/// One group's per-lane scan result.
struct LaneBest {
    /// Lanes that met a candidate.
    found: u16,
    /// Lanes that met a NaN gain.
    nan: u16,
    /// Each found lane's first maximal gain and its threshold.
    gain: [f32; LANES],
    threshold: [f32; LANES],
}

/// [`Presorted::scan`] over one lane group's sixteen features at once:
/// lane `l` walks its feature's root order and does that function's
/// operations, in its order, on the node's members only — a member's
/// residual is gathered by id and added under the membership mask, a
/// candidate (a member after another of a different value) takes the same
/// two divisions, and the lane keeps its first maximum by strict `>`.
/// `mask` is the node's membership, `residuals` one per training row. A
/// mask of at most eight words (512 rows) is read from a register by a
/// lane permute, a longer one by a gather.
///
/// Panics unless `ids` and `values` hold `residuals.len()` positions of
/// [`LANES`] lanes, every id is below `residuals.len()` and `mask` covers
/// that many rows; the loads and gathers rely on those checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lane_scan(
    ids: &[u32],
    values: &[f32],
    mask: &[u64],
    residuals: &[f32],
    total_sum: f32,
    total_cnt: f32,
) -> LaneBest {
    use std::arch::x86_64::*;

    let n = residuals.len();
    assert!(ids.len() == n * LANES && values.len() == n * LANES && mask.len() * 64 >= n);
    let rows = _mm512_set1_epi32(i32::try_from(n).expect("training rows fit i32"));
    let in_register = mask.len() <= 8;
    let mut words = [0u64; 8];
    if in_register {
        words[..mask.len()].copy_from_slice(mask);
    }
    // SAFETY: `words` is eight `u64`s; an unaligned load.
    let words = unsafe { _mm512_loadu_si512(words.as_ptr().cast()) };
    let (one_bit, low_five) = (_mm512_set1_epi32(1), _mm512_set1_epi32(31));
    let (total_sum_v, total_cnt_v) = (_mm512_set1_ps(total_sum), _mm512_set1_ps(total_cnt));
    let total_term = _mm512_set1_ps(total_sum * total_sum / total_cnt);
    let (one, half) = (_mm512_set1_ps(1.0), _mm512_set1_ps(0.5));
    let zero = _mm512_setzero_ps();
    let (mut left_sum, mut left_cnt, mut prev) = (zero, zero, zero);
    let (mut best, mut threshold) = (zero, zero);
    let (mut seen, mut found, mut nan): (__mmask16, __mmask16, __mmask16) = (0, 0, 0);
    for p in 0..n {
        // SAFETY: `p < n`, so the sixteen ids and values at `p · LANES`
        // lie inside `ids` and `values` (asserted above); unaligned loads.
        let id = unsafe { _mm512_loadu_si512(ids.as_ptr().add(p * LANES).cast()) };
        let x = unsafe { _mm512_loadu_ps(values.as_ptr().add(p * LANES)) };
        assert_eq!(
            _mm512_cmplt_epu32_mask(id, rows),
            u16::MAX,
            "sample ids below the row count"
        );
        // Bit `id` of the mask is bit `id % 32` of its `id / 32`-th
        // little-endian 32-bit word.
        let at = _mm512_srli_epi32::<5>(id);
        let word = if in_register {
            _mm512_permutexvar_epi32(at, words)
        } else {
            // SAFETY: every id is below `n <= 64 · mask.len()` (asserted),
            // so each word read lies inside `mask`.
            unsafe { _mm512_i32gather_epi32::<4>(at, mask.as_ptr().cast()) }
        };
        let member = _mm512_test_epi32_mask(
            _mm512_srlv_epi32(word, _mm512_and_si512(id, low_five)),
            one_bit,
        );
        let candidate = member & seen & _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(prev, x);
        if candidate != 0 {
            let right_sum = _mm512_sub_ps(total_sum_v, left_sum);
            let right_cnt = _mm512_sub_ps(total_cnt_v, left_cnt);
            let gain = _mm512_sub_ps(
                _mm512_add_ps(
                    _mm512_maskz_div_ps(candidate, _mm512_mul_ps(left_sum, left_sum), left_cnt),
                    _mm512_maskz_div_ps(candidate, _mm512_mul_ps(right_sum, right_sum), right_cnt),
                ),
                total_term,
            );
            nan |= candidate & _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(gain, gain);
            let better = candidate & (_mm512_cmp_ps_mask::<_CMP_GT_OQ>(gain, best) | !found);
            best = _mm512_mask_mov_ps(best, better, gain);
            let mid = _mm512_mul_ps(_mm512_add_ps(prev, x), half);
            threshold = _mm512_mask_mov_ps(threshold, better, mid);
            found |= candidate;
        }
        // SAFETY: as for the mask words: every id indexes `residuals`.
        let r =
            unsafe { _mm512_mask_i32gather_ps::<4>(zero, member, id, residuals.as_ptr().cast()) };
        left_sum = _mm512_mask_add_ps(left_sum, member, left_sum, r);
        left_cnt = _mm512_mask_add_ps(left_cnt, member, left_cnt, one);
        prev = _mm512_mask_mov_ps(prev, member, x);
        seen |= member;
    }
    let mut out = LaneBest {
        found,
        nan,
        gain: [0.0; LANES],
        threshold: [0.0; LANES],
    };
    // SAFETY: each destination is sixteen `f32`s; unaligned stores.
    unsafe {
        _mm512_storeu_ps(out.gain.as_mut_ptr(), best);
        _mm512_storeu_ps(out.threshold.as_mut_ptr(), threshold);
    }
    out
}

#[cfg(test)]
impl Gbdt {
    /// Number of trees in the ensemble.
    fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// How the covered-arms report names the two split scans.
    const SCALAR_ARM: &str = "scalar";
    const LANE_ARM: &str = "lane kernel (avx512f)";

    /// Fits `xs`/`ys` on every split-scan arm this host has — the scalar
    /// scan, and the lane kernel where detected — and checks each against
    /// the per-node-sort oracle (against the empty model when there are no
    /// rows, which the oracle does not take). Returns the arms that ran.
    fn check_arms(xs: &[Vec<f32>], ys: &[f32], params: &GbdtParams) -> Vec<&'static str> {
        let want = if xs.is_empty() {
            rendered(&Gbdt::fit(xs, ys, params))
        } else {
            rendered(&oracle::fit(xs, ys, params))
        };
        let mut arms = vec![SCALAR_ARM];
        if lane_kernel_detected() {
            arms.push(LANE_ARM);
        }
        for &arm in &arms {
            let got = rendered(&Gbdt::fit_with(xs, ys, params, arm == LANE_ARM));
            assert_eq!(got, want, "{arm} arm, {} rows", xs.len());
        }
        arms
    }

    /// Prints, once per test binary, which arms ran and which did not.
    fn report_arms(covered: &[&str]) {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let missing: Vec<_> = [SCALAR_ARM, LANE_ARM]
                .into_iter()
                .filter(|arm| !covered.contains(arm))
                .collect();
            println!(
                "GBDT split-scan arms covered on this host: {covered:?}; NOT covered: {missing:?}"
            );
        });
    }

    /// Shapes raw draws into feature columns: continuous, heavy ties,
    /// all-constant, all-duplicate (one column copied), signed zeros
    /// beside two values one ulp apart whose midpoint rounds onto the
    /// upper, and both infinities among ordinary values (a midpoint of
    /// `−∞` and `+∞` is NaN, and no row goes left of it).
    fn shaped(kind: usize, n: usize, dims: usize, raw: &[f32]) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dims)
                    .map(|f| {
                        let v = raw[(i * dims + f) % raw.len()];
                        match kind % 6 {
                            0 => v,
                            1 => (v * 3.0).floor(),
                            2 => 0.25,
                            3 => raw[i % raw.len()],
                            4 => match (v * 4.0) as i32 {
                                0 => 0.0,
                                1 => -0.0,
                                2 => f32::from_bits(1.0f32.to_bits() + 1),
                                _ => f32::from_bits(1.0f32.to_bits() + 2),
                            },
                            _ => match (v * 8.0) as i32 {
                                0 => f32::NEG_INFINITY,
                                1 => f32::INFINITY,
                                _ => (v * 4.0).floor(),
                            },
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Targets from raw draws: ordinary, or (mode 1) of magnitude `1e20`,
    /// whose node sums square to `+∞` — every candidate gain of such a
    /// node is NaN or `−∞` — or (mode 2) with a `±∞` among them.
    fn targets(mode: usize, raw: &[f32]) -> Vec<f32> {
        raw.iter()
            .enumerate()
            .map(|(i, &y)| match mode % 3 {
                0 => y,
                1 => y * 1e20,
                _ if i == 3 => f32::INFINITY,
                _ => y,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn presorted_fit_matches_per_node_sort_oracle(
            raw in prop::collection::vec(0.0f32..1.0, 1..400),
            ys in prop::collection::vec(-2.0f32..2.0, 150),
            n in 0usize..150,
            dims in 0usize..40,
            kind in 0usize..6,
            mode in 0usize..3,
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
            let covered = check_arms(&xs, &targets(mode, &ys[..n]), &params);
            report_arms(&covered);
            prop_assert_eq!(covered.contains(&LANE_ARM), lane_kernel_detected());
        }

        #[test]
        fn equal_gain_ties_go_to_the_first_feature_and_position(
            column in prop::collection::vec(0i32..4, 8..32),
            ys in prop::collection::vec(-1.0f32..1.0, 32),
            symmetric in prop::collection::vec(-4i32..4, 16),
            copies in 2usize..20,
        ) {
            // Every feature is the same column (and one its mirror image,
            // whose best split has the same two sides): all gains tie
            // across features, within one lane group and across two.
            let xs: Vec<Vec<f32>> = column
                .iter()
                .map(|&v| {
                    let mut row = vec![v as f32; copies];
                    row.push(-(v as f32));
                    row
                })
                .collect();
            let params = GbdtParams::default();
            check_arms(&xs, &ys[..xs.len()], &params);
            // Palindromic integer targets summing to zero over a column of
            // distinct values: the base and the first tree's sums are
            // exact, so mirrored positions tie bit for bit.
            let mut half: Vec<f32> = symmetric[..xs.len() / 2].iter().map(|&y| y as f32).collect();
            let sum: f32 = half.iter().sum();
            half[0] -= sum;
            let middle = vec![0.0; xs.len() % 2];
            let targets: Vec<f32> = half.iter().chain(&middle).chain(half.iter().rev()).copied().collect();
            let distinct: Vec<Vec<f32>> = (0..xs.len()).map(|i| vec![i as f32]).collect();
            check_arms(&distinct, &targets, &params);
            check_arms(&xs, &targets, &params);
        }
    }

    /// Rows past eight mask words (512) are read by the lane kernel's
    /// gather instead of its register permute; both sides of the edge.
    #[test]
    fn mask_builder_matches_the_oracle_past_one_mask_register() {
        let rng = &mut StdRng::seed_from_u64(0x512);
        let params = GbdtParams {
            rounds: 2,
            ..GbdtParams::default()
        };
        for n in [511, 512, 513, 600] {
            for kind in [0, 1, 4] {
                let raw: Vec<f32> = (0..397).map(|_| rng.gen()).collect();
                let xs = shaped(kind, n, 18, &raw);
                let ys: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
                check_arms(&xs, &ys, &params);
            }
        }
    }

    /// A node whose residual sum squares to `+∞` has NaN candidate gains:
    /// the lane kernel reports it, so the node is scanned again by the
    /// scalar scan, and the fit still has the oracle's bits.
    #[test]
    fn nan_gains_take_the_scalar_rescan() {
        let n = 40;
        let xs: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..20).map(|f| ((i * (f + 3)) % 7) as f32).collect())
            .collect();
        let ys: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { 1e20 } else { 2e20 })
            .collect();
        let params = GbdtParams::default();
        check_arms(&xs, &ys, &params);
        if !lane_kernel_detected() {
            println!("nan_gains_take_the_scalar_rescan: no lane kernel on this host");
            return;
        }
        // The root: every residual is ±1e20 after the mean, so the totals
        // of any large node overflow when squared.
        let presorted = Presorted::new(&xs, 20, true);
        let lanes = presorted.lanes.as_ref().expect("lane orders built");
        let residuals: Vec<f32> = ys.iter().map(|&y| y - 1.5e20).collect();
        let mask = [u64::MAX >> (64 - n)];
        let odd = [0xaaaa_aaaa_aaaa_aaaa & mask[0]];
        let sum = |mask: &[u64]| -> f32 { members(mask).map(|i| residuals[i]).sum() };
        // Half the rows, all `+5e19`: a sum of 1e21 squares to `+∞`.
        let total = sum(&odd);
        assert!((total * total).is_infinite());
        assert_eq!(
            lanes.best_split(&residuals, &odd, total, 20.0),
            None,
            "rescan"
        );
        // The whole root sums to zero: no NaN, the lane kernel answers.
        assert!(lanes
            .best_split(&residuals, &mask, sum(&mask), n as f32)
            .is_some());
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
            check_arms(&nan[..n], &ys[..n], &params);
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
