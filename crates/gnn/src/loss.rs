//! Contrastive losses over batches of embeddings.
//!
//! * [`performance_similarity`]: cosine similarity between score vectors
//!   (Def. 2) — the labels that decide positive vs. negative pairs (Def. 3).
//! * [`weighted_contrastive`]: the paper's loss (Eq. 9). Differentiating it
//!   w.r.t. a pair distance yields exactly the softmax pair weights of
//!   Eq. 11/12 — larger weight for harder positives (far / very similar)
//!   and harder negatives (close / very dissimilar).
//! * [`basic_contrastive`]: the classic contrastive loss the ablation of
//!   Fig. 7 compares against (Hadsell et al., the paper's reference \[5\]).

use ce_nn::matrix::euclidean;

/// Positive/negative index sets for every anchor in a batch.
#[derive(Debug, Clone)]
pub struct PairSets {
    /// `positives[i]` = indices `j` with `Sim_ij ≥ τ` (excluding `i`).
    pub positives: Vec<Vec<usize>>,
    /// `negatives[i]` = indices `j` with `Sim_ij < τ`.
    pub negatives: Vec<Vec<usize>>,
}

/// Cosine similarity between two score vectors (Def. 2).
pub fn performance_similarity(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Assigns each ordered pair to the positive or negative set by threshold
/// `tau` (Def. 3), and returns the pairwise similarity matrix it computed
/// (`m×m`, row-major) for [`weighted_contrastive`] to reuse.
pub fn pair_sets(labels: &[Vec<f64>], tau: f64) -> (PairSets, Vec<f64>) {
    let m = labels.len();
    let sims = pairwise_similarities(labels);
    let mut positives = vec![Vec::new(); m];
    let mut negatives = vec![Vec::new(); m];
    for i in 0..m {
        for j in 0..m {
            if i == j {
                continue;
            }
            if sims[i * m + j] >= tau {
                positives[i].push(j);
            } else {
                negatives[i].push(j);
            }
        }
    }
    (
        PairSets {
            positives,
            negatives,
        },
        sims,
    )
}

/// Output of a loss evaluation: the scalar loss and per-embedding gradients.
#[derive(Debug, Clone)]
pub struct LossGrad {
    /// Batch loss value.
    pub loss: f64,
    /// `grads[i]` = dL/d(embedding i).
    pub grads: Vec<Vec<f32>>,
}

/// Numerically stable `log Σ exp(v)`.
fn log_sum_exp(vs: &[f64]) -> f64 {
    let max = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return f64::NEG_INFINITY;
    }
    max + vs.iter().map(|v| (v - max).exp()).sum::<f64>().ln()
}

/// Pairwise embedding distances, computed once per batch (`m×m`,
/// symmetric, flattened row-major). The loss loops consult each distance
/// up to three times (term, softmax weight, gradient direction), so one
/// precomputation pass removes two-thirds of the Euclidean work.
fn pairwise_distances(embeddings: &[Vec<f32>]) -> Vec<f32> {
    let m = embeddings.len();
    let mut d = vec![0.0f32; m * m];
    for i in 0..m {
        for j in i + 1..m {
            let v = euclidean(&embeddings[i], &embeddings[j]);
            d[i * m + j] = v;
            d[j * m + i] = v;
        }
    }
    d
}

/// Pairwise label similarities (Def. 2), computed once per batch.
fn pairwise_similarities(labels: &[Vec<f64>]) -> Vec<f64> {
    let m = labels.len();
    let mut s = vec![0.0f64; m * m];
    for i in 0..m {
        for j in i + 1..m {
            let v = performance_similarity(&labels[i], &labels[j]);
            s[i * m + j] = v;
            s[j * m + i] = v;
        }
    }
    s
}

/// The weighted contrastive loss (Eq. 9) with gradients.
///
/// `gamma` is the fixed margin of the negative term. `sims` are the label
/// cosine similarities [`pair_sets`] returns; distances are embedding
/// Euclidean distances.
pub fn weighted_contrastive(
    embeddings: &[Vec<f32>],
    sims: &[f64],
    pairs: &PairSets,
    gamma: f64,
) -> LossGrad {
    let m = embeddings.len();
    assert_eq!(sims.len(), m * m, "similarity matrix shape mismatch");
    let dim = embeddings.first().map_or(0, Vec::len);
    let mut grads = vec![vec![0.0f32; dim]; m];
    let mut loss = 0.0f64;
    let inv_m = 1.0 / m.max(1) as f64;

    let dists = pairwise_distances(embeddings);

    for i in 0..m {
        let pos = &pairs.positives[i];
        let neg = &pairs.negatives[i];
        if !pos.is_empty() {
            let terms: Vec<f64> = pos
                .iter()
                .map(|&k| dists[i * m + k] as f64 + sims[i * m + k])
                .collect();
            let lse = log_sum_exp(&terms);
            loss += inv_m * lse;
            // Softmax weights = dL/dU_ik (Eq. 11).
            for (idx, &k) in pos.iter().enumerate() {
                let w = inv_m * (terms[idx] - lse).exp();
                add_distance_grad(&mut grads, embeddings, i, k, w as f32, dists[i * m + k]);
            }
        }
        if !neg.is_empty() {
            let terms: Vec<f64> = neg
                .iter()
                .map(|&k| gamma - dists[i * m + k] as f64 - sims[i * m + k])
                .collect();
            let lse = log_sum_exp(&terms);
            loss += inv_m * lse;
            // dL/dU_ik = −softmax weight (Eq. 12).
            for (idx, &k) in neg.iter().enumerate() {
                let w = -inv_m * (terms[idx] - lse).exp();
                add_distance_grad(&mut grads, embeddings, i, k, w as f32, dists[i * m + k]);
            }
        }
    }
    LossGrad { loss, grads }
}

/// The basic contrastive loss (\[5\], Hadsell et al.): `Σ_pos U² +
/// Σ_neg max(0, γ − U)²`, averaged over anchors — the Fig. 7 ablation
/// baseline.
pub fn basic_contrastive(embeddings: &[Vec<f32>], pairs: &PairSets, gamma: f64) -> LossGrad {
    let m = embeddings.len();
    let dim = embeddings.first().map_or(0, Vec::len);
    let mut grads = vec![vec![0.0f32; dim]; m];
    let mut loss = 0.0f64;
    let inv_m = 1.0 / m.max(1) as f64;
    let dists = pairwise_distances(embeddings);
    for i in 0..m {
        for &k in &pairs.positives[i] {
            let u = dists[i * m + k] as f64;
            loss += inv_m * u * u;
            // d(U²)/dU = 2U; times dU/dx.
            add_distance_grad(
                &mut grads,
                embeddings,
                i,
                k,
                (inv_m * 2.0 * u) as f32,
                dists[i * m + k],
            );
        }
        for &k in &pairs.negatives[i] {
            let u = dists[i * m + k] as f64;
            if u < gamma {
                loss += inv_m * (gamma - u) * (gamma - u);
                add_distance_grad(
                    &mut grads,
                    embeddings,
                    i,
                    k,
                    (-inv_m * 2.0 * (gamma - u)) as f32,
                    dists[i * m + k],
                );
            }
        }
    }
    LossGrad { loss, grads }
}

/// Adds `w · dU_ik/dx` to the gradients of both endpoints, where
/// `U = ‖x_i − x_k‖₂` (precomputed by the caller).
fn add_distance_grad(
    grads: &mut [Vec<f32>],
    embeddings: &[Vec<f32>],
    i: usize,
    k: usize,
    w: f32,
    u: f32,
) {
    let u = u.max(1e-6);
    // Split the two gradient rows apart so the loop borrows cleanly and
    // vectorizes (identical arithmetic to the indexed form).
    let (gi, gk) = if i < k {
        let (lo, hi) = grads.split_at_mut(k);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = grads.split_at_mut(i);
        (&mut hi[0], &mut lo[k])
    };
    let ei = &embeddings[i];
    let ek = &embeddings[k];
    for (((gi_d, gk_d), &a), &b) in gi.iter_mut().zip(gk.iter_mut()).zip(ei).zip(ek) {
        let diff = (a - b) / u;
        *gi_d += w * diff;
        *gk_d -= w * diff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similarity_basics() {
        assert!((performance_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(performance_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(performance_similarity(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn pair_sets_respect_threshold() {
        let labels = vec![vec![1.0, 0.0], vec![0.9, 0.1], vec![0.0, 1.0]];
        let (p, _) = pair_sets(&labels, 0.8);
        assert!(p.positives[0].contains(&1));
        assert!(p.negatives[0].contains(&2));
        assert!(p.positives[1].contains(&0));
    }

    #[test]
    fn weighted_gradient_pulls_positives_pushes_negatives() {
        let embeddings = vec![
            vec![0.0f32, 0.0],
            vec![1.0, 0.0], // positive of 0
            vec![0.1, 0.5], // negative of 0
        ];
        let labels = vec![vec![1.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        let (pairs, sims) = pair_sets(&labels, 0.5);
        let lg = weighted_contrastive(&embeddings, &sims, &pairs, 1.0);
        assert!(lg.loss.is_finite());
        // Gradient on anchor 0 w.r.t. positive 1: descent moves x0 toward x1
        // (gradient points away from x1, i.e. negative x-component... check
        // direction: dU/dx0 = (x0-x1)/U = (-1, 0); positive weight w > 0 →
        // grad_x0 x-component < 0 → descent (x0 -= lr·g) increases x0 toward
        // x1. Meanwhile negative 2 contributes a push apart.
        assert!(lg.grads[0][0] < 0.0, "anchor pulled toward positive");
    }

    /// Finite-difference check of the weighted loss gradient.
    #[test]
    fn weighted_gradient_matches_finite_difference() {
        let mut embeddings = vec![
            vec![0.2f32, -0.1],
            vec![0.9, 0.4],
            vec![-0.5, 0.7],
            vec![0.3, 0.3],
        ];
        let labels = vec![
            vec![1.0, 0.0, 0.2],
            vec![0.9, 0.1, 0.3],
            vec![0.0, 1.0, 0.5],
            vec![0.1, 0.9, 0.2],
        ];
        let (pairs, sims) = pair_sets(&labels, 0.7);
        let lg = weighted_contrastive(&embeddings, &sims, &pairs, 1.0);
        let eps = 1e-3f32;
        for (i, d) in [(0usize, 0usize), (1, 1), (2, 0), (3, 1)] {
            let orig = embeddings[i][d];
            embeddings[i][d] = orig + eps;
            let lp = weighted_contrastive(&embeddings, &sims, &pairs, 1.0).loss;
            embeddings[i][d] = orig - eps;
            let lm = weighted_contrastive(&embeddings, &sims, &pairs, 1.0).loss;
            embeddings[i][d] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = lg.grads[i][d];
            assert!(
                (numeric - analytic).abs() < 0.02 * (1.0 + numeric.abs()),
                "grad[{i}][{d}] numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Finite-difference check of the basic loss gradient.
    #[test]
    fn basic_gradient_matches_finite_difference() {
        let mut embeddings = vec![vec![0.1f32, 0.2], vec![0.7, -0.3], vec![-0.4, 0.6]];
        let labels = vec![vec![1.0, 0.0], vec![0.95, 0.05], vec![0.0, 1.0]];
        let (pairs, _) = pair_sets(&labels, 0.6);
        let lg = basic_contrastive(&embeddings, &pairs, 2.0);
        let eps = 1e-3f32;
        for (i, d) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let orig = embeddings[i][d];
            embeddings[i][d] = orig + eps;
            let lp = basic_contrastive(&embeddings, &pairs, 2.0).loss;
            embeddings[i][d] = orig - eps;
            let lm = basic_contrastive(&embeddings, &pairs, 2.0).loss;
            embeddings[i][d] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = lg.grads[i][d];
            assert!(
                (numeric - analytic).abs() < 0.02 * (1.0 + numeric.abs()),
                "grad[{i}][{d}] numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn empty_batch_is_zero_loss() {
        let (pairs, sims) = pair_sets(&[], 0.9);
        let lg = weighted_contrastive(&[], &sims, &pairs, 1.0);
        assert_eq!(lg.loss, 0.0);
        assert!(lg.grads.is_empty());
    }
}
