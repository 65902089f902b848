//! Score normalization (Eq. 2-4) and the D-error metric (Def. 1).

use serde::{Deserialize, Serialize};

/// A `(w_a, w_e)` metric-weight combination with `w_a + w_e = 1` (§IV-B2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricWeights {
    /// Accuracy weight.
    pub accuracy: f64,
}

impl MetricWeights {
    /// Creates weights from the accuracy component (clamped to `[0, 1]`).
    pub fn new(accuracy: f64) -> Self {
        MetricWeights {
            accuracy: accuracy.clamp(0.0, 1.0),
        }
    }

    /// Efficiency weight `w_e = 1 − w_a`.
    pub fn efficiency(&self) -> f64 {
        1.0 - self.accuracy
    }
}

/// Min-max normalization of Eq. 3/4: best (smallest) raw value → 1, worst →
/// 0. Degenerate spreads normalize to all-ones.
fn normalize(raw: &[f64]) -> Vec<f64> {
    let max = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = raw.iter().copied().fold(f64::INFINITY, f64::min);
    if !(max - min).is_finite() || max - min < 1e-12 {
        return vec![1.0; raw.len()];
    }
    raw.iter().map(|&v| (max - v) / (max - min)).collect()
}

/// Builds the score vector `y⃗` for one dataset (Eq. 2): per model
/// `S = w_a·S_a + w_e·S_e`, where `S_a`/`S_e` are the normalized accuracy
/// (mean Q-error) and efficiency (mean latency) scores.
pub fn score_vector(qerror_means: &[f64], latency_means: &[f64], w: MetricWeights) -> Vec<f64> {
    assert_eq!(
        qerror_means.len(),
        latency_means.len(),
        "metric arity mismatch"
    );
    let sa = normalize(qerror_means);
    let se = normalize(latency_means);
    sa.iter()
        .zip(&se)
        .map(|(&a, &e)| w.accuracy * a + w.efficiency() * e)
        .collect()
}

/// D-error (Def. 1): how far the chosen model's score is from the optimal
/// model's score on this dataset.
///
/// We normalize by the *optimal* score, `(S_opt − S_M) / S_opt`, which maps
/// to `[0, 1]`; the paper's Def. 1 divides by `S_M`, but its reported values
/// (Table III's exact 100% for the worst model, every figure's `[0, 1]`
/// axis) are only consistent with the `S_opt` denominator, so that is what
/// the paper evidently computes.
pub fn d_error(scores: &[f64], chosen: usize) -> f64 {
    assert!(chosen < scores.len(), "chosen model out of range");
    let opt = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if opt <= 1e-12 {
        return 0.0;
    }
    ((opt - scores[chosen]) / opt).clamp(0.0, 1.0)
}

/// Index of the optimal model under a score vector.
///
/// On equal scores the **lowest index wins** — an explicit, documented rule
/// (not `max_by`'s last-wins accident) that the sharded serving layer's
/// flat-equivalence guarantee depends on. Every selection path (KNN vote,
/// feedback collection, label argmax) shares this function, so ties resolve
/// identically everywhere.
pub fn best_index(scores: &[f64]) -> usize {
    assert!(!scores.is_empty(), "non-empty score vector");
    assert!(!scores[0].is_nan(), "scores are finite");
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        assert!(!s.is_nan(), "scores are finite");
        if s > scores[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
impl MetricWeights {
    /// The paper's grid: `w_a` from 0 to 1 with a step of 0.1.
    fn grid() -> Vec<MetricWeights> {
        (0..=10)
            .map(|i| MetricWeights::new(i as f64 / 10.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_index_breaks_ties_by_lowest_index() {
        assert_eq!(best_index(&[0.5, 1.0, 1.0, 0.3]), 1);
        assert_eq!(best_index(&[1.0, 1.0, 1.0]), 0);
        assert_eq!(best_index(&[0.0]), 0);
        assert_eq!(best_index(&[0.1, 0.7, 0.2]), 1);
    }

    #[test]
    fn weights_grid() {
        let g = MetricWeights::grid();
        assert_eq!(g.len(), 11);
        assert_eq!(g[0].accuracy, 0.0);
        assert_eq!(g[10].accuracy, 1.0);
        assert!((g[3].accuracy + g[3].efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn score_vector_orders_models() {
        // Model 0: best accuracy, worst latency. Model 2: the reverse.
        let q = [1.0, 5.0, 10.0];
        let t = [100.0, 50.0, 1.0];
        let acc_only = score_vector(&q, &t, MetricWeights::new(1.0));
        assert_eq!(best_index(&acc_only), 0);
        let lat_only = score_vector(&q, &t, MetricWeights::new(0.0));
        assert_eq!(best_index(&lat_only), 2);
        let balanced = score_vector(&q, &t, MetricWeights::new(0.5));
        assert!(balanced.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn degenerate_metrics_normalize_to_ones() {
        let s = score_vector(&[2.0, 2.0], &[5.0, 5.0], MetricWeights::new(0.7));
        assert!(s.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn d_error_zero_for_optimal_and_one_for_worst() {
        let scores = [1.0, 0.4, 0.0];
        assert_eq!(d_error(&scores, 0), 0.0);
        assert!((d_error(&scores, 1) - 0.6).abs() < 1e-12);
        assert!((d_error(&scores, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn d_error_degenerate_scores() {
        assert_eq!(d_error(&[0.0, 0.0], 1), 0.0);
    }
}
