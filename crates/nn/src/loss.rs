//! Loss functions with gradients.

use crate::matrix::Matrix;

/// Mean squared error over all entries; returns `(loss, dL/dpred)`.
pub fn mse_loss(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    let mut grad = Matrix::default();
    let loss = mse_loss_into(pred, target, &mut grad);
    (loss, grad)
}

/// [`mse_loss`] writing `dL/dpred` into `grad` (reshaped, its buffer
/// reused); returns the loss.
pub(crate) fn mse_loss_into(pred: &Matrix, target: &Matrix, grad: &mut Matrix) -> f32 {
    assert_eq!(pred.rows, target.rows, "mse shape mismatch");
    assert_eq!(pred.cols, target.cols, "mse shape mismatch");
    let n = pred.data.len().max(1) as f32;
    grad.reshape_for_overwrite(pred.rows, pred.cols);
    let mut loss = 0.0f32;
    for i in 0..pred.data.len() {
        let d = pred.data[i] - target.data[i];
        loss += d * d;
        grad.data[i] = 2.0 * d / n;
    }
    loss / n
}

/// Row-wise softmax.
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum.max(1e-12);
        }
    }
    out
}

/// Softmax + cross-entropy against integer class labels; returns
/// `(mean loss, dL/dlogits)`.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows, labels.len(), "label count mismatch");
    let probs = softmax(logits);
    let n = logits.rows.max(1) as f32;
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols, "label out of range");
        let p = probs.get(r, label).max(1e-12);
        loss -= p.ln();
        *grad.get_mut(r, label) -= 1.0;
    }
    grad.scale(1.0 / n);
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_match() {
        let p = Matrix::row_vector(&[1.0, 2.0]);
        let (l, g) = mse_loss(&p, &p);
        assert_eq!(l, 0.0);
        assert!(g.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_gradient_direction() {
        let p = Matrix::row_vector(&[2.0]);
        let t = Matrix::row_vector(&[0.0]);
        let (l, g) = mse_loss(&p, &t);
        assert_eq!(l, 4.0);
        assert_eq!(g.data[0], 4.0); // d/dp (p-t)^2 = 2(p-t)
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let s = softmax(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(s.get(0, 2) > s.get(0, 0));
    }

    #[test]
    fn cross_entropy_decreases_with_confidence() {
        let good = Matrix::row_vector(&[5.0, 0.0]);
        let bad = Matrix::row_vector(&[0.0, 5.0]);
        let (lg, _) = softmax_cross_entropy(&good, &[0]);
        let (lb, _) = softmax_cross_entropy(&bad, &[0]);
        assert!(lg < lb);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let logits = Matrix::row_vector(&[0.0, 0.0]);
        let (_, g) = softmax_cross_entropy(&logits, &[1]);
        assert!((g.data[0] - 0.5).abs() < 1e-6);
        assert!((g.data[1] + 0.5).abs() < 1e-6);
    }
}
