//! Loss tape ops.
//!
//! Both classification losses take a *row subset* so transductive training
//! can evaluate the loss on the train/validation mask without slicing the
//! forward pass: the full-graph logits stay on the tape, the loss only
//! looks at the masked rows.

use std::sync::Arc;

use crate::audit::{require_eq, Arity};
use crate::matrix::Matrix;
use crate::ops::graphops::require_in_bounds;
use crate::ops::linalg::softmax_rows_value;
use crate::pool;
use crate::tape::{Op, Tape, Tensor};

/// Mean softmax cross-entropy over a subset of rows.
struct CrossEntropyOp {
    labels: Arc<Vec<u32>>,
    rows: Arc<Vec<u32>>,
    /// Softmax probabilities of the selected rows, saved at forward time.
    probs: Matrix,
}
impl Drop for CrossEntropyOp {
    fn drop(&mut self) {
        // `probs` is a pooled buffer living inside the op rather than as a
        // node value, so tape teardown cannot see it; hand it back here to
        // keep steady-state training steps allocation-free.
        crate::pool::put(std::mem::replace(&mut self.probs, Matrix::from_vec(0, 0, Vec::new())));
    }
}
impl Op for CrossEntropyOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (n, c) = inputs[0].shape();
        let scale = grad.as_scalar() / self.rows.len() as f32; // lint:allow(lossy-cast) -- count stays far below 2^24
        let mut g = pool::zeros(n, c);
        for (k, &r) in self.rows.iter().enumerate() {
            let label = self.labels[r as usize] as usize; // lint:allow(lossy-cast) -- u32 index widens losslessly
            let prow = self.probs.row(k);
            let grow = g.row_mut(r as usize); // lint:allow(lossy-cast) -- u32 index widens losslessly
            for (j, (g, &p)) in grow.iter_mut().zip(prow).enumerate() {
                let target = if j == label { 1.0 } else { 0.0 };
                // Accumulate: `rows` may legally list a row more than once
                // (sampling with replacement), and the forward loss counts
                // every occurrence.
                *g += scale * (p - target);
            }
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "cross_entropy"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, classes) = inputs[0];
        require_eq("cross_entropy: one label per logit row", rows, self.labels.len())?;
        require_in_bounds("cross_entropy rows", &self.rows, rows)?;
        for &r in self.rows.iter() {
            let label = self.labels[r as usize] as usize; // lint:allow(lossy-cast) -- u32 index widens losslessly
            if label >= classes {
                return Err(format!("cross_entropy: label {label} out of {classes} classes"));
            }
        }
        Ok((1, 1))
    }
}

/// Mean binary cross-entropy with logits over a subset of rows
/// (multi-label objectives, e.g. PPI).
struct BceWithLogitsOp {
    targets: Arc<Matrix>,
    rows: Arc<Vec<u32>>,
}
impl Op for BceWithLogitsOp {
    fn backward(
        &self,
        _out: &Matrix,
        grad: &Matrix,
        inputs: &[&Matrix],
        _wants: &[bool],
    ) -> Vec<Option<Matrix>> {
        let (n, c) = inputs[0].shape();
        let scale = grad.as_scalar() / (self.rows.len() * c) as f32; // lint:allow(lossy-cast) -- count stays far below 2^24
        let mut g = pool::zeros(n, c);
        for &r in self.rows.iter() {
            let r = r as usize; // lint:allow(lossy-cast) -- u32 index widens losslessly
            let xrow = inputs[0].row(r);
            let trow = self.targets.row(r);
            let grow = g.row_mut(r);
            for ((g, &x), &t) in grow.iter_mut().zip(xrow).zip(trow) {
                let s = 1.0 / (1.0 + (-x).exp());
                *g += scale * (s - t);
            }
        }
        vec![Some(g)]
    }
    fn name(&self) -> &'static str {
        "bce_with_logits"
    }
    fn arity(&self) -> Arity {
        Arity::Exact(1)
    }
    fn shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize), String> {
        let (rows, _) = inputs[0];
        require_eq("bce_with_logits: logits vs targets", inputs[0], self.targets.shape())?;
        require_in_bounds("bce_with_logits rows", &self.rows, rows)?;
        Ok((1, 1))
    }
}

impl Tape {
    /// Mean softmax cross-entropy of `logits` (`n x C`) against integer
    /// `labels` (length `n`), restricted to the rows listed in `rows`.
    ///
    /// # Panics
    /// Panics if `rows` is empty, a row is out of bounds, or a selected
    /// label is out of `0..C`.
    pub fn cross_entropy(
        &mut self,
        logits: Tensor,
        labels: &Arc<Vec<u32>>,
        rows: &Arc<Vec<u32>>,
    ) -> Tensor {
        let (n, c) = self.value(logits).shape();
        assert!(!rows.is_empty(), "cross_entropy over an empty row subset");
        assert_eq!(labels.len(), n, "labels must cover every row of the logits");
        assert!(rows.iter().all(|&r| (r as usize) < n), "row index out of bounds"); // lint:allow(lossy-cast) -- u32 index widens losslessly
        assert!(
            rows.iter().all(|&r| (labels[r as usize] as usize) < c), // lint:allow(lossy-cast) -- u32 index widens losslessly
            "label out of range for {c} classes"
        );
        let selected = self.value(logits).gather_rows(rows);
        let probs = softmax_rows_value(&selected);
        pool::put(selected);
        let mut loss = 0.0;
        for (k, &r) in rows.iter().enumerate() {
            let p = probs.get(k, labels[r as usize] as usize).max(1e-12); // lint:allow(lossy-cast) -- u32 index widens losslessly
            loss -= p.ln();
        }
        loss /= rows.len() as f32; // lint:allow(lossy-cast) -- count stays far below 2^24
        self.push_op(
            Matrix::scalar(loss),
            Box::new(CrossEntropyOp { labels: Arc::clone(labels), rows: Arc::clone(rows), probs }),
            vec![logits],
        )
    }

    /// Mean binary cross-entropy with logits against a dense 0/1 target
    /// matrix, restricted to the rows listed in `rows`.
    pub fn bce_with_logits(
        &mut self,
        logits: Tensor,
        targets: &Arc<Matrix>,
        rows: &Arc<Vec<u32>>,
    ) -> Tensor {
        let (n, c) = self.value(logits).shape();
        assert!(!rows.is_empty(), "bce_with_logits over an empty row subset");
        assert_eq!(targets.shape(), (n, c), "target shape mismatch");
        assert!(rows.iter().all(|&r| (r as usize) < n), "row index out of bounds"); // lint:allow(lossy-cast) -- u32 index widens losslessly
        let mut loss = 0.0;
        for &r in rows.iter() {
            let r = r as usize; // lint:allow(lossy-cast) -- u32 index widens losslessly
            for (&x, &t) in self.value(logits).row(r).iter().zip(targets.row(r)) {
                // Stable formulation: max(x,0) - x t + ln(1 + exp(-|x|)).
                loss += x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
            }
        }
        loss /= (rows.len() * c) as f32; // lint:allow(lossy-cast) -- count stays far below 2^24
        self.push_op(
            Matrix::scalar(loss),
            Box::new(BceWithLogitsOp { targets: Arc::clone(targets), rows: Arc::clone(rows) }),
            vec![logits],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::VarStore;

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_c() {
        let mut tape = Tape::new(0);
        let logits = tape.constant(Matrix::zeros(4, 3));
        let labels = Arc::new(vec![0u32, 1, 2, 0]);
        let rows = Arc::new(vec![0u32, 1, 2, 3]);
        let loss = tape.cross_entropy(logits, &labels, &rows);
        assert!((tape.value(loss).as_scalar() - 3.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_is_probs_minus_onehot() {
        let mut store = VarStore::new();
        let p = store.add("logits", Matrix::zeros(2, 2));
        let labels = Arc::new(vec![1u32, 0]);
        let rows = Arc::new(vec![0u32]);
        let mut tape = Tape::new(0);
        let logits = tape.param(&store, p);
        let loss = tape.cross_entropy(logits, &labels, &rows);
        let g = tape.backward(loss);
        let gm = g.get(p).unwrap();
        // Row 0: probs (0.5, 0.5) minus one-hot(1) => (0.5, -0.5); row 1 untouched.
        assert!((gm.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((gm.get(0, 1) + 0.5).abs() < 1e-6);
        assert_eq!(gm.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let mut tape = Tape::new(0);
        let mut m = Matrix::zeros(1, 3);
        m.set(0, 2, 50.0);
        let logits = tape.constant(m);
        let labels = Arc::new(vec![2u32]);
        let rows = Arc::new(vec![0u32]);
        let loss = tape.cross_entropy(logits, &labels, &rows);
        assert!(tape.value(loss).as_scalar() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn cross_entropy_rejects_bad_label() {
        let mut tape = Tape::new(0);
        let logits = tape.constant(Matrix::zeros(1, 2));
        let labels = Arc::new(vec![5u32]);
        let rows = Arc::new(vec![0u32]);
        let _ = tape.cross_entropy(logits, &labels, &rows);
    }

    #[test]
    fn bce_of_zero_logits_is_ln2() {
        let mut tape = Tape::new(0);
        let logits = tape.constant(Matrix::zeros(2, 4));
        let targets = Arc::new(Matrix::from_fn(2, 4, |r, c| ((r + c) % 2) as f32));
        let rows = Arc::new(vec![0u32, 1]);
        let loss = tape.bce_with_logits(logits, &targets, &rows);
        assert!((tape.value(loss).as_scalar() - 2.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn bce_grad_is_sigmoid_minus_target() {
        let mut store = VarStore::new();
        let p = store.add("logits", Matrix::zeros(1, 2));
        let targets = Arc::new(Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        let rows = Arc::new(vec![0u32]);
        let mut tape = Tape::new(0);
        let logits = tape.param(&store, p);
        let loss = tape.bce_with_logits(logits, &targets, &rows);
        let g = tape.backward(loss);
        let gm = g.get(p).unwrap();
        // (sigmoid(0) - t) / (rows * cols) = (0.5 - t) / 2
        assert!((gm.get(0, 0) + 0.25).abs() < 1e-6);
        assert!((gm.get(0, 1) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn bce_is_stable_for_large_logits() {
        let mut tape = Tape::new(0);
        let logits = tape.constant(Matrix::from_vec(1, 2, vec![1e4, -1e4]));
        let targets = Arc::new(Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        let rows = Arc::new(vec![0u32]);
        let loss = tape.bce_with_logits(logits, &targets, &rows);
        let v = tape.value(loss).as_scalar();
        assert!(v.is_finite() && v < 1e-3);
    }
}
