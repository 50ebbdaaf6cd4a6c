//! Classification readout and softmax cross-entropy loss.
//!
//! The paper's networks end with "output axons from all neuro-synaptic cores
//! merged to output classes" (Fig. 3): every output neuron of the last layer
//! is statically assigned to a class, and the class score is the sum of its
//! neurons' spike probabilities (during training) or spike counts (on chip).
//! [`Readout`] captures that merge; [`softmax_cross_entropy`] turns merged
//! scores into the training loss.

use crate::math::{log_sum_exp, softmax_in_place};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Static assignment of output neurons to classes.
///
/// # Examples
///
/// ```
/// use tn_learn::loss::Readout;
/// // 6 neurons merged onto 3 classes round-robin: 0,1,2,0,1,2.
/// let r = Readout::round_robin(6, 3);
/// assert_eq!(r.class_of(4), 1);
/// assert_eq!(r.neurons_per_class(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Readout {
    /// `assignment[j]` is the class of output neuron `j`.
    assignment: Vec<usize>,
    n_classes: usize,
}

impl Readout {
    /// Assign `n_neurons` outputs to `n_classes` classes round-robin
    /// (`class = neuron mod n_classes`), the merge used by all test benches.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes == 0` or `n_neurons < n_classes`.
    pub fn round_robin(n_neurons: usize, n_classes: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        assert!(
            n_neurons >= n_classes,
            "cannot read {n_classes} classes from {n_neurons} neurons"
        );
        Self {
            assignment: (0..n_neurons).map(|j| j % n_classes).collect(),
            n_classes,
        }
    }

    /// Identity readout: neuron `j` *is* class `j` (for dense heads that
    /// already output one score per class).
    pub fn identity(n_classes: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        Self {
            assignment: (0..n_classes).collect(),
            n_classes,
        }
    }

    /// Build from an explicit assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if any class index is `≥ n_classes`, or if some class has no
    /// neuron.
    pub fn from_assignment(assignment: Vec<usize>, n_classes: usize) -> Self {
        assert!(
            assignment.iter().all(|&c| c < n_classes),
            "class out of range"
        );
        for c in 0..n_classes {
            assert!(assignment.contains(&c), "class {c} has no neurons assigned");
        }
        Self {
            assignment,
            n_classes,
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of output neurons feeding the readout.
    pub fn n_neurons(&self) -> usize {
        self.assignment.len()
    }

    /// Class of output neuron `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn class_of(&self, j: usize) -> usize {
        self.assignment[j]
    }

    /// Count of neurons merged into class `c`.
    pub fn neurons_per_class(&self, c: usize) -> usize {
        self.assignment.iter().filter(|&&a| a == c).count()
    }

    /// Merge a batch of neuron outputs (`B × n_neurons`) into class scores
    /// (`B × n_classes`).
    ///
    /// Scores are *mean* activations per class rather than raw sums, so that
    /// classes keep comparable scales even if neuron counts differ by one
    /// after round-robin assignment.
    ///
    /// # Panics
    ///
    /// Panics if the batch width does not match `n_neurons`.
    pub fn merge(&self, z: &Matrix) -> Matrix {
        assert_eq!(z.cols(), self.assignment.len(), "readout width mismatch");
        let b = z.rows();
        let mut scores = Matrix::zeros(b, self.n_classes);
        let counts: Vec<f32> = (0..self.n_classes)
            .map(|c| self.neurons_per_class(c) as f32)
            .collect();
        for r in 0..b {
            let zr = z.row(r);
            let sr = scores.row_mut(r);
            for (j, &class) in self.assignment.iter().enumerate() {
                sr[class] += zr[j];
            }
            for (s, &n) in sr.iter_mut().zip(counts.iter()) {
                *s /= n;
            }
        }
        scores
    }

    /// Backpropagate class-score gradients (`B × n_classes`) to neuron
    /// gradients (`B × n_neurons`).
    pub fn backward(&self, dscores: &Matrix) -> Matrix {
        assert_eq!(
            dscores.cols(),
            self.n_classes,
            "readout grad width mismatch"
        );
        let b = dscores.rows();
        let counts: Vec<f32> = (0..self.n_classes)
            .map(|c| self.neurons_per_class(c) as f32)
            .collect();
        let mut dz = Matrix::zeros(b, self.assignment.len());
        // One division per class, then a gather: every neuron of a class
        // gets the same quotient.
        let mut per_class = vec![0.0_f32; self.n_classes];
        for r in 0..b {
            for ((q, &d), &n) in per_class.iter_mut().zip(dscores.row(r)).zip(&counts) {
                *q = d / n;
            }
            for (d, &class) in dz.row_mut(r).iter_mut().zip(&self.assignment) {
                *d = per_class[class];
            }
        }
        dz
    }
}

/// Result of a softmax cross-entropy evaluation over a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct LossOutput {
    /// Mean cross-entropy over the batch.
    pub loss: f32,
    /// Gradient w.r.t. the class scores (`B × n_classes`), already averaged
    /// over the batch.
    pub dscores: Matrix,
    /// Number of correct argmax predictions in the batch.
    pub correct: usize,
}

/// Softmax cross-entropy with integer labels and a scale (inverse
/// temperature) applied to the scores before the softmax.
///
/// TrueNorth class scores are means of spike probabilities in `[0, 1]`;
/// without a temperature the softmax would be nearly uniform and learning
/// slow. The scale is a pure training aid — argmax (the deployed decision
/// rule) is unaffected by it.
///
/// # Panics
///
/// Panics if `labels.len() != scores.rows()` or a label is out of range.
pub fn softmax_cross_entropy(scores: &Matrix, labels: &[usize], scale: f32) -> LossOutput {
    assert_eq!(scores.rows(), labels.len(), "label count mismatch");
    let b = scores.rows();
    let k = scores.cols();
    let mut loss = 0.0_f32;
    let mut correct = 0usize;
    let mut dscores = Matrix::zeros(b, k);
    for (r, &label) in labels.iter().enumerate().take(b) {
        assert!(label < k, "label {label} out of range for {k} classes");
        let row: Vec<f32> = scores.row(r).iter().map(|&s| s * scale).collect();
        loss += log_sum_exp(&row) - row[label];
        // argmax for accuracy
        let pred = argmax(scores.row(r));
        if pred == label {
            correct += 1;
        }
        let mut probs = row;
        softmax_in_place(&mut probs);
        let drow = dscores.row_mut(r);
        for (j, p) in probs.into_iter().enumerate() {
            let indicator = if j == label { 1.0 } else { 0.0 };
            drow[j] = scale * (p - indicator) / b as f32;
        }
    }
    LossOutput {
        loss: loss / b as f32,
        dscores,
        correct,
    }
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0usize;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_assignment_covers_all_classes() {
        let r = Readout::round_robin(10, 3);
        assert_eq!(r.n_classes(), 3);
        assert_eq!(r.neurons_per_class(0), 4);
        assert_eq!(r.neurons_per_class(1), 3);
        assert_eq!(r.neurons_per_class(2), 3);
    }

    #[test]
    fn merge_averages_per_class() {
        let r = Readout::round_robin(4, 2);
        // neurons 0,2 → class 0; neurons 1,3 → class 1
        let z = Matrix::from_rows(&[&[1.0, 0.0, 0.5, 1.0]]);
        let s = r.merge(&z);
        assert!((s[(0, 0)] - 0.75).abs() < 1e-6);
        assert!((s[(0, 1)] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn merge_backward_is_adjoint() {
        // ⟨merge(z), d⟩ == ⟨z, backward(d)⟩ (linear map adjoint property).
        let r = Readout::round_robin(5, 2);
        let z = Matrix::from_rows(&[&[0.1, 0.9, 0.3, 0.7, 0.5]]);
        let d = Matrix::from_rows(&[&[2.0, -1.0]]);
        let lhs: f32 = r
            .merge(&z)
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = z
            .as_slice()
            .iter()
            .zip(r.backward(&d).as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    fn identity_readout_passes_through() {
        let r = Readout::identity(3);
        let z = Matrix::from_rows(&[&[0.3, 0.6, 0.1]]);
        assert_eq!(r.merge(&z), z);
    }

    #[test]
    fn cross_entropy_decreases_with_confidence() {
        let confident = Matrix::from_rows(&[&[0.9, 0.1]]);
        let unsure = Matrix::from_rows(&[&[0.55, 0.45]]);
        let l1 = softmax_cross_entropy(&confident, &[0], 4.0).loss;
        let l2 = softmax_cross_entropy(&unsure, &[0], 4.0).loss;
        assert!(l1 < l2);
    }

    #[test]
    fn cross_entropy_gradient_matches_numeric() {
        let scores = Matrix::from_rows(&[&[0.7, 0.2, 0.5], &[0.1, 0.9, 0.3]]);
        let labels = [2usize, 1];
        let scale = 3.0;
        let out = softmax_cross_entropy(&scores, &labels, scale);
        let h = 1e-3_f32;
        for (r, c) in [(0usize, 0usize), (0, 2), (1, 1), (1, 0)] {
            let mut sp = scores.clone();
            sp[(r, c)] += h;
            let mut sm = scores.clone();
            sm[(r, c)] -= h;
            let num = (softmax_cross_entropy(&sp, &labels, scale).loss
                - softmax_cross_entropy(&sm, &labels, scale).loss)
                / (2.0 * h);
            let ana = out.dscores[(r, c)];
            assert!((num - ana).abs() < 1e-2, "grad ({r},{c}): {num} vs {ana}");
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let scores = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.6, 0.4]]);
        let out = softmax_cross_entropy(&scores, &[0, 1, 1], 1.0);
        assert_eq!(out.correct, 2);
    }

    #[test]
    fn scale_does_not_change_argmax_but_sharpens_gradient() {
        let scores = Matrix::from_rows(&[&[0.6, 0.4]]);
        let lo = softmax_cross_entropy(&scores, &[1], 1.0);
        let hi = softmax_cross_entropy(&scores, &[1], 8.0);
        assert_eq!(lo.correct, hi.correct);
        assert!(hi.dscores.max_abs() > lo.dscores.max_abs());
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
    }

    #[test]
    #[should_panic(expected = "class 1 has no neurons")]
    fn from_assignment_requires_full_coverage() {
        let _ = Readout::from_assignment(vec![0, 0, 0], 2);
    }

    #[test]
    #[should_panic(expected = "label 3 out of range")]
    fn cross_entropy_rejects_bad_label() {
        let scores = Matrix::zeros(1, 2);
        let _ = softmax_cross_entropy(&scores, &[3], 1.0);
    }
}
