//! [`Network`]: a layer stack plus a classification readout.
//!
//! This is the trainable artifact of the whole pipeline: Tea learning and
//! probability-biased learning both produce a `Network` whose TrueNorth
//! layers are later deployed to the chip model by the `truenorth` crate.

use crate::layer::{Layer, LayerCache, LayerGrads};
use crate::loss::{softmax_cross_entropy, LossOutput, Readout};
use crate::matrix::Matrix;
use crate::penalty::Penalty;
use serde::{Deserialize, Serialize};

/// A feed-forward network: layers applied in order, then a class readout.
///
/// # Examples
///
/// ```
/// use tn_learn::model::Network;
/// use tn_learn::layer::{Layer, TnCoreLayer};
/// use tn_learn::loss::Readout;
/// use tn_learn::matrix::Matrix;
///
/// // One core reading 4 inputs with 6 output neurons, merged to 2 classes.
/// let layer = TnCoreLayer::new(4, vec![vec![0, 1, 2, 3]], 6, 0);
/// let net = Network::new(vec![Layer::TnCore(layer)], Readout::round_robin(6, 2));
/// let x = Matrix::from_rows(&[&[0.1, 0.9, 0.4, 0.6]]);
/// let scores = net.scores(&x);
/// assert_eq!(scores.shape(), (1, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
    readout: Readout,
}

impl Network {
    /// Assemble a network.
    ///
    /// # Panics
    ///
    /// Panics if consecutive layer dimensions do not chain, or the readout
    /// width does not match the last layer.
    pub fn new(layers: Vec<Layer>, readout: Readout) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].out_dim(),
                w[1].in_dim(),
                "layer dimension chain broken: {} -> {}",
                w[0].out_dim(),
                w[1].in_dim()
            );
        }
        assert_eq!(
            layers.last().expect("non-empty").out_dim(),
            readout.n_neurons(),
            "readout width must match last layer"
        );
        Self { layers, readout }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.readout.n_classes()
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layer stack (weights surgery in experiments).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// The classification readout.
    pub fn readout(&self) -> &Readout {
        &self.readout
    }

    /// Total number of TrueNorth cores across all [`Layer::TnCore`] layers.
    pub fn core_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::TnCore(t) => t.core_count(),
                Layer::Dense(_) => 0,
            })
            .sum()
    }

    /// Forward pass caching every layer (for training).
    pub fn forward_cached(&self, x: &Matrix) -> Vec<LayerCache> {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &self.layers {
            let cache = layer.forward(&cur);
            cur = cache.output.clone();
            caches.push(cache);
        }
        caches
    }

    /// Class scores (`B × n_classes`) for a batch (inference only).
    pub fn scores(&self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward(&cur).output;
        }
        self.readout.merge(&cur)
    }

    /// Argmax class predictions for a batch.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let scores = self.scores(x);
        (0..scores.rows())
            .map(|r| crate::loss::argmax(scores.row(r)))
            .collect()
    }

    /// Fraction of samples classified correctly (the paper's float-precision
    /// "accuracy in Caffe").
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f32 {
        assert_eq!(x.rows(), labels.len(), "label count mismatch");
        let preds = self.predict(x);
        let hits = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        hits as f32 / labels.len().max(1) as f32
    }

    /// One training step's forward+backward: returns the data loss output
    /// and fills `grads` (data gradient + penalty subgradient).
    ///
    /// `score_scale` is the softmax inverse temperature (see
    /// [`softmax_cross_entropy`]).
    pub fn loss_and_grads(
        &self,
        x: &Matrix,
        labels: &[usize],
        penalty: &Penalty,
        score_scale: f32,
        grads: &mut [LayerGrads],
    ) -> LossOutput {
        assert_eq!(grads.len(), self.layers.len(), "grads buffer mismatch");
        let caches = self.forward_cached(x);
        let final_z = &caches.last().expect("non-empty").output;
        let scores = self.readout.merge(final_z);
        let out = softmax_cross_entropy(&scores, labels, score_scale);
        let mut dz = self.readout.backward(&out.dscores);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let delta = layer.backward_params(&caches[i], &dz, &mut grads[i]);
            // Layer 0's input gradient would be dL/d(pixels), which no
            // parameter depends on: skip it.
            if i > 0 {
                dz = layer.backward_input(&caches[i], &delta);
            }
        }
        for (layer, g) in self.layers.iter().zip(grads.iter_mut()) {
            layer.accumulate_penalty(penalty, g);
        }
        out
    }

    /// Total penalty value `λ·E_W(w)` over all synaptic weights.
    pub fn penalty_value(&self, penalty: &Penalty) -> f32 {
        let mut total = 0.0;
        for layer in &self.layers {
            let mut ws = Vec::new();
            layer.for_each_weight(|w| ws.push(w));
            total += penalty.value(&ws);
        }
        total
    }

    /// Collect all synaptic weights into one vector (histogram/deviation
    /// analyses).
    pub fn all_weights(&self) -> Vec<f32> {
        let mut ws = Vec::new();
        for layer in &self.layers {
            layer.for_each_weight(|w| ws.push(w));
        }
        ws
    }

    /// Zeroed gradient buffers matching this network.
    pub fn zero_grads(&self) -> Vec<LayerGrads> {
        self.layers.iter().map(LayerGrads::zeros_like).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layer::{DenseLayer, TnCoreLayer};

    fn tiny_net() -> Network {
        let layer = TnCoreLayer::new(4, vec![vec![0, 1], vec![2, 3]], 3, 1);
        Network::new(vec![Layer::TnCore(layer)], Readout::round_robin(6, 2))
    }

    #[test]
    fn dims_and_counts() {
        let net = tiny_net();
        assert_eq!(net.in_dim(), 4);
        assert_eq!(net.n_classes(), 2);
        assert_eq!(net.core_count(), 2);
    }

    #[test]
    fn predict_returns_valid_classes() {
        let net = tiny_net();
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4], &[0.9, 0.8, 0.7, 0.6]]);
        let preds = net.predict(&x);
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn accuracy_is_fraction_correct() {
        let net = tiny_net();
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4]]);
        let pred = net.predict(&x)[0];
        assert_eq!(net.accuracy(&x, &[pred]), 1.0);
        assert_eq!(net.accuracy(&x, &[1 - pred]), 0.0);
    }

    #[test]
    fn loss_and_grads_fills_buffers() {
        let net = tiny_net();
        let x = Matrix::from_rows(&[&[0.1, 0.9, 0.5, 0.3]]);
        let mut grads = net.zero_grads();
        let out = net.loss_and_grads(&x, &[0], &Penalty::None, 4.0, &mut grads);
        assert!(out.loss.is_finite());
        let gnorm: f32 = grads[0].weights.iter().map(|w| w.frobenius_norm()).sum();
        assert!(gnorm > 0.0, "gradients should be nonzero");
    }

    #[test]
    fn training_step_reduces_loss() {
        let net0 = tiny_net();
        let x = Matrix::from_rows(&[&[0.1, 0.9, 0.5, 0.3], &[0.8, 0.2, 0.1, 0.7]]);
        let labels = [0usize, 1];
        let mut net = net0.clone();
        let mut grads = net.zero_grads();
        let before = net
            .loss_and_grads(&x, &labels, &Penalty::None, 4.0, &mut grads)
            .loss;
        // Manual gradient step.
        for (layer, g) in net.layers.iter_mut().zip(&grads) {
            layer.apply_step(g, 0.5);
        }
        let mut grads2 = net.zero_grads();
        let after = net
            .loss_and_grads(&x, &labels, &Penalty::None, 4.0, &mut grads2)
            .loss;
        assert!(after < before, "loss should drop: {before} -> {after}");
    }

    #[test]
    fn penalty_contributes_to_gradients() {
        let net = tiny_net();
        let x = Matrix::from_rows(&[&[0.1, 0.9, 0.5, 0.3]]);
        let mut g_plain = net.zero_grads();
        net.loss_and_grads(&x, &[0], &Penalty::None, 4.0, &mut g_plain);
        let mut g_pen = net.zero_grads();
        net.loss_and_grads(&x, &[0], &Penalty::l1(0.1), 4.0, &mut g_pen);
        let diff: f32 = g_plain[0].weights[0]
            .as_slice()
            .iter()
            .zip(g_pen[0].weights[0].as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.0);
    }

    #[test]
    fn mixed_dense_tn_stack_chains() {
        let tn = TnCoreLayer::new(4, vec![vec![0, 1, 2, 3]], 5, 2);
        let dense = DenseLayer::new(5, 2, Activation::Identity, 3);
        let net = Network::new(
            vec![Layer::TnCore(tn), Layer::Dense(dense)],
            Readout::identity(2),
        );
        let x = Matrix::from_rows(&[&[0.5, 0.5, 0.5, 0.5]]);
        assert_eq!(net.scores(&x).shape(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "layer dimension chain broken")]
    fn mismatched_layers_rejected() {
        let a = TnCoreLayer::new(4, vec![vec![0, 1]], 3, 0);
        let b = TnCoreLayer::new(99, vec![vec![0]], 2, 0);
        let _ = Network::new(
            vec![Layer::TnCore(a), Layer::TnCore(b)],
            Readout::round_robin(2, 2),
        );
    }

    #[test]
    #[should_panic(expected = "readout width")]
    fn mismatched_readout_rejected() {
        let a = TnCoreLayer::new(4, vec![vec![0, 1]], 3, 0);
        let _ = Network::new(vec![Layer::TnCore(a)], Readout::round_robin(5, 2));
    }

    /// Skipping layer 0's input gradient changes no gradient bit: a
    /// reference that runs the full [`Layer::backward`] on every layer,
    /// layer 0 included, fills identical buffers.
    #[test]
    fn skipping_first_layer_input_grad_keeps_grads_bit_identical() {
        let l0 = TnCoreLayer::new(6, vec![vec![0, 1, 2, 3], vec![2, 3, 4, 5]], 5, 3);
        let l1 = TnCoreLayer::new(10, vec![(0..10).collect()], 4, 4);
        let net = Network::new(
            vec![Layer::TnCore(l0), Layer::TnCore(l1)],
            Readout::round_robin(4, 2),
        );
        let x = Matrix::from_rows(&[
            &[0.0, 0.9, 0.5, 0.3, 1.0, 0.0],
            &[0.8, 0.2, 0.0, 0.7, 0.1, 0.6],
            &[0.3, 0.0, 0.4, 1.0, 0.0, 0.2],
        ]);
        let labels = [0usize, 1, 1];
        let penalty = Penalty::biasing(0.01);
        let mut grads = net.zero_grads();
        let out = net.loss_and_grads(&x, &labels, &penalty, 8.0, &mut grads);

        let caches = net.forward_cached(&x);
        let scores = net.readout.merge(&caches[1].output);
        let ref_out = softmax_cross_entropy(&scores, &labels, 8.0);
        let mut reference = net.zero_grads();
        let mut dz = net.readout.backward(&ref_out.dscores);
        for i in (0..net.layers.len()).rev() {
            dz = net.layers[i].backward(&caches[i], &dz, &mut reference[i]);
        }
        assert_eq!(dz.shape(), x.shape(), "reference computed layer 0's dX");
        for (layer, g) in net.layers.iter().zip(reference.iter_mut()) {
            layer.accumulate_penalty(&penalty, g);
        }

        assert_eq!(out.loss.to_bits(), ref_out.loss.to_bits());
        let bits = |gs: &[LayerGrads]| -> Vec<u32> {
            gs.iter()
                .flat_map(|g| {
                    g.weights
                        .iter()
                        .flat_map(|w| w.as_slice().iter().copied())
                        .chain(g.biases.iter().flatten().copied())
                })
                .map(f32::to_bits)
                .collect()
        };
        assert_eq!(bits(&grads), bits(&reference));
    }

    #[test]
    fn all_weights_collects_every_synapse() {
        let net = tiny_net();
        assert_eq!(net.all_weights().len(), 2 * 2 * 3);
    }
}
