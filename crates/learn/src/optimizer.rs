//! Stochastic gradient descent with momentum and learning-rate schedules.
//!
//! The paper trains in Caffe with plain SGD; we reproduce that with optional
//! classical momentum and a step-decay schedule. Velocity buffers are shaped
//! like [`LayerGrads`] so the optimizer works for both dense and TrueNorth
//! layers.

use crate::layer::{Layer, LayerGrads};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply the rate by `gamma` every `every` epochs.
    StepDecay {
        /// Decay factor in `(0, 1]`.
        gamma: f32,
        /// Epoch interval between decays.
        every: usize,
    },
    /// `lr / (1 + k·epoch)` inverse decay.
    InverseDecay {
        /// Decay speed `k ≥ 0`.
        k: f32,
    },
}

impl LrSchedule {
    /// Effective learning rate at `epoch` (0-based) given the base rate.
    ///
    /// ```
    /// use tn_learn::optimizer::LrSchedule;
    /// let s = LrSchedule::StepDecay { gamma: 0.5, every: 2 };
    /// assert_eq!(s.rate_at(0, 0.1), 0.1);
    /// assert_eq!(s.rate_at(2, 0.1), 0.05);
    /// assert_eq!(s.rate_at(4, 0.1), 0.025);
    /// ```
    pub fn rate_at(&self, epoch: usize, base: f32) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { gamma, every } => {
                let steps = epoch.checked_div(every).unwrap_or(0);
                base * gamma.powi(steps as i32)
            }
            LrSchedule::InverseDecay { k } => base / (1.0 + k * epoch as f32),
        }
    }
}

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Base learning rate.
    pub learning_rate: f32,
    /// Classical momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            momentum: 0.9,
            schedule: LrSchedule::StepDecay {
                gamma: 0.7,
                every: 3,
            },
        }
    }
}

/// SGD optimizer state: one velocity buffer per layer.
#[derive(Debug)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<LayerGrads>,
}

impl Sgd {
    /// Create an optimizer for the given layer stack.
    pub fn new(config: SgdConfig, layers: &[Layer]) -> Self {
        Self {
            config,
            velocity: layers.iter().map(LayerGrads::zeros_like).collect(),
        }
    }

    /// Optimizer configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Apply one SGD(+momentum) step to every layer from its gradients.
    ///
    /// `v ← v·m + g; θ ← θ − lr·v`, one fused pass per parameter block;
    /// TrueNorth weights are re-projected into `[−1, 1]` in the same pass.
    /// A TrueNorth layer's cores step as one task each on `crate::pool`.
    ///
    /// # Panics
    ///
    /// Panics if `layers`/`grads` do not match the stack given to
    /// [`Sgd::new`].
    pub fn step(&mut self, layers: &mut [Layer], grads: &[LayerGrads], epoch: usize) {
        assert_eq!(layers.len(), self.velocity.len(), "layer count changed");
        assert_eq!(grads.len(), self.velocity.len(), "gradient count mismatch");
        let lr = self
            .config
            .schedule
            .rate_at(epoch, self.config.learning_rate);
        let m = self.config.momentum;
        for ((layer, g), v) in layers.iter_mut().zip(grads).zip(&mut self.velocity) {
            match layer {
                Layer::Dense(d) => {
                    Block {
                        weights: &mut d.weights,
                        bias: &mut d.bias,
                        v_weights: &mut v.weights[0],
                        v_bias: &mut v.biases[0],
                    }
                    .step(&g.weights[0], &g.biases[0], m, lr, f32::INFINITY);
                }
                Layer::TnCore(t) => {
                    // Task k alone locks slot k: the lock only hands its
                    // `&mut`s across.
                    let slots: Vec<Mutex<Block<'_>>> = t
                        .cores
                        .iter_mut()
                        .zip(v.weights.iter_mut().zip(v.biases.iter_mut()))
                        .map(|(core, (v_weights, v_bias))| {
                            Mutex::new(Block {
                                weights: &mut core.weights,
                                bias: &mut core.bias,
                                v_weights,
                                v_bias,
                            })
                        })
                        .collect();
                    crate::pool::map(slots.len(), |k| {
                        let mut params = slots[k].lock().expect("only task k locks slot k");
                        params.step(&g.weights[k], &g.biases[k], m, lr, 1.0);
                    });
                }
            }
        }
    }

    /// Reset all momentum buffers to zero.
    pub fn reset(&mut self) {
        for v in &mut self.velocity {
            v.clear();
        }
    }
}

/// One layer's (or one core's) parameters and their velocity buffers.
struct Block<'a> {
    weights: &'a mut Matrix,
    bias: &'a mut [f32],
    v_weights: &'a mut Matrix,
    v_bias: &'a mut [f32],
}

impl Block<'_> {
    /// One fused momentum step, clamping weights into `[−bound, bound]`
    /// (an infinite bound clamps nothing). Each element takes the
    /// roundings of the separate passes `v ← v·m; v ← v + g;
    /// w ← w + (−lr)·v; w ← clamp(w)` in that order, and each bias those
    /// of `v ← m·v + g; b ← b − lr·v`.
    fn step(&mut self, g_weights: &Matrix, g_bias: &[f32], m: f32, lr: f32, bound: f32) {
        assert_eq!(
            self.weights.shape(),
            g_weights.shape(),
            "gradient shape mismatch"
        );
        for ((w, v), &g) in self
            .weights
            .as_mut_slice()
            .iter_mut()
            .zip(self.v_weights.as_mut_slice())
            .zip(g_weights.as_slice())
        {
            *v = *v * m + g;
            *w = (*w + -lr * *v).clamp(-bound, bound);
        }
        for ((b, v), &g) in self.bias.iter_mut().zip(self.v_bias.iter_mut()).zip(g_bias) {
            *v = m * *v + g;
            *b -= lr * *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layer::DenseLayer;
    use crate::matrix::Matrix;

    fn one_layer() -> Vec<Layer> {
        let mut d = DenseLayer::new(1, 1, Activation::Identity, 0);
        d.weights = Matrix::from_rows(&[&[1.0]]);
        vec![Layer::Dense(d)]
    }

    fn grad_of(v: f32, layers: &[Layer]) -> Vec<LayerGrads> {
        let mut g = vec![LayerGrads::zeros_like(&layers[0])];
        g[0].weights[0][(0, 0)] = v;
        g
    }

    fn weight(layers: &[Layer]) -> f32 {
        match &layers[0] {
            Layer::Dense(d) => d.weights[(0, 0)],
            _ => unreachable!(),
        }
    }

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let mut layers = one_layer();
        let cfg = SgdConfig {
            learning_rate: 0.5,
            momentum: 0.0,
            schedule: LrSchedule::Constant,
        };
        let mut opt = Sgd::new(cfg, &layers);
        let g = grad_of(2.0, &layers);
        opt.step(&mut layers, &g, 0);
        assert!((weight(&layers) - 0.0).abs() < 1e-6); // 1.0 - 0.5*2.0
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut layers = one_layer();
        let cfg = SgdConfig {
            learning_rate: 0.1,
            momentum: 0.5,
            schedule: LrSchedule::Constant,
        };
        let mut opt = Sgd::new(cfg, &layers);
        let g = grad_of(1.0, &layers);
        opt.step(&mut layers, &g, 0); // v = 1.0, w = 1 - 0.1
        opt.step(&mut layers, &g, 0); // v = 1.5, w = 0.9 - 0.15
        assert!((weight(&layers) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_momentum() {
        let mut layers = one_layer();
        let cfg = SgdConfig {
            learning_rate: 0.1,
            momentum: 0.9,
            schedule: LrSchedule::Constant,
        };
        let mut opt = Sgd::new(cfg, &layers);
        let g = grad_of(1.0, &layers);
        opt.step(&mut layers, &g, 0);
        opt.reset();
        let w_before = weight(&layers);
        let zero_grad = grad_of(0.0, &layers);
        opt.step(&mut layers, &zero_grad, 0);
        // With zero gradient and cleared velocity, nothing moves.
        assert_eq!(weight(&layers), w_before);
    }

    /// The unfused reference step: four whole-buffer passes per block
    /// (`scale`, `add_assign`, `axpy`, `clamp_in_place`), layer by layer
    /// and core by core on one thread.
    fn four_pass_step(
        layers: &mut [Layer],
        velocity: &mut [LayerGrads],
        grads: &[LayerGrads],
        m: f32,
        lr: f32,
    ) {
        for ((layer, g), v) in layers.iter_mut().zip(grads).zip(velocity) {
            for (vw, gw) in v.weights.iter_mut().zip(&g.weights) {
                vw.scale(m);
                vw.add_assign(gw);
            }
            for (vb, gb) in v.biases.iter_mut().zip(&g.biases) {
                for (x, &y) in vb.iter_mut().zip(gb) {
                    *x = m * *x + y;
                }
            }
            let blocks: Vec<(&mut Matrix, &mut Vec<f32>, bool)> = match layer {
                Layer::Dense(d) => vec![(&mut d.weights, &mut d.bias, false)],
                Layer::TnCore(t) => t
                    .cores
                    .iter_mut()
                    .map(|c| (&mut c.weights, &mut c.bias, true))
                    .collect(),
            };
            for (k, (w, bias, clamp)) in blocks.into_iter().enumerate() {
                w.axpy(-lr, &v.weights[k]);
                if clamp {
                    w.clamp_in_place(-1.0, 1.0);
                }
                for (b, g) in bias.iter_mut().zip(&v.biases[k]) {
                    *b -= lr * g;
                }
            }
        }
    }

    fn param_bits(layers: &[Layer]) -> Vec<u32> {
        let mut out = Vec::new();
        for layer in layers {
            let blocks: Vec<(&Matrix, &Vec<f32>)> = match layer {
                Layer::Dense(d) => vec![(&d.weights, &d.bias)],
                Layer::TnCore(t) => t.cores.iter().map(|c| (&c.weights, &c.bias)).collect(),
            };
            for (w, b) in blocks {
                out.extend(w.as_slice().iter().chain(b).map(|v| v.to_bits()));
            }
        }
        out
    }

    /// Several momentum steps over a five-core TrueNorth layer (cores
    /// stepped on the pool) and a dense layer: the fused step leaves every
    /// weight and bias bit-equal to the four-pass serial reference,
    /// clamped weights and decayed rates included.
    #[test]
    fn pooled_fused_step_matches_the_four_pass_reference_bits() {
        use crate::layer::TnCoreLayer;
        use crate::matrix::reference::edge_matrix;

        let maps = (0..5).map(|k| (k..k + 7).collect()).collect();
        let mut layers = vec![
            Layer::TnCore(TnCoreLayer::new(12, maps, 37, 3)),
            Layer::Dense(DenseLayer::new(185, 10, Activation::Identity, 4)),
        ];
        let cfg = SgdConfig {
            learning_rate: 0.4,
            momentum: 0.9,
            schedule: LrSchedule::StepDecay {
                gamma: 0.5,
                every: 2,
            },
        };
        let mut reference = layers.clone();
        let mut ref_velocity: Vec<LayerGrads> =
            reference.iter().map(LayerGrads::zeros_like).collect();
        let mut opt = Sgd::new(cfg, &layers);
        for step in 0..6u64 {
            let grads: Vec<LayerGrads> = layers
                .iter()
                .enumerate()
                .map(|(i, layer)| {
                    let mut g = LayerGrads::zeros_like(layer);
                    for (k, w) in g.weights.iter_mut().enumerate() {
                        let seed = step * 1000 + i as u64 * 100 + k as u64;
                        *w = edge_matrix(w.rows(), w.cols(), seed);
                    }
                    for (k, b) in g.biases.iter_mut().enumerate() {
                        let seed = step * 1000 + i as u64 * 100 + 50 + k as u64;
                        *b = edge_matrix(1, b.len(), seed).into_vec();
                    }
                    g
                })
                .collect();
            let epoch = step as usize;
            opt.step(&mut layers, &grads, epoch);
            let lr = cfg.schedule.rate_at(epoch, cfg.learning_rate);
            four_pass_step(&mut reference, &mut ref_velocity, &grads, cfg.momentum, lr);
            assert_eq!(param_bits(&layers), param_bits(&reference), "step {step}");
        }
        let Layer::TnCore(t) = &layers[0] else {
            unreachable!()
        };
        assert!(
            t.weights_iter().any(|w| w.abs() == 1.0),
            "some weights reached the clamp"
        );
    }

    #[test]
    fn schedules_decay_as_documented() {
        let inv = LrSchedule::InverseDecay { k: 1.0 };
        assert_eq!(inv.rate_at(0, 1.0), 1.0);
        assert_eq!(inv.rate_at(1, 1.0), 0.5);
        assert_eq!(LrSchedule::Constant.rate_at(99, 0.3), 0.3);
        // every == 0 must not divide by zero.
        let s = LrSchedule::StepDecay {
            gamma: 0.5,
            every: 0,
        };
        assert_eq!(s.rate_at(10, 1.0), 1.0);
    }
}
