//! The training loop: seeded mini-batch SGD with a pluggable weight penalty.
//!
//! This is the "Caffe" of the reproduction. Tea learning is
//! `Trainer::new(cfg).fit(&mut net, …)` with [`Penalty::None`]; the paper's
//! probability-biased learning is the same call with [`Penalty::biasing`].

use crate::layer::LayerGrads;
use crate::matrix::Matrix;
use crate::metrics::EpochStats;
use crate::model::Network;
use crate::optimizer::{Sgd, SgdConfig};
use crate::penalty::Penalty;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors surfaced by [`Trainer::fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// Training inputs and labels disagree in length.
    LengthMismatch {
        /// Number of input rows.
        inputs: usize,
        /// Number of labels.
        labels: usize,
    },
    /// The training set is empty.
    EmptyDataset,
    /// A label exceeds the network's class count.
    LabelOutOfRange {
        /// Offending label.
        label: usize,
        /// Number of classes in the network.
        n_classes: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::LengthMismatch { inputs, labels } => {
                write!(
                    f,
                    "inputs ({inputs}) and labels ({labels}) differ in length"
                )
            }
            TrainError::EmptyDataset => write!(f, "training set is empty"),
            TrainError::LabelOutOfRange { label, n_classes } => {
                write!(f, "label {label} out of range for {n_classes} classes")
            }
        }
    }
}

impl Error for TrainError {}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set (the paper uses 10).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD settings.
    pub sgd: SgdConfig,
    /// Weight penalty (Eq. 16): the co-optimization knob.
    pub penalty: Penalty,
    /// Softmax inverse temperature applied to class scores.
    pub score_scale: f32,
    /// Shuffle seed; training is fully deterministic given this.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            sgd: SgdConfig::default(),
            penalty: Penalty::None,
            score_scale: 8.0,
            seed: 0,
        }
    }
}

/// Mini-batch SGD trainer.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Create a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// Trainer configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Train `net` in place; returns per-epoch statistics.
    ///
    /// `eval` optionally provides a held-out set whose accuracy is recorded
    /// each epoch.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the dataset is empty, lengths mismatch, or
    /// a label is out of range.
    pub fn fit(
        &self,
        net: &mut Network,
        inputs: &Matrix,
        labels: &[usize],
        eval: Option<(&Matrix, &[usize])>,
    ) -> Result<Vec<EpochStats>, TrainError> {
        if inputs.rows() != labels.len() {
            return Err(TrainError::LengthMismatch {
                inputs: inputs.rows(),
                labels: labels.len(),
            });
        }
        if labels.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        let n_classes = net.n_classes();
        if let Some(&bad) = labels.iter().find(|&&l| l >= n_classes) {
            return Err(TrainError::LabelOutOfRange {
                label: bad,
                n_classes,
            });
        }

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut opt = Sgd::new(self.config.sgd, net.layers());
        let mut order: Vec<usize> = (0..labels.len()).collect();
        let mut stats = Vec::with_capacity(self.config.epochs);
        let bs = self.config.batch_size.max(1);
        let mut grads = net.zero_grads();

        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0_f64;
            let mut correct = 0usize;
            let mut batches = 0usize;
            for chunk in order.chunks(bs) {
                let (bx, by) = gather_batch(inputs, labels, chunk);
                grads.iter_mut().for_each(LayerGrads::clear);
                let out = net.loss_and_grads(
                    &bx,
                    &by,
                    &self.config.penalty,
                    self.config.score_scale,
                    &mut grads,
                );
                opt.step(net.layers_mut_slice(), &grads, epoch);
                epoch_loss += out.loss as f64;
                correct += out.correct;
                batches += 1;
            }
            let lr = self
                .config
                .sgd
                .schedule
                .rate_at(epoch, self.config.sgd.learning_rate);
            stats.push(EpochStats {
                epoch,
                train_loss: (epoch_loss / batches.max(1) as f64) as f32,
                penalty_loss: net.penalty_value(&self.config.penalty),
                train_accuracy: correct as f32 / labels.len() as f32,
                eval_accuracy: eval.map(|(ex, ey)| net.accuracy(ex, ey)),
                learning_rate: lr,
            });
        }
        Ok(stats)
    }
}

fn gather_batch(inputs: &Matrix, labels: &[usize], idx: &[usize]) -> (Matrix, Vec<usize>) {
    let mut bx = Matrix::zeros(idx.len(), inputs.cols());
    let mut by = Vec::with_capacity(idx.len());
    for (r, &i) in idx.iter().enumerate() {
        bx.row_mut(r).copy_from_slice(inputs.row(i));
        by.push(labels[i]);
    }
    (bx, by)
}

impl Network {
    /// Mutable layer slice — exists so the trainer can borrow layers and the
    /// optimizer state disjointly.
    pub(crate) fn layers_mut_slice(&mut self) -> &mut [crate::layer::Layer] {
        self.layers_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, TnCoreLayer};
    use crate::loss::Readout;
    use crate::optimizer::LrSchedule;

    /// Two linearly separable blobs in 4 dimensions.
    fn toy_problem(n: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut rng_state = 123u64;
        let mut next = || {
            // xorshift for a tiny deterministic jitter
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 1000) as f32 / 5000.0
        };
        for i in 0..n {
            if i % 2 == 0 {
                rows.push(vec![0.8 + next(), 0.7 + next(), 0.1 + next(), 0.2 + next()]);
                labels.push(0);
            } else {
                rows.push(vec![0.1 + next(), 0.2 + next(), 0.8 + next(), 0.7 + next()]);
                labels.push(1);
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), labels)
    }

    fn toy_net(seed: u64) -> Network {
        let layer = TnCoreLayer::new(4, vec![vec![0, 1, 2, 3]], 8, seed);
        Network::new(vec![Layer::TnCore(layer)], Readout::round_robin(8, 2))
    }

    fn fast_config(penalty: Penalty) -> TrainConfig {
        TrainConfig {
            epochs: 15,
            batch_size: 8,
            sgd: SgdConfig {
                learning_rate: 0.5,
                momentum: 0.9,
                schedule: LrSchedule::Constant,
            },
            penalty,
            score_scale: 8.0,
            seed: 42,
        }
    }

    #[test]
    fn learns_linearly_separable_toy_problem() {
        let (x, y) = toy_problem(64);
        let mut net = toy_net(7);
        let stats = Trainer::new(fast_config(Penalty::None))
            .fit(&mut net, &x, &y, None)
            .expect("fit");
        let final_acc = net.accuracy(&x, &y);
        assert!(
            final_acc > 0.95,
            "toy problem should be learnable, got {final_acc}"
        );
        assert!(stats.last().expect("stats").train_loss < stats[0].train_loss);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (x, y) = toy_problem(32);
        let mut a = toy_net(7);
        let mut b = toy_net(7);
        let cfg = fast_config(Penalty::None);
        Trainer::new(cfg).fit(&mut a, &x, &y, None).expect("fit a");
        Trainer::new(cfg).fit(&mut b, &x, &y, None).expect("fit b");
        assert_eq!(a, b);
    }

    #[test]
    fn biasing_penalty_drives_weights_to_poles() {
        let (x, y) = toy_problem(64);
        let mut plain = toy_net(7);
        let mut biased = toy_net(7);
        Trainer::new(fast_config(Penalty::None))
            .fit(&mut plain, &x, &y, None)
            .expect("fit plain");
        let mut cfg = fast_config(Penalty::biasing(0.02));
        cfg.epochs = 40;
        Trainer::new(cfg)
            .fit(&mut biased, &x, &y, None)
            .expect("fit biased");
        // Measure mass near the worst point p = 0.5.
        let near_half = |net: &Network| {
            let ws = net.all_weights();
            ws.iter().filter(|w| (w.abs() - 0.5).abs() < 0.25).count() as f32 / ws.len() as f32
        };
        assert!(
            near_half(&biased) < near_half(&plain),
            "biasing should empty the p≈0.5 region: {} vs {}",
            near_half(&biased),
            near_half(&plain)
        );
    }

    #[test]
    fn eval_accuracy_is_tracked() {
        let (x, y) = toy_problem(32);
        let mut net = toy_net(3);
        let stats = Trainer::new(fast_config(Penalty::None))
            .fit(&mut net, &x, &y, Some((&x, &y)))
            .expect("fit");
        assert!(stats.iter().all(|s| s.eval_accuracy.is_some()));
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let (x, _) = toy_problem(8);
        let mut net = toy_net(0);
        let err = Trainer::new(fast_config(Penalty::None))
            .fit(&mut net, &x, &[0, 1], None)
            .unwrap_err();
        assert!(matches!(err, TrainError::LengthMismatch { .. }));
    }

    #[test]
    fn rejects_empty_dataset() {
        let x = Matrix::zeros(0, 4);
        let mut net = toy_net(0);
        let err = Trainer::new(fast_config(Penalty::None))
            .fit(&mut net, &x, &[], None)
            .unwrap_err();
        assert_eq!(err, TrainError::EmptyDataset);
    }

    #[test]
    fn rejects_out_of_range_label() {
        let (x, _) = toy_problem(4);
        let mut net = toy_net(0);
        let err = Trainer::new(fast_config(Penalty::None))
            .fit(&mut net, &x, &[0, 1, 5, 0], None)
            .unwrap_err();
        assert!(matches!(err, TrainError::LabelOutOfRange { label: 5, .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = TrainError::LabelOutOfRange {
            label: 9,
            n_classes: 3,
        };
        assert!(e.to_string().contains("label 9"));
    }
}
