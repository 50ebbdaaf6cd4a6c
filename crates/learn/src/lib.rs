//! # tn-learn — training substrate for the TrueNorth reproduction
//!
//! A from-scratch feed-forward neural-network training framework standing in
//! for Caffe in the reproduction of *"A New Learning Method for Inference
//! Accuracy, Core Occupation, and Performance Co-optimization on TrueNorth
//! Chip"* (Wen et al., DAC 2016).
//!
//! The centerpiece is **Tea learning** support: TrueNorth deploys a neural
//! network by sampling each synapse ON with a learned probability
//! `p = |w|` (weight sign becomes the synaptic integer `c = sgn(w)`), so
//! training must (a) keep weights in `[−1, 1]`, (b) use the stochastic spike
//! probability `z = Φ(µ/σ)` of the paper's Eq. (11) as the activation, with
//! gradients through both the mean µ and the deviation σ, and (c) support
//! the weight penalties of Eq. (16)-(17) — most importantly the
//! **probability-biasing penalty** `Σ||p − a| − b|` that is the paper's
//! contribution.
//!
//! ## Quick tour
//!
//! ```
//! use tn_learn::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A single neuro-synaptic core reading 4 inputs, 8 output neurons,
//! // merged round-robin onto 2 classes.
//! let layer = TnCoreLayer::new(4, vec![vec![0, 1, 2, 3]], 8, /*seed*/ 1);
//! let mut net = Network::new(vec![Layer::TnCore(layer)], Readout::round_robin(8, 2));
//!
//! let x = Matrix::from_rows(&[&[0.9, 0.8, 0.1, 0.2], &[0.1, 0.2, 0.9, 0.8]]);
//! let y = vec![0usize, 1];
//!
//! let cfg = TrainConfig { epochs: 20, penalty: Penalty::biasing(0.01), ..TrainConfig::default() };
//! Trainer::new(cfg).fit(&mut net, &x, &y, None)?;
//! assert!(net.accuracy(&x, &y) >= 0.5);
//! # Ok(())
//! # }
//! ```
//!
//! Modules:
//! * [`matrix`] — dense `f32` matrices and the matmul kernels backprop needs.
//! * [`math`] — `erf`, `Φ`, `φ`, softmax utilities.
//! * [`activation`] — classic activations and the Tea activation (Eq. 11).
//! * [`layer`] — [`layer::DenseLayer`] and [`layer::TnCoreLayer`].
//! * [`penalty`] — Eq. (16)/(17) weight penalties.
//! * [`loss`] — class readout merge and softmax cross-entropy.
//! * [`optimizer`] — SGD with momentum and schedules.
//! * [`trainer`] — the mini-batch training loop.
//! * [`model`] — [`model::Network`], the trained artifact.
//! * [`metrics`] — accuracy and confusion matrices.
//! * [`persist`] — versioned binary save/load of trained networks.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod init;
pub mod layer;
pub mod loss;
pub mod math;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod optimizer;
pub mod penalty;
pub mod persist;
mod pool;
pub mod trainer;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::activation::{Activation, TeaActivation};
    pub use crate::init::Init;
    pub use crate::layer::{CoreBlock, DenseLayer, Layer, TnCoreLayer};
    pub use crate::loss::{argmax, softmax_cross_entropy, Readout};
    pub use crate::matrix::Matrix;
    pub use crate::metrics::{ConfusionMatrix, EpochStats};
    pub use crate::model::Network;
    pub use crate::optimizer::{LrSchedule, Sgd, SgdConfig};
    pub use crate::penalty::Penalty;
    pub use crate::persist::{load_network, save_network, PersistError};
    pub use crate::trainer::{TrainConfig, TrainError, Trainer};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let _ = Penalty::biasing(0.01);
        let _ = Matrix::zeros(1, 1);
        let _ = TrainConfig::default();
    }
}
