//! # truenorth — probability-biased learning for TrueNorth co-optimization
//!
//! A from-scratch Rust reproduction of **"A New Learning Method for
//! Inference Accuracy, Core Occupation, and Performance Co-optimization on
//! TrueNorth Chip"** (Wen, Wu, Wang, Nixon, Wu, Barnell, Li, Chen — DAC
//! 2016).
//!
//! TrueNorth deploys neural networks by sampling each synapse ON with a
//! learned probability; the resulting Bernoulli variance costs accuracy,
//! which the stock flow buys back with **spatial copies** (more cores) and
//! **temporal samples** (more spikes per frame, slower inference). The
//! paper's contribution — reproduced here — is a **probability-biasing
//! penalty** `Σ||p − ½| − ½|` that drags every connectivity probability to
//! a deterministic pole, minimizing per-copy variance (Eq. 15) so fewer
//! copies/spikes achieve the same accuracy: up to 68.8% fewer cores or
//! 6.5× faster inference.
//!
//! ## Crate map
//!
//! * [`tea`] — the Tea-learning math: probability/weight duality and the
//!   expectation/variance closed forms of Eqs. 5-15;
//! * [`arch`] — Table-3 network architectures (blocks → cores → layers);
//! * [`testbench`] — the five test benches end to end (data, training);
//! * [`deploy`] — trained [`prelude::Network`] → hardware spec;
//! * [`eval`] — on-chip evaluation over the full (copies × spf) grid;
//! * [`surface`] — Fig.-7/8 accuracy and boost surfaces;
//! * [`variance`] — Fig.-4 deviation maps and Fig.-5 histograms;
//! * [`cooptimize`] — Table-2 pairing: core savings and speedups;
//! * [`experiment`] — one runner per table/figure;
//! * [`power`] — energy-per-frame accounting (extension);
//! * [`report`] — CSV artifacts for EXPERIMENTS.md;
//! * [`serving`] — from a trained or persisted model to a server: one
//!   spec loader, then one constructor per server type — `tn-serve`'s
//!   multi-threaded inference runtime (replica pools, batching,
//!   backpressure, metrics), [`gateway`] (`tn-gateway`, the std-only
//!   HTTP/TCP front-end) and [`fleet`] (`tn-fleet`, sharded scale-out).
//!
//! ## Quickstart
//!
//! ```no_run
//! use truenorth::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Test bench 1: 4 cores on (synthetic) MNIST, Fig. 3's network.
//! let bench = TestBench::new(1, 42);
//! let scale = RunScale { n_train: 1000, n_test: 300, epochs: 5, seeds: 1, threads: 4 };
//! let data = bench.load_data(&scale, 42);
//!
//! // Tea learning vs probability-biased learning.
//! let (tea, _) = bench.train(&data, Penalty::None, scale.epochs, 42)?;
//! let (biased, _) = bench.train(&data, Penalty::biasing(0.002), scale.epochs, 42)?;
//!
//! // Deploy each to the chip model and compare 1-copy accuracy.
//! for net in [&tea, &biased] {
//!     let spec = truenorth::deploy::extract_spec(net)?;
//!     let acc = truenorth::eval::evaluate_accuracy(
//!         &spec, &data.test_x, &data.test_y, 1, 1, 7)?;
//!     println!("deployed accuracy: {acc:.4}");
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod cooptimize;
pub mod deploy;
pub mod eval;
pub mod experiment;
pub mod power;
pub mod report;
pub mod serving;
pub mod surface;
pub mod tea;
pub mod testbench;
pub mod variance;

pub use tn_fleet as fleet;
pub use tn_gateway as gateway;

/// Convenient glob-import of the commonly used types across the workspace.
pub mod prelude {
    pub use crate::arch::{ArchError, ArchSpec};
    pub use crate::cooptimize::{CoreOccupationReport, Pairing, SpeedupReport};
    pub use crate::deploy::extract_spec;
    pub use crate::eval::{evaluate_accuracy, evaluate_grid, EvalConfig, GridAccuracy};
    pub use crate::experiment::{
        baseline_study, deviation_study, duplication_study, penalty_comparison, sparsity_study,
        table3_row, train_model, DuplicationStudy, ExperimentError, TrainedModel,
    };
    pub use crate::power::{analyze_energy, EnergyAnalysis};
    pub use crate::serving::{load_spec, ServingError};
    pub use crate::surface::{AccuracySurface, BoostSurface};
    pub use crate::tea::{
        connection_probability, spike_probability, sum_moments, synaptic_variance, SumMoments,
    };
    pub use crate::testbench::{BenchData, BenchError, DatasetKind, RunScale, TestBench};
    pub use crate::variance::{mean_synaptic_variance, DeviationStats, ProbabilityHistogram};
    pub use tn_chip::nscs::{ConnectivityMode, Deployment, FrameInput, NetworkDeploySpec, Votes};
    pub use tn_fleet::{DispatchPolicy, FleetConfig, FleetRouter, LocalFleet};
    pub use tn_gateway::{Gateway, GatewayConfig, GatewayError};
    pub use tn_learn::model::Network;
    pub use tn_learn::penalty::Penalty;
    pub use tn_serve::{
        Backpressure, CalibrationMap, ControlAction, ControlSample, Controller, ControllerConfig,
        MetricsSnapshot, QualityTier, RequestHandle, Response, ServeBackend, ServeConfig,
        ServeConfigBuilder, ServeError, ServeRuntime, ServedAs, SpfRange, SubmitRequest,
        TelemetryConfig,
    };
    pub use tn_telemetry::{MetricsSink, NullSink};
}
