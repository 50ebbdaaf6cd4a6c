//! Runtime configuration and its validated builder.

use std::time::Duration;

use tn_chip::nscs::ConnectivityMode;

use crate::control::{ControllerConfig, SpfRange};
use crate::error::ServeError;
use crate::tier::{validate_tiers, QualityTier};

/// Telemetry export settings for a [`crate::ServeRuntime`].
///
/// When set, the runtime spawns an observer thread that periodically
/// assembles a [`tn_telemetry::Snapshot`] (serve counters, chip hardware
/// counters, queue/control gauges, per-stage latency spans) and emits it
/// through the configured [`tn_telemetry::MetricsSink`]. A final snapshot
/// is always emitted at shutdown, so even a short-lived runtime exports at
/// least one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Snapshot export period.
    pub interval: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(250),
        }
    }
}

impl TelemetryConfig {
    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.interval.is_zero() {
            return Err(ServeError::BadConfig(
                "telemetry interval must be > 0".into(),
            ));
        }
        Ok(())
    }
}

/// What `submit` does when the bounded queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Block the submitting thread until a slot frees up (default; keeps
    /// every accepted request and throttles the producer instead).
    #[default]
    Block,
    /// Fail fast with [`ServeError::QueueFull`] so the caller can shed
    /// load or retry.
    Reject,
}

/// Configuration for a [`crate::ServeRuntime`].
///
/// Construct through the validated builder: [`ServeConfig::builder`] (or
/// [`ServeConfigBuilder::new`]), chain setters, then
/// [`ServeConfigBuilder::build`], which rejects inconsistent knob
/// combinations up front instead of letting them surface mid-serve.
///
/// ```
/// use tn_serve::{Backpressure, ServeConfig};
/// let cfg = ServeConfig::builder(7)
///     .replicas(4)
///     .workers(2)
///     .kernel_batch(8)
///     .backpressure(Backpressure::Reject)
///     .build()
///     .expect("consistent config");
/// assert_eq!(cfg.replicas, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Spatial copies deployed per worker chip; each casts one vote per
    /// request (the paper's duplication axis).
    pub replicas: usize,
    /// Worker threads, each owning a full replica set (a cloned
    /// deployment, so every worker holds bit-identical replicas).
    pub workers: usize,
    /// Stochastic input samples (spikes per frame) per request.
    pub spf: usize,
    /// Master seed: drives replica Bernoulli sampling at build time and,
    /// combined with each request's sequence number, the per-frame spike
    /// trains. Results are a pure function of `(seed, seq)` — never of
    /// worker count, batching, or scheduling.
    pub seed: u64,
    /// Bounded submission-queue capacity.
    pub queue_capacity: usize,
    /// Max requests a worker drains per queue lock (micro-batch size).
    pub batch_max: usize,
    /// Frames fused per compiled-kernel lockstep run
    /// ([`tn_chip::kernel::GroupedLaneBatch`]): a worker slices each drained
    /// micro-batch into groups of up to this many frames and ticks each
    /// group through one crossbar walk per tick. Results are bit-identical
    /// for any value (1 = frame-at-a-time); larger values amortize row
    /// loads across requests at the cost of per-lane scratch memory.
    pub kernel_batch: usize,
    /// Full-queue behaviour.
    pub backpressure: Backpressure,
    /// How replica crossbars realize fractional weights.
    pub connectivity: ConnectivityMode,
    /// Adaptive control loop (`None` = static knobs, the default). When
    /// set, an observer thread runs a [`crate::Controller`] that adapts
    /// the live fusion width within `1 ..= kernel_batch` from queue depth
    /// and the replica count within the configured bounds from the live
    /// vote-agreement metric, and the default set's spf within
    /// [`ControllerConfig::spf_range`] when one is set. With `None`,
    /// results are bit-identical to a runtime without the control
    /// machinery.
    pub controller: Option<ControllerConfig>,
    /// Periodic snapshot export (`None` = no observer exports, the
    /// default). See [`TelemetryConfig`].
    pub telemetry: Option<TelemetryConfig>,
    /// Quality tiers: named (replicas × spf × kernel_batch) operating
    /// points selectable per request via `SubmitRequest::quality`, each
    /// with a calibrated-confidence floor and optional escalation target
    /// (empty = no tiers, the default). See [`QualityTier`]. Tiers are
    /// not supported on packed multi-tenant runtimes.
    pub tiers: Vec<QualityTier>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            workers: 2,
            spf: 8,
            seed: 7,
            queue_capacity: 256,
            batch_max: 16,
            kernel_batch: 8,
            backpressure: Backpressure::Block,
            connectivity: ConnectivityMode::IndependentPerCopy,
            controller: None,
            telemetry: None,
            tiers: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// Default configuration under the given master seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Start a validated builder under the given master seed.
    pub fn builder(seed: u64) -> ServeConfigBuilder {
        ServeConfigBuilder::new(seed)
    }

    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        for (name, v) in [
            ("replicas", self.replicas),
            ("workers", self.workers),
            ("spf", self.spf),
            ("queue_capacity", self.queue_capacity),
            ("batch_max", self.batch_max),
            ("kernel_batch", self.kernel_batch),
        ] {
            if v == 0 {
                return Err(ServeError::BadConfig(format!("{name} must be >= 1")));
            }
        }
        if self.batch_max > self.queue_capacity {
            return Err(ServeError::BadConfig(format!(
                "batch_max ({}) must not exceed queue_capacity ({})",
                self.batch_max, self.queue_capacity
            )));
        }
        if let Some(controller) = &self.controller {
            controller.validate()?;
            if !(controller.min_replicas..=controller.max_replicas).contains(&self.replicas) {
                return Err(ServeError::BadConfig(format!(
                    "replicas ({}) outside controller bounds [{}, {}]",
                    self.replicas, controller.min_replicas, controller.max_replicas
                )));
            }
        }
        if let Some(telemetry) = &self.telemetry {
            telemetry.validate()?;
        }
        validate_tiers(&self.tiers)?;
        Ok(())
    }

    /// The default set's spf range (`None` without a controller or when
    /// the controller has no [`ControllerConfig::spf_range`]).
    pub(crate) fn spf_range(&self) -> Option<SpfRange> {
        self.controller.as_ref().and_then(|c| c.spf_range)
    }
}

/// Validated builder for [`ServeConfig`]: the only construction path that
/// guarantees a consistent configuration, because [`ServeConfigBuilder::build`]
/// runs every cross-field check before handing the config out.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Start from the defaults under the given master seed.
    pub fn new(seed: u64) -> Self {
        Self {
            cfg: ServeConfig::new(seed),
        }
    }

    /// Replica (spatial copy) count per worker.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.cfg.replicas = replicas;
        self
    }

    /// Worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Stochastic input samples (spikes per frame) per request.
    pub fn spf(mut self, spf: usize) -> Self {
        self.cfg.spf = spf;
        self
    }

    /// Master seed (see [`ServeConfig::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Bounded submission-queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.cfg.queue_capacity = capacity;
        self
    }

    /// Max requests a worker drains per queue lock.
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.cfg.batch_max = batch_max;
        self
    }

    /// Frames fused per compiled-kernel lockstep run (see
    /// [`ServeConfig::kernel_batch`]).
    pub fn kernel_batch(mut self, kernel_batch: usize) -> Self {
        self.cfg.kernel_batch = kernel_batch;
        self
    }

    /// Full-queue behaviour.
    pub fn backpressure(mut self, backpressure: Backpressure) -> Self {
        self.cfg.backpressure = backpressure;
        self
    }

    /// Connectivity mode for replica sampling.
    pub fn connectivity(mut self, connectivity: ConnectivityMode) -> Self {
        self.cfg.connectivity = connectivity;
        self
    }

    /// Enable the adaptive control loop (see [`ServeConfig::controller`]).
    pub fn controller(mut self, controller: ControllerConfig) -> Self {
        self.cfg.controller = Some(controller);
        self
    }

    /// Enable periodic telemetry snapshot export (see
    /// [`ServeConfig::telemetry`]).
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = Some(telemetry);
        self
    }

    /// Replace the quality-tier table (see [`ServeConfig::tiers`]).
    pub fn tiers(mut self, tiers: Vec<QualityTier>) -> Self {
        self.cfg.tiers = tiers;
        self
    }

    /// Append one quality tier (see [`ServeConfig::tiers`]).
    pub fn tier(mut self, tier: QualityTier) -> Self {
        self.cfg.tiers.push(tier);
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] naming the first offending field: any
    /// zero-valued count knob, or `batch_max > queue_capacity`.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_builds() {
        let cfg = ServeConfig::builder(42)
            .replicas(4)
            .workers(3)
            .spf(16)
            .queue_capacity(8)
            .batch_max(2)
            .kernel_batch(4)
            .backpressure(Backpressure::Reject)
            .build()
            .expect("valid");
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.replicas, 4);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.spf, 16);
        assert_eq!(cfg.queue_capacity, 8);
        assert_eq!(cfg.batch_max, 2);
        assert_eq!(cfg.kernel_batch, 4);
        assert_eq!(cfg.backpressure, Backpressure::Reject);
    }

    #[test]
    fn every_zero_knob_is_rejected_with_its_own_message() {
        for (field, builder) in [
            ("replicas", ServeConfig::builder(1).replicas(0)),
            ("workers", ServeConfig::builder(1).workers(0)),
            ("spf", ServeConfig::builder(1).spf(0)),
            (
                "queue_capacity",
                ServeConfig::builder(1).queue_capacity(0).batch_max(0),
            ),
            ("batch_max", ServeConfig::builder(1).batch_max(0)),
            ("kernel_batch", ServeConfig::builder(1).kernel_batch(0)),
        ] {
            match builder.build() {
                Err(ServeError::BadConfig(msg)) => {
                    assert!(msg.contains(field), "expected {field} in {msg:?}")
                }
                other => panic!("{field} = 0 accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn batch_max_must_fit_in_queue() {
        match ServeConfig::builder(1)
            .queue_capacity(8)
            .batch_max(9)
            .build()
        {
            Err(ServeError::BadConfig(msg)) => {
                assert!(
                    msg.contains("batch_max") && msg.contains("queue_capacity"),
                    "{msg:?}"
                );
            }
            other => panic!("oversized batch_max accepted: {other:?}"),
        }
        // Equality is fine: a worker may drain the whole queue at once.
        ServeConfig::builder(1)
            .queue_capacity(8)
            .batch_max(8)
            .build()
            .expect("batch_max == queue_capacity is valid");
    }

    #[test]
    fn controller_bounds_must_contain_initial_replicas() {
        let ctl = ControllerConfig {
            min_replicas: 2,
            max_replicas: 4,
            ..ControllerConfig::default()
        };
        match ServeConfig::builder(1).replicas(1).controller(ctl.clone()).build() {
            Err(ServeError::BadConfig(msg)) => {
                assert!(msg.contains("controller bounds"), "{msg:?}")
            }
            other => panic!("out-of-bounds replicas accepted: {other:?}"),
        }
        ServeConfig::builder(1)
            .replicas(3)
            .controller(ctl)
            .build()
            .expect("in-bounds replicas are valid");
    }

    #[test]
    fn controller_and_telemetry_configs_are_validated_by_build() {
        let bad_ctl = ControllerConfig {
            queue_low: 0.9,
            queue_high: 0.5,
            ..ControllerConfig::default()
        };
        assert!(matches!(
            ServeConfig::builder(1).controller(bad_ctl).build(),
            Err(ServeError::BadConfig(msg)) if msg.contains("queue")
        ));
        let bad_tel = TelemetryConfig {
            interval: Duration::ZERO,
        };
        assert!(matches!(
            ServeConfig::builder(1).telemetry(bad_tel).build(),
            Err(ServeError::BadConfig(msg)) if msg.contains("interval")
        ));
        ServeConfig::builder(1)
            .controller(ControllerConfig::default())
            .telemetry(TelemetryConfig::default())
            .build()
            .expect("defaults are consistent");
    }

    #[test]
    fn tier_tables_are_validated_by_build() {
        let cfg = ServeConfig::builder(1)
            .tier(QualityTier::new("fast", 1, 2).confidence_target(0.8).escalate_to("certain"))
            .tier(QualityTier::new("certain", 4, 8))
            .build()
            .expect("valid tier table");
        assert_eq!(cfg.tiers.len(), 2);
        assert!(matches!(
            ServeConfig::builder(1)
                .tier(QualityTier::new("fast", 1, 2).escalate_to("missing"))
                .build(),
            Err(ServeError::BadConfig(msg)) if msg.contains("missing")
        ));
    }
}
