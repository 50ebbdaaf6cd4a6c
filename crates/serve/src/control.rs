//! The adaptive control loop: pure decision math over telemetry samples.
//!
//! The paper's co-optimization is a three-way trade between accuracy,
//! core occupation, and throughput. At serve time the same trade is live:
//! the replica vote-agreement metric estimates the per-copy Bernoulli
//! variance (Eq. 15) that duplication exists to average away, and queue
//! depth measures how far demand outruns the kernel. This module closes
//! the loop:
//!
//! * **`kernel_batch` from queue depth** — a deep queue means requests are
//!   waiting for crossbar walks, which lane batching amortizes; a drained
//!   queue means fusion is adding latency for nothing. The controller
//!   doubles the fusion width when queue fill crosses
//!   [`ControllerConfig::queue_high`] and halves it below
//!   [`ControllerConfig::queue_low`] (multiplicative in both directions —
//!   the actuator is free and invisible in results, so fast convergence
//!   beats caution). Bounds: `1 ..= kernel_batch_max`.
//! * **replicas from agreement** — replicas voting unanimously are wasted
//!   cores (scale down); replicas disagreeing mean the pooled vote is
//!   still noisy (scale up). Hysteresis is double-ended: a dead band
//!   between [`ControllerConfig::agreement_low`] and
//!   [`ControllerConfig::agreement_high`] where nothing happens, a streak
//!   requirement ([`ControllerConfig::scale_streak`] consecutive
//!   out-of-band samples), and a post-change cooldown
//!   ([`ControllerConfig::cooldown`]) so one decision's effect is observed
//!   before the next. Bounds: `min_replicas ..= max_replicas`.
//! * **the default set's spf from agreement** — ticks-per-frame is the
//!   paper's performance axis (its 6.5× speedup knob). With
//!   [`ControllerConfig::spf_range`] set, the default deployment set's
//!   live spf follows the windowed agreement of the requests it serves.
//!   When that saturates above [`ControllerConfig::agreement_high`], the
//!   stochastic vote has converged and the set is over-sampling: spf
//!   halves toward [`SpfRange::spf_min`]. When agreement falls below
//!   [`ControllerConfig::agreement_low`] the vote is under-sampled and spf
//!   doubles toward [`SpfRange::spf_max`]. The spf axis has its own
//!   streak counters and cooldown clock (the *same* hysteresis machinery
//!   replicas use). Quality tiers keep their configured spf: a client
//!   picks a different (replicas, spf) point by naming a tier. The
//!   actuator rides [`tn_chip::nscs::FrameInput::spf`] — no deployment
//!   rebuild — so the epoch-swapped replica-rescale path stays
//!   bit-identical to a fresh runtime.
//!
//! # Determinism
//!
//! [`Controller::observe`] is a pure function of the controller's state
//! and the [`ControlSample`] — time arrives as `t_ns` *inside the sample*
//! (stamped by a [`tn_telemetry::Clock`]), never read from `Instant`. The
//! unit tests script a clock and replay load patterns; the same schedule
//! always yields the same actions.

use std::time::Duration;

use crate::error::ServeError;

/// Bounds for the spf (ticks-per-frame) actuator on the default
/// deployment set ([`ControllerConfig::spf_range`]).
///
/// The controller moves the set's live spf multiplicatively inside
/// `[spf_min, spf_max]`; frames always run at the spf their set held at
/// serve time. The set starts at [`crate::ServeConfig::spf`] clamped into
/// the range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpfRange {
    /// Floor for the set's ticks-per-frame (≥ 1). The throughput end:
    /// the controller halves spf toward this while agreement saturates.
    pub spf_min: usize,
    /// Ceiling for the set's ticks-per-frame. The accuracy end: the
    /// controller doubles spf toward this while agreement is poor.
    pub spf_max: usize,
}

impl SpfRange {
    /// A range bounded to `spf_min ..= spf_max`.
    pub fn new(spf_min: usize, spf_max: usize) -> Self {
        Self { spf_min, spf_max }
    }

    /// Clamp an spf value into this range.
    pub fn clamp(&self, spf: usize) -> usize {
        spf.clamp(self.spf_min, self.spf_max)
    }

    /// Check `1 <= spf_min <= spf_max`.
    fn validate(&self) -> Result<(), ServeError> {
        if self.spf_min == 0 {
            return Err(ServeError::BadConfig(
                "controller spf_range: spf_min must be >= 1".into(),
            ));
        }
        if self.spf_min > self.spf_max {
            return Err(ServeError::BadConfig(format!(
                "controller spf_range: spf_min ({}) must not exceed spf_max ({})",
                self.spf_min, self.spf_max
            )));
        }
        Ok(())
    }
}

/// Tuning for the adaptive control loop, validated by
/// [`crate::ServeConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// How often the runtime samples metrics and consults the controller.
    pub sample_interval: Duration,
    /// Queue fill fraction (depth/capacity) at or above which the kernel
    /// fusion width doubles.
    pub queue_high: f64,
    /// Queue fill fraction at or below which the fusion width halves.
    pub queue_low: f64,
    /// Mean replica agreement below which replicas scale **up** (the
    /// pooled vote is still noisy).
    pub agreement_low: f32,
    /// Mean replica agreement above which replicas scale **down**
    /// (duplication is buying nothing).
    pub agreement_high: f32,
    /// Replica floor (≥ 1).
    pub min_replicas: usize,
    /// Replica ceiling.
    pub max_replicas: usize,
    /// Consecutive out-of-band samples required before a replica change.
    pub scale_streak: usize,
    /// Minimum time between replica changes (lets the previous decision's
    /// effect show up in the agreement window before acting again).
    pub cooldown: Duration,
    /// spf bounds of the default deployment set (`None` = the spf
    /// actuator is off and the default set stays at
    /// [`crate::ServeConfig::spf`]). The spf axis gets its own streak +
    /// cooldown state reusing the same `agreement_low`/`agreement_high`
    /// band, `scale_streak`, and `cooldown` the replica actuator uses.
    pub spf_range: Option<SpfRange>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            sample_interval: Duration::from_millis(100),
            queue_high: 0.5,
            queue_low: 0.125,
            agreement_low: 0.80,
            agreement_high: 0.97,
            min_replicas: 1,
            max_replicas: 8,
            scale_streak: 3,
            cooldown: Duration::from_secs(2),
            spf_range: None,
        }
    }
}

impl ControllerConfig {
    /// Check internal consistency (called from the serve-config builder).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] naming the offending field pair.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.sample_interval.is_zero() {
            return Err(ServeError::BadConfig(
                "controller sample_interval must be > 0".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.queue_low)
            || !(0.0..=1.0).contains(&self.queue_high)
            || self.queue_low >= self.queue_high
        {
            return Err(ServeError::BadConfig(format!(
                "controller queue watermarks must satisfy 0 <= queue_low < queue_high <= 1, got {} / {}",
                self.queue_low, self.queue_high
            )));
        }
        if !(0.0..=1.0).contains(&self.agreement_low)
            || !(0.0..=1.0).contains(&self.agreement_high)
            || self.agreement_low >= self.agreement_high
        {
            return Err(ServeError::BadConfig(format!(
                "controller agreement band must satisfy 0 <= agreement_low < agreement_high <= 1, got {} / {}",
                self.agreement_low, self.agreement_high
            )));
        }
        if self.min_replicas == 0 {
            return Err(ServeError::BadConfig(
                "controller min_replicas must be >= 1".into(),
            ));
        }
        if self.min_replicas > self.max_replicas {
            return Err(ServeError::BadConfig(format!(
                "controller min_replicas ({}) must not exceed max_replicas ({})",
                self.min_replicas, self.max_replicas
            )));
        }
        if self.scale_streak == 0 {
            return Err(ServeError::BadConfig(
                "controller scale_streak must be >= 1".into(),
            ));
        }
        if let Some(range) = &self.spf_range {
            range.validate()?;
        }
        Ok(())
    }
}

/// One observation window handed to [`Controller::observe`].
///
/// Everything the control math consumes arrives here — including time —
/// so decisions are replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSample {
    /// Sample time in clock nanoseconds ([`tn_telemetry::Clock`]).
    pub t_ns: u64,
    /// Submission-queue depth at sample time.
    pub queue_depth: usize,
    /// Submission-queue capacity.
    pub queue_capacity: usize,
    /// Fusion width currently in force.
    pub kernel_batch: usize,
    /// Replica count currently in force.
    pub replicas: usize,
    /// Mean replica vote agreement over the window since the previous
    /// sample; `None` when no requests completed in the window (the
    /// controller then leaves replicas alone — no evidence, no action).
    pub mean_agreement: Option<f32>,
    /// Live spf of the default deployment set.
    pub spf: usize,
    /// Mean agreement of the passes the default set served in the window
    /// (the spf actuator's evidence); `None` when it served none.
    pub spf_agreement: Option<f32>,
}

/// A decision the runtime should apply (see
/// [`crate::ServeRuntime::apply_control`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ControlAction {
    /// Set the kernel lane-fusion width (clamped to ≥ 1 by the actuator;
    /// never changes any result, only throughput/latency).
    SetKernelBatch(usize),
    /// Rebuild worker deployments at this replica count (changes the
    /// accuracy/occupation point, deterministically: the replica sample
    /// at count `r` is a pure function of `(spec, seed, r)`).
    SetReplicas(usize),
    /// Set the default deployment set's live ticks-per-frame, clamped
    /// into [`ControllerConfig::spf_range`]. Applied to frames via
    /// [`tn_chip::nscs::FrameInput::spf`] at serve time — no deployment
    /// rebuild, so the replica-rescale epoch swap is untouched. A frame's
    /// result is still a pure function of `(seed, seq, spf)`; what the
    /// actuator makes time-dependent is *which* spf an in-flight request
    /// is served at.
    SetSpf(usize),
}

/// The adaptive controller: a small deterministic state machine.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControllerConfig,
    /// Ceiling for the fusion width (the configured `kernel_batch`).
    kernel_batch_max: usize,
    /// Hysteresis state of the replica actuator.
    replicas: Hysteresis,
    /// Hysteresis state of the default set's spf actuator.
    spf: Hysteresis,
}

/// Which side of the agreement band a completed streak lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Band {
    Low,
    High,
}

/// Dead band, streak and cooldown over one windowed agreement signal —
/// the hysteresis both agreement-driven actuators share.
#[derive(Debug, Clone, Default)]
struct Hysteresis {
    /// Consecutive samples with agreement below the band.
    low_streak: usize,
    /// Consecutive samples with agreement above the band.
    high_streak: usize,
    /// Time of the last change this axis made, if any.
    last_change_ns: Option<u64>,
}

impl Hysteresis {
    /// Feed one window's agreement; returns the side of the band once
    /// `scale_streak` consecutive out-of-band samples have landed past
    /// the cooldown.
    fn observe(
        &mut self,
        cfg: &ControllerConfig,
        t_ns: u64,
        agreement: Option<f32>,
    ) -> Option<Band> {
        let cooldown_ns = u64::try_from(cfg.cooldown.as_nanos()).unwrap_or(u64::MAX);
        let cooled = self
            .last_change_ns
            .is_none_or(|t0| t_ns.saturating_sub(t0) >= cooldown_ns);
        match agreement {
            Some(a) if cooled && a < cfg.agreement_low => {
                self.low_streak += 1;
                self.high_streak = 0;
            }
            Some(a) if cooled && a > cfg.agreement_high => {
                self.high_streak += 1;
                self.low_streak = 0;
            }
            // No completions (no evidence), a sample inside the cooldown
            // (the previous change's effect is still arriving, so the
            // evidence is stale) or one inside the dead band (the whole
            // point of hysteresis): the streak rebuilds from zero.
            _ => {
                self.low_streak = 0;
                self.high_streak = 0;
                return None;
            }
        }
        if self.low_streak >= cfg.scale_streak {
            Some(Band::Low)
        } else if self.high_streak >= cfg.scale_streak {
            Some(Band::High)
        } else {
            None
        }
    }

    /// Record a change made at `t_ns`: streaks reset, the cooldown starts.
    fn changed(&mut self, t_ns: u64) {
        self.low_streak = 0;
        self.high_streak = 0;
        self.last_change_ns = Some(t_ns);
    }
}

impl Controller {
    /// A controller enforcing `cfg`, with fusion width bounded by
    /// `kernel_batch_max` (clamped to ≥ 1).
    pub fn new(cfg: ControllerConfig, kernel_batch_max: usize) -> Self {
        Self {
            cfg,
            kernel_batch_max: kernel_batch_max.max(1),
            replicas: Hysteresis::default(),
            spf: Hysteresis::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Consume one sample, emit zero or more actions. Pure: no clocks, no
    /// I/O — everything observed arrives in `sample`.
    pub fn observe(&mut self, sample: &ControlSample) -> Vec<ControlAction> {
        let mut actions = Vec::new();
        self.observe_queue(sample, &mut actions);
        self.observe_agreement(sample, &mut actions);
        self.observe_spf(sample, &mut actions);
        actions
    }

    /// kernel_batch ∈ [1, max] follows queue fill multiplicatively.
    fn observe_queue(&self, sample: &ControlSample, actions: &mut Vec<ControlAction>) {
        let fill = sample.queue_depth as f64 / sample.queue_capacity.max(1) as f64;
        let current = sample.kernel_batch.max(1);
        if fill >= self.cfg.queue_high && current < self.kernel_batch_max {
            actions.push(ControlAction::SetKernelBatch(
                (current * 2).min(self.kernel_batch_max),
            ));
        } else if fill <= self.cfg.queue_low && current > 1 {
            actions.push(ControlAction::SetKernelBatch(current / 2));
        }
    }

    /// Replicas ∈ [min, max] follow agreement with dead band, streak, and
    /// cooldown hysteresis.
    fn observe_agreement(&mut self, sample: &ControlSample, actions: &mut Vec<ControlAction>) {
        let next = match self.replicas.observe(&self.cfg, sample.t_ns, sample.mean_agreement) {
            Some(Band::Low) if sample.replicas < self.cfg.max_replicas => sample.replicas + 1,
            Some(Band::High) if sample.replicas > self.cfg.min_replicas => sample.replicas - 1,
            _ => return,
        };
        actions.push(ControlAction::SetReplicas(next));
        self.replicas.changed(sample.t_ns);
    }

    /// The default set's spf ∈ [spf_min, spf_max] follows that set's
    /// windowed agreement with the same dead band, streak, and cooldown
    /// hysteresis the replica actuator uses, on its own state. Direction:
    /// saturated agreement means the stochastic vote converged with
    /// samples to spare, so spf *halves* (throughput, the paper's
    /// performance axis); poor agreement means under-sampling, so spf
    /// *doubles*.
    fn observe_spf(&mut self, sample: &ControlSample, actions: &mut Vec<ControlAction>) {
        let Some(range) = self.cfg.spf_range else {
            return;
        };
        let current = sample.spf.max(1);
        let next = match self.spf.observe(&self.cfg, sample.t_ns, sample.spf_agreement) {
            Some(Band::High) if current > range.spf_min => (current / 2).max(range.spf_min),
            Some(Band::Low) if current < range.spf_max => (current * 2).min(range.spf_max),
            _ => return,
        };
        actions.push(ControlAction::SetSpf(next));
        self.spf.changed(sample.t_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_telemetry::{Clock, ManualClock};

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            sample_interval: Duration::from_millis(10),
            queue_high: 0.5,
            queue_low: 0.125,
            agreement_low: 0.8,
            agreement_high: 0.95,
            min_replicas: 1,
            max_replicas: 4,
            scale_streak: 3,
            cooldown: Duration::from_millis(100),
            spf_range: None,
        }
    }

    /// Drive one scripted sample: advance the clock by one interval, then
    /// observe the given load.
    fn step(
        ctl: &mut Controller,
        clock: &ManualClock,
        depth: usize,
        kb: usize,
        replicas: usize,
        agreement: Option<f32>,
    ) -> Vec<ControlAction> {
        clock.advance(ctl.config().sample_interval);
        ctl.observe(&ControlSample {
            t_ns: clock.now_ns(),
            queue_depth: depth,
            queue_capacity: 64,
            kernel_batch: kb,
            replicas,
            mean_agreement: agreement,
            spf: 8,
            spf_agreement: agreement,
        })
    }

    /// Drive one scripted sample against the spf actuator only: mid-band
    /// queue fill and replica agreement so the other two axes stay quiet.
    fn step_spf(
        ctl: &mut Controller,
        clock: &ManualClock,
        spf: usize,
        spf_agreement: Option<f32>,
    ) -> Vec<ControlAction> {
        clock.advance(ctl.config().sample_interval);
        ctl.observe(&ControlSample {
            t_ns: clock.now_ns(),
            queue_depth: 16,
            queue_capacity: 64,
            kernel_batch: 4,
            replicas: 2,
            mean_agreement: Some(0.9),
            spf,
            spf_agreement,
        })
    }

    #[test]
    fn kernel_batch_rises_with_queue_depth_and_falls_when_idle() {
        let clock = ManualClock::new();
        let mut ctl = Controller::new(cfg(), 16);
        // Saturated queue: 1 → 2 → 4 → 8 → 16, then pinned at the max.
        let mut kb = 1;
        let mut widths = vec![kb];
        for _ in 0..6 {
            match step(&mut ctl, &clock, 64, kb, 1, Some(0.9)).first() {
                Some(&ControlAction::SetKernelBatch(next)) => kb = next,
                Some(other) => panic!("unexpected {other:?}"),
                None => {}
            }
            widths.push(kb);
        }
        assert_eq!(widths, vec![1, 2, 4, 8, 16, 16, 16]);
        // Queue drains: multiplicative decrease back to 1.
        let mut widths = vec![kb];
        for _ in 0..5 {
            match step(&mut ctl, &clock, 0, kb, 1, Some(0.9)).first() {
                Some(&ControlAction::SetKernelBatch(next)) => kb = next,
                Some(other) => panic!("unexpected {other:?}"),
                None => {}
            }
            widths.push(kb);
        }
        assert_eq!(widths, vec![16, 8, 4, 2, 1, 1]);
    }

    #[test]
    fn mid_band_queue_fill_leaves_kernel_batch_alone() {
        let clock = ManualClock::new();
        let mut ctl = Controller::new(cfg(), 16);
        // 16/64 = 0.25 sits between the 0.125 and 0.5 watermarks.
        for _ in 0..10 {
            assert_eq!(step(&mut ctl, &clock, 16, 4, 1, Some(0.9)), vec![]);
        }
    }

    #[test]
    fn low_agreement_scales_replicas_up_after_streak() {
        let clock = ManualClock::new();
        let mut ctl = Controller::new(cfg(), 8);
        // Two low samples: not yet (streak is 3).
        assert_eq!(step(&mut ctl, &clock, 16, 4, 2, Some(0.5)), vec![]);
        assert_eq!(step(&mut ctl, &clock, 16, 4, 2, Some(0.5)), vec![]);
        // Third consecutive low sample trips the scale-up.
        assert_eq!(
            step(&mut ctl, &clock, 16, 4, 2, Some(0.5)),
            vec![ControlAction::SetReplicas(3)]
        );
        // Immediately after: cooldown holds even if agreement stays low.
        for _ in 0..5 {
            assert_eq!(step(&mut ctl, &clock, 16, 4, 3, Some(0.5)), vec![]);
        }
        // Past the cooldown the streak must rebuild from zero, then fires.
        clock.advance(Duration::from_millis(100));
        assert_eq!(step(&mut ctl, &clock, 16, 4, 3, Some(0.5)), vec![]);
        assert_eq!(step(&mut ctl, &clock, 16, 4, 3, Some(0.5)), vec![]);
        assert_eq!(
            step(&mut ctl, &clock, 16, 4, 3, Some(0.5)),
            vec![ControlAction::SetReplicas(4)]
        );
        // At max_replicas, low agreement can no longer scale up.
        clock.advance(Duration::from_millis(100));
        for _ in 0..6 {
            assert_eq!(step(&mut ctl, &clock, 16, 4, 4, Some(0.5)), vec![]);
        }
    }

    #[test]
    fn unanimous_agreement_scales_replicas_down_with_hysteresis() {
        let clock = ManualClock::new();
        let mut ctl = Controller::new(cfg(), 8);
        assert_eq!(step(&mut ctl, &clock, 16, 4, 3, Some(1.0)), vec![]);
        assert_eq!(step(&mut ctl, &clock, 16, 4, 3, Some(1.0)), vec![]);
        assert_eq!(
            step(&mut ctl, &clock, 16, 4, 3, Some(1.0)),
            vec![ControlAction::SetReplicas(2)]
        );
        // min_replicas is a floor.
        clock.advance(Duration::from_millis(100));
        for _ in 0..3 {
            step(&mut ctl, &clock, 16, 4, 1, Some(1.0));
        }
        clock.advance(Duration::from_millis(100));
        for _ in 0..6 {
            assert_eq!(step(&mut ctl, &clock, 16, 4, 1, Some(1.0)), vec![]);
        }
    }

    #[test]
    fn dead_band_and_gaps_reset_the_streak() {
        let clock = ManualClock::new();
        let mut ctl = Controller::new(cfg(), 8);
        // low, low, in-band, low, low, low → fires only after the post-gap
        // streak completes: hysteresis, not a leaky counter.
        assert_eq!(step(&mut ctl, &clock, 16, 4, 2, Some(0.5)), vec![]);
        assert_eq!(step(&mut ctl, &clock, 16, 4, 2, Some(0.5)), vec![]);
        assert_eq!(step(&mut ctl, &clock, 16, 4, 2, Some(0.9)), vec![], "dead band resets");
        assert_eq!(step(&mut ctl, &clock, 16, 4, 2, Some(0.5)), vec![]);
        assert_eq!(step(&mut ctl, &clock, 16, 4, 2, Some(0.5)), vec![]);
        assert_eq!(
            step(&mut ctl, &clock, 16, 4, 2, Some(0.5)),
            vec![ControlAction::SetReplicas(3)]
        );
        // An idle window (no completions) also resets: no stale momentum.
        clock.advance(Duration::from_millis(100));
        assert_eq!(step(&mut ctl, &clock, 16, 4, 3, Some(0.5)), vec![]);
        assert_eq!(step(&mut ctl, &clock, 16, 4, 3, Some(0.5)), vec![]);
        assert_eq!(step(&mut ctl, &clock, 16, 4, 3, None), vec![], "idle resets");
        assert_eq!(step(&mut ctl, &clock, 16, 4, 3, Some(0.5)), vec![]);
    }

    #[test]
    fn identical_schedules_yield_identical_decisions() {
        // Determinism: replay the same scripted load twice.
        let run = || {
            let clock = ManualClock::new();
            let mut ctl = Controller::new(cfg(), 32);
            let mut log = Vec::new();
            let mut kb = 1;
            let mut replicas = 1;
            for i in 0..50u64 {
                let depth = if i % 7 < 4 { 60 } else { 2 };
                let agreement = if i < 25 { Some(0.5) } else { Some(1.0) };
                for action in step(&mut ctl, &clock, depth, kb, replicas, agreement) {
                    match action {
                        ControlAction::SetKernelBatch(v) => kb = v,
                        ControlAction::SetReplicas(v) => replicas = v,
                        ControlAction::SetSpf(_) => unreachable!("no spf range configured"),
                    }
                    log.push((i, action));
                }
            }
            (log, kb, replicas)
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.0.is_empty(), "the schedule must exercise both axes");
    }

    #[test]
    fn spf_adapts_with_hysteresis_and_bounds() {
        let clock = ManualClock::new();
        let mut c = cfg();
        c.spf_range = Some(SpfRange::new(4, 16));
        let mut ctl = Controller::new(c, 8);

        // Saturated agreement: after the 3-sample streak spf halves
        // 16 → 8.
        assert_eq!(step_spf(&mut ctl, &clock, 16, Some(1.0)), vec![]);
        assert_eq!(step_spf(&mut ctl, &clock, 16, Some(1.0)), vec![]);
        assert_eq!(
            step_spf(&mut ctl, &clock, 16, Some(1.0)),
            vec![ControlAction::SetSpf(8)]
        );
        // Cooldown: continued saturation does nothing until it elapses.
        for _ in 0..5 {
            assert_eq!(step_spf(&mut ctl, &clock, 8, Some(1.0)), vec![]);
        }
        // Past cooldown the streak rebuilds, then 8 → 4 lands on the
        // floor; further saturation can never go below spf_min.
        clock.advance(Duration::from_millis(100));
        for _ in 0..2 {
            assert_eq!(step_spf(&mut ctl, &clock, 8, Some(1.0)), vec![]);
        }
        assert_eq!(
            step_spf(&mut ctl, &clock, 8, Some(1.0)),
            vec![ControlAction::SetSpf(4)]
        );
        clock.advance(Duration::from_millis(100));
        for _ in 0..6 {
            assert_eq!(step_spf(&mut ctl, &clock, 4, Some(1.0)), vec![], "spf_min is a floor");
        }

        // Poor agreement doubles spf back toward (and never past) spf_max.
        for _ in 0..2 {
            assert_eq!(step_spf(&mut ctl, &clock, 4, Some(0.3)), vec![]);
        }
        assert_eq!(
            step_spf(&mut ctl, &clock, 4, Some(0.3)),
            vec![ControlAction::SetSpf(8)]
        );
        clock.advance(Duration::from_millis(100));
        for _ in 0..2 {
            assert_eq!(step_spf(&mut ctl, &clock, 8, Some(0.3)), vec![]);
        }
        assert_eq!(
            step_spf(&mut ctl, &clock, 8, Some(0.3)),
            vec![ControlAction::SetSpf(16)]
        );
        clock.advance(Duration::from_millis(100));
        for _ in 0..6 {
            assert_eq!(step_spf(&mut ctl, &clock, 16, Some(0.3)), vec![], "spf_max is a ceiling");
        }

        // Without a range the spf actuator is off whatever the evidence.
        let mut fixed = Controller::new(cfg(), 8);
        for agreement in [Some(1.0), Some(0.3)] {
            for _ in 0..6 {
                assert_eq!(step_spf(&mut fixed, &clock, 16, agreement), vec![]);
            }
        }
    }

    #[test]
    fn spf_streaks_reset_on_gaps_and_dead_band() {
        let clock = ManualClock::new();
        let mut c = cfg();
        c.spf_range = Some(SpfRange::new(2, 32));
        let mut ctl = Controller::new(c, 8);
        // high, high, gap (the default set served nothing), high, high,
        // high → only the post-gap streak fires.
        assert_eq!(step_spf(&mut ctl, &clock, 32, Some(1.0)), vec![]);
        assert_eq!(step_spf(&mut ctl, &clock, 32, Some(1.0)), vec![]);
        assert_eq!(step_spf(&mut ctl, &clock, 32, None), vec![], "gap resets");
        assert_eq!(step_spf(&mut ctl, &clock, 32, Some(1.0)), vec![]);
        assert_eq!(step_spf(&mut ctl, &clock, 32, Some(1.0)), vec![]);
        assert_eq!(
            step_spf(&mut ctl, &clock, 32, Some(1.0)),
            vec![ControlAction::SetSpf(16)]
        );
        // Dead-band samples also reset the streak.
        clock.advance(Duration::from_millis(100));
        assert_eq!(step_spf(&mut ctl, &clock, 16, Some(1.0)), vec![]);
        assert_eq!(step_spf(&mut ctl, &clock, 16, Some(1.0)), vec![]);
        assert_eq!(step_spf(&mut ctl, &clock, 16, Some(0.9)), vec![], "dead band resets");
        assert_eq!(step_spf(&mut ctl, &clock, 16, Some(1.0)), vec![]);
    }

    #[test]
    fn validation_rejects_inverted_bands() {
        let check = |mutate: fn(&mut ControllerConfig)| {
            let mut c = cfg();
            mutate(&mut c);
            c.validate().unwrap_err()
        };
        assert!(matches!(
            check(|c| c.queue_low = 0.9),
            ServeError::BadConfig(msg) if msg.contains("queue")
        ));
        assert!(matches!(
            check(|c| c.agreement_high = 0.1),
            ServeError::BadConfig(msg) if msg.contains("agreement")
        ));
        assert!(matches!(
            check(|c| c.min_replicas = 0),
            ServeError::BadConfig(msg) if msg.contains("min_replicas")
        ));
        assert!(matches!(
            check(|c| { c.min_replicas = 5; c.max_replicas = 2; }),
            ServeError::BadConfig(msg) if msg.contains("max_replicas")
        ));
        assert!(matches!(
            check(|c| c.scale_streak = 0),
            ServeError::BadConfig(msg) if msg.contains("scale_streak")
        ));
        assert!(matches!(
            check(|c| c.sample_interval = Duration::ZERO),
            ServeError::BadConfig(msg) if msg.contains("sample_interval")
        ));
        assert!(matches!(
            check(|c| c.spf_range = Some(SpfRange::new(0, 8))),
            ServeError::BadConfig(msg) if msg.contains("spf_min")
        ));
        assert!(matches!(
            check(|c| c.spf_range = Some(SpfRange::new(16, 8))),
            ServeError::BadConfig(msg) if msg.contains("spf_max")
        ));
        cfg().validate().expect("the test config itself is valid");
    }
}
