//! First-order energy/performance proxy model.
//!
//! The paper quotes TrueNorth at "58 giga synaptic operations per second at
//! 145 mW" (§1, citing Cassidy et al.). That fixes an active energy of
//! `145 mW / 58 GSOPS = 2.5 pJ` per synaptic operation. Together with the
//! chip's 1 kHz tick (1 ms per time step) this gives a defensible
//! first-order estimate of energy and effective throughput for any
//! simulated workload. Absolute joules are *not* a reproduction target —
//! the model exists so the benches can report relative spf/copy costs the
//! same way the paper discusses speed.

use serde::{Deserialize, Serialize};

/// Active energy per synaptic operation (joules): 145 mW / 58 GSOPS.
pub const JOULES_PER_SYNOP: f64 = 145e-3 / 58e9;

/// Nominal tick period of the chip (seconds) — TrueNorth steps at 1 kHz.
pub const TICK_SECONDS: f64 = 1e-3;

/// Fraction of the 145 mW attributable to static/idle draw, spread over the
/// full 4096-core chip (coarse split used by the proxy; the paper does not
/// decompose it).
pub const STATIC_WATTS_PER_CORE: f64 = 0.3 * 145e-3 / 4096.0;

/// Energy/latency summary for a simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Synaptic operations executed.
    pub synaptic_ops: u64,
    /// Ticks simulated.
    pub ticks: u64,
    /// Cores occupied.
    pub cores: usize,
    /// Active (dynamic) energy in joules.
    pub active_joules: f64,
    /// Static energy in joules over the simulated wall-clock.
    pub static_joules: f64,
    /// Simulated wall-clock seconds (`ticks × 1 ms`).
    pub seconds: f64,
}

impl EnergyReport {
    /// Build a report from raw counters.
    pub fn from_counters(synaptic_ops: u64, ticks: u64, cores: usize) -> Self {
        let seconds = ticks as f64 * TICK_SECONDS;
        Self {
            synaptic_ops,
            ticks,
            cores,
            active_joules: synaptic_ops as f64 * JOULES_PER_SYNOP,
            static_joules: seconds * STATIC_WATTS_PER_CORE * cores as f64,
            seconds,
        }
    }

    /// Total energy (active + static), joules.
    pub fn total_joules(&self) -> f64 {
        self.active_joules + self.static_joules
    }

    /// Mean power over the simulated interval, watts (0 for zero ticks).
    pub fn mean_watts(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.total_joules() / self.seconds
        }
    }

    /// Effective synaptic-op throughput, ops/second (0 for zero ticks).
    pub fn sops_per_second(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.synaptic_ops as f64 / self.seconds
        }
    }

    /// Classification latency per frame for a frame of `spf` ticks: the
    /// paper's "performance" axis — more spikes per frame means
    /// proportionally slower inference.
    pub fn frame_latency_seconds(spf: usize) -> f64 {
        spf as f64 * TICK_SECONDS
    }
}

/// Reports of separately powered chips as one: counters, cores, seconds
/// and joules add, so the sum's `total_joules` is the sum of theirs.
impl std::iter::Sum for EnergyReport {
    fn sum<I: Iterator<Item = Self>>(reports: I) -> Self {
        reports.fold(Self::from_counters(0, 0, 0), |a, b| Self {
            synaptic_ops: a.synaptic_ops + b.synaptic_ops,
            ticks: a.ticks + b.ticks,
            cores: a.cores + b.cores,
            active_joules: a.active_joules + b.active_joules,
            static_joules: a.static_joules + b.static_joules,
            seconds: a.seconds + b.seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_synop_energy_matches_paper_quote() {
        // 58 GSOPS at the quoted energy must dissipate the active share of
        // 145 mW.
        let watts = 58e9 * JOULES_PER_SYNOP;
        assert!((watts - 0.145).abs() < 1e-9);
    }

    #[test]
    fn report_arithmetic() {
        let r = EnergyReport::from_counters(1_000_000, 100, 4);
        assert_eq!(r.seconds, 0.1);
        assert!(r.active_joules > 0.0);
        assert!(r.static_joules > 0.0);
        assert!((r.total_joules() - (r.active_joules + r.static_joules)).abs() < 1e-18);
        assert!((r.sops_per_second() - 1e7).abs() < 1.0);
    }

    #[test]
    fn summed_reports_add_their_joules() {
        let parts = [
            EnergyReport::from_counters(1_000, 40, 3),
            EnergyReport::from_counters(500, 24, 5),
        ];
        let sum: EnergyReport = parts.iter().copied().sum();
        assert_eq!((sum.synaptic_ops, sum.ticks, sum.cores), (1_500, 64, 8));
        let total = parts[0].total_joules() + parts[1].total_joules();
        assert!((sum.total_joules() - total).abs() <= 1e-15 * total);
        // Not one chip of 8 cores running all 64 ticks.
        assert!(sum.total_joules() < EnergyReport::from_counters(1_500, 64, 8).total_joules());
    }

    #[test]
    fn zero_ticks_has_zero_rates() {
        let r = EnergyReport::from_counters(0, 0, 4);
        assert_eq!(r.mean_watts(), 0.0);
        assert_eq!(r.sops_per_second(), 0.0);
    }

    #[test]
    fn more_spf_means_more_latency() {
        assert!(EnergyReport::frame_latency_seconds(13) > EnergyReport::frame_latency_seconds(2));
        // The paper's 6.5× speedup claim: 13 spf vs 2 spf.
        let ratio =
            EnergyReport::frame_latency_seconds(13) / EnergyReport::frame_latency_seconds(2);
        assert!((ratio - 6.5).abs() < 1e-12);
    }

    #[test]
    fn full_chip_static_power_is_plausible() {
        // 4096 cores idle ≈ the assumed 30% static share of 145 mW.
        let idle = STATIC_WATTS_PER_CORE * 4096.0;
        assert!((idle - 0.0435).abs() < 1e-6);
    }
}
