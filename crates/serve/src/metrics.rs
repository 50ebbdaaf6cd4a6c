//! Lock-free runtime statistics.
//!
//! Counters are plain relaxed atomics (they feed monitoring, not control
//! flow). Latency quantiles come from [`LatencyHistogram`] (≤ 1/16
//! quantile error, zero allocation and no locks on the hot path).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tn_chip::energy::EnergyReport;
use tn_chip::nscs::ChipCounterExport;
use tn_telemetry::LatencyHistogram;

/// Fixed-point scale for accumulating agreement fractions in an atomic.
const AGREEMENT_SCALE: f64 = 1e6;

/// A `[0, 1]` fraction in fixed point ×[`AGREEMENT_SCALE`].
fn agreement_micros(fraction: f32) -> u64 {
    (f64::from(fraction.clamp(0.0, 1.0)) * AGREEMENT_SCALE) as u64
}

/// Lifetime `(submitted, completed, ticks, agreement_sum×SCALE)` of one
/// tenant row, or summed over every row.
pub(crate) type RequestTotals = (u64, u64, u64, u64);

/// Shared mutable counters updated by workers and submitters.
#[derive(Debug)]
pub(crate) struct Metrics {
    pub rejected: AtomicU64,
    pub batches: AtomicU64,
    pub kernel_batches: AtomicU64,
    /// Chip hardware counters folded from worker deployments, one slot
    /// per [`ChipCounterExport`] counter in its `for_each` order.
    chip: [AtomicU64; ChipCounterExport::COUNTERS],
    /// `[passes, agreement ×AGREEMENT_SCALE]` over every pass the
    /// default deployment set served — the spf actuator's evidence,
    /// windowed by the observer exactly like [`Metrics::agreement_progress`].
    spf_agreement: [AtomicU64; 2],
    /// Per tenant model: `[submitted, completed, ticks,
    /// agreement ×AGREEMENT_SCALE]` — one row per packed tenant (a single
    /// row on solo runtimes), exported as `serve.model.{m}.*`. The only
    /// request counters: every total is the sum of these rows.
    per_model: Vec<[AtomicU64; 4]>,
    /// Per quality tier: `[submitted, completed, escalated, ticks,
    /// confidence ×AGREEMENT_SCALE]` — one row per configured tier
    /// (empty on tier-less runtimes), exported as `serve.tier.{t}.*`.
    /// Completions count against the *requested* tier, so `escalated <=
    /// completed` per row and tier completions sum to at most the model
    /// rows' total (tier-less traffic makes up the difference).
    per_tier: Vec<[AtomicU64; 5]>,
    /// Request latencies.
    latency: LatencyHistogram,
    /// Frames served per worker thread.
    per_worker_frames: Vec<AtomicU64>,
    /// Chip ticks executed per worker thread.
    per_worker_ticks: Vec<AtomicU64>,
}

impl Metrics {
    pub(crate) fn new(workers: usize, models: usize, tiers: usize) -> Self {
        Self {
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            kernel_batches: AtomicU64::new(0),
            chip: std::array::from_fn(|_| AtomicU64::new(0)),
            spf_agreement: [AtomicU64::new(0), AtomicU64::new(0)],
            per_model: (0..models.max(1))
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            per_tier: (0..tiers)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            latency: LatencyHistogram::new(),
            per_worker_frames: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            per_worker_ticks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn record_completion(
        &self,
        worker: usize,
        model: usize,
        ticks: u64,
        latency: Duration,
        agreement: f32,
    ) {
        self.per_worker_frames[worker].fetch_add(1, Ordering::Relaxed);
        self.per_worker_ticks[worker].fetch_add(ticks, Ordering::Relaxed);
        if let Some(row) = self.per_model.get(model) {
            row[3].fetch_add(agreement_micros(agreement), Ordering::Release);
            row[2].fetch_add(ticks, Ordering::Release);
            row[1].fetch_add(1, Ordering::Release);
        }
        self.latency.record(latency);
    }

    /// Count one pass served on the default deployment set toward the
    /// spf actuator's agreement window.
    pub(crate) fn record_spf_agreement(&self, agreement: f32) {
        self.spf_agreement[0].fetch_add(1, Ordering::Relaxed);
        self.spf_agreement[1].fetch_add(agreement_micros(agreement), Ordering::Relaxed);
    }

    /// Count one accepted submission against tenant `model`, then
    /// against quality tier `tier`. The runtime calls this before a worker
    /// can pop the request, so its completion is always counted after its
    /// submission.
    pub(crate) fn record_submit(&self, model: usize, tier: Option<usize>) {
        if let Some(row) = self.per_model.get(model) {
            row[0].fetch_add(1, Ordering::Release);
        }
        if let Some(row) = tier.and_then(|t| self.per_tier.get(t)) {
            row[0].fetch_add(1, Ordering::Release);
        }
    }

    /// Count one completion against the *requested* quality tier.
    pub(crate) fn record_tier_completion(
        &self,
        tier: usize,
        escalated: bool,
        ticks: u64,
        confidence: f32,
    ) {
        if let Some(row) = self.per_tier.get(tier) {
            row[4].fetch_add(agreement_micros(confidence), Ordering::Release);
            row[3].fetch_add(ticks, Ordering::Release);
            row[1].fetch_add(1, Ordering::Release);
            row[2].fetch_add(u64::from(escalated), Ordering::Release);
        }
    }

    /// Number of quality tiers tracked (0 on tier-less runtimes).
    pub(crate) fn n_tiers(&self) -> usize {
        self.per_tier.len()
    }

    /// Lifetime `(submitted, completed, escalated, ticks,
    /// confidence_sum×SCALE)` for one quality tier.
    ///
    /// Fields are read in the reverse of the order they are written, with
    /// acquire loads pairing the release increments, so the values read
    /// keep `escalated <= completed <= submitted`.
    pub(crate) fn tier_progress(&self, tier: usize) -> (u64, u64, u64, u64, u64) {
        self.per_tier.get(tier).map_or((0, 0, 0, 0, 0), |row| {
            let escalated = row[2].load(Ordering::Acquire);
            let completed = row[1].load(Ordering::Acquire);
            let ticks = row[3].load(Ordering::Acquire);
            let confidence = row[4].load(Ordering::Acquire);
            let submitted = row[0].load(Ordering::Acquire);
            (submitted, completed, escalated, ticks, confidence)
        })
    }

    /// Number of tenant models tracked (1 on solo runtimes).
    pub(crate) fn n_models(&self) -> usize {
        self.per_model.len()
    }

    /// Lifetime `(submitted, completed, ticks, agreement_sum×SCALE)` for
    /// one tenant model, read like [`Metrics::tier_progress`] so that
    /// `completed <= submitted`.
    pub(crate) fn model_progress(&self, model: usize) -> RequestTotals {
        self.per_model.get(model).map_or((0, 0, 0, 0), |row| {
            let completed = row[1].load(Ordering::Acquire);
            let ticks = row[2].load(Ordering::Acquire);
            let agreement = row[3].load(Ordering::Acquire);
            let submitted = row[0].load(Ordering::Acquire);
            (submitted, completed, ticks, agreement)
        })
    }

    /// Tenant rows summed: the runtime's request totals.
    pub(crate) fn sum_rows(rows: impl IntoIterator<Item = RequestTotals>) -> RequestTotals {
        rows.into_iter().fold((0, 0, 0, 0), |(s, c, t, a), row| {
            (s + row.0, c + row.1, t + row.2, a + row.3)
        })
    }

    /// The request totals: one read of every tenant row, summed.
    pub(crate) fn totals(&self) -> RequestTotals {
        Self::sum_rows((0..self.n_models()).map(|m| self.model_progress(m)))
    }

    /// Lifetime `(passes, agreement_sum/SCALE)` pair of the default
    /// deployment set (see [`Metrics::agreement_progress`]).
    pub(crate) fn spf_agreement_progress(&self) -> (u64, u64) {
        (
            self.spf_agreement[0].load(Ordering::Relaxed),
            self.spf_agreement[1].load(Ordering::Relaxed),
        )
    }

    /// Fold a worker deployment's hardware-counter delta into the global
    /// totals.
    pub(crate) fn fold_chip(&self, delta: &ChipCounterExport) {
        let mut slots = self.chip.iter();
        delta.for_each(|_, v| {
            if let Some(slot) = slots.next() {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        });
    }

    /// Current chip hardware-counter totals across all workers.
    pub(crate) fn chip_export(&self) -> ChipCounterExport {
        let mut slots = self.chip.iter();
        ChipCounterExport::from_fn(|_| slots.next().map_or(0, |s| s.load(Ordering::Relaxed)))
    }

    /// Lifetime `(completed, agreement_sum/SCALE)` pair — the observer
    /// diffs successive reads to get per-window means.
    pub(crate) fn agreement_progress(&self) -> (u64, u64) {
        let (_, completed, _, agreement) = self.totals();
        (completed, agreement)
    }

    /// Mean agreement over a window delimited by two
    /// [`Metrics::agreement_progress`] reads, `None` if nothing completed
    /// in the window.
    pub(crate) fn window_agreement(prev: (u64, u64), now: (u64, u64)) -> Option<f32> {
        let frames = now.0.saturating_sub(prev.0);
        if frames == 0 {
            return None;
        }
        let sum = now.1.saturating_sub(prev.1) as f64 / AGREEMENT_SCALE;
        Some((sum / frames as f64) as f32)
    }

    /// [`MetricsSnapshot::joules_per_frame`] of a snapshot taken now,
    /// without taking one.
    pub(crate) fn joules_per_frame(&self, cores: usize) -> f64 {
        let (_, completed, ticks, _) = self.totals();
        let synaptic_ops = self.chip_export().synaptic_ops;
        joules_per_frame(&EnergyReport::from_counters(synaptic_ops, ticks, cores), completed)
    }

    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        elapsed: Duration,
        cores: usize,
    ) -> MetricsSnapshot {
        let (submitted, completed, ticks, agreement_micros) = self.totals();
        let chip = self.chip_export();
        let [p50_latency, p90_latency, p99_latency] = self.latency.quantiles([0.50, 0.90, 0.99]);
        MetricsSnapshot {
            submitted,
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_depth,
            batches: self.batches.load(Ordering::Relaxed),
            kernel_batches: self.kernel_batches.load(Ordering::Relaxed),
            ticks,
            per_worker_frames: self
                .per_worker_frames
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            per_worker_ticks: self
                .per_worker_ticks
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            p50_latency,
            p90_latency,
            p99_latency,
            mean_latency: self.latency.mean(),
            elapsed,
            throughput_rps: if elapsed.as_secs_f64() > 0.0 {
                completed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            mean_agreement: Self::window_agreement((0, 0), (completed, agreement_micros))
                .unwrap_or(0.0),
            energy: EnergyReport::from_counters(chip.synaptic_ops, ticks, cores),
            chip,
        }
    }
}

/// Model-estimated chip energy per served frame, in joules: `energy`
/// spread over `completed` frames (0 before the first). The one formula
/// behind [`MetricsSnapshot::joules_per_frame`] and every backend's
/// [`crate::ServeBackend::joules_per_frame`].
pub fn joules_per_frame(energy: &EnergyReport, completed: u64) -> f64 {
    if completed == 0 {
        0.0
    } else {
        energy.total_joules() / completed as f64
    }
}

/// A live admission-control gauge: how loaded the runtime is *right now*.
///
/// Unlike [`MetricsSnapshot`] (a full histogram walk meant for periodic
/// reporting), this is three atomic loads — cheap enough for a network
/// front-end to read on every admission decision. Previously queue depth
/// was only visible inside telemetry snapshot exports; the gateway needs
/// it synchronously to shed load and compute `Retry-After` hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests sitting in the submission queue, not yet drained.
    pub depth: usize,
    /// Configured queue capacity ([`crate::ServeConfig::queue_capacity`]).
    pub capacity: usize,
    /// Requests accepted but not yet completed (queued + being served).
    pub in_flight: u64,
}

impl QueueStats {
    /// Queue fill fraction in `[0, 1]`.
    pub fn fill(&self) -> f64 {
        self.depth as f64 / self.capacity.max(1) as f64
    }
}

/// A point-in-time view of the runtime's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Requests refused by [`crate::Backpressure::Reject`].
    pub rejected: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Micro-batches drained by workers.
    pub batches: u64,
    /// Kernel-level lockstep lane batches executed
    /// ([`crate::ServeConfig::kernel_batch`] slices of drained
    /// micro-batches, each served by one
    /// `tn_chip::pack::PackedDeployment::run_frames` call).
    pub kernel_batches: u64,
    /// Total chip ticks across all workers.
    pub ticks: u64,
    /// Frames served per worker thread.
    pub per_worker_frames: Vec<u64>,
    /// Chip ticks executed per worker thread.
    pub per_worker_ticks: Vec<u64>,
    /// Median request latency (bucketed; ≤ 1/16 resolution).
    pub p50_latency: Duration,
    /// 90th-percentile request latency (bucketed; ≤ 1/16 resolution).
    pub p90_latency: Duration,
    /// 99th-percentile request latency (bucketed; ≤ 1/16 resolution).
    pub p99_latency: Duration,
    /// Mean request latency (exact).
    pub mean_latency: Duration,
    /// Wall-clock time since the runtime started.
    pub elapsed: Duration,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Mean replica vote agreement over every completed request (0 when
    /// nothing completed). 1.0 = unanimous replicas; the paper's
    /// duplication axis is buying nothing once this saturates.
    pub mean_agreement: f32,
    /// TrueNorth energy model applied to the served workload
    /// (synaptic-op and tick counters aggregated across workers).
    pub energy: EnergyReport,
    /// Chip hardware counters aggregated across all worker deployments.
    pub chip: ChipCounterExport,
}

impl MetricsSnapshot {
    /// Model-estimated chip energy per served frame, in joules.
    pub fn joules_per_frame(&self) -> f64 {
        joules_per_frame(&self.energy, self.completed)
    }

    /// Mean micro-batch size (requests per queue drain).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Mean kernel-batch size (frames fused per lockstep kernel run).
    pub fn mean_kernel_batch_size(&self) -> f64 {
        if self.kernel_batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.kernel_batches as f64
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "served {}/{} requests ({} rejected) in {:.2?}  —  {:.1} req/s",
            self.completed, self.submitted, self.rejected, self.elapsed, self.throughput_rps
        )?;
        writeln!(
            f,
            "latency p50 {:?}  p90 {:?}  p99 {:?}  mean {:?}  |  queue depth {}  mean batch {:.2}",
            self.p50_latency,
            self.p90_latency,
            self.p99_latency,
            self.mean_latency,
            self.queue_depth,
            self.mean_batch_size()
        )?;
        writeln!(
            f,
            "kernel batches {}  mean lanes/batch {:.2}",
            self.kernel_batches,
            self.mean_kernel_batch_size()
        )?;
        writeln!(
            f,
            "chip ticks {}  per-worker frames {:?}  mean agreement {:.3}  energy/frame {:.3e} J",
            self.ticks,
            self.per_worker_frames,
            self.mean_agreement,
            self.joules_per_frame()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_recorded_latencies() {
        let m = Metrics::new(2, 1, 0);
        for _ in 0..99 {
            m.record_completion(0, 0, 8, Duration::from_micros(100), 1.0);
        }
        m.record_completion(1, 0, 8, Duration::from_millis(50), 0.5);
        let snap = m.snapshot(0, Duration::from_secs(1), 4);
        assert_eq!(snap.completed, 100);
        assert_eq!(snap.ticks, 800);
        assert_eq!(snap.per_worker_frames, vec![99, 1]);
        // p50/p90 within 1/16 of 100 µs; p99 within 1/16 of the 50 ms
        // outlier — the quantiles must actually separate.
        assert!(snap.p50_latency > Duration::from_micros(100));
        assert!(snap.p50_latency <= Duration::from_micros(107));
        assert!(snap.p90_latency <= Duration::from_micros(107));
        assert!(snap.p99_latency > Duration::from_millis(50));
        assert!(snap.p99_latency <= Duration::from_micros(53_200));
        assert!(snap.mean_latency > Duration::from_micros(100));
        assert!((snap.throughput_rps - 100.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_separate_within_one_octave() {
        // 1.0 ms and 1.9 ms share a power of two; the old power-of-two
        // buckets reported p50 == p99 == 2.097 ms for this workload.
        let m = Metrics::new(1, 1, 0);
        for _ in 0..90 {
            m.record_completion(0, 0, 1, Duration::from_micros(1000), 1.0);
        }
        for _ in 0..10 {
            m.record_completion(0, 0, 1, Duration::from_micros(1900), 1.0);
        }
        let snap = m.snapshot(0, Duration::from_secs(1), 1);
        assert!(snap.p50_latency < snap.p99_latency, "quantiles degenerate");
        assert!(snap.p50_latency > Duration::from_micros(1000));
        assert!(snap.p50_latency <= Duration::from_micros(1067));
        assert!(snap.p99_latency > Duration::from_micros(1900));
        assert!(snap.p99_latency <= Duration::from_micros(2027));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 100 µs lands in the bucket [98 304 ns, 102 400 ns) (shift 12,
        // sub-bucket 8). With 99 samples there and rank 51/91, the
        // interpolated p50/p90 sit strictly inside the bucket instead of
        // on its 102 400 ns edge; the single 50 ms outlier is its
        // bucket's last sample, so p99 still reports that bucket's upper
        // bound (50 331 648 ns).
        let m = Metrics::new(1, 1, 0);
        for _ in 0..99 {
            m.record_completion(0, 0, 1, Duration::from_micros(100), 1.0);
        }
        m.record_completion(0, 0, 1, Duration::from_millis(50), 1.0);
        let snap = m.snapshot(0, Duration::from_secs(1), 1);
        // lower + rank/count × width = 98 304 + 51/99 × 4 096 ≈ 100 414.
        assert_eq!(snap.p50_latency, Duration::from_nanos(100_414));
        assert_eq!(snap.p90_latency, Duration::from_nanos(102_069));
        assert_eq!(snap.p99_latency, Duration::from_nanos(50_331_648));
        // Not quantized to the raw bucket edge any more.
        assert_ne!(snap.p50_latency, Duration::from_nanos(102_400));
        assert_ne!(snap.p50_latency, snap.p90_latency);
    }

    #[test]
    fn per_model_rows_split_completions() {
        let m = Metrics::new(1, 2, 0);
        assert_eq!(m.n_models(), 2);
        m.record_submit(0, None);
        m.record_submit(1, None);
        m.record_submit(1, None);
        m.record_completion(0, 0, 8, Duration::from_micros(10), 1.0);
        m.record_completion(0, 1, 16, Duration::from_micros(10), 0.5);
        m.record_completion(0, 1, 16, Duration::from_micros(10), 0.5);
        assert_eq!(m.model_progress(0), (1, 1, 8, 1_000_000));
        assert_eq!(m.model_progress(1), (2, 2, 32, 1_000_000));
        assert_eq!(m.model_progress(7), (0, 0, 0, 0), "out of range is zero");
        // The totals are the rows' sum.
        assert_eq!(m.totals(), (3, 3, 40, 2_000_000));
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let m = Metrics::new(1, 1, 0);
        let snap = m.snapshot(3, Duration::ZERO, 4);
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.p50_latency, Duration::ZERO);
        assert_eq!(snap.mean_latency, Duration::ZERO);
        assert_eq!(snap.throughput_rps, 0.0);
        assert_eq!(snap.joules_per_frame(), 0.0);
    }

    #[test]
    fn display_mentions_throughput_and_energy() {
        let m = Metrics::new(1, 1, 0);
        m.record_completion(0, 0, 8, Duration::from_micros(10), 0.75);
        let text = m.snapshot(0, Duration::from_secs(1), 4).to_string();
        assert!(text.contains("req/s"), "{text}");
        assert!(text.contains("energy/frame"), "{text}");
    }
}
