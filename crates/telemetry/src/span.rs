//! Lightweight tracing spans folded into per-stage aggregates.
//!
//! A span is one timed stage of a request's life on the serving path:
//! `enqueue → drain → kernel → vote`. Recording is one mutex-guarded
//! update of that stage's lifetime statistics — no allocation, no
//! channel, no background thread — cheap enough to call once per drained
//! batch on the serving hot path. Snapshots export the aggregates
//! ([`SpanRecorder::stage_stats`]); individual spans are not kept.

use std::sync::Mutex;

/// The instrumented stages of the serving pipeline, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Time a request spent queued: submission → picked up by a worker.
    Enqueue,
    /// A worker's `pop_batch` call: idle wait plus queue lock.
    Drain,
    /// The compiled-kernel `run_frames` call serving a lane batch.
    Kernel,
    /// Vote pooling, response assembly, and completion hand-off.
    Vote,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Enqueue, Stage::Drain, Stage::Kernel, Stage::Vote];

    /// Stable lower-case name (used as the snapshot key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Enqueue => "enqueue",
            Stage::Drain => "drain",
            Stage::Kernel => "kernel",
            Stage::Vote => "vote",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Enqueue => 0,
            Stage::Drain => 1,
            Stage::Kernel => 2,
            Stage::Vote => 3,
        }
    }
}

/// Lifetime aggregate for one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Spans recorded for this stage.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl StageStats {
    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-stage span aggregates shared across worker threads.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    /// Lifetime per-stage aggregates, indexed by [`Stage::index`].
    stats: Mutex<[StageStats; 4]>,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one span of `duration_ns` nanoseconds.
    pub fn record(&self, stage: Stage, duration_ns: u64) {
        let mut stats = self.stats.lock().expect("span stats lock");
        let s = &mut stats[stage.index()];
        s.count += 1;
        s.total_ns += duration_ns;
        s.max_ns = s.max_ns.max(duration_ns);
    }

    /// Lifetime aggregates for every stage, in [`Stage::ALL`] order.
    pub fn stage_stats(&self) -> [StageStats; 4] {
        *self.stats.lock().expect("span stats lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates_per_stage() {
        let rec = SpanRecorder::new();
        rec.record(Stage::Kernel, 100);
        rec.record(Stage::Kernel, 300);
        rec.record(Stage::Vote, 50);
        let stats = rec.stage_stats();
        let kernel = stats[2];
        assert_eq!(kernel.count, 2);
        assert_eq!(kernel.total_ns, 400);
        assert_eq!(kernel.max_ns, 300);
        assert_eq!(kernel.mean_ns(), 200);
        assert_eq!(stats[3].count, 1);
        assert_eq!(stats[0], StageStats::default());
    }

    #[test]
    fn stage_names_are_stable_and_ordered() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["enqueue", "drain", "kernel", "vote"]);
    }
}
