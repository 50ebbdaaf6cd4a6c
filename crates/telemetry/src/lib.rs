//! `tn-telemetry` — the observability substrate of the serving stack.
//!
//! This crate is deliberately dependency-free and knows nothing about
//! chips or queues; it provides the primitives every layer above it
//! (the `tn-serve` runtime, the chip counter hooks, benches) reports
//! through:
//!
//! * **Clocks** ([`Clock`], [`MonotonicClock`], [`ManualClock`]) — time as
//!   plain nanosecond counters. Control math and span arithmetic consume
//!   `u64` nanoseconds, never `std::time::Instant`, so adaptive decisions
//!   are testable with a scripted clock and deterministic by construction.
//! * **Spans** ([`SpanRecorder`], [`Stage`]) — per-stage latency breakdown
//!   of the serving pipeline (`enqueue → drain → kernel → vote`) folded
//!   into lifetime per-stage aggregates.
//! * **Snapshots** ([`Snapshot`]) — a periodic export of monotonic
//!   counters, gauges, and stage statistics, with a line-delimited JSON
//!   wire format (`tn-telemetry/1`) and a strict parser/validator.
//! * **Sinks** ([`MetricsSink`], [`NullSink`], [`MemorySink`],
//!   [`JsonLinesSink`], [`LatestSink`]) — pluggable egress; producers
//!   assemble snapshots, sinks decide where they go. [`LatestSink`]
//!   additionally hands the most recent snapshot back to synchronous
//!   readers (a live snapshot endpoint), optionally tee-ing to an inner
//!   sink.
//! * **Latency histograms** ([`LatencyHistogram`]) — the one quantile
//!   type of the stack: lock-free log-linear buckets with ≤ 1/16 error,
//!   recorded by the serve runtime and the fleet router alike.
//! * **Staleness** ([`FreshnessTracker`]) — the consumer side of using a
//!   snapshot stream as a heartbeat: lock-free last-arrival tracking and
//!   an age budget, judged on a consumer-stamped clock (the fleet router
//!   marks a shard unhealthy when its snapshots go stale).
//!
//! # Example
//!
//! ```
//! use tn_telemetry::{
//!     emit, Clock, ManualClock, MemorySink, Snapshot, SpanRecorder, Stage,
//! };
//!
//! let clock = ManualClock::new();
//! let spans = SpanRecorder::new();
//!
//! // ... the serving hot path records spans as work happens ...
//! let t0 = clock.now_ns();
//! clock.advance_ns(42_000); // (the real path does real work here)
//! spans.record(Stage::Kernel, clock.now_ns() - t0);
//!
//! // ... and an observer periodically exports a snapshot ...
//! let mut snap = Snapshot::new(0, clock.now_ns());
//! snap.counter("serve.completed", 1)
//!     .gauge("serve.queue_depth", 0.0);
//! for (stage, stats) in Stage::ALL.iter().zip(spans.stage_stats()) {
//!     snap.stage(*stage, stats);
//! }
//! let sink = MemorySink::new();
//! emit(&sink, &snap);
//!
//! let line = snap.to_json_line();
//! assert_eq!(Snapshot::parse_json_line(&line).unwrap(), snap);
//! assert_eq!(sink.last_counter("serve.completed"), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod histogram;
pub mod json;
mod sink;
mod snapshot;
mod span;
mod staleness;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use histogram::LatencyHistogram;
pub use sink::{emit, JsonLinesSink, LatestSink, MemorySink, MetricsSink, NullSink};
pub use snapshot::{Snapshot, SnapshotError, SCHEMA};
pub use span::{SpanRecorder, Stage, StageStats};
pub use staleness::FreshnessTracker;
