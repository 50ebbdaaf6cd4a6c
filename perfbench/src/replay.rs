//! Kernel replay: re-run a run's own answered frames through standalone
//! `tn-chip` deployments built exactly as the serving runtime builds
//! them, timing `Deployment::run_frames` / `PackedDeployment::run_frames`
//! at the lane width the run formed, and reading the exactly repeating
//! hardware counters (`counter_export()`).
//!
//! The replay derives each frame's seed the way the runtime does today
//! (`splitmix64(seed ^ key·0x9E3779B9)`, keyed by the request's seq, or
//! by its per-tenant submission index on a packed runtime) and reports
//! how many replayed votes match the served ones. A mismatch is reported,
//! not failed on: it means the seeding rule moved, not that answers are
//! wrong.

use std::time::Instant;

use tn_chip::nscs::{ChipCounterExport, ConnectivityMode, Deployment, FrameInput};
use tn_chip::pack::{PackedDeployment, PackedFrame};
use tn_chip::prng::splitmix64;

use crate::load::Answer;
use crate::stack::{Trained, PACKED_PAIR, WIRE_FAST};

/// What the replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub build_ms: f64,
    pub frames: usize,
    pub frame_us: f64,
    pub counts: ChipCounterExport,
    /// Core-ticks the replayed frames could have run (denominator of the
    /// skipped-core share).
    pub core_ticks: u64,
    pub matched: usize,
}

/// One frame to replay: the test row, the variant it was sent as, and the
/// answer it got.
pub struct Frame<'a> {
    pub row: usize,
    pub variant: usize,
    pub answer: &'a Answer,
}

fn frame_seed(seed: u64, key: u64) -> u64 {
    splitmix64(seed ^ key.wrapping_mul(0x9E37_79B9))
}

fn pooled(counts: &[u64], n_classes: usize) -> Vec<u64> {
    let mut v = vec![0u64; n_classes];
    for (i, c) in counts.iter().enumerate() {
        v[i % n_classes] += c;
    }
    v
}

fn build(spec: &tn_chip::nscs::NetworkDeploySpec, replicas: usize, seed: u64) -> Deployment {
    Deployment::build_with_mode(spec, replicas, seed, ConnectivityMode::IndependentPerCopy)
        .expect("replay deployment")
}

/// Replay `frames` (the first answers a fresh stack gave, in seq order)
/// for `workload`; `lane` is the kernel fusion width the run formed.
pub fn replay(
    workload: &str,
    trained: &Trained,
    seed: u64,
    frames: &[Frame],
    lane: usize,
) -> Replay {
    let lane = lane.max(1);
    let row = |f: &Frame| trained.data.test_x.row(f.row);
    let mut out = Replay {
        frames: frames.len(),
        ..Replay::default()
    };
    let mut elapsed = 0.0;
    match workload {
        PACKED_PAIR => {
            let t = Instant::now();
            let deps: Vec<Deployment> = trained.specs.iter().map(|s| build(s, 2, seed)).collect();
            let mut packed = PackedDeployment::pack(&deps).expect("packing");
            out.build_ms = t.elapsed().as_secs_f64() * 1e3;
            // Per-tenant submission index: the packed determinism key.
            let mut next = vec![0u64; trained.specs.len()];
            let keys: Vec<u64> = frames
                .iter()
                .map(|f| {
                    next[f.variant] += 1;
                    next[f.variant] - 1
                })
                .collect();
            for (chunk, keys) in frames.chunks(lane).zip(keys.chunks(lane)) {
                let batch: Vec<PackedFrame> = chunk
                    .iter()
                    .zip(keys)
                    .map(|(f, &k)| PackedFrame {
                        model: f.variant,
                        frame: FrameInput::new(row(f), 8, frame_seed(seed, k)),
                    })
                    .collect();
                let t = Instant::now();
                let votes = packed.run_frames(&batch);
                elapsed += t.elapsed().as_secs_f64();
                for (f, v) in chunk.iter().zip(votes) {
                    out.matched +=
                        usize::from(pooled(&v.counts, f.answer.votes.len()) == f.answer.votes);
                }
            }
            out.counts = packed.counter_export();
            out.core_ticks = packed.core_count() as u64 * out.counts.ticks;
        }
        _ => {
            // (replicas, spf) per deployment: wire_fast serves r1 spf2;
            // the fleet's fast and guarded tiers share fast's r1 spf2
            // deployment, escalations and `certain` run r4 spf8.
            let points: &[(usize, usize)] = if workload == WIRE_FAST {
                &[(1, 2)]
            } else {
                &[(1, 2), (4, 8)]
            };
            let t = Instant::now();
            let mut deps: Vec<Deployment> = points
                .iter()
                .map(|&(r, _)| build(&trained.specs[0], r, seed))
                .collect();
            out.build_ms = t.elapsed().as_secs_f64() * 1e3;
            let certain = |f: &Frame| {
                usize::from(workload != WIRE_FAST && (f.variant == 2 || f.answer.escalated))
            };
            for (d, dep) in deps.iter_mut().enumerate() {
                let mine: Vec<&Frame> = frames.iter().filter(|f| certain(f) == d).collect();
                for chunk in mine.chunks(lane) {
                    let batch: Vec<FrameInput> = chunk
                        .iter()
                        .map(|f| {
                            FrameInput::new(row(f), points[d].1, frame_seed(seed, f.answer.seq))
                        })
                        .collect();
                    let t = Instant::now();
                    let votes = dep.run_frames(&batch);
                    elapsed += t.elapsed().as_secs_f64();
                    for (f, v) in chunk.iter().zip(votes) {
                        out.matched +=
                            usize::from(pooled(&v.counts, f.answer.votes.len()) == f.answer.votes);
                    }
                }
                let c = dep.counter_export();
                out.counts.accumulate(&c);
                out.core_ticks += dep.core_count() as u64 * c.ticks;
            }
        }
    }
    out.frame_us = elapsed * 1e6 / frames.len().max(1) as f64;
    out
}
