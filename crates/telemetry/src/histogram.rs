//! A lock-free log-linear latency histogram.
//!
//! Exact 1 ns buckets below 16 ns, then 16 sub-buckets per power of two,
//! giving ≤ 1/16 (6.25%) quantile error over 1 ns .. ~18 s with zero
//! allocation and no locks on the recording path. (Power-of-two buckets
//! have ≤ 2× error, which collapses p50 and p99 onto the same value
//! whenever a workload's latencies fit inside one octave — exactly what
//! steady-state serving produces.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Latencies below this many ns get exact single-ns buckets.
const LINEAR_CUTOFF: u64 = 16;
/// log2 of the sub-buckets per power of two.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two (relative error ≤ 1/SUB_BUCKETS).
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count: 16 linear + 16 per octave for exponents 4..=63.
const BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Histogram bucket holding latency `ns`.
fn bucket_index(ns: u64) -> usize {
    if ns < LINEAR_CUTOFF {
        ns as usize
    } else {
        // ns >= 16 so the exponent e = floor(log2 ns) >= SUB_BITS; the
        // mantissa's top SUB_BITS bits (below the leading 1) pick the
        // sub-bucket within the octave.
        let e = 63 - ns.leading_zeros();
        let shift = e - SUB_BITS;
        let m = ((ns >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
        LINEAR_CUTOFF as usize + (shift as usize) * SUB_BUCKETS + m
    }
}

/// Exclusive upper bound (ns) of bucket `i`.
fn bucket_upper_ns(i: usize) -> u64 {
    if i < LINEAR_CUTOFF as usize {
        i as u64 + 1
    } else {
        let shift = ((i - LINEAR_CUTOFF as usize) / SUB_BUCKETS) as u32;
        let m = ((i - LINEAR_CUTOFF as usize) % SUB_BUCKETS) as u64;
        let base = (SUB_BUCKETS as u64 + m) << shift;
        base.saturating_add(1u64 << shift)
    }
}

/// Inclusive lower bound (ns) of bucket `i`.
fn bucket_lower_ns(i: usize) -> u64 {
    if i < LINEAR_CUTOFF as usize {
        i as u64
    } else {
        let shift = ((i - LINEAR_CUTOFF as usize) / SUB_BUCKETS) as u32;
        let m = ((i - LINEAR_CUTOFF as usize) % SUB_BUCKETS) as u64;
        (SUB_BUCKETS as u64 + m) << shift
    }
}

/// Log-linear latency histogram with an exact running mean; record from
/// any thread, read quantiles from any other.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one latency.
    pub fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Exact mean of the recorded latencies (zero when empty).
    pub fn mean(&self) -> Duration {
        self.sum_ns
            .load(Ordering::Relaxed)
            .checked_div(self.count.load(Ordering::Relaxed))
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// The quantiles `qs` (each in `[0, 1]`) from one read of the
    /// buckets, each within 1/16 of the true value; zero when empty.
    ///
    /// The rank's position among its bucket's own samples interpolates
    /// between the bucket's bounds, so reported quantiles are not
    /// quantized to bucket edges. A rank landing on a bucket's *last*
    /// sample reports the bucket's upper bound, so p99 over {99 fast,
    /// 1 slow} reports the slow outlier.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [Duration; N] {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        qs.map(|q| {
            if total == 0 {
                return Duration::ZERO;
            }
            // floor(q·n) + 1: the smallest value with at most (1-q)·n
            // samples above it.
            let rank = ((total as f64 * q).floor() as u64 + 1).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                if seen + c >= rank && c > 0 {
                    let lower = bucket_lower_ns(i);
                    let width = bucket_upper_ns(i).saturating_sub(lower);
                    let frac = (rank - seen) as f64 / c as f64;
                    let ns = lower as f64 + frac * width as f64;
                    return Duration::from_nanos(ns.round() as u64);
                }
                seen += c;
            }
            Duration::from_nanos(u64::MAX)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_bounds_relative_error() {
        // Every latency lands in a bucket whose upper bound exceeds it by
        // at most 1/16 (plus 1 ns of rounding).
        for ns in [
            0u64,
            1,
            15,
            16,
            17,
            100,
            1_000,
            99_999,
            100_000,
            1_000_000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(ns);
            assert!(i < BUCKETS, "index {i} for {ns}");
            let ub = bucket_upper_ns(i);
            assert!(ub > ns || ub == u64::MAX, "ub {ub} for {ns}");
            assert!(
                ub.saturating_sub(ns) <= ns / 16 + 1,
                "bucket too coarse: {ns} -> {ub}"
            );
            if i + 1 < BUCKETS {
                // Buckets tile: the next bucket starts where this one ends.
                assert_eq!(bucket_index(ub), i + 1, "gap after {ns}");
            }
        }
    }
}
