//! The benchmark's own arithmetic: a seeded PRNG, the open-loop arrival
//! schedule, exact percentiles over a sample store, the knee search over
//! a geometric rate ladder, and the answer digest.
//!
//! Nothing here touches the program under test, so the schedule a seed
//! produces and the way a percentile is read off never change when the
//! serving stack does.

/// SplitMix64: a small, fast, seedable generator (Steele et al. 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted by `stream` so the phases of one run
    /// draw from independent streams.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn pick(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Poisson arrivals: `n` send offsets (ns from phase start) at mean rate
/// `rate` per second, conditioned on exactly `n` arrivals in
/// `n / rate` seconds. Given its count, a Poisson process's arrival times
/// are independent and uniform over the window, so the offsets are sorted
/// uniform draws: Poisson burstiness with an exact offered rate.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, n: usize) -> Vec<u64> {
    let window_ns = n as f64 / rate * 1e9;
    let mut t: Vec<u64> = (0..n)
        .map(|_| (rng.next_f64() * window_ns) as u64)
        .collect();
    t.sort_unstable();
    t
}

/// Samples a percentile must leave above it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of an ascending-sorted sample: the smallest
/// value with at least `q·n` samples at or below it. `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond that rank, because such a
/// percentile rests on too few observations to report.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean of the lowest `keep` share of an ascending-sorted sample (at
/// least one value); 0 when empty. Dropping the top leaves out the rare
/// stalls a shared host adds, while every request class still counts in
/// proportion to its share, so the figure moves smoothly with the mix; a
/// median lying between two classes jumps from one to the other.
pub fn trimmed_mean(sorted: &[f64], keep: f64) -> f64 {
    let n = ((sorted.len() as f64 * keep).floor() as usize)
        .max(1)
        .min(sorted.len());
    mean(&sorted[..n])
}

/// Offered rates of the knee ladder: `light · step^k` for `k = 0..`, up
/// to and including the first rung at or above `top`.
pub fn ladder(light: f64, step: f64, top: f64) -> Vec<f64> {
    assert!(
        step > 1.0 && light > 0.0,
        "ladder needs light > 0 and step > 1"
    );
    let mut rungs = vec![light];
    while *rungs.last().expect("non-empty") < top {
        rungs.push(light * step.powi(rungs.len() as i32));
    }
    rungs
}

/// Highest passing rung of a ladder, assuming pass/fail is monotone in
/// the rate. `pass` is a rung known to meet the limit and `fail` a higher
/// one known to miss it — `n_rungs`, one past the top, when none is known,
/// so the top rung itself can still be probed. `probe(k)` runs rung `k`
/// and reports whether it met the limit; bisection needs about
/// log2(fail − pass) probes.
pub fn knee_search(pass: usize, fail: usize, mut probe: impl FnMut(usize) -> bool) -> usize {
    let (mut pass, mut fail) = (pass, fail);
    while fail - pass > 1 {
        let mid = pass + (fail - pass) / 2;
        if probe(mid) {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    pass
}

/// Order-sensitive FNV-1a digest over answers, so two runs of the same
/// code and seed can be shown to agree bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold one answer: its seq, predicted class and vote vector.
    pub fn answer(&mut self, seq: u64, predicted: usize, votes: &[u64]) {
        self.word(seq);
        self.word(predicted as u64);
        self.word(votes.len() as u64);
        for &v in votes {
            self.word(v);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_identical_for_the_same_seed() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 1000.0, 500);
        let b = poisson_schedule(&mut Rng::new(7, 1), 1000.0, 500);
        assert_eq!(a, b);
        let c = poisson_schedule(&mut Rng::new(8, 1), 1000.0, 500);
        assert_ne!(a, c, "another seed gives another schedule");
        let d = poisson_schedule(&mut Rng::new(7, 2), 1000.0, 500);
        assert_ne!(a, d, "another stream gives another schedule");
    }

    #[test]
    fn schedule_is_sorted_within_its_window_and_poisson_like() {
        let n = 20_000;
        let t = poisson_schedule(&mut Rng::new(3, 0), 2000.0, n);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            *t.last().unwrap() < 10_000_000_000,
            "n / rate = 10 s window"
        );
        // Exponential gaps: mean 1/rate, coefficient of variation ~1.
        let gaps: Vec<f64> = t.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let m = mean(&gaps);
        let sd = (gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((m - 500_000.0).abs() < 10_000.0, "mean gap {m}");
        assert!((sd / m - 1.0).abs() < 0.05, "cv {}", sd / m);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.9), Some(900.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.25), Some(25.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 above rank 990: reportable.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&v, 0.99).is_some());
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // A p50 of 19 samples leaves 9 beyond; 21 leaves 10.
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..21], 0.5), Some(11.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_counts_failures_as_beyond_any_limit() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in v.iter_mut().skip(985) {
            *x = f64::INFINITY;
        }
        assert_eq!(percentile(&v, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_the_top_share() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v, 0.9), 45.5, "mean of 1..=90");
        assert_eq!(trimmed_mean(&v, 1.0), 50.5);
        assert_eq!(trimmed_mean(&v[..10], 0.05), 1.0, "keeps at least one");
        assert_eq!(trimmed_mean(&[], 0.9), 0.0);
        let mut stalled = v.clone();
        stalled[99] = f64::INFINITY;
        assert_eq!(trimmed_mean(&stalled, 0.9), 45.5, "a stall is trimmed");
    }

    #[test]
    fn ladder_steps_are_geometric_and_reach_the_top() {
        let r = ladder(1000.0, 1.05, 3000.0);
        assert_eq!(r[0], 1000.0);
        assert!(r.windows(2).all(|w| (w[1] / w[0] - 1.05).abs() < 1e-9));
        assert!(*r.last().unwrap() >= 3000.0 && r[r.len() - 2] < 3000.0);
    }

    /// A synthetic system whose p99 stays flat until the offered rate
    /// nears capacity, then climbs steeply (an M/M/1-shaped curve).
    fn meets_limit(rate: f64, capacity: f64, limit_ms: f64) -> bool {
        let rho = rate / capacity;
        rho < 1.0 && 4.6 / (capacity * (1.0 - rho)) * 1e3 <= limit_ms
    }

    #[test]
    fn knee_search_finds_the_highest_passing_rung() {
        let rungs = ladder(500.0, 1.05, 5000.0);
        for capacity in [900.0, 1500.0, 2400.0, 4000.0] {
            let expect = rungs
                .iter()
                .rposition(|&r| meets_limit(r, capacity, 20.0))
                .expect("light passes");
            let mut probes = 0;
            let got = knee_search(0, rungs.len(), |k| {
                probes += 1;
                meets_limit(rungs[k], capacity, 20.0)
            });
            assert_eq!(got, expect, "capacity {capacity}");
            assert!(probes <= (rungs.len() as f64).log2().ceil() as usize);
        }
    }

    #[test]
    fn knee_search_handles_the_ends_of_the_ladder() {
        assert_eq!(
            knee_search(0, 10, |_| false),
            0,
            "nothing above light passes"
        );
        assert_eq!(knee_search(0, 10, |_| true), 9, "the top rung passes");
        assert_eq!(
            knee_search(9, 10, |_| unreachable!()),
            9,
            "starting at the top"
        );
        assert_eq!(knee_search(4, 10, |k| k <= 6), 6, "starting mid-ladder");
        let mut probed = Vec::new();
        let got = knee_search(0, 8, |k| {
            probed.push(k);
            k <= 5
        });
        assert_eq!(got, 5, "bisects below a known failure");
        assert!(
            probed.iter().all(|&k| k < 8),
            "never probes at or above the known failure"
        );
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.answer(0, 3, &[1, 9, 2]);
        a.answer(1, 7, &[0, 0, 4]);
        // Pinned value: a changed digest means changed answers or a
        // changed digest definition, never noise.
        assert_eq!(a.hex(), "4047166e7e358b8e");
        let mut b = Digest::default();
        b.answer(1, 7, &[0, 0, 4]);
        b.answer(0, 3, &[1, 9, 2]);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.answer(0, 3, &[1, 9, 2]);
        c.answer(1, 7, &[0, 0, 5]);
        assert_ne!(a.hex(), c.hex());
    }
}
