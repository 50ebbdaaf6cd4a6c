//! The on-core pseudo-random number generator.
//!
//! TrueNorth cores contain a hardware PRNG that drives stochastic synapse,
//! leak, and threshold modes by comparing a fresh random draw against an
//! 8/16-bit probability threshold. We model it as a 16-bit Fibonacci LFSR
//! (taps 16, 14, 13, 11 — a maximal-length polynomial) seeded through
//! SplitMix64 so distinct cores get decorrelated streams from one chip seed.

/// Maximal-period 16-bit Fibonacci LFSR.
///
/// # Examples
///
/// ```
/// use tn_chip::prng::LfsrPrng;
/// let mut p = LfsrPrng::new(0xACE1);
/// let a = p.next_u16();
/// let b = p.next_u16();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LfsrPrng {
    state: u16,
}

impl LfsrPrng {
    /// Create an LFSR from a seed; a zero seed (the LFSR's absorbing state)
    /// is remapped to a fixed nonzero constant.
    pub fn new(seed: u16) -> Self {
        Self {
            state: if seed == 0 { 0xACE1 } else { seed },
        }
    }

    /// Derive a core PRNG from a 64-bit chip seed and core index using
    /// SplitMix64 (decorrelates neighboring cores).
    pub fn for_core(chip_seed: u64, core_index: usize) -> Self {
        let x = splitmix64(chip_seed.wrapping_add(core_index as u64).wrapping_add(1));
        Self::new((x >> 16) as u16)
    }

    /// Advance one LFSR step and return the new 16-bit state.
    pub fn next_u16(&mut self) -> u16 {
        // Fibonacci taps 16, 14, 13, 11 (x^16 + x^14 + x^13 + x^11 + 1).
        let s = self.state;
        let bit = (s ^ (s >> 2) ^ (s >> 3) ^ (s >> 5)) & 1;
        self.state = (s >> 1) | (bit << 15);
        self.state
    }

    /// Bernoulli draw: true with probability `threshold / 65536`.
    pub fn gen_bool_u16(&mut self, threshold: u16) -> bool {
        self.next_u16() < threshold
    }

    /// Bernoulli draw with a floating probability, quantized to the LFSR's
    /// 16-bit resolution (the hardware's behaviour for stochastic modes).
    ///
    /// Probabilities ≤ 0 never fire, ≥ 1 always fire.
    pub fn gen_bool(&mut self, p: f32) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let threshold = (p * 65536.0) as u32;
        (self.next_u16() as u32) < threshold
    }

    /// Current raw state (for snapshotting).
    pub fn state(&self) -> u16 {
        self.state
    }

    /// Restore a state captured with [`LfsrPrng::state`]. Used by the
    /// lockstep lane kernel, which steps many lanes' LFSRs in flat scratch
    /// buffers and folds the advanced states back afterwards.
    pub(crate) fn set_state(&mut self, state: u16) {
        debug_assert_ne!(state, 0, "the all-zero LFSR state is unreachable");
        self.state = state;
    }
}

/// SplitMix64 mixing step (public so tests and the deployment sampler can
/// derive decorrelated seeds the same way the chip does).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spike-train seed of frame `index` in a stream keyed by `seed`:
/// `splitmix64(seed ^ index · 0x9E37_79B9)`. The determinism key shared by
/// the offline evaluator (the frame index), the serving runtime (the
/// request seq) and the power sweep — the same `(seed, index)` always
/// draws the same input spikes.
pub fn frame_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ index.wrapping_mul(0x9E37_79B9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn frame_seed_is_the_evaluator_derivation() {
        for (seed, index) in [(0u64, 0u64), (7, 1), (u64::MAX, 12_345), (23, u64::MAX)] {
            assert_eq!(
                frame_seed(seed, index),
                splitmix64(seed ^ index.wrapping_mul(0x9E37_79B9))
            );
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut p = LfsrPrng::new(0);
        assert_ne!(p.state(), 0);
        // Must not get stuck.
        let a = p.next_u16();
        let b = p.next_u16();
        assert!(a != 0 || b != 0);
    }

    #[test]
    fn lfsr_has_long_period() {
        // A maximal 16-bit LFSR cycles through 65535 nonzero states.
        let mut p = LfsrPrng::new(1);
        let mut seen = HashSet::new();
        for _ in 0..65535 {
            assert!(seen.insert(p.next_u16()), "state repeated early");
        }
    }

    #[test]
    fn never_reaches_zero_state() {
        let mut p = LfsrPrng::new(0xBEEF);
        for _ in 0..70000 {
            assert_ne!(p.next_u16(), 0);
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut p = LfsrPrng::new(0x1234);
        let n = 50_000;
        for target in [0.1_f32, 0.5, 0.9] {
            let hits = (0..n).filter(|_| p.gen_bool(target)).count();
            let rate = hits as f32 / n as f32;
            assert!((rate - target).abs() < 0.02, "p={target}: empirical {rate}");
        }
    }

    #[test]
    fn gen_bool_extremes_are_deterministic() {
        let mut p = LfsrPrng::new(77);
        assert!(!(0..100).any(|_| p.gen_bool(0.0)));
        assert!((0..100).all(|_| p.gen_bool(1.0)));
        assert!(!(0..100).any(|_| p.gen_bool(-0.5)));
        assert!((0..100).all(|_| p.gen_bool(1.5)));
    }

    #[test]
    fn core_streams_are_decorrelated() {
        let mut a = LfsrPrng::for_core(42, 0);
        let mut b = LfsrPrng::for_core(42, 1);
        let sa: Vec<u16> = (0..32).map(|_| a.next_u16()).collect();
        let sb: Vec<u16> = (0..32).map(|_| b.next_u16()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn same_chip_seed_reproduces() {
        let mut a = LfsrPrng::for_core(9, 5);
        let mut b = LfsrPrng::for_core(9, 5);
        for _ in 0..100 {
            assert_eq!(a.next_u16(), b.next_u16());
        }
    }

    #[test]
    fn splitmix_avalanches() {
        assert_ne!(splitmix64(0), splitmix64(1));
        let d = (splitmix64(0) ^ splitmix64(1)).count_ones();
        assert!(d > 16, "adjacent seeds should differ in many bits ({d})");
    }
}
