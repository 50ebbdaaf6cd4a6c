//! Quality tiers: named (replicas × spf × kernel_batch) operating points
//! with calibrated confidence and an abstain/escalate path.
//!
//! The replica-vote ensemble is a posterior sample in disguise: every
//! Bernoulli-sampled deployment copy is one draw from the distribution the
//! trained synapse probabilities define, so the pooled vote *margin* is an
//! uncertainty signal. A [`QualityTier`] names one point on the paper's
//! copies×spf accuracy/occupation/performance grid and attaches a
//! confidence contract to it: responses whose calibrated confidence falls
//! below [`QualityTier::confidence_target`] are transparently re-run on
//! the tier named by [`QualityTier::escalate_to`] (single hop, validated
//! at build time).
//!
//! Confidence starts life as the raw vote margin ([`vote_margin`]) and is
//! mapped to an empirical correctness probability by a [`CalibrationMap`]
//! fitted from a small held-out pass at deploy time
//! (`ServeRuntime::calibrate_tiers`). The map is monotone by construction
//! (pool-adjacent-violators), so reported confidence always orders the
//! same way margins do.

use crate::error::ServeError;

/// One named serving tier: a (replicas, spf, kernel_batch) operating
/// point plus its confidence contract.
///
/// Construct with [`QualityTier::new`] and the chained setters; attach to
/// a runtime through `ServeConfigBuilder::tier`.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityTier {
    /// Tier name, matched against `SubmitRequest::quality`.
    pub name: String,
    /// Replica copies pooled per request on this tier.
    pub replicas: usize,
    /// Spikes per frame on this tier (fixed: the controller's spf
    /// actuator moves only the default set, see
    /// [`crate::ControllerConfig::spf_range`]).
    pub spf: usize,
    /// Kernel fusion width for this tier's batches; `0` inherits the
    /// runtime's `kernel_batch`.
    pub kernel_batch: usize,
    /// Calibrated-confidence floor. A response below it escalates when
    /// [`QualityTier::escalate_to`] names a target; values above `1.0`
    /// force escalation on every request (useful in tests).
    pub confidence_target: f32,
    /// Tier to re-run low-confidence answers on (single hop — the target
    /// tier's own `escalate_to` is never followed).
    pub escalate_to: Option<String>,
}

impl QualityTier {
    /// A tier with the given operating point, no confidence floor and no
    /// escalation.
    pub fn new(name: impl Into<String>, replicas: usize, spf: usize) -> Self {
        Self {
            name: name.into(),
            replicas,
            spf,
            kernel_batch: 0,
            confidence_target: 0.0,
            escalate_to: None,
        }
    }

    /// Set this tier's kernel fusion width (`0` inherits the runtime's).
    #[must_use]
    pub fn kernel_batch(mut self, kernel_batch: usize) -> Self {
        self.kernel_batch = kernel_batch;
        self
    }

    /// Set the calibrated-confidence floor below which answers escalate.
    #[must_use]
    pub fn confidence_target(mut self, target: f32) -> Self {
        self.confidence_target = target;
        self
    }

    /// Name the tier that low-confidence answers re-run on.
    #[must_use]
    pub fn escalate_to(mut self, tier: impl Into<String>) -> Self {
        self.escalate_to = Some(tier.into());
        self
    }
}

/// Validate a tier table: unique non-empty names, live knobs, and
/// escalation edges that resolve to another existing tier.
///
/// # Errors
///
/// Returns [`ServeError::BadConfig`] naming the first offending tier.
pub(crate) fn validate_tiers(tiers: &[QualityTier]) -> Result<(), ServeError> {
    for (i, t) in tiers.iter().enumerate() {
        if t.name.is_empty() {
            return Err(ServeError::BadConfig(format!("tier {i}: empty name")));
        }
        if tiers[..i].iter().any(|p| p.name == t.name) {
            return Err(ServeError::BadConfig(format!(
                "tier {:?}: duplicate name",
                t.name
            )));
        }
        if t.replicas == 0 {
            return Err(ServeError::BadConfig(format!(
                "tier {:?}: replicas must be >= 1",
                t.name
            )));
        }
        if t.spf == 0 {
            return Err(ServeError::BadConfig(format!(
                "tier {:?}: spf must be >= 1",
                t.name
            )));
        }
        if let Some(target) = &t.escalate_to {
            if *target == t.name {
                return Err(ServeError::BadConfig(format!(
                    "tier {:?}: cannot escalate to itself",
                    t.name
                )));
            }
            if !tiers.iter().any(|p| p.name == *target) {
                return Err(ServeError::BadConfig(format!(
                    "tier {:?}: escalate_to names unknown tier {target:?}",
                    t.name
                )));
            }
        }
    }
    Ok(())
}

/// The pooled-vote margin: (top − runner-up) / total, in `[0, 1]`.
///
/// `0.0` when no votes landed or the top two classes tie; `1.0` when
/// every vote went to one class. This is the raw uncertainty signal a
/// [`CalibrationMap`] turns into an empirical correctness probability.
pub fn vote_margin(votes: &[u64]) -> f32 {
    let total: u64 = votes.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let (mut top, mut runner) = (0u64, 0u64);
    for &v in votes {
        if v > top {
            runner = top;
            top = v;
        } else if v > runner {
            runner = v;
        }
    }
    (top - runner) as f32 / total as f32
}

/// A monotone map from raw vote margin to calibrated confidence.
///
/// Fitted by [`CalibrationMap::fit`]: margins are bucketed into
/// equal-width bins spanning the observed margin range, each bin's
/// empirical accuracy is computed, and the
/// bin accuracies are made non-decreasing by pool-adjacent-violators
/// (isotonic regression). [`CalibrationMap::apply`] interpolates
/// piecewise-linearly between bin centers, so the map is monotone
/// (non-decreasing) by construction — confidence never inverts the
/// margin ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationMap {
    /// `(margin, confidence)` knots, sorted by margin with non-decreasing
    /// confidence.
    knots: Vec<(f32, f32)>,
}

impl CalibrationMap {
    /// The identity map: confidence == raw margin. Used until a
    /// calibration pass runs.
    pub fn identity() -> Self {
        Self {
            knots: vec![(0.0, 0.0), (1.0, 1.0)],
        }
    }

    /// Fit from `(margin, was_correct)` samples using `bins` equal-width
    /// buckets over the **observed margin range** plus
    /// pool-adjacent-violators.
    ///
    /// Binning over `[min, max]` of the samples rather than `[0, 1]`
    /// matters in practice: vote margins are normalised by the *total*
    /// vote count across every class, so a well-separated ensemble still
    /// produces margins of a few percent — fixed `[0, 1]` bins would pool
    /// every sample into bin zero and collapse the map to a constant.
    ///
    /// Empty bins are dropped; with no samples at all the identity map is
    /// returned.
    pub fn fit(samples: &[(f32, bool)], bins: usize) -> Self {
        let bins = bins.max(1);
        let (lo, hi) = samples.iter().fold((f32::INFINITY, 0.0f32), |(lo, hi), &(m, _)| {
            let m = m.clamp(0.0, 1.0);
            (lo.min(m), hi.max(m))
        });
        let span = (hi - lo).max(f32::EPSILON);
        let mut hit = vec![0u64; bins];
        let mut seen = vec![0u64; bins];
        let mut margin_sum = vec![0.0f64; bins];
        for &(margin, correct) in samples {
            let rel = (margin.clamp(0.0, 1.0) - lo) / span;
            let b = ((rel * bins as f32) as usize).min(bins - 1);
            seen[b] += 1;
            hit[b] += u64::from(correct);
            margin_sum[b] += f64::from(margin);
        }
        // Non-empty bins -> (mean margin, accuracy, weight) blocks.
        let mut blocks: Vec<(f64, f64, f64)> = (0..bins)
            .filter(|&b| seen[b] > 0)
            .map(|b| {
                (
                    margin_sum[b] / seen[b] as f64,
                    hit[b] as f64 / seen[b] as f64,
                    seen[b] as f64,
                )
            })
            .collect();
        if blocks.is_empty() {
            return Self::identity();
        }
        // Pool adjacent violators: merge any block whose accuracy drops
        // below its predecessor's into a weighted-mean pool.
        let mut pooled: Vec<(f64, f64, f64)> = Vec::with_capacity(blocks.len());
        for block in blocks.drain(..) {
            pooled.push(block);
            while pooled.len() >= 2 {
                let (m2, a2, w2) = pooled[pooled.len() - 1];
                let (m1, a1, w1) = pooled[pooled.len() - 2];
                if a2 >= a1 {
                    break;
                }
                pooled.truncate(pooled.len() - 2);
                let w = w1 + w2;
                pooled.push(((m1 * w1 + m2 * w2) / w, (a1 * w1 + a2 * w2) / w, w));
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        let knots: Vec<(f32, f32)> = pooled
            .into_iter()
            .map(|(m, a, _)| (m as f32, a as f32))
            .collect();
        Self { knots }
    }

    /// Map a raw margin to calibrated confidence (piecewise linear
    /// between knots, clamped flat beyond the first/last knot).
    pub fn apply(&self, margin: f32) -> f32 {
        let m = margin.clamp(0.0, 1.0);
        let first = self.knots[0];
        if m <= first.0 {
            return first.1;
        }
        for w in self.knots.windows(2) {
            let ((m0, c0), (m1, c1)) = (w[0], w[1]);
            if m <= m1 {
                if m1 <= m0 {
                    return c1;
                }
                return c0 + (c1 - c0) * (m - m0) / (m1 - m0);
            }
        }
        self.knots[self.knots.len() - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_basics() {
        assert_eq!(vote_margin(&[]), 0.0);
        assert_eq!(vote_margin(&[0, 0]), 0.0);
        assert_eq!(vote_margin(&[4, 4]), 0.0);
        assert_eq!(vote_margin(&[8, 0]), 1.0);
        assert!((vote_margin(&[6, 2]) - 0.5).abs() < 1e-6);
        assert!((vote_margin(&[5, 3, 2]) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn identity_map_is_identity() {
        let map = CalibrationMap::identity();
        for m in [0.0f32, 0.25, 0.5, 0.99, 1.0] {
            assert!((map.apply(m) - m).abs() < 1e-6);
        }
    }

    #[test]
    fn fit_is_monotone_even_on_inverted_data() {
        // Low margins correct, high margins wrong: PAVA must flatten the
        // inversion into a non-decreasing map.
        let samples: Vec<(f32, bool)> = (0..100)
            .map(|i| {
                let m = i as f32 / 100.0;
                (m, m < 0.5)
            })
            .collect();
        let map = CalibrationMap::fit(&samples, 10);
        let mut prev = -1.0f32;
        for i in 0..=100 {
            let c = map.apply(i as f32 / 100.0);
            assert!(
                c >= prev - 1e-6,
                "confidence must be non-decreasing in margin"
            );
            prev = c;
        }
    }

    #[test]
    fn fit_recovers_binwise_accuracy() {
        // Margins in two clusters with 25% / 75% accuracy.
        let mut samples = Vec::new();
        for i in 0..200 {
            samples.push((0.1, i % 4 == 0));
            samples.push((0.9, i % 4 != 0));
        }
        let map = CalibrationMap::fit(&samples, 10);
        assert!((map.apply(0.1) - 0.25).abs() < 0.02);
        assert!((map.apply(0.9) - 0.75).abs() < 0.02);
        assert!(map.apply(0.0) <= map.apply(1.0));
    }

    #[test]
    fn fit_empty_is_identity() {
        assert_eq!(CalibrationMap::fit(&[], 8), CalibrationMap::identity());
    }

    #[test]
    fn fit_resolves_compressed_margin_ranges() {
        // Real vote margins are normalised by the total vote count, so
        // even a confident ensemble lives in the first few percent of
        // [0, 1]. The fit must bin over the observed range and keep the
        // accuracy gradient instead of pooling everything into one bin.
        // Margins 0..0.05; correctness rate rises with margin.
        let samples: Vec<(f32, bool)> = (0..400)
            .map(|i| {
                let m = 0.05 * (i as f32 / 400.0);
                (m, (i * 7) % 400 < i)
            })
            .collect();
        let low = CalibrationMap::fit(&samples, 8).apply(0.002);
        let high = CalibrationMap::fit(&samples, 8).apply(0.048);
        assert!(
            high > low + 0.1,
            "small-margin samples must still produce a graded map \
             (low {low:.3}, high {high:.3})"
        );
    }

    #[test]
    fn tier_validation_rejects_bad_tables() {
        let ok = vec![
            QualityTier::new("fast", 1, 2)
                .confidence_target(0.8)
                .escalate_to("certain"),
            QualityTier::new("certain", 4, 8),
        ];
        validate_tiers(&ok).expect("valid table");

        let dup = vec![QualityTier::new("a", 1, 2), QualityTier::new("a", 2, 4)];
        assert!(validate_tiers(&dup).is_err());
        let zero = vec![QualityTier::new("a", 0, 2)];
        assert!(validate_tiers(&zero).is_err());
        let zero_spf = vec![QualityTier::new("a", 1, 0)];
        assert!(validate_tiers(&zero_spf).is_err());
        let dangling = vec![QualityTier::new("a", 1, 2).escalate_to("missing")];
        assert!(validate_tiers(&dangling).is_err());
        let self_loop = vec![QualityTier::new("a", 1, 2).escalate_to("a")];
        assert!(validate_tiers(&self_loop).is_err());
        let unnamed = vec![QualityTier::new("", 1, 2)];
        assert!(validate_tiers(&unnamed).is_err());
    }
}
