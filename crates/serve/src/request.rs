//! The unified request type accepted by `ServeRuntime::submit`.
//!
//! One builder for every submission: `frame` is required, everything
//! else is optional and defaults to the runtime's defaults. The gateway's
//! `/v1/classify` JSON body mirrors this struct key-for-key
//! (`frame`/`model`/`quality`).
//!
//! `From<Vec<f32>>` keeps the common one-liner working unchanged:
//! `rt.submit(vec![0.5, 0.25])` is `rt.submit(SubmitRequest::new(...))`.

/// One classify request: a frame plus optional routing knobs.
///
/// ```
/// use tn_serve::SubmitRequest;
/// let req = SubmitRequest::new(vec![0.5, 0.25])
///     .model(0)
///     .quality("fast");
/// assert_eq!(req.quality.as_deref(), Some("fast"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SubmitRequest {
    /// Input frame: per-channel spike rates in `[0, 1]`.
    pub frame: Vec<f32>,
    /// Tenant model on a packed runtime (default `0`, the only valid
    /// value on a solo runtime).
    pub model: usize,
    /// Quality tier name: the operating point (replicas × spf) the
    /// request is served at. `None` serves on the runtime's default
    /// deployment set at its live spf (which the controller may move).
    pub quality: Option<String>,
    /// Explicit determinism sequence number; `None` (the default) lets
    /// the runtime claim the next one. See [`SubmitRequest::at_seq`].
    pub seq: Option<u64>,
}

impl SubmitRequest {
    /// A request for `frame` with default model, no tier, and a
    /// runtime-assigned sequence number.
    pub fn new(frame: Vec<f32>) -> Self {
        Self {
            frame,
            model: 0,
            quality: None,
            seq: None,
        }
    }

    /// Route to tenant `model` on a packed runtime.
    #[must_use]
    pub fn model(mut self, model: usize) -> Self {
        self.model = model;
        self
    }

    /// Serve on the named quality tier.
    #[must_use]
    pub fn quality(mut self, quality: impl Into<String>) -> Self {
        self.quality = Some(quality.into());
        self
    }

    /// Pin the request's determinism sequence number instead of letting
    /// the runtime claim the next one — *shard-addressable submission*.
    ///
    /// A response is a pure function of `(cfg.seed, seq, spf)`, so a
    /// front-end that owns the sequence counter (the `tn-fleet` router)
    /// can dispatch request `k` to *any* shard built from the same
    /// `(spec, config)` and get an answer bit-identical to a solo
    /// runtime's `k`-th request — including after re-routing to a
    /// different shard on connection loss.
    ///
    /// The runtime's own counter is advanced past an explicit seq, so
    /// occasional mixing cannot hand out a duplicate; but interleaving
    /// explicit and automatic submissions makes the *automatic* seqs
    /// depend on arrival order, so pick one scheme per runtime. Packed
    /// runtimes key by this same seq: tenant `m` of a packed runtime
    /// answers seq `s` exactly as a solo runtime serving `m` alone
    /// answers `at_seq(s)`.
    #[must_use]
    pub fn at_seq(mut self, seq: u64) -> Self {
        self.seq = Some(seq);
        self
    }
}

impl From<Vec<f32>> for SubmitRequest {
    fn from(frame: Vec<f32>) -> Self {
        Self::new(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_setters() {
        let req = SubmitRequest::new(vec![1.0]);
        assert_eq!((req.model, req.quality.as_deref()), (0, None));
        assert_eq!(req.seq, None);
        let req = SubmitRequest::new(vec![1.0]).model(2).quality("q");
        assert_eq!((req.model, req.quality.as_deref()), (2, Some("q")));
        let req = SubmitRequest::new(vec![1.0]).at_seq(41);
        assert_eq!(req.seq, Some(41));
    }

    #[test]
    fn from_vec_is_the_default_request() {
        let req: SubmitRequest = vec![0.5f32].into();
        assert_eq!(req, SubmitRequest::new(vec![0.5]));
    }
}
