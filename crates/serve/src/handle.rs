//! Per-request completion handles.
//!
//! Submission returns a [`RequestHandle`]; the worker that serves the
//! request fulfils the paired [`Completer`]. One-shot semantics are
//! enforced by construction: the completer is moved into exactly one
//! worker job and consumed by [`Completer::complete`], and the handle's
//! [`RequestHandle::wait`] consumes the handle.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::error::ServeError;

/// How a request was actually served: routing (model/tier), the
/// effective spf, and the uncertainty verdict (confidence/escalated).
///
/// `#[non_exhaustive]` with accessor methods, so adding future routing or
/// quality facts is not a breaking change (the `Response` field sprawl
/// this replaces made every new fact one). Construct with
/// [`ServedAs::new`] plus the `with_*` chainers (test/tooling use; the
/// runtime fills it in internally).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServedAs {
    pub(crate) model: usize,
    pub(crate) spf: usize,
    pub(crate) tier: Option<String>,
    pub(crate) confidence: f32,
    pub(crate) escalated: bool,
}

impl ServedAs {
    /// Routing facts for a request served with no quality tier: raw
    /// vote-margin `confidence` is filled in by the runtime, `tier` is
    /// `None`, `escalated` is `false`.
    pub fn new(model: usize, spf: usize) -> Self {
        Self {
            model,
            spf,
            tier: None,
            confidence: 0.0,
            escalated: false,
        }
    }

    /// Attach the answering tier's name.
    #[must_use]
    pub fn with_tier(mut self, tier: impl Into<String>) -> Self {
        self.tier = Some(tier.into());
        self
    }

    /// Set the calibrated confidence.
    #[must_use]
    pub fn with_confidence(mut self, confidence: f32) -> Self {
        self.confidence = confidence;
        self
    }

    /// Mark the response as having taken the escalate path.
    #[must_use]
    pub fn with_escalated(mut self, escalated: bool) -> Self {
        self.escalated = escalated;
        self
    }

    /// Tenant model that served the request (0 on single-model runtimes).
    pub fn model(&self) -> usize {
        self.model
    }

    /// Ticks-per-frame the request was actually served at: the spf the
    /// answering deployment set (the escalation target on escalated
    /// requests) held at serve time.
    pub fn spf(&self) -> usize {
        self.spf
    }

    /// Name of the quality tier that produced the answer (`None` for
    /// tier-less requests; on escalation, the *escalation target*).
    pub fn tier(&self) -> Option<&str> {
        self.tier.as_deref()
    }

    /// Calibrated confidence in `predicted`: the vote margin mapped
    /// through the tier's [`crate::CalibrationMap`] (raw margin for
    /// tier-less requests or before calibration).
    pub fn confidence(&self) -> f32 {
        self.confidence
    }

    /// Whether a low-confidence fast-tier answer was transparently
    /// re-run on its escalation tier.
    pub fn escalated(&self) -> bool {
        self.escalated
    }
}

/// The outcome of one served inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Monotonic submission sequence number (also the determinism key:
    /// the frame seed is a pure function of it).
    pub seq: u64,
    /// Predicted class: argmax of the replica-pooled votes.
    pub predicted: usize,
    /// Per-class votes summed across replicas (`[n_classes]`).
    pub votes: Vec<u64>,
    /// Each replica's individual argmax (`[replicas]`).
    pub replica_predictions: Vec<usize>,
    /// Fraction of replicas whose individual argmax matches `predicted`.
    pub agreement: f32,
    /// How the request was routed and judged (model, spf, tier,
    /// confidence, escalation). See [`ServedAs`].
    pub served: ServedAs,
    /// Index of the worker thread that served the request.
    pub worker: usize,
    /// Chip ticks spent on this frame (spf + pipeline depth − 1; on
    /// escalation, the fast and certain passes summed).
    pub ticks: u64,
    /// Wall-clock latency from submission to completion.
    pub latency: Duration,
}

impl Response {
    /// Tenant model that served the request. Delegates to
    /// [`ServedAs::model`].
    pub fn model(&self) -> usize {
        self.served.model()
    }

    /// Effective ticks-per-frame. Delegates to [`ServedAs::spf`].
    pub fn spf(&self) -> usize {
        self.served.spf()
    }

    /// Answering quality tier, if any. Delegates to [`ServedAs::tier`].
    pub fn tier(&self) -> Option<&str> {
        self.served.tier()
    }

    /// Calibrated confidence in `predicted`. Delegates to
    /// [`ServedAs::confidence`].
    pub fn confidence(&self) -> f32 {
        self.served.confidence()
    }

    /// Whether the escalate path ran. Delegates to
    /// [`ServedAs::escalated`].
    pub fn escalated(&self) -> bool {
        self.served.escalated()
    }
}

#[derive(Debug)]
struct Cell {
    slot: Mutex<Option<Result<Response, ServeError>>>,
    done: Condvar,
}

/// Awaitable handle for one submitted request.
#[derive(Debug)]
pub struct RequestHandle {
    cell: Arc<Cell>,
    seq: u64,
}

/// Completion token paired with one [`RequestHandle`].
///
/// Inside the runtime a worker consumes it with [`Completer::complete`].
/// It is public because serving *front-end tiers* (the `tn-fleet`
/// router) mint their own pairs via [`RequestHandle::channel`]: they
/// hand the handle to the caller, dispatch the request to a remote
/// shard, and complete the pair when the shard's answer frame arrives —
/// so remote and in-process submissions are awaited identically.
#[derive(Debug)]
pub struct Completer {
    /// `None` once [`Completer::complete`] has filled the cell, so `Drop`
    /// leaves it alone.
    cell: Option<Arc<Cell>>,
}

impl Cell {
    /// Store `result` and wake every waiter.
    fn fill(&self, result: Result<Response, ServeError>) {
        *self.slot.lock().expect("handle lock") = Some(result);
        self.done.notify_all();
    }
}

/// Create a connected handle/completer pair for submission `seq`.
pub(crate) fn pair(seq: u64) -> (RequestHandle, Completer) {
    let cell = Arc::new(Cell {
        slot: Mutex::new(None),
        done: Condvar::new(),
    });
    (
        RequestHandle {
            cell: Arc::clone(&cell),
            seq,
        },
        Completer { cell: Some(cell) },
    )
}

impl RequestHandle {
    /// Create a connected handle/completer pair for submission `seq`,
    /// outside any runtime.
    ///
    /// The waiting semantics are identical to a runtime-issued handle:
    /// dropping the [`Completer`] unfulfilled wakes the waiter with
    /// [`ServeError::ShuttingDown`], so a crashed dispatcher never
    /// leaves a caller hanging.
    pub fn channel(seq: u64) -> (RequestHandle, Completer) {
        pair(seq)
    }

    /// The request's submission sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Block until the request completes.
    ///
    /// # Errors
    ///
    /// Propagates the worker-side [`ServeError`], or
    /// [`ServeError::ShuttingDown`] if the runtime went away before a
    /// worker served the request (the handle never hangs on a dropped
    /// runtime).
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut slot = self.cell.slot.lock().expect("handle lock");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            // Belt-and-braces: a dropping completer stores ShuttingDown
            // itself, but if this handle is the last cell owner nothing can
            // ever fill the slot — bail out instead of blocking forever.
            if Arc::strong_count(&self.cell) == 1 {
                return Err(ServeError::ShuttingDown);
            }
            slot = self.cell.done.wait(slot).expect("handle lock");
        }
    }

    /// Block until the request completes or `timeout` elapses.
    ///
    /// Does not consume the handle: after a [`ServeError::WaitTimeout`] the
    /// request is still in flight and the caller may wait again. The
    /// result is handed out exactly once.
    ///
    /// # Errors
    ///
    /// Propagates the worker-side [`ServeError`];
    /// [`ServeError::WaitTimeout`] when the deadline passes first;
    /// [`ServeError::ShuttingDown`] when the runtime went away before
    /// serving the request.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Response, ServeError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = self.cell.slot.lock().expect("handle lock");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            if Arc::strong_count(&self.cell) == 1 {
                return Err(ServeError::ShuttingDown);
            }
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now())
            else {
                return Err(ServeError::WaitTimeout);
            };
            (slot, _) = self
                .cell
                .done
                .wait_timeout(slot, remaining)
                .expect("handle lock");
        }
    }
}

impl Completer {
    /// Fulfil the paired handle: one lock and one wake-up (it consumes
    /// the completer, so it runs at most once).
    pub fn complete(mut self, result: Result<Response, ServeError>) {
        if let Some(cell) = self.cell.take() {
            cell.fill(result);
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        // A completer dropped unfulfilled means the runtime is going away
        // without serving this request; store ShuttingDown so the waiter
        // gets a definite answer instead of hanging. After `complete` the
        // cell is already taken and there is nothing to do.
        if let Some(cell) = self.cell.take() {
            cell.fill(Err(ServeError::ShuttingDown));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_response(seq: u64) -> Response {
        Response {
            seq,
            predicted: 1,
            votes: vec![0, 5],
            replica_predictions: vec![1, 1],
            agreement: 1.0,
            served: ServedAs::new(0, 8).with_confidence(1.0),
            worker: 0,
            ticks: 8,
            latency: Duration::from_micros(10),
        }
    }

    #[test]
    fn served_as_accessors_round_trip() {
        let served = ServedAs::new(2, 4)
            .with_tier("fast")
            .with_confidence(0.75)
            .with_escalated(true);
        assert_eq!(served.model(), 2);
        assert_eq!(served.spf(), 4);
        assert_eq!(served.tier(), Some("fast"));
        assert!((served.confidence() - 0.75).abs() < 1e-6);
        assert!(served.escalated());
        let r = Response {
            served,
            ..dummy_response(0)
        };
        assert_eq!((r.model(), r.spf()), (2, 4));
        assert_eq!(r.tier(), Some("fast"));
        assert!(r.escalated());
    }

    #[test]
    fn wait_returns_completed_result() {
        let (handle, completer) = pair(3);
        assert_eq!(handle.seq(), 3);
        completer.complete(Ok(dummy_response(3)));
        let r = handle.wait().expect("completed");
        assert_eq!(r.seq, 3);
        assert_eq!(r.predicted, 1);
    }

    #[test]
    fn wait_blocks_until_cross_thread_completion() {
        let (handle, completer) = pair(0);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            completer.complete(Ok(dummy_response(0)));
        });
        assert!(handle.wait().is_ok());
        t.join().expect("join");
    }

    #[test]
    fn dropped_completer_yields_shutting_down() {
        let (handle, completer) = pair(9);
        drop(completer);
        assert_eq!(handle.wait(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn wait_timeout_expires_then_succeeds() {
        let (handle, completer) = pair(4);
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(5)),
            Err(ServeError::WaitTimeout),
            "nothing completed yet"
        );
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            completer.complete(Ok(dummy_response(4)));
        });
        // The handle survives a timeout; a later wait picks up the result.
        let r = handle.wait_timeout(Duration::from_secs(5)).expect("done");
        assert_eq!(r.seq, 4);
        t.join().expect("join");
    }

    #[test]
    fn wait_timeout_sees_shutdown_immediately() {
        let (handle, completer) = pair(2);
        drop(completer);
        assert_eq!(
            handle.wait_timeout(Duration::from_secs(60)),
            Err(ServeError::ShuttingDown),
            "dropped runtime must not consume the full timeout"
        );
    }
}
