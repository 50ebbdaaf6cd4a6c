//! The worker side of the fleet: one [`ServeRuntime`] behind a framed
//! connection.
//!
//! A shard is deliberately thin — all serving machinery (batching,
//! replicas, tiers, controller) lives in the runtime it hosts. The
//! shard's job is protocol: answer the router's Hello expectation,
//! decode Req frames into [`SubmitRequest::at_seq`] submissions (the
//! *router* owns the sequence counter — that is what makes any shard's
//! answer for seq `k` bit-identical to a solo runtime's), stream
//! completed answers back, and ride the runtime's own `tn-telemetry/1`
//! snapshots out as Snap frames so telemetry doubles as the heartbeat.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use tn_chip::nscs::NetworkDeploySpec;
use tn_serve::{ControlAction, RequestHandle, ServeConfig, ServeError, ServeRuntime};
use tn_telemetry::{MetricsSink, Snapshot};

use crate::frame::{read_frame, write_frame, FrameKind};
use crate::msg::{encode_err, encode_hello, encode_resp, parse_req, Ack, Ctrl};
use crate::transport::Transport;

/// Shared write half of the shard's connection. Whole frames go out
/// under one lock acquisition, so Resp, Err, Snap, and Ack frames from
/// different threads never interleave.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn send(writer: &SharedWriter, kind: FrameKind, payload: &str) {
    let mut w = writer.lock().expect("shard writer lock");
    // A failed write means the router hung up; the reader loop will see
    // the same condition and wind down — nothing useful to do here.
    let _ = write_frame(&mut **w, kind, payload.as_bytes());
}

/// [`MetricsSink`] that frames every runtime snapshot onto the
/// connection: the shard's health heartbeat *is* its telemetry.
struct FrameSink {
    writer: SharedWriter,
    mute: Arc<AtomicBool>,
}

impl std::fmt::Debug for FrameSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameSink")
            .field("mute", &self.mute.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl MetricsSink for FrameSink {
    fn export(&self, snapshot: &Snapshot) {
        if self.mute.load(Ordering::Relaxed) {
            return;
        }
        let line = snapshot.to_json_line();
        send(&self.writer, FrameKind::Snap, line.trim_end());
    }
}

/// One hosted runtime speaking the fleet protocol over a [`Transport`].
#[derive(Debug)]
pub struct ShardServer {
    runtime: Arc<ServeRuntime>,
    mute: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl ShardServer {
    /// Deploy `specs` under `cfg` as one runtime (pass `&spec` for one
    /// tenant; several specs pack onto one chip, see [`ServeRuntime::new`])
    /// and serve the fleet protocol over `conn` until the router sends
    /// [`Ctrl::Shutdown`] or hangs up. Packed tenants answer by the
    /// router's pinned seq like any shard, so packed shards compose into
    /// a fleet unchanged.
    ///
    /// Sends the Hello announcement ([`encode_hello`] of the runtime's
    /// [`ServeRuntime::shape`]) immediately; with
    /// [`ServeConfig::telemetry`] set, the runtime's observer snapshots
    /// ride out as Snap-frame heartbeats at the configured interval.
    /// `host` takes no sink: the runtime's sink is the heartbeat writer.
    ///
    /// # Errors
    ///
    /// Deployment/config/packing errors from [`ServeRuntime::new`], or
    /// [`ServeError::BadConfig`] if the transport cannot be cloned or the
    /// handshake cannot be written.
    pub fn host<T: Transport>(
        specs: impl AsRef<[NetworkDeploySpec]>,
        cfg: ServeConfig,
        conn: T,
    ) -> Result<Self, ServeError> {
        let write_half = conn
            .try_clone()
            .map_err(|e| ServeError::BadConfig(format!("shard transport clone failed: {e}")))?;
        let writer: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
        let mute = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(FrameSink {
            writer: Arc::clone(&writer),
            mute: Arc::clone(&mute),
        });
        let runtime = Arc::new(ServeRuntime::new(specs, cfg, sink)?);

        let hello = encode_hello(&runtime.shape());
        {
            let mut w = writer.lock().expect("shard writer lock");
            write_frame(&mut **w, FrameKind::Hello, hello.as_bytes())
                .map_err(|e| ServeError::BadConfig(format!("shard handshake failed: {e}")))?;
        }

        // Completion pump: handles arrive in submission order; seq tags on
        // every Resp/Err frame mean the router never depends on ordering,
        // so FIFO head-of-line waiting here is harmless and keeps the
        // shard single-pump simple.
        let (tx, rx) = mpsc::channel::<(u64, RequestHandle)>();
        let pump_writer = Arc::clone(&writer);
        let pump = std::thread::Builder::new()
            .name("tn-fleet-shard-pump".to_string())
            .spawn(move || {
                for (seq, handle) in rx {
                    match handle.wait() {
                        Ok(resp) => send(&pump_writer, FrameKind::Resp, &encode_resp(&resp)),
                        Err(e) => send(&pump_writer, FrameKind::Err, &encode_err(seq, &e)),
                    }
                }
            })
            .expect("spawn shard pump thread");

        let reader_rt = Arc::clone(&runtime);
        let reader_writer = Arc::clone(&writer);
        let reader = std::thread::Builder::new()
            .name("tn-fleet-shard-reader".to_string())
            .spawn(move || {
                let mut conn = conn;
                // Dropping `tx` on exit closes the pump's queue; the pump
                // drains every already-admitted request first, so a
                // shutdown never orphans an accepted submission.
                let tx = tx;
                // Clean close, cut connection, or protocol garbage:
                // the shard's response is the same — stop accepting
                // and drain.
                while let Ok(Some(frame)) = read_frame(&mut conn) {
                    match frame {
                        (FrameKind::Req, payload) => {
                            let (seq, request) = match parse_req(&payload) {
                                Ok(r) => r,
                                Err(_) => break, // poisoned stream
                            };
                            match reader_rt.submit(request) {
                                Ok(handle) => {
                                    if tx.send((seq, handle)).is_err() {
                                        break;
                                    }
                                }
                                Err(e) => {
                                    send(&reader_writer, FrameKind::Err, &encode_err(seq, &e));
                                }
                            }
                        }
                        (FrameKind::Ctrl, payload) => {
                            let text = std::str::from_utf8(&payload).map_err(|e| e.to_string());
                            match text.and_then(Ctrl::parse) {
                                Ok(Ctrl::SetReplicas(r)) => {
                                    let result =
                                        reader_rt.apply_control(&ControlAction::SetReplicas(r));
                                    let ack = Ack {
                                        op: "set_replicas".to_string(),
                                        error: result.err().map(|e| e.to_string()),
                                    };
                                    send(&reader_writer, FrameKind::Ack, &ack.encode());
                                }
                                Ok(Ctrl::Shutdown) => {
                                    let ack = Ack {
                                        op: "shutdown".to_string(),
                                        error: None,
                                    };
                                    send(&reader_writer, FrameKind::Ack, &ack.encode());
                                    break;
                                }
                                Err(_) => break,
                            }
                        }
                        // Anything else from a router is a protocol
                        // violation; refuse to guess.
                        _ => break,
                    }
                }
            })
            .expect("spawn shard reader thread");

        Ok(Self {
            runtime,
            mute,
            reader: Some(reader),
            pump: Some(pump),
        })
    }

    /// Suppress (or resume) Snap-frame heartbeats without touching the
    /// hosted runtime — the handle for exercising the router's
    /// snapshot-staleness health detection deterministically.
    pub fn mute_snapshots(&self, mute: bool) {
        self.mute.store(mute, Ordering::Relaxed);
    }

    /// The hosted runtime (introspection in tests and examples).
    pub fn runtime(&self) -> &ServeRuntime {
        &self.runtime
    }

    /// Wait for the connection to wind down (router shutdown or
    /// hang-up), drain every admitted request, shut the runtime down,
    /// and return its final metrics.
    ///
    /// The final runtime snapshot is exported through the frame sink on
    /// this path, so a router that is still listening sees one last
    /// heartbeat with the shard's closing counters.
    pub fn join(mut self) -> tn_serve::MetricsSnapshot {
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        if let Some(p) = self.pump.take() {
            let _ = p.join();
        }
        let runtime = Arc::try_unwrap(self.runtime)
            .expect("shard threads joined; no other runtime owners remain");
        runtime.shutdown()
    }
}
