//! The accept thread, the live-connection registry, and the drain.
//!
//! One thread blocks in [`TcpListener::accept`]. Each accepted socket gets
//! a connection thread (see [`crate::conn`]), which reads requests and
//! runs a scoped writer thread beside it. Nothing polls: readers block in
//! `read`, writers block on the completion handle's condvar or in
//! `write_all`, and the accept thread blocks in `accept`.
//!
//! # Drain
//!
//! [`crate::Gateway`] raises the stop flag and connects once to its own
//! port to wake `accept`. The accept thread then drops the listener (new
//! connects are refused by the OS), shuts down the read half of every
//! live socket so each reader sees EOF, and waits for the writers to
//! flush their admitted requests — bounded by
//! [`crate::GatewayConfig::drain_timeout`] against clients that stop
//! reading their responses. Past the deadline it shuts down whatever is
//! left, then joins every connection thread.

use std::any::Any;
use std::collections::HashMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::conn::{self, Pending};
use crate::proto;
use crate::router::ServiceCtx;
use crate::GatewayConfig;

/// What the accept thread and every connection thread share.
#[derive(Debug)]
pub(crate) struct Conns {
    pub(crate) ctx: ServiceCtx,
    pub(crate) cfg: GatewayConfig,
    stop: Arc<AtomicBool>,
    /// Set once, when the drain starts.
    deadline: OnceLock<Instant>,
    /// A handle on every live connection's socket, for the drain's
    /// shutdowns; its length is the number of open connections.
    live: Mutex<HashMap<u64, TcpStream>>,
    exited: Condvar,
}

impl Conns {
    /// Whether the gateway is draining (readers stop admitting). Pairs
    /// with the `Release` store in `Gateway::stop_serving`.
    pub(crate) fn draining(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The drain deadline, once the drain has started.
    pub(crate) fn drain_deadline(&self) -> Option<Instant> {
        self.deadline.get().copied()
    }

    fn shutdown_live(&self, how: Shutdown) {
        for stream in self.live.lock().expect("live lock").values() {
            let _ = stream.shutdown(how);
        }
    }
}

/// Releases a connection's slot when its threads exit, panics included.
struct Slot {
    conns: Arc<Conns>,
    id: u64,
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.conns.live.lock().expect("live lock").remove(&self.id);
        self.conns.exited.notify_all();
    }
}

/// Accept and serve connections until `stop` rises, then drain.
pub(crate) fn run(
    listener: TcpListener,
    ctx: ServiceCtx,
    cfg: GatewayConfig,
    stop: Arc<AtomicBool>,
) {
    let conns = Arc::new(Conns {
        ctx,
        cfg,
        stop,
        deadline: OnceLock::new(),
        live: Mutex::new(HashMap::new()),
        exited: Condvar::new(),
    });
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut panicked = None;
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if conns.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        reap(&mut threads, false, &mut panicked);
        if let Some(thread) = admit(stream, id, &conns) {
            threads.push(thread);
        }
    }
    drop(listener);

    let deadline = *conns
        .deadline
        .get_or_init(|| Instant::now() + conns.cfg.drain_timeout);
    conns.shutdown_live(Shutdown::Read);
    let mut live = conns.live.lock().expect("live lock");
    while !live.is_empty() {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        live = conns.exited.wait_timeout(live, left).expect("live lock").0;
    }
    drop(live);
    conns.shutdown_live(Shutdown::Both);
    reap(&mut threads, true, &mut panicked);
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
}

/// Join the connection threads that have finished (every one with
/// `all`), keeping the first panic to re-raise once the drain is over.
fn reap(threads: &mut Vec<JoinHandle<()>>, all: bool, panicked: &mut Option<Box<dyn Any + Send>>) {
    let (done, running) = std::mem::take(threads)
        .into_iter()
        .partition(|t| all || t.is_finished());
    *threads = running;
    for thread in done {
        if let Err(payload) = thread.join() {
            panicked.get_or_insert(payload);
        }
    }
}

/// Start a connection thread for `stream`, or refuse it with `503` +
/// `Retry-After: 1` when the gateway is at its connection cap.
fn admit(stream: TcpStream, id: u64, conns: &Arc<Conns>) -> Option<JoinHandle<()>> {
    // Responses are small; coalescing delay would dominate latency.
    let _ = stream.set_nodelay(true);
    {
        let mut live = conns.live.lock().expect("live lock");
        if live.len() >= conns.cfg.max_connections {
            drop(live);
            refuse(stream, conns);
            return None;
        }
        live.insert(id, stream.try_clone().ok()?);
    }
    let slot = Slot {
        conns: Arc::clone(conns),
        id,
    };
    std::thread::Builder::new()
        .name("tn-gateway-conn".into())
        .spawn(move || conn::serve(&stream, &slot.conns))
        .ok()
}

/// Answer a connection over the cap with `503` and close it. The response
/// is a few hundred bytes into a fresh socket, so the write cannot block.
fn refuse(mut stream: TcpStream, conns: &Conns) {
    let refusal = Pending::ready(
        503,
        proto::error_json("overloaded", "gateway connection limit reached"),
    )
    .with_retry_after(1)
    .closing();
    if let Some((bytes, _)) = refusal.render(&conns.ctx, None) {
        let _ = std::io::Write::write_all(&mut stream, &bytes);
    }
}
