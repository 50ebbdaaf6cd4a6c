//! One client connection: a reader thread and a writer thread over one
//! blocking socket.
//!
//! The *reader* blocks in `read`, parses complete HTTP/1.1 requests,
//! routes each one, and queues the resulting [`Pending`] on the
//! connection's FIFO.
//! The *writer* pops the FIFO in arrival order, blocks on each classify
//! handle until a worker completes it, renders the response and writes
//! it. Responses therefore leave in request order, as HTTP/1.1
//! pipelining requires, and a connection's submissions reach the runtime
//! in arrival order.
//!
//! Backpressure is layered: per connection, the reader admits no request
//! while [`crate::GatewayConfig::max_in_flight_per_conn`] are admitted and
//! unanswered, so it stops reading and the socket's receive buffer
//! throttles the client via TCP; globally, queue admission rejects
//! surface as `503` + `Retry-After`. The FIFO is bounded by that cap.
//!
//! The reader stops at EOF, on a read error, after a close-bound request,
//! or once the gateway drains; the writer then flushes what was admitted
//! and shuts the socket down. A write error or a close-bound response
//! shuts the socket down at once, which also wakes a reader blocked in
//! `read`.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Instant;

use tn_serve::{RequestHandle, ServeError};

use crate::http::{parse_request, HttpLimits, HttpResponse, Parsed};
use crate::proto;
use crate::router::{self, ServiceCtx};
use crate::server::Conns;

/// What a queued response is waiting on.
#[derive(Debug)]
enum Payload {
    /// Already rendered (introspection endpoints, errors).
    Ready(String),
    /// A submitted classify request; completes when a worker serves it.
    Handle(RequestHandle),
}

/// One response slot in a connection's FIFO.
#[derive(Debug)]
pub(crate) struct Pending {
    payload: Payload,
    status: u16,
    retry_after: Option<u64>,
    close: bool,
}

impl Pending {
    /// An immediately renderable response.
    pub(crate) fn ready(status: u16, body: String) -> Self {
        Self {
            payload: Payload::Ready(body),
            status,
            retry_after: None,
            close: false,
        }
    }

    /// A classify response awaiting runtime completion.
    pub(crate) fn handle(handle: RequestHandle) -> Self {
        Self {
            payload: Payload::Handle(handle),
            status: 200,
            retry_after: None,
            close: false,
        }
    }

    /// Attach a `Retry-After` hint.
    pub(crate) fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }

    /// Close the connection after this response is flushed.
    pub(crate) fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// Block until the response is complete and serialize it; returns the
    /// wire bytes and whether the connection closes after them. Once the
    /// gateway drains, the wait is bounded by the drain `deadline`, and
    /// `None` means the deadline passed first.
    pub(crate) fn render(
        self,
        ctx: &ServiceCtx,
        deadline: Option<Instant>,
    ) -> Option<(Vec<u8>, bool)> {
        let (status, body, retry_after, close) = match self.payload {
            Payload::Ready(body) => (self.status, body, self.retry_after, self.close),
            Payload::Handle(handle) => {
                let result = match deadline {
                    None => handle.wait(),
                    Some(at) => handle.wait_timeout(at.saturating_duration_since(Instant::now())),
                };
                match result {
                    Ok(resp) => {
                        let jpf = ctx.rt.joules_per_frame();
                        (200, proto::classify_json(&resp, jpf), None, self.close)
                    }
                    Err(ServeError::WaitTimeout) => return None,
                    Err(ServeError::ShuttingDown) => (
                        503,
                        proto::error_json("shutting_down", "gateway is draining"),
                        None,
                        true,
                    ),
                    Err(e) => (
                        500,
                        proto::error_json("internal", &e.to_string()),
                        None,
                        true,
                    ),
                }
            }
        };
        let mut resp = HttpResponse::json(status, body);
        if let Some(secs) = retry_after {
            resp = resp.with_retry_after(secs);
        }
        if close {
            resp = resp.with_close();
        }
        let mut out = Vec::new();
        resp.write_to(&mut out);
        Some((out, close))
    }
}

/// Serve one accepted connection on the calling thread (the reader) plus
/// one scoped writer thread; returns once both have finished.
pub(crate) fn serve(stream: &TcpStream, conns: &Conns) {
    let (queue, fifo) = mpsc::channel();
    let (answered, answers) = mpsc::channel();
    std::thread::scope(|s| {
        let writer = std::thread::Builder::new()
            .name("tn-gateway-write".into())
            .spawn_scoped(s, move || write_loop(stream, fifo, answered, conns));
        if writer.is_ok() {
            read_loop(stream, conns, queue, &answers);
        }
    });
}

/// Parse, route and queue requests until the connection or the gateway
/// stops reading.
fn read_loop(
    mut stream: &TcpStream,
    conns: &Conns,
    queue: Sender<Pending>,
    answers: &Receiver<()>,
) {
    let limits = HttpLimits {
        max_header_bytes: conns.cfg.max_header_bytes,
        max_body_bytes: conns.cfg.max_body_bytes,
    };
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut unanswered = 0usize;
    loop {
        // At the cap, admit nothing until the writer has answered one; a
        // closed channel means the writer is gone.
        if unanswered == conns.cfg.max_in_flight_per_conn {
            if answers.recv().is_err() {
                return;
            }
            unanswered -= 1;
        }
        let pend = loop {
            if conns.draining() {
                return;
            }
            if let Some(pend) = next_request(&mut buf, &limits, &conns.ctx) {
                break pend;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        };
        let close = pend.close;
        if queue.send(pend).is_err() || close {
            return;
        }
        unanswered += 1;
    }
}

/// Take and route the next complete request off `buf`, or `None` if more
/// bytes are needed.
fn next_request(buf: &mut Vec<u8>, limits: &HttpLimits, ctx: &ServiceCtx) -> Option<Pending> {
    match parse_request(buf, limits) {
        Parsed::Incomplete => None,
        Parsed::Request { request, consumed } => {
            buf.drain(..consumed);
            Some(router::handle_http(&request, ctx))
        }
        Parsed::Error(e) => {
            let status = e.status();
            let body = proto::error_json(proto::http_error_code(status), &e.to_string());
            Some(Pending::ready(status, body).closing())
        }
    }
}

/// Answer queued requests in order until the FIFO closes, a write fails,
/// a close-bound response is sent, or the drain deadline passes; then
/// shut the socket down.
fn write_loop(
    mut stream: &TcpStream,
    fifo: Receiver<Pending>,
    answered: Sender<()>,
    conns: &Conns,
) {
    for pend in fifo {
        let Some((bytes, close)) = pend.render(&conns.ctx, conns.drain_deadline()) else {
            break;
        };
        if stream.write_all(&bytes).is_err() || close {
            break;
        }
        let _ = answered.send(());
    }
    let _ = stream.shutdown(Shutdown::Both);
}
