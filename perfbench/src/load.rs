//! The open-loop load generator: one sender and one collector thread.
//!
//! The sender fires each request at its scheduled offset no matter how
//! many are still outstanding, and the collector stamps each answer as it
//! arrives. Latency runs from the *scheduled* send time, so a stall that
//! delays later sends is charged to them (no coordinated omission), and
//! the sender's own lateness is recorded beside it.
//!
//! Two transports: [`Wire`] writes pre-encoded HTTP/1.1 requests down one
//! keep-alive connection (responses come back in request order), and
//! [`InProcess`] calls `ServeRuntime::submit` and waits on the handles in
//! submission order.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tn_serve::{QueueStats, RequestHandle, ServeError, ServeRuntime, SubmitRequest};

/// One scheduled request: a test-set row and a variant (tenant model or
/// quality tier, depending on the workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub row: usize,
    pub variant: usize,
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Answer(Answer),
    /// Refused at admission (HTTP 503 / `QueueFull`).
    Refused,
    /// Any other error status, transport failure, or missing answer.
    Error(String),
}

/// A served answer, as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub seq: u64,
    pub predicted: usize,
    pub votes: Vec<u64>,
    pub escalated: bool,
    /// The backend's own submit → complete latency, ns.
    pub backend_ns: u64,
}

/// One request's record in the benchmark's sample store. Times are ns
/// since the run's base instant.
#[derive(Debug, Clone)]
pub struct Sample {
    pub req: Req,
    pub sched_ns: u64,
    pub sent_ns: u64,
    /// Time inside the write (wire) or submit call (in-process).
    pub io_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
    pub req_bytes: usize,
    pub resp_bytes: usize,
}

impl Sample {
    /// Client latency from the scheduled send time; a failure counts as
    /// infinitely late, so it misses every latency limit.
    pub fn latency_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Answer(_) => self.done_ns.saturating_sub(self.sched_ns) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }

    pub fn answer(&self) -> Option<&Answer> {
        match &self.outcome {
            Outcome::Answer(a) => Some(a),
            _ => None,
        }
    }
}

/// One phase's results.
#[derive(Debug, Clone)]
pub struct Phase {
    pub rate: f64,
    pub start_ns: u64,
    pub samples: Vec<Sample>,
    /// Highest queue depth polled while the phase ran.
    pub depth_max: usize,
}

impl Phase {
    pub fn end_ns(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.done_ns)
            .max()
            .unwrap_or(self.start_ns)
    }

    /// Answers per second from phase start to the last answer.
    pub fn completed_rps(&self) -> f64 {
        let answered = self.samples.iter().filter(|s| s.answer().is_some()).count();
        let secs = self.end_ns().saturating_sub(self.start_ns) as f64 / 1e9;
        if secs > 0.0 {
            answered as f64 / secs
        } else {
            0.0
        }
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.answer().is_none()).count()
    }

    /// Ascending client latencies (failures as +inf).
    pub fn sorted_latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(Sample::latency_ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// How a phase's requests reach the server.
pub trait Transport {
    /// Send `reqs[i]` at `base + start_ns + sched[i]` and collect every
    /// answer. `poll` reads the backend's live queue gauge.
    fn run(
        &self,
        base: Instant,
        reqs: &[Req],
        sched: &[u64],
        poll: &dyn Fn() -> QueueStats,
    ) -> Phase;
}

fn ns_since(base: Instant) -> u64 {
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sleep until `base + t_ns` (returns at once when already late).
fn wait_until(base: Instant, t_ns: u64) {
    let now = ns_since(base);
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

/// Drive the sender loop shared by both transports: wait for each slot,
/// `send` it (returning the io time and request size), and poll the queue
/// gauge about once a millisecond.
fn send_loop(
    base: Instant,
    start_ns: u64,
    sched: &[u64],
    poll: &dyn Fn() -> QueueStats,
    mut send: impl FnMut(usize, u64),
) -> usize {
    let mut depth_max = 0;
    let mut last_poll = 0u64;
    for (i, &t) in sched.iter().enumerate() {
        wait_until(base, start_ns + t);
        let sent = ns_since(base);
        send(i, sent);
        if sent.saturating_sub(last_poll) > 1_000_000 {
            depth_max = depth_max.max(poll().depth);
            last_poll = sent;
        }
    }
    depth_max.max(poll().depth)
}

/// Requests over one persistent HTTP/1.1 connection, bodies encoded once
/// at set-up so JSON formatting of 784 floats never competes with the
/// server.
pub struct Wire {
    stream: Mutex<TcpStream>,
    /// `bodies[variant][row]`: a complete `POST /v1/classify` request.
    bodies: Arc<Vec<Vec<Vec<u8>>>>,
}

/// Render one classify request; `quality` names a tier, if any.
pub fn http_request(frame: &[f32], quality: Option<&str>) -> Vec<u8> {
    let nums: Vec<String> = frame.iter().map(|v| v.to_string()).collect();
    let quality = quality.map_or(String::new(), |q| format!(",\"quality\":\"{q}\""));
    let body = format!("{{\"frame\":[{}]{quality}}}", nums.join(","));
    format!(
        "POST /v1/classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

impl Wire {
    pub fn connect(addr: SocketAddr, bodies: Arc<Vec<Vec<Vec<u8>>>>) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        Ok(Self {
            stream: Mutex::new(stream),
            bodies,
        })
    }
}

impl Transport for Wire {
    fn run(
        &self,
        base: Instant,
        reqs: &[Req],
        sched: &[u64],
        poll: &dyn Fn() -> QueueStats,
    ) -> Phase {
        let mut writer = self.stream.lock().expect("wire stream lock");
        let mut reader = writer.try_clone().expect("clone wire stream");
        let start_ns = ns_since(base);
        let n = reqs.len();
        let mut sent = vec![(0u64, 0u64, 0usize); n];
        let (depth_max, received) = std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                let mut parser = ResponseReader::default();
                (0..n)
                    .map(|_| match parser.next(&mut reader) {
                        Ok((status, body)) => {
                            let done = ns_since(base);
                            let outcome = match status {
                                200 => parse_answer(&body).map_or_else(
                                    || Outcome::Error(format!("bad body: {body}")),
                                    Outcome::Answer,
                                ),
                                503 => Outcome::Refused,
                                s => Outcome::Error(format!("status {s}: {body}")),
                            };
                            (done, outcome, body.len())
                        }
                        Err(e) => (ns_since(base), Outcome::Error(e.to_string()), 0),
                    })
                    .collect::<Vec<_>>()
            });
            let depth_max = send_loop(base, start_ns, sched, poll, |i, at| {
                let body = &self.bodies[reqs[i].variant][reqs[i].row];
                // A failed write leaves this request unanswered; the
                // collector then times out and reports it as an error.
                let _ = writer.write_all(body);
                sent[i] = (at, ns_since(base) - at, body.len());
            });
            (depth_max, collector.join().expect("collector thread"))
        });
        let samples = received
            .into_iter()
            .zip(sent)
            .enumerate()
            .map(
                |(i, ((done_ns, outcome, resp_bytes), (sent_ns, io_ns, req_bytes)))| Sample {
                    req: reqs[i],
                    sched_ns: start_ns + sched[i],
                    sent_ns,
                    io_ns,
                    done_ns,
                    outcome,
                    req_bytes,
                    resp_bytes,
                },
            )
            .collect();
        Phase {
            rate: 0.0,
            start_ns,
            samples,
            depth_max,
        }
    }
}

/// Incremental reader of Content-Length-framed HTTP/1.1 responses.
#[derive(Default)]
struct ResponseReader {
    buf: Vec<u8>,
    /// Where to resume scanning for the end of the head.
    scanned: usize,
}

impl ResponseReader {
    fn next(&mut self, stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(rel) = self.buf[self.scanned..]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                let head_end = self.scanned + rel;
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| std::io::Error::other("non-UTF-8 response head"))?;
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| std::io::Error::other("bad status line"))?;
                let len: usize = head
                    .lines()
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse().ok())?
                    })
                    .ok_or_else(|| std::io::Error::other("no Content-Length"))?;
                let end = head_end + 4 + len;
                if self.buf.len() >= end {
                    let body = String::from_utf8_lossy(&self.buf[head_end + 4..end]).into_owned();
                    self.buf.drain(..end);
                    self.scanned = 0;
                    return Ok((status, body));
                }
            } else {
                self.scanned = self.buf.len().saturating_sub(3);
            }
            let got = stream.read(&mut chunk)?;
            if got == 0 {
                return Err(std::io::Error::other("gateway closed the connection"));
            }
            self.buf.extend_from_slice(&chunk[..got]);
        }
    }
}

/// The text after `"key":` in a flat JSON body.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    Some(&body[at..])
}

fn leading_u64(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

/// Pull the fields the benchmark checks out of a classify response.
pub fn parse_answer(body: &str) -> Option<Answer> {
    let votes = field(body, "votes")?.strip_prefix('[')?;
    let votes = &votes[..votes.find(']')?];
    Some(Answer {
        seq: leading_u64(field(body, "seq")?)?,
        predicted: leading_u64(field(body, "predicted")?)? as usize,
        votes: votes
            .split(',')
            .filter(|v| !v.is_empty())
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?,
        escalated: field(body, "escalated")?.starts_with("true"),
        backend_ns: leading_u64(field(body, "latency_us")?)? * 1000,
    })
}

/// Requests submitted straight into a runtime; `variant` is the tenant
/// model.
pub struct InProcess {
    pub rt: Arc<ServeRuntime>,
    /// Test-set frames, one per row.
    pub frames: Vec<Vec<f32>>,
}

impl Transport for InProcess {
    fn run(
        &self,
        base: Instant,
        reqs: &[Req],
        sched: &[u64],
        poll: &dyn Fn() -> QueueStats,
    ) -> Phase {
        let start_ns = ns_since(base);
        type Submitted = (usize, u64, u64, Result<RequestHandle, ServeError>);
        let (tx, rx) = mpsc::channel::<Submitted>();
        let (depth_max, received) = std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                rx.into_iter()
                    .map(|(i, sent, io, submitted)| {
                        let outcome = match submitted.map(RequestHandle::wait) {
                            Ok(Ok(r)) => Outcome::Answer(Answer {
                                seq: r.seq,
                                predicted: r.predicted,
                                votes: r.votes,
                                escalated: r.served.escalated(),
                                backend_ns: u64::try_from(r.latency.as_nanos()).unwrap_or(u64::MAX),
                            }),
                            Err(ServeError::QueueFull) => Outcome::Refused,
                            Ok(Err(e)) | Err(e) => Outcome::Error(e.to_string()),
                        };
                        (i, sent, io, ns_since(base), outcome)
                    })
                    .collect::<Vec<_>>()
            });
            let depth_max = send_loop(base, start_ns, sched, poll, |i, at| {
                let req = reqs[i];
                let request = SubmitRequest::new(self.frames[req.row].clone()).model(req.variant);
                let submitted = self.rt.submit(request);
                let io = ns_since(base) - at;
                tx.send((i, at, io, submitted)).expect("collector alive");
            });
            drop(tx);
            (depth_max, collector.join().expect("collector thread"))
        });
        let samples = received
            .into_iter()
            .map(|(i, sent_ns, io_ns, done_ns, outcome)| Sample {
                req: reqs[i],
                sched_ns: start_ns + sched[i],
                sent_ns,
                io_ns,
                done_ns,
                outcome,
                req_bytes: 0,
                resp_bytes: 0,
            })
            .collect();
        Phase {
            rate: 0.0,
            start_ns,
            samples,
            depth_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_responses_parse() {
        let body = "{\"seq\":41,\"predicted\":7,\"votes\":[0,3,12],\"replica_predictions\":[7],\
                    \"agreement\":1,\"class\":0,\"model\":0,\"spf\":2,\"tier\":\"guarded\",\
                    \"confidence\":0.5,\"escalated\":true,\"ticks\":9,\"latency_us\":812,\
                    \"joules_per_frame\":1e-6}";
        let a = parse_answer(body).expect("parses");
        assert_eq!(a.seq, 41);
        assert_eq!(a.predicted, 7);
        assert_eq!(a.votes, vec![0, 3, 12]);
        assert!(a.escalated);
        assert_eq!(a.backend_ns, 812_000);
        assert_eq!(parse_answer("{\"error\":{}}"), None);
    }

    #[test]
    fn requests_carry_an_exact_content_length() {
        let req = http_request(&[0.5, 1.0, 0.0], Some("fast"));
        let text = String::from_utf8(req).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.ends_with(&format!("Content-Length: {}", body.len())));
        assert_eq!(body, "{\"frame\":[0.5,1,0],\"quality\":\"fast\"}");
    }
}
