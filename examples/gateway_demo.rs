//! Serve a trained model over TCP with `tn-gateway` and drive it the way
//! any external client would — bare `std::net::TcpStream`s, no HTTP
//! library on either side:
//!
//! 1. train test bench 1 (tiny scale) and bind a gateway on an ephemeral
//!    port;
//! 2. hit `/healthz`, `/v1/config`, and `POST /v1/classify` over
//!    keep-alive HTTP/1.1;
//! 3. load it from several concurrent pipelining clients and report
//!    over-the-wire accuracy and throughput;
//! 4. poll `/v1/snapshot` for the live telemetry trail;
//! 5. saturate a deliberately tiny queue to show `503` + `Retry-After`
//!    load shedding;
//! 6. drain gracefully and print the final metrics.
//!
//! Run with: `cargo run --release --example gateway_demo`
//!
//! Pass `--telemetry path.jsonl` to export the `tn-telemetry/1` snapshot
//! trail (validate with `snapshot_check`). Knobs: `TN_GATEWAY_CLIENTS`
//! (default 4), `TN_GATEWAY_REQUESTS` per client (default 48), plus the
//! usual `TN_TRAIN`/`TN_TEST`/`TN_EPOCHS`.

use std::fs::File;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tn_telemetry::JsonLinesSink;
use truenorth::prelude::*;

const SEED: u64 = 61;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A pipelining HTTP/1.1 client over one bare `TcpStream`.
struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(Self {
            stream: TcpStream::connect(addr)?,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read the next Content-Length-framed response: (status, body).
    fn recv(&mut self) -> std::io::Result<(u16, String)> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .expect("status code");
                let len: usize = head
                    .lines()
                    .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string))
                    .and_then(|v| v.trim().parse().ok())
                    .expect("Content-Length");
                if self.buf.len() >= head_end + 4 + len {
                    let body =
                        String::from_utf8_lossy(&self.buf[head_end + 4..head_end + 4 + len])
                            .into_owned();
                    self.buf.drain(..head_end + 4 + len);
                    return Ok((status, body));
                }
            }
            let got = self.stream.read(&mut chunk)?;
            assert!(got > 0, "server closed mid-response");
            self.buf.extend_from_slice(&chunk[..got]);
        }
    }
}

fn classify_request(frame: &[f32]) -> Vec<u8> {
    let nums: Vec<String> = frame.iter().map(|v| v.to_string()).collect();
    let body = format!("{{\"frame\":[{}]}}", nums.join(","));
    format!(
        "POST /v1/classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// Pull `"field":<digits>` out of a flat JSON body (the demo avoids a
/// full parser; the integration tests do strict parsing).
fn json_usize(body: &str, field: &str) -> Option<usize> {
    let at = body.find(&format!("\"{field}\":"))? + field.len() + 3;
    let digits: String = body[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// One client worker: `n` classifies pipelined in bursts of 16.
fn run_client(
    addr: SocketAddr,
    data: &BenchData,
    offset: usize,
    n: usize,
) -> std::io::Result<(usize, usize)> {
    let mut client = HttpClient::connect(addr)?;
    let n_test = data.test_y.len();
    let (mut ok, mut correct) = (0usize, 0usize);
    let rows: Vec<usize> = (0..n).map(|i| (offset + i) % n_test).collect();
    for burst in rows.chunks(16) {
        for &row in burst {
            client.send(&classify_request(data.test_x.row(row)))?;
        }
        for &row in burst {
            let (status, body) = client.recv()?;
            if status == 200 {
                ok += 1;
                if json_usize(&body, "predicted") == Some(data.test_y[row]) {
                    correct += 1;
                }
            }
        }
    }
    Ok((ok, correct))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_out: Option<String> = args
        .iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1))
        .filter(|v| !v.starts_with("--"))
        .cloned();
    let scale = RunScale {
        n_train: env_usize("TN_TRAIN", 600),
        n_test: env_usize("TN_TEST", 120),
        epochs: env_usize("TN_EPOCHS", 2),
        seeds: 1,
        threads: 2,
    };
    let n_clients = env_usize("TN_GATEWAY_CLIENTS", 4).max(1);
    let per_client = env_usize("TN_GATEWAY_REQUESTS", 48).max(1);

    println!("== training test bench 1 (probability-biased) ==");
    let bench = TestBench::new(1, SEED);
    let data = Arc::new(bench.load_data(&scale, SEED));
    let model = train_model(&bench, &data, bench.biasing_penalty(), &scale, SEED)?;
    println!("float accuracy {:.4}", model.float_accuracy);

    // -- bind ------------------------------------------------------------
    let sink: Arc<dyn MetricsSink> = match &telemetry_out {
        Some(path) => Arc::new(JsonLinesSink::new(File::create(path)?)),
        None => Arc::new(NullSink),
    };
    let serve_cfg = ServeConfig::builder(SEED)
        .replicas(2)
        .workers(2)
        .queue_capacity(256)
        .batch_max(16)
        .kernel_batch(8)
        .telemetry(TelemetryConfig {
            interval: Duration::from_millis(25),
        })
        .build()?;
    let spec = extract_spec(&model.network)?;
    let gw = Gateway::bind("127.0.0.1:0", &spec, serve_cfg, GatewayConfig::default(), sink)?;
    let addr = gw.local_addr();
    println!("\n== gateway listening on {addr} ==");

    // -- the wire API, one endpoint at a time ----------------------------
    let mut probe = HttpClient::connect(addr)?;
    probe.send(b"GET /healthz HTTP/1.1\r\n\r\n")?;
    let (status, body) = probe.recv()?;
    println!("GET /healthz        -> {status} {body}");
    probe.send(b"GET /v1/config HTTP/1.1\r\n\r\n")?;
    let (status, body) = probe.recv()?;
    println!("GET /v1/config      -> {status} {body}");
    probe.send(&classify_request(data.test_x.row(0)))?;
    let (status, body) = probe.recv()?;
    println!("POST /v1/classify   -> {status} {body}");

    // -- concurrent pipelined load ---------------------------------------
    println!("\n== {n_clients} clients x {per_client} pipelined requests ==");
    let t0 = Instant::now();
    let workers: Vec<_> = (0..n_clients)
        .map(|c| {
            let data = Arc::clone(&data);
            std::thread::spawn(move || run_client(addr, &data, c * per_client, per_client))
        })
        .collect();
    let (mut ok, mut correct) = (0usize, 0usize);
    for w in workers {
        let (o, c) = w.join().expect("client thread")?;
        ok += o;
        correct += c;
    }
    let wall = t0.elapsed();
    let total = n_clients * per_client;
    assert_eq!(ok, total, "every request must be served (queue is deep)");
    println!(
        "{total} requests in {wall:.2?} ({:.1} req/s over the wire), accuracy {:.4}",
        total as f64 / wall.as_secs_f64(),
        correct as f32 / total as f32,
    );

    // -- live telemetry over the wire ------------------------------------
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        probe.send(b"GET /v1/snapshot HTTP/1.1\r\n\r\n")?;
        let (status, body) = probe.recv()?;
        if status == 200 {
            let trimmed = if body.len() > 120 { &body[..120] } else { &body };
            println!("\nGET /v1/snapshot    -> {status} {trimmed}...");
            break;
        }
        assert!(Instant::now() < deadline, "telemetry snapshot never exported");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(probe);

    // -- graceful drain ---------------------------------------------------
    let snap = gw.shutdown();
    println!(
        "drained: {} completed, {} rejected, p99 {}us, {:.3e} J/frame",
        snap.completed,
        snap.rejected,
        snap.p99_latency.as_micros(),
        snap.joules_per_frame(),
    );
    assert!(snap.completed >= total as u64, "drain lost admitted requests");

    // -- forced saturation: load shedding in action ----------------------
    println!("\n== saturation demo: capacity-1 queue, slow frames ==");
    let slow_cfg = ServeConfig::builder(SEED)
        .workers(1)
        .spf(2048)
        .queue_capacity(1)
        .batch_max(1)
        .build()?;
    let sink = Arc::new(NullSink);
    let gw = Gateway::bind("127.0.0.1:0", &spec, slow_cfg, GatewayConfig::default(), sink)?;
    let mut client = HttpClient::connect(gw.local_addr())?;
    let burst = 16usize;
    for _ in 0..burst {
        client.send(&classify_request(data.test_x.row(0)))?;
    }
    let (mut served, mut shed) = (0usize, 0usize);
    for _ in 0..burst {
        match client.recv()?.0 {
            200 => served += 1,
            503 => shed += 1,
            other => panic!("unexpected status {other} under saturation"),
        }
    }
    drop(client);
    let snap = gw.shutdown();
    println!(
        "burst of {burst}: {served} served, {shed} shed with 503 + Retry-After \
         (runtime counted {} rejected)",
        snap.rejected
    );
    assert!(shed > 0, "a capacity-1 queue must shed a 16-deep burst");
    assert_eq!(served + shed, burst);

    if let Some(path) = telemetry_out {
        println!("\ntelemetry trail written to {path}");
    }
    Ok(())
}
