//! Load-generate against the `tn-serve` runtime: train test bench 1 with
//! Tea and with probability-biased learning, persist the models, reload
//! them from disk, and serve ≥ 1000 synthetic-MNIST requests per
//! (model × replica-count × kernel-batch) cell, reporting throughput,
//! latency percentiles, replica vote agreement, energy per frame — and
//! the paper's co-optimization claim live: the biased model reaches the
//! Tea model's accuracy with no more replicas. The kernel-batch sweep
//! shows the batch-first redesign paying off: fusing queued requests
//! into lockstep kernel lanes raises req/s without changing one vote.
//! A final pair of cells serves the same stream at a fixed spf and with
//! the controller's spf actuator enabled, showing the energy /
//! throughput win of adapting spf while replica agreement runs high.
//!
//! Run with: `cargo run --release --example serve_throughput`
//!
//! Pass `--telemetry [path.jsonl]` to finish with an adaptive-control
//! run: a runtime with the [`Controller`] and telemetry enabled serves a
//! saturating burst while exporting `tn-telemetry/1` JSON-lines
//! snapshots (default path `tn_serve_telemetry.jsonl`; validate with the
//! `snapshot_check` bin from `tn-telemetry`).
//!
//! Pass `--gateway` to additionally measure the same workload **over
//! the wire**: each gateway cell binds a `tn-gateway` front-end on an
//! ephemeral port and drives it with a pipelining
//! `std::net::TcpStream` client, so its rows include HTTP
//! parse/serialize cost and a real socket round trip. The cells land in
//! the JSON summary under `gateway_cells`.
//!
//! Pass `--packed [trail.jsonl]` to run the **consolidation benchmark**:
//! train a second test bench (bench 5) and serve both models once as two
//! solo runtimes splitting the worker pool, and once consolidated onto a
//! single packed chip serving the full pool
//! ([`truenorth::serving::serve_packed_networks`]). Both cells serve the
//! identical closed-loop workload at equal total worker threads; the
//! packed runtime must win on aggregate req/s while each tenant's
//! accuracy stays *exactly* equal to its solo run (responses are
//! bit-identical by construction). The cells land in the JSON summary
//! under `consolidation_cells`; with a trail path given, the packed run
//! exports per-tenant `serve.model.{id}.*` telemetry there.
//!
//! Pass `--tiers [trail.jsonl]` to run the **quality-tier benchmark**:
//! the biased model serves the identical stream three times through a
//! tiered runtime — once on `fast` (1 replica, spf/4), once on
//! `certain` (4 replicas, full spf), and once on `guarded` (fast's
//! operating point plus a calibrated-confidence floor that escalates
//! low-margin answers onto `certain`). Confidence is calibrated from
//! held-out training frames before serving. The cells land in the JSON
//! summary under `tier_cells`; with a trail path given, a final mixed
//! run (round-robin across the three tiers) exports per-tier
//! `serve.tier.{t}.*` telemetry there (validate with
//! `snapshot_check --tiers 3`).
//!
//! Pass `--fleet [trail.jsonl]` to run the **scale-out benchmark**: the
//! biased model served through an in-process `tn-fleet` — shard workers
//! each hosting a full replica-set runtime behind the framed fleet
//! protocol, one router dispatching over them — once with 1 shard and
//! once with `TN_FLEET_SHARDS` (default 2) shards at equal per-shard
//! workers. The N-shard fleet must win on aggregate req/s while its
//! answer stream stays **bit-identical** to the 1-shard fleet (and to a
//! solo runtime — the router pins every request's fleet-global seq). The
//! cells land in the JSON summary under `fleet_cells`; with a trail path
//! given, the N-shard run's aggregated `tn-telemetry/1` heartbeats are
//! exported there (validate with `snapshot_check`).
//!
//! Knobs: `TN_SERVE_REQUESTS` (default 1000), `TN_SERVE_WORKERS` (2),
//! `TN_SERVE_SPF` (8), `TN_FLEET_SHARDS` (2), `TN_SERVE_JSON` (write a
//! machine-readable summary to this path), plus the usual
//! `TN_TRAIN`/`TN_TEST`/`TN_EPOCHS`.

use std::fs::File;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tn_learn::persist::save_network;
use tn_telemetry::{JsonLinesSink, MetricsSink};
use truenorth::prelude::*;

const SEED: u64 = 77;
const REPLICA_SWEEP: [usize; 3] = [1, 2, 4];
const KERNEL_BATCH_SWEEP: [usize; 2] = [1, 8];

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One (model × replicas × kernel_batch) measurement.
struct Cell {
    model: &'static str,
    replicas: usize,
    kernel_batch: usize,
    requests: u64,
    accuracy: f32,
    mean_agreement: f32,
    throughput_rps: f64,
    p50_us: u128,
    p90_us: u128,
    p99_us: u128,
    joules_per_frame: f64,
}

/// One (replica count, kernel fusion width) point in the sweep grid.
#[derive(Clone, Copy)]
struct SweepPoint {
    replicas: usize,
    kernel_batch: usize,
}

fn serve_cell(
    model: &'static str,
    path: &std::path::Path,
    point: SweepPoint,
    workers: usize,
    spf: usize,
    n_requests: usize,
    data: &BenchData,
) -> Result<Cell, Box<dyn std::error::Error>> {
    let SweepPoint {
        replicas,
        kernel_batch,
    } = point;
    // The production path: deploy a *persisted* model from disk.
    let rt = serve_persisted(
        path,
        ServeConfig::builder(SEED)
            .replicas(replicas)
            .workers(workers)
            .spf(spf)
            .queue_capacity(512)
            .batch_max(32)
            .kernel_batch(kernel_batch)
            .build()?,
    )?;
    let n_test = data.test_y.len();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..n_requests)
        .map(|i| rt.submit(data.test_x.row(i % n_test).to_vec()))
        .collect::<Result<_, _>>()?;
    let mut correct = 0u64;
    let mut agreement_sum = 0.0f32;
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait()?;
        agreement_sum += r.agreement;
        if r.predicted == data.test_y[i % n_test] {
            correct += 1;
        }
    }
    let wall = t0.elapsed();
    let snap = rt.shutdown();
    assert_eq!(snap.completed, n_requests as u64, "drain served everything");
    Ok(Cell {
        model,
        replicas,
        kernel_batch,
        requests: snap.completed,
        accuracy: correct as f32 / n_requests as f32,
        mean_agreement: agreement_sum / n_requests as f32,
        throughput_rps: n_requests as f64 / wall.as_secs_f64(),
        p50_us: snap.p50_latency.as_micros(),
        p90_us: snap.p90_latency.as_micros(),
        p99_us: snap.p99_latency.as_micros(),
        joules_per_frame: snap.joules_per_frame(),
    })
}

/// A pipelining HTTP/1.1 client over one bare `TcpStream`, for the
/// over-the-wire cells.
struct HttpClient {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        Ok(Self {
            stream: std::net::TcpStream::connect(addr)?,
            buf: Vec::new(),
        })
    }

    /// Read the next Content-Length-framed response: (status, body).
    fn recv(&mut self) -> std::io::Result<(u16, String)> {
        use std::io::Read as _;
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
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(str::to_string)
                    })
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
            assert!(got > 0, "gateway closed mid-response");
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

/// Pull `"field":<digits>` out of a flat JSON response body.
fn json_usize(body: &str, field: &str) -> Option<usize> {
    let at = body.find(&format!("\"{field}\":"))? + field.len() + 3;
    let digits: String = body[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// One over-the-wire measurement: same persisted model, same request
/// stream, but through a `tn-gateway` front-end on an ephemeral port.
fn gateway_cell(
    model: &'static str,
    path: &std::path::Path,
    point: SweepPoint,
    workers: usize,
    spf: usize,
    n_requests: usize,
    data: &BenchData,
) -> Result<Cell, Box<dyn std::error::Error>> {
    use std::io::Write as _;

    let SweepPoint {
        replicas,
        kernel_batch,
    } = point;
    let net = tn_learn::persist::load_network(std::io::BufReader::new(File::open(path)?))?;
    let gw = gateway_network(
        "127.0.0.1:0",
        &net,
        ServeConfig::builder(SEED)
            .replicas(replicas)
            .workers(workers)
            .spf(spf)
            .queue_capacity(512)
            .batch_max(32)
            .kernel_batch(kernel_batch)
            .build()?,
        GatewayConfig::default(),
    )?;
    let mut client = HttpClient::connect(gw.local_addr())?;
    let n_test = data.test_y.len();
    let mut correct = 0u64;
    let t0 = Instant::now();
    // Pipeline in bursts sized to the per-connection in-flight cap.
    let rows: Vec<usize> = (0..n_requests).map(|i| i % n_test).collect();
    for burst in rows.chunks(GatewayConfig::default().max_in_flight_per_conn) {
        for &row in burst {
            client.stream.write_all(&classify_request(data.test_x.row(row)))?;
        }
        for &row in burst {
            let (status, body) = client.recv()?;
            assert_eq!(status, 200, "deep queue must serve everything: {body}");
            if json_usize(&body, "predicted") == Some(data.test_y[row]) {
                correct += 1;
            }
        }
    }
    let wall = t0.elapsed();
    drop(client);
    let snap = gw.shutdown();
    assert_eq!(snap.completed, n_requests as u64, "drain served everything");
    Ok(Cell {
        model,
        replicas,
        kernel_batch,
        requests: snap.completed,
        accuracy: correct as f32 / n_requests as f32,
        mean_agreement: snap.mean_agreement,
        throughput_rps: n_requests as f64 / wall.as_secs_f64(),
        p50_us: snap.p50_latency.as_micros(),
        p90_us: snap.p90_latency.as_micros(),
        p99_us: snap.p99_latency.as_micros(),
        joules_per_frame: snap.joules_per_frame(),
    })
}

/// The spf actuator paying off: serve the identical request stream once
/// at a fixed spf and once with `ControllerConfig::spf_range` enabled.
/// With replica agreement running high, the controller halves the
/// default set's spf toward its floor, so later requests run fewer ticks per
/// frame — more req/s and fewer joules per frame at (near-)equal
/// accuracy. Returns the measured cell plus the final live spf.
fn adaptive_spf_cell(
    model: &'static str,
    path: &std::path::Path,
    workers: usize,
    spf: usize,
    n_requests: usize,
    data: &BenchData,
    adaptive: bool,
) -> Result<(Cell, usize), Box<dyn std::error::Error>> {
    let mut builder = ServeConfig::builder(SEED)
        .replicas(1)
        .workers(workers)
        .spf(spf)
        .queue_capacity(512)
        .batch_max(32)
        .kernel_batch(8);
    if adaptive {
        builder = builder.controller(ControllerConfig {
            // The cadence must let `scale_streak` samples land well inside
            // the stream: the compiled kernel serves a 200-request smoke
            // stream in about ten milliseconds.
            sample_interval: Duration::from_millis(1),
            cooldown: Duration::from_millis(4),
            // Only the spf actuator: replicas stay pinned at 1.
            min_replicas: 1,
            max_replicas: 1,
            spf_range: Some(SpfRange::new(spf / 2, spf)),
            ..ControllerConfig::default()
        });
    }
    let rt = serve_persisted(path, builder.build()?)?;
    let n_test = data.test_y.len();
    let t0 = Instant::now();
    // The adaptive cell keeps submitting waves of `n_requests` until one
    // wave has been submitted after the controller lowered spf (a short
    // stream on a fast host can end before the controller first acts),
    // up to a deadline; the fixed cell serves one wave of the same total.
    let deadline = t0 + Duration::from_secs(30);
    let mut served = 0usize;
    let mut correct = 0u64;
    let mut agreement_sum = 0.0f32;
    loop {
        let lowered = rt.shape().spf < spf;
        let handles: Vec<_> = (served..served + n_requests)
            .map(|i| rt.submit(data.test_x.row(i % n_test).to_vec()))
            .collect::<Result<_, _>>()?;
        for (i, h) in (served..).zip(handles) {
            let r = h.wait()?;
            agreement_sum += r.agreement;
            if r.predicted == data.test_y[i % n_test] {
                correct += 1;
            }
        }
        served += n_requests;
        if !adaptive || lowered || Instant::now() >= deadline {
            break;
        }
    }
    let wall = t0.elapsed();
    let final_spf = rt.shape().spf;
    let snap = rt.shutdown();
    assert_eq!(snap.completed, served as u64, "drain served everything");
    Ok((
        Cell {
            model,
            replicas: 1,
            kernel_batch: 8,
            requests: snap.completed,
            accuracy: correct as f32 / served as f32,
            mean_agreement: agreement_sum / served as f32,
            throughput_rps: served as f64 / wall.as_secs_f64(),
            p50_us: snap.p50_latency.as_micros(),
            p90_us: snap.p90_latency.as_micros(),
            p99_us: snap.p99_latency.as_micros(),
            joules_per_frame: snap.joules_per_frame(),
        },
        final_spf,
    ))
}

/// One consolidation measurement: a fixed two-model workload served at
/// a fixed total worker-thread budget, either split across two solo
/// runtimes or consolidated onto one packed chip.
struct ConsolidationCell {
    mode: &'static str,
    models_per_chip: usize,
    workers_total: usize,
    requests: u64,
    aggregate_rps: f64,
    accuracy: [f32; 2],
    joules_per_frame: f64,
}

/// Serve `n_per_model` requests against each of two nets through solo
/// runtimes driven concurrently (each with `workers_each` workers), and
/// return (per-model correct counts, joules/frame summed over chips).
fn solo_split_run(
    nets: [&Network; 2],
    datasets: [&BenchData; 2],
    workers_each: usize,
    spf: usize,
    n_per_model: usize,
) -> Result<([u64; 2], f64), Box<dyn std::error::Error>> {
    let cfg = || {
        ServeConfig::builder(SEED)
            .replicas(2)
            .workers(workers_each)
            .spf(spf)
            .queue_capacity(512)
            .batch_max(32)
            .kernel_batch(8)
            .build()
    };
    let mut correct = [0u64; 2];
    let mut joules = 0.0f64;
    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        let mut drivers = Vec::new();
        for m in 0..2 {
            let serve_cfg = cfg()?;
            let (net, data) = (nets[m], datasets[m]);
            drivers.push(scope.spawn(move || -> Result<(u64, f64), String> {
                let rt = serve_network(net, serve_cfg).map_err(|e| e.to_string())?;
                let n_test = data.test_y.len();
                // Request i of tenant m rides seq 2i + m on the packed
                // runtime (submissions interleave tenants), so pin it here.
                let handles: Vec<_> = (0..n_per_model)
                    .map(|i| {
                        let frame = data.test_x.row(i % n_test).to_vec();
                        rt.submit(SubmitRequest::new(frame).at_seq((2 * i + m) as u64))
                    })
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())?;
                let mut correct = 0u64;
                for (i, h) in handles.into_iter().enumerate() {
                    let r = h.wait().map_err(|e| e.to_string())?;
                    if r.predicted == data.test_y[i % n_test] {
                        correct += 1;
                    }
                }
                let snap = rt.shutdown();
                Ok((correct, snap.joules_per_frame()))
            }));
        }
        for (m, driver) in drivers.into_iter().enumerate() {
            let (c, j) = driver.join().expect("solo driver")?;
            correct[m] = c;
            joules += j / 2.0; // mean over the two chips
        }
        Ok(())
    })?;
    Ok((correct, joules))
}

/// The tentpole benchmark: two tenants consolidated onto one chip vs the
/// same workload split across two solo runtimes at equal total worker
/// threads. Also asserts per-tenant accuracy equality (bit-identity) and
/// — at meaningful request counts — the aggregate-throughput win.
fn consolidation_sweep(
    net_a: &Network,
    data_a: &BenchData,
    scale: &RunScale,
    workers: usize,
    spf: usize,
    n_requests: usize,
    trail: Option<&str>,
) -> Result<Vec<ConsolidationCell>, Box<dyn std::error::Error>> {
    println!("\n== consolidation: two models, one chip vs split solo runtimes ==");
    let bench_b = TestBench::new(5, SEED);
    let data_b = bench_b.load_data(scale, SEED);
    let (net_b, _) = bench_b.train(&data_b, Penalty::None, scale.epochs, SEED)?;

    let n_per_model = (n_requests / 2).max(1);
    let workers_each = (workers / 2).max(1);
    let total = 2 * n_per_model;

    // Baseline: two solo runtimes splitting the worker pool, driven
    // concurrently. Wall clock covers both streams end to end.
    let t0 = Instant::now();
    let (solo_correct, solo_joules) = solo_split_run(
        [net_a, &net_b],
        [data_a, &data_b],
        workers_each,
        spf,
        n_per_model,
    )?;
    let solo_wall = t0.elapsed();

    // Consolidated: one packed runtime owning the full pool; any worker
    // serves any tenant, and a kernel batch mixes tenants into the same
    // lockstep pass through per-model lane groups.
    let mut builder = ServeConfig::builder(SEED)
        .replicas(2)
        .workers(workers)
        .spf(spf)
        .queue_capacity(512)
        .batch_max(32)
        .kernel_batch(8);
    if trail.is_some() {
        builder = builder.telemetry(TelemetryConfig {
            interval: Duration::from_millis(20),
            ..TelemetryConfig::default()
        });
    }
    let specs = [extract_spec(net_a)?, extract_spec(&net_b)?];
    let rt = match trail {
        Some(path) => serve_packed_specs_with_sink(
            &specs,
            builder.build()?,
            Arc::new(JsonLinesSink::new(File::create(path)?)) as Arc<dyn MetricsSink>,
        )?,
        None => serve_packed_specs(&specs, builder.build()?)?,
    };
    let datasets = [data_a, &data_b];
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(total);
    for i in 0..n_per_model {
        for (m, data) in datasets.iter().enumerate() {
            let n_test = data.test_y.len();
            let request = SubmitRequest::new(data.test_x.row(i % n_test).to_vec()).model(m);
            handles.push((m, i, rt.submit(request)?));
        }
    }
    let mut packed_correct = [0u64; 2];
    for (m, i, h) in handles {
        let r = h.wait()?;
        let data = datasets[m];
        if r.predicted == data.test_y[i % data.test_y.len()] {
            packed_correct[m] += 1;
        }
    }
    let packed_wall = t0.elapsed();
    let snap = rt.shutdown();
    assert_eq!(snap.completed, total as u64, "drain served everything");

    // Bit-identity, observed end to end: tenant m's k-th request rode
    // seq 2k + m in both runs, so per-model accuracy is *exactly*
    // equal — consolidation costs zero accuracy.
    assert_eq!(
        packed_correct, solo_correct,
        "packed tenants must match their solo runtimes prediction-for-prediction"
    );

    let acc = |correct: [u64; 2]| {
        [
            correct[0] as f32 / n_per_model as f32,
            correct[1] as f32 / n_per_model as f32,
        ]
    };
    let cells = vec![
        ConsolidationCell {
            mode: "solo_split",
            models_per_chip: 1,
            workers_total: 2 * workers_each,
            requests: total as u64,
            aggregate_rps: total as f64 / solo_wall.as_secs_f64(),
            accuracy: acc(solo_correct),
            joules_per_frame: solo_joules,
        },
        ConsolidationCell {
            mode: "packed",
            models_per_chip: 2,
            workers_total: workers,
            requests: total as u64,
            aggregate_rps: total as f64 / packed_wall.as_secs_f64(),
            accuracy: acc(packed_correct),
            joules_per_frame: snap.joules_per_frame(),
        },
    ];
    println!(
        "\n{:<12} {:>12} {:>8} {:>11} {:>10} {:>10} {:>12}",
        "mode", "models/chip", "workers", "req/s", "acc bench1", "acc bench5", "J/frame"
    );
    for c in &cells {
        println!(
            "{:<12} {:>12} {:>8} {:>11.1} {:>10.4} {:>10.4} {:>12.3e}",
            c.mode,
            c.models_per_chip,
            c.workers_total,
            c.aggregate_rps,
            c.accuracy[0],
            c.accuracy[1],
            c.joules_per_frame,
        );
    }
    let ratio = cells[1].aggregate_rps / cells[0].aggregate_rps;
    println!("consolidation ratio (packed / solo_split): {ratio:.2}x aggregate req/s");
    // The packed win is a parallel-serving effect (shared worker pool,
    // grouped lockstep passes); on a box that can't actually run the
    // worker threads concurrently the comparison is scheduler noise.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if n_per_model >= 100 && cores >= workers {
        assert!(
            ratio > 1.0,
            "packing two tenants onto one chip must beat split solo runtimes \
             at equal total workers ({ratio:.2}x)"
        );
    } else if n_per_model >= 100 {
        println!(
            "(skipping packed-beats-split assert: {cores} core(s) < {workers} \
             needed to run the split workers concurrently)"
        );
    }
    Ok(cells)
}

/// One quality-tier measurement: the full stream served at one named
/// tier of a calibrated tiered runtime.
struct TierCell {
    tier: &'static str,
    replicas: usize,
    spf: usize,
    requests: u64,
    accuracy: f32,
    escalated: u64,
    mean_confidence: f32,
    throughput_rps: f64,
    p50_us: u128,
    p99_us: u128,
    joules_per_frame: f64,
}

/// The benchmark's tier table: `fast` is the cheap corner of the
/// copies×spf grid, `certain` the accurate one, and `guarded` is fast's
/// operating point wearing a confidence contract that escalates
/// low-margin answers onto `certain`.
fn tier_table(spf: usize) -> Vec<QualityTier> {
    let fast_spf = (spf / 4).max(1);
    vec![
        QualityTier::new("fast", 1, fast_spf),
        QualityTier::new("certain", 4, spf),
        QualityTier::new("guarded", 1, fast_spf)
            .confidence_target(0.8)
            .escalate_to("certain"),
    ]
}

/// Serve the whole stream at one named tier on a fresh runtime carrying
/// the full tier table, calibrated from held-out training frames.
fn tier_cell(
    tier: &'static str,
    path: &std::path::Path,
    table: &[QualityTier],
    workers: usize,
    n_requests: usize,
    data: &BenchData,
    calib: &[(Vec<f32>, usize)],
) -> Result<TierCell, Box<dyn std::error::Error>> {
    let point = table.iter().find(|t| t.name == tier).expect("tier in table");
    let rt = serve_persisted(
        path,
        ServeConfig::builder(SEED)
            .replicas(1)
            .workers(workers)
            .queue_capacity(512)
            .batch_max(32)
            .kernel_batch(8)
            .tiers(table.to_vec())
            .build()?,
    )?;
    rt.calibrate_tiers(calib)?;
    let n_test = data.test_y.len();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..n_requests)
        .map(|i| {
            rt.submit(SubmitRequest::new(data.test_x.row(i % n_test).to_vec()).quality(tier))
        })
        .collect::<Result<_, _>>()?;
    let mut correct = 0u64;
    let mut escalated = 0u64;
    let mut confidence_sum = 0.0f32;
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait()?;
        confidence_sum += r.served.confidence();
        escalated += u64::from(r.served.escalated());
        if r.predicted == data.test_y[i % n_test] {
            correct += 1;
        }
    }
    let wall = t0.elapsed();
    let snap = rt.shutdown();
    assert_eq!(snap.completed, n_requests as u64, "drain served everything");
    Ok(TierCell {
        tier,
        replicas: point.replicas,
        spf: point.spf,
        requests: snap.completed,
        accuracy: correct as f32 / n_requests as f32,
        escalated,
        mean_confidence: confidence_sum / n_requests as f32,
        throughput_rps: n_requests as f64 / wall.as_secs_f64(),
        p50_us: snap.p50_latency.as_micros(),
        p99_us: snap.p99_latency.as_micros(),
        joules_per_frame: snap.joules_per_frame(),
    })
}

/// The quality-tier benchmark: fast vs certain vs guarded (escalating)
/// on the biased model, plus an optional mixed-stream telemetry trail.
fn tier_sweep(
    path: &std::path::Path,
    workers: usize,
    spf: usize,
    n_requests: usize,
    scale: &RunScale,
    data: &BenchData,
    trail: Option<&str>,
) -> Result<Vec<TierCell>, Box<dyn std::error::Error>> {
    println!("\n== quality tiers: fast vs certain vs guarded (biased model) ==\n");
    let table = tier_table(spf);
    // Held-out calibration frames: training rows the serving stream
    // never touches, so the fitted map reflects out-of-stream margins.
    let calib: Vec<(Vec<f32>, usize)> = (0..data.train_y.len().min(240))
        .map(|i| (data.train_x.row(i).to_vec(), data.train_y[i]))
        .collect();
    println!(
        "{:<8} {:>8} {:>5} {:>10} {:>10} {:>11} {:>11} {:>9} {:>9} {:>12}",
        "tier", "replicas", "spf", "accuracy", "escalated", "confidence", "req/s", "p50 µs",
        "p99 µs", "J/frame"
    );
    let mut cells = Vec::new();
    for tier in ["fast", "certain", "guarded"] {
        let cell = tier_cell(tier, path, &table, workers, n_requests, data, &calib)?;
        println!(
            "{:<8} {:>8} {:>5} {:>10.4} {:>10} {:>11.3} {:>11.1} {:>9} {:>9} {:>12.3e}",
            cell.tier,
            cell.replicas,
            cell.spf,
            cell.accuracy,
            cell.escalated,
            cell.mean_confidence,
            cell.throughput_rps,
            cell.p50_us,
            cell.p99_us,
            cell.joules_per_frame,
        );
        cells.push(cell);
    }
    let (fast, certain, guarded) = (&cells[0], &cells[1], &cells[2]);
    assert!(
        fast.throughput_rps > certain.throughput_rps,
        "the fast tier must win on req/s ({:.1} vs {:.1})",
        fast.throughput_rps,
        certain.throughput_rps
    );
    assert!(
        fast.joules_per_frame < certain.joules_per_frame,
        "the fast tier must win on energy ({:.3e} vs {:.3e} J/frame)",
        fast.joules_per_frame,
        certain.joules_per_frame
    );
    let gap = certain.accuracy - fast.accuracy;
    let recovered = guarded.accuracy - fast.accuracy;
    println!(
        "\nescalation: {} of {} answers re-ran on certain; accuracy gap {:.4}, recovered {:.4}",
        guarded.escalated, guarded.requests, gap, recovered
    );
    if scale.n_train >= 800 {
        assert!(
            certain.accuracy >= fast.accuracy,
            "the certain tier must not lose to fast on accuracy ({:.4} vs {:.4})",
            certain.accuracy,
            fast.accuracy
        );
        assert!(
            recovered >= gap / 2.0,
            "escalation must recover at least half the fast→certain accuracy gap \
             (gap {gap:.4}, recovered {recovered:.4})"
        );
        assert!(
            fast.joules_per_frame <= guarded.joules_per_frame
                && guarded.joules_per_frame <= certain.joules_per_frame,
            "escalation energy must sit between the pure tiers \
             ({:.3e} <= {:.3e} <= {:.3e})",
            fast.joules_per_frame,
            guarded.joules_per_frame,
            certain.joules_per_frame
        );
    } else {
        println!(
            "(skipping tier-accuracy asserts at n_train {} < 800: models too noisy)",
            scale.n_train
        );
    }

    // A mixed round-robin stream over all three tiers, exporting the
    // per-tier `serve.tier.{t}.*` telemetry families to the trail.
    if let Some(trail_path) = trail {
        let sink = Arc::new(JsonLinesSink::new(File::create(trail_path)?));
        let cfg = ServeConfig::builder(SEED)
            .replicas(1)
            .workers(workers)
            .queue_capacity(512)
            .batch_max(32)
            .kernel_batch(8)
            .tiers(table.clone())
            .telemetry(TelemetryConfig {
                interval: Duration::from_millis(10),
                ..TelemetryConfig::default()
            })
            .build()?;
        let rt = serve_persisted_with_sink(path, cfg, sink as Arc<dyn MetricsSink>)?;
        rt.calibrate_tiers(&calib)?;
        let names = ["fast", "certain", "guarded"];
        let n_test = data.test_y.len();
        let handles: Vec<_> = (0..n_requests)
            .map(|i| {
                rt.submit(
                    SubmitRequest::new(data.test_x.row(i % n_test).to_vec())
                        .quality(names[i % names.len()]),
                )
            })
            .collect::<Result<_, _>>()?;
        for h in handles {
            h.wait()?;
        }
        rt.shutdown();
        println!("tiered telemetry trail written to {trail_path}");
    }
    Ok(cells)
}

/// One scale-out measurement: the full stream through an in-process
/// fleet at a given shard count, equal per-shard workers.
struct FleetCell {
    shards: usize,
    workers_per_shard: usize,
    requests: u64,
    accuracy: f32,
    aggregate_rps: f64,
    p50_us: u128,
    p99_us: u128,
}

/// Per-seq determinism fingerprint (predicted, votes) for the
/// bit-identity cross-check between fleet widths.
type FleetFingerprint = Vec<(usize, Vec<u64>)>;

/// Serve the stream through a `shards`-wide fleet; returns the cell and
/// the fingerprint of every answer.
fn fleet_cell(
    path: &std::path::Path,
    shards: usize,
    workers: usize,
    spf: usize,
    n_requests: usize,
    data: &BenchData,
    trail: Option<&str>,
) -> Result<(FleetCell, FleetFingerprint), Box<dyn std::error::Error>> {
    let serve_cfg = ServeConfig::builder(SEED)
        .replicas(2)
        .workers(workers)
        .spf(spf)
        .queue_capacity(512)
        .batch_max(32)
        .kernel_batch(8)
        .telemetry(TelemetryConfig {
            interval: Duration::from_millis(20),
            ..TelemetryConfig::default()
        })
        .build()?;
    let cfg = FleetConfig::new(serve_cfg);
    let fleet = match trail {
        Some(trail_path) => fleet_persisted_with_sink(
            path,
            shards,
            cfg,
            Arc::new(JsonLinesSink::new(File::create(trail_path)?)) as Arc<dyn MetricsSink>,
        )?,
        None => fleet_persisted(path, shards, cfg)?,
    };
    let n_test = data.test_y.len();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..n_requests)
        .map(|i| {
            fleet
                .router()
                .submit_request(SubmitRequest::new(data.test_x.row(i % n_test).to_vec()))
        })
        .collect::<Result<_, _>>()?;
    let mut correct = 0u64;
    let mut fingerprint = Vec::with_capacity(n_requests);
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait()?;
        fingerprint.push((r.predicted, r.votes.clone()));
        if r.predicted == data.test_y[i % n_test] {
            correct += 1;
        }
    }
    let wall = t0.elapsed();
    let (snap, _) = fleet.shutdown();
    assert_eq!(snap.completed, n_requests as u64, "drain served everything");
    Ok((
        FleetCell {
            shards,
            workers_per_shard: workers,
            requests: snap.completed,
            accuracy: correct as f32 / n_requests as f32,
            aggregate_rps: n_requests as f64 / wall.as_secs_f64(),
            p50_us: snap.p50_latency.as_micros(),
            p99_us: snap.p99_latency.as_micros(),
        },
        fingerprint,
    ))
}

/// The scale-out benchmark: 1 shard vs N shards at equal per-shard
/// workers, bit-identity asserted across widths.
fn fleet_sweep(
    path: &std::path::Path,
    n_shards: usize,
    workers: usize,
    spf: usize,
    n_requests: usize,
    data: &BenchData,
    trail: Option<&str>,
) -> Result<Vec<FleetCell>, Box<dyn std::error::Error>> {
    println!("\n== scale-out: {n_shards}-shard fleet vs 1 shard (biased model) ==\n");
    println!(
        "{:<7} {:>13} {:>10} {:>11} {:>9} {:>9}",
        "shards", "workers/shard", "accuracy", "req/s", "p50 µs", "p99 µs"
    );
    let (solo, solo_fp) = fleet_cell(path, 1, workers, spf, n_requests, data, None)?;
    let (wide, wide_fp) = fleet_cell(path, n_shards, workers, spf, n_requests, data, trail)?;
    assert_eq!(
        solo_fp, wide_fp,
        "fleet width must be invisible in the answer stream"
    );
    let cells = vec![solo, wide];
    for c in &cells {
        println!(
            "{:<7} {:>13} {:>10.4} {:>11.1} {:>9} {:>9}",
            c.shards, c.workers_per_shard, c.accuracy, c.aggregate_rps, c.p50_us, c.p99_us
        );
    }
    let ratio = cells[1].aggregate_rps / cells[0].aggregate_rps;
    println!("scale-out ratio ({n_shards} shards / 1 shard): {ratio:.2}x aggregate req/s");
    if let Some(trail_path) = trail {
        println!("aggregated fleet heartbeat trail written to {trail_path}");
    }
    // The win is a parallelism effect: it needs enough requests to
    // amortize dispatch and enough cores to run every shard's workers.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if n_requests >= 200 && cores >= n_shards * workers {
        assert!(
            ratio > 1.0,
            "an {n_shards}-shard fleet must beat 1 shard on aggregate req/s \
             at equal per-shard workers ({ratio:.2}x)"
        );
    } else if n_requests >= 200 {
        println!(
            "(skipping fleet-beats-solo assert: {cores} core(s) < {} \
             needed to run all shards concurrently)",
            n_shards * workers
        );
    }
    Ok(cells)
}

/// Smallest replica count in the sweep reaching `target` accuracy.
fn replicas_needed(cells: &[Cell], model: &str, target: f32) -> Option<usize> {
    cells
        .iter()
        .filter(|c| c.model == model && c.accuracy >= target)
        .map(|c| c.replicas)
        .min()
}

/// Saturate a controller-enabled runtime and export telemetry snapshots.
///
/// The burst keeps the queue deep, so the controller widens the kernel
/// fusion toward the configured max; the replica axis follows the live
/// agreement metric within its bounds. Both live values are printed so
/// the adaptation is visible alongside the JSONL snapshot trail.
fn adaptive_run(
    net: &Network,
    data: &BenchData,
    out_path: &str,
    workers: usize,
    spf: usize,
    n_requests: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== adaptive-control run ({n_requests} requests, telemetry -> {out_path}) ==");
    let sink = Arc::new(JsonLinesSink::new(File::create(out_path)?));
    let cfg = ServeConfig::builder(SEED)
        .replicas(2)
        .workers(workers)
        .spf(spf)
        .queue_capacity(512)
        .batch_max(32)
        .kernel_batch(16) // doubles as the adaptive ceiling
        .controller(ControllerConfig {
            sample_interval: Duration::from_millis(5),
            cooldown: Duration::from_millis(100),
            min_replicas: 1,
            max_replicas: 4,
            ..ControllerConfig::default()
        })
        .telemetry(TelemetryConfig {
            interval: Duration::from_millis(20),
            ..TelemetryConfig::default()
        })
        .build()?;
    let rt = serve_network_with_sink(net, cfg, sink as Arc<dyn MetricsSink>)?;
    let n_test = data.test_y.len();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..n_requests)
        .map(|i| rt.submit(data.test_x.row(i % n_test).to_vec()))
        .collect::<Result<_, _>>()?;
    for h in handles {
        h.wait()?;
    }
    let wall = t0.elapsed();
    println!(
        "served {} requests in {:.2?} ({:.1} req/s); live kernel_batch {} (start 16), live replicas {} (start 2)",
        n_requests,
        wall,
        n_requests as f64 / wall.as_secs_f64(),
        rt.shape().kernel_batch,
        rt.shape().replicas,
    );
    let snap = rt.shutdown();
    println!(
        "final mean agreement {:.3}; snapshots written to {out_path}",
        snap.mean_agreement
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `--telemetry [path.jsonl]` enables the adaptive-control run.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_out: Option<String> = args.iter().position(|a| a == "--telemetry").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "tn_serve_telemetry.jsonl".into())
    });
    let over_the_wire = args.iter().any(|a| a == "--gateway");
    // `--packed [trail.jsonl]` enables the consolidation benchmark; the
    // optional path receives the packed run's telemetry trail.
    let packed_at = args.iter().position(|a| a == "--packed");
    let packed_trail: Option<String> = packed_at.and_then(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
    });
    // `--tiers [trail.jsonl]` enables the quality-tier benchmark; the
    // optional path receives the mixed-stream per-tier telemetry trail.
    let tiers_at = args.iter().position(|a| a == "--tiers");
    let tiers_trail: Option<String> = tiers_at.and_then(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
    });
    // `--fleet [trail.jsonl]` enables the scale-out benchmark; the
    // optional path receives the fleet's aggregated heartbeat trail.
    let fleet_at = args.iter().position(|a| a == "--fleet");
    let fleet_trail: Option<String> = fleet_at.and_then(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
    });
    let scale = RunScale {
        n_train: env_usize("TN_TRAIN", 1200),
        n_test: env_usize("TN_TEST", 300),
        epochs: env_usize("TN_EPOCHS", 5),
        seeds: 1,
        threads: 2,
    };
    let n_requests = env_usize("TN_SERVE_REQUESTS", 1000);
    let workers = env_usize("TN_SERVE_WORKERS", 2).max(2);
    let spf = env_usize("TN_SERVE_SPF", 8);

    println!("== training test bench 1 (Tea vs probability-biased) ==");
    let bench = TestBench::new(1, SEED);
    let data = bench.load_data(&scale, SEED);
    let tea = train_model(&bench, &data, Penalty::None, &scale, SEED)?;
    let biased = train_model(&bench, &data, bench.biasing_penalty(), &scale, SEED)?;
    println!(
        "float accuracy: tea {:.4}, biased {:.4}",
        tea.float_accuracy, biased.float_accuracy
    );

    // Persist both, then serve strictly from disk.
    let dir = std::env::temp_dir();
    let tea_path = dir.join("tn_serve_tea.tnm");
    let biased_path = dir.join("tn_serve_biased.tnm");
    save_network(&tea.network, File::create(&tea_path)?)?;
    save_network(&biased.network, File::create(&biased_path)?)?;

    println!(
        "\n== serving {n_requests} requests per cell ({workers} workers, {spf} spf) ==\n"
    );
    println!(
        "{:<8} {:>8} {:>7} {:>10} {:>10} {:>11} {:>9} {:>9} {:>9} {:>12}",
        "model", "replicas", "kbatch", "accuracy", "agreement", "req/s", "p50 µs", "p90 µs", "p99 µs",
        "J/frame"
    );
    let mut cells = Vec::new();
    for (model, path) in [("tea", &tea_path), ("biased", &biased_path)] {
        for replicas in REPLICA_SWEEP {
            for kernel_batch in KERNEL_BATCH_SWEEP {
                let point = SweepPoint {
                    replicas,
                    kernel_batch,
                };
                let cell = serve_cell(model, path, point, workers, spf, n_requests, &data)?;
                println!(
                    "{:<8} {:>8} {:>7} {:>10.4} {:>10.3} {:>11.1} {:>9} {:>9} {:>9} {:>12.3e}",
                    cell.model,
                    cell.replicas,
                    cell.kernel_batch,
                    cell.accuracy,
                    cell.mean_agreement,
                    cell.throughput_rps,
                    cell.p50_us,
                    cell.p90_us,
                    cell.p99_us,
                    cell.joules_per_frame,
                );
                cells.push(cell);
            }
        }
    }

    // Over-the-wire cells: the same workload through the tn-gateway
    // front-end, measured from the client side of a real socket.
    let mut gateway_cells = Vec::new();
    if over_the_wire {
        println!("\n== over the wire: tn-gateway, pipelined HTTP/1.1 client ==\n");
        println!(
            "{:<8} {:>8} {:>7} {:>10} {:>10} {:>11} {:>9} {:>9} {:>9} {:>12}",
            "model", "replicas", "kbatch", "accuracy", "agreement", "req/s", "p50 µs", "p90 µs",
            "p99 µs", "J/frame"
        );
        for (model, path) in [("tea", &tea_path), ("biased", &biased_path)] {
            for replicas in [1usize, 2] {
                let point = SweepPoint {
                    replicas,
                    kernel_batch: KERNEL_BATCH_SWEEP[1],
                };
                let cell = gateway_cell(model, path, point, workers, spf, n_requests, &data)?;
                println!(
                    "{:<8} {:>8} {:>7} {:>10.4} {:>10.3} {:>11.1} {:>9} {:>9} {:>9} {:>12.3e}",
                    cell.model,
                    cell.replicas,
                    cell.kernel_batch,
                    cell.accuracy,
                    cell.mean_agreement,
                    cell.throughput_rps,
                    cell.p50_us,
                    cell.p90_us,
                    cell.p99_us,
                    cell.joules_per_frame,
                );
                gateway_cells.push(cell);
            }
        }
    }

    // Multi-tenant consolidation: both models on one packed chip vs two
    // solo runtimes splitting the same worker budget.
    let consolidation_cells = if packed_at.is_some() {
        consolidation_sweep(
            &biased.network,
            &data,
            &scale,
            workers,
            spf,
            n_requests,
            packed_trail.as_deref(),
        )?
    } else {
        Vec::new()
    };

    // Scale-out: the same stream through a sharded fleet, 1 shard vs N
    // shards at equal per-shard workers, answers bit-identical.
    let fleet_cells = if fleet_at.is_some() {
        fleet_sweep(
            &biased_path,
            env_usize("TN_FLEET_SHARDS", 2).max(2),
            workers,
            spf,
            n_requests,
            &data,
            fleet_trail.as_deref(),
        )?
    } else {
        Vec::new()
    };

    // Quality tiers: the same stream at named operating points, with
    // calibrated confidence and the abstain/escalate path in between.
    let tier_cells = if tiers_at.is_some() {
        tier_sweep(
            &biased_path,
            workers,
            spf,
            n_requests,
            &scale,
            &data,
            tiers_trail.as_deref(),
        )?
    } else {
        Vec::new()
    };

    // Controller-driven spf: same stream, fixed spf vs the adaptive
    // actuator halving toward the class floor while agreement runs high.
    println!("\n== adaptive spf: fixed {spf} vs controller-driven (biased model) ==\n");
    let (spf_adaptive, live_spf) =
        adaptive_spf_cell("spf_adaptive", &biased_path, workers, spf, n_requests, &data, true)?;
    let (spf_fixed, _) = adaptive_spf_cell(
        "spf_fixed",
        &biased_path,
        workers,
        spf,
        spf_adaptive.requests as usize,
        &data,
        false,
    )?;
    for c in [&spf_fixed, &spf_adaptive] {
        println!(
            "{:<13} accuracy {:.4}  req/s {:>8.1}  J/frame {:.3e}",
            c.model, c.accuracy, c.throughput_rps, c.joules_per_frame
        );
    }
    println!(
        "live spf settled at {live_spf} (started {spf}, floor {}); joules/frame {:.2}x, req/s {:.2}x",
        spf / 2,
        spf_adaptive.joules_per_frame / spf_fixed.joules_per_frame,
        spf_adaptive.throughput_rps / spf_fixed.throughput_rps,
    );
    assert!(
        spf_adaptive.joules_per_frame < spf_fixed.joules_per_frame,
        "adaptive spf must cut energy per frame"
    );
    if scale.n_train >= 800 {
        assert!(
            spf_adaptive.accuracy >= spf_fixed.accuracy - 0.03,
            "adaptive spf gave up too much accuracy: {:.4} vs {:.4}",
            spf_adaptive.accuracy,
            spf_fixed.accuracy
        );
    }
    let adaptive_spf_cells = [spf_fixed, spf_adaptive];

    // Batch-first payoff: same responses, more of them per second.
    println!();
    for replicas in REPLICA_SWEEP {
        let rps = |kb: usize| {
            cells
                .iter()
                .filter(|c| c.replicas == replicas && c.kernel_batch == kb)
                .map(|c| c.throughput_rps)
                .sum::<f64>()
                / 2.0 // mean over the two models
        };
        let (lone, fused) = (rps(1), rps(KERNEL_BATCH_SWEEP[1]));
        println!(
            "{replicas} replica(s): kernel_batch {} gives {:.2}x req/s over frame-at-a-time",
            KERNEL_BATCH_SWEEP[1],
            fused / lone
        );
    }

    // Co-optimization, served live. Deploying to stochastic crossbars
    // costs each model accuracy relative to its own float baseline;
    // replicas buy that gap back. The paper's claim is that the biasing
    // penalty shrinks per-copy variance, so the biased model recovers its
    // float accuracy with no more replicas than Tea needs for its own.
    const RECOVERY_GAP: f32 = 0.03;
    let needs = |model: &'static str, float_acc: f32| {
        let target = float_acc - RECOVERY_GAP;
        let n = replicas_needed(&cells, model, target);
        println!(
            "{model}: float {float_acc:.4}, recovery target {target:.4} → needs {} replica(s)",
            n.map_or_else(
                || format!("more than {}", REPLICA_SWEEP[REPLICA_SWEEP.len() - 1]),
                |r| r.to_string()
            )
        );
        n.unwrap_or(usize::MAX)
    };
    println!();
    let tea_needs = needs("tea", tea.float_accuracy);
    let biased_needs = needs("biased", biased.float_accuracy);
    if scale.n_train >= 800 {
        assert!(
            biased_needs <= tea_needs,
            "co-optimization violated: biased needs {biased_needs} replicas vs tea {tea_needs}"
        );
        println!("co-optimization holds: biased recovers float accuracy at no extra replica cost");
    } else {
        // Tiny smoke-test scales train models too noisy for the replica
        // comparison to be meaningful; report instead of asserting.
        println!(
            "(skipping co-optimization assert at n_train {} < 800: models too noisy)",
            scale.n_train
        );
    }

    if let Ok(json_path) = std::env::var("TN_SERVE_JSON") {
        let fmt_rows = |cells: &[Cell]| -> String {
            let mut rows = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    rows.push_str(",\n");
                }
                rows.push_str(&format!(
                    "    {{\"model\": \"{}\", \"replicas\": {}, \"kernel_batch\": {}, \"requests\": {}, \"accuracy\": {:.4}, \"agreement\": {:.4}, \"req_per_sec\": {:.1}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"joules_per_frame\": {:.4e}}}",
                    c.model,
                    c.replicas,
                    c.kernel_batch,
                    c.requests,
                    c.accuracy,
                    c.mean_agreement,
                    c.throughput_rps,
                    c.p50_us,
                    c.p90_us,
                    c.p99_us,
                    c.joules_per_frame,
                ));
            }
            rows
        };
        let rows = fmt_rows(&cells);
        let adaptive_rows = format!(
            ",\n  \"adaptive_spf_cells\": [\n{}\n  ],\n  \"adaptive_spf_final\": {live_spf}",
            fmt_rows(&adaptive_spf_cells)
        );
        let gateway_rows = if gateway_cells.is_empty() {
            String::new()
        } else {
            format!(",\n  \"gateway_cells\": [\n{}\n  ]", fmt_rows(&gateway_cells))
        };
        let consolidation_rows = if consolidation_cells.is_empty() {
            String::new()
        } else {
            let mut rows = String::new();
            for (i, c) in consolidation_cells.iter().enumerate() {
                if i > 0 {
                    rows.push_str(",\n");
                }
                rows.push_str(&format!(
                    "    {{\"mode\": \"{}\", \"models_per_chip\": {}, \"workers_total\": {}, \"requests\": {}, \"aggregate_req_per_sec\": {:.1}, \"accuracy_bench1\": {:.4}, \"accuracy_bench5\": {:.4}, \"joules_per_frame\": {:.4e}}}",
                    c.mode,
                    c.models_per_chip,
                    c.workers_total,
                    c.requests,
                    c.aggregate_rps,
                    c.accuracy[0],
                    c.accuracy[1],
                    c.joules_per_frame,
                ));
            }
            format!(",\n  \"consolidation_cells\": [\n{rows}\n  ]")
        };
        let fleet_rows = if fleet_cells.is_empty() {
            String::new()
        } else {
            let mut rows = String::new();
            for (i, c) in fleet_cells.iter().enumerate() {
                if i > 0 {
                    rows.push_str(",\n");
                }
                rows.push_str(&format!(
                    "    {{\"shards\": {}, \"workers_per_shard\": {}, \"requests\": {}, \"accuracy\": {:.4}, \"aggregate_req_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}",
                    c.shards,
                    c.workers_per_shard,
                    c.requests,
                    c.accuracy,
                    c.aggregate_rps,
                    c.p50_us,
                    c.p99_us,
                ));
            }
            format!(",\n  \"fleet_cells\": [\n{rows}\n  ]")
        };
        let tier_rows = if tier_cells.is_empty() {
            String::new()
        } else {
            let mut rows = String::new();
            for (i, c) in tier_cells.iter().enumerate() {
                if i > 0 {
                    rows.push_str(",\n");
                }
                rows.push_str(&format!(
                    "    {{\"tier\": \"{}\", \"replicas\": {}, \"spf\": {}, \"requests\": {}, \"accuracy\": {:.4}, \"escalated\": {}, \"mean_confidence\": {:.4}, \"req_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"joules_per_frame\": {:.4e}}}",
                    c.tier,
                    c.replicas,
                    c.spf,
                    c.requests,
                    c.accuracy,
                    c.escalated,
                    c.mean_confidence,
                    c.throughput_rps,
                    c.p50_us,
                    c.p99_us,
                    c.joules_per_frame,
                ));
            }
            format!(",\n  \"tier_cells\": [\n{rows}\n  ]")
        };
        let fmt_needs = |n: usize| {
            if n == usize::MAX {
                "null".to_string()
            } else {
                n.to_string()
            }
        };
        let json = format!(
            "{{\n  \"bench\": 1,\n  \"seed\": {SEED},\n  \"spf\": {spf},\n  \"workers\": {workers},\n  \"requests_per_cell\": {n_requests},\n  \"float_accuracy\": {{\"tea\": {:.4}, \"biased\": {:.4}}},\n  \"replicas_needed_for_recovery\": {{\"tea\": {}, \"biased\": {}}},\n  \"cells\": [\n{rows}\n  ]{adaptive_rows}{gateway_rows}{consolidation_rows}{fleet_rows}{tier_rows}\n}}\n",
            tea.float_accuracy,
            biased.float_accuracy,
            fmt_needs(tea_needs),
            fmt_needs(biased_needs),
        );
        let mut f = File::create(&json_path)?;
        f.write_all(json.as_bytes())?;
        println!("wrote {json_path}");
    }

    if let Some(out_path) = telemetry_out {
        adaptive_run(&biased.network, &data, &out_path, workers, spf, n_requests)?;
    }

    std::fs::remove_file(&tea_path).ok();
    std::fs::remove_file(&biased_path).ok();
    Ok(())
}
