//! Serving smoke: train test bench 1 once with Tea and once with
//! probability-biased learning, serve one burst through every serving
//! surface, and write four `tn-telemetry/1` trails into the output
//! directory for `snapshot_check`:
//!
//! * `telemetry.jsonl`: a controller-enabled runtime under a saturating
//!   burst (`--min 1 --require-sparsity`);
//! * `packed.jsonl`: both models packed onto one chip (`--min 1 --models 2`);
//! * `tiers.jsonl`: one stream round-robin over three tiers (`--min 1 --tiers 3`);
//! * `fleet.jsonl`: a 2-shard fleet's aggregated heartbeats (`--min 2`).
//!
//! It asserts only what needs a wall clock or a trained model: the timing
//! wins where the host has the cores (packed beats split solo runtimes,
//! fast beats certain on req/s, 2 shards beat 1), and at `TN_TRAIN >= 800`
//! tier accuracy, escalation recovery, adaptive-spf accuracy and the
//! paper's co-optimization. Answer equivalences, drain and the J/frame
//! orderings are tier-1 tests; the serving benchmark is `perfbench/`.
//!
//! Run with: `cargo run --release --example serve_smoke -- <out-dir>`
//! (`TN_TRAIN`, default 1200; `TN_TEST`, 300; `TN_EPOCHS`, 5).

use std::fs::File;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tn_telemetry::JsonLinesSink;
use truenorth::prelude::*;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

const SEED: u64 = 77;
/// Requests per burst: 100 per tenant on the packed pair, enough for its
/// timing assert.
const REQUESTS: usize = 200;
const WORKERS: usize = 2;
const SPF: usize = 8;
const SHARDS: usize = 2;
const TIERS: [&str; 3] = ["fast", "certain", "guarded"];

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The configuration every cell starts from.
fn cfg(replicas: usize) -> ServeConfigBuilder {
    ServeConfig::builder(SEED)
        .replicas(replicas)
        .workers(WORKERS)
        .spf(SPF)
        .queue_capacity(512)
        .batch_max(32)
        .kernel_batch(8)
}

fn telemetry(interval_ms: u64) -> TelemetryConfig {
    TelemetryConfig {
        interval: Duration::from_millis(interval_ms),
    }
}

fn trail(dir: &Path, name: &str) -> Res<Arc<dyn MetricsSink>> {
    Ok(Arc::new(JsonLinesSink::new(File::create(dir.join(name))?)))
}

/// The fast corner of the copies×spf grid, the accurate corner, and
/// fast's point behind a confidence floor that escalates onto certain.
fn tier_table() -> Vec<QualityTier> {
    vec![
        QualityTier::new("fast", 1, SPF / 4),
        QualityTier::new("certain", 4, SPF),
        QualityTier::new("guarded", 1, SPF / 4)
            .confidence_target(0.8)
            .escalate_to("certain"),
    ]
}

/// One burst's outcome.
struct Burst {
    served: usize,
    correct: usize,
    escalated: usize,
    secs: f64,
    joules_per_frame: f64,
}

impl Burst {
    fn accuracy(&self) -> f32 {
        self.correct as f32 / self.served as f32
    }

    fn rps(&self) -> f64 {
        self.served as f64 / self.secs
    }
}

/// Submit one request per index in `rows` at once (request `i` carries
/// test row `i mod n_test`, shaped by `shape`), then wait for every answer.
fn burst(
    backend: &dyn ServeBackend,
    data: &BenchData,
    rows: Range<usize>,
    shape: impl Fn(usize, SubmitRequest) -> SubmitRequest,
) -> Res<Burst> {
    let n_test = data.test_y.len();
    let served = rows.len();
    let t0 = Instant::now();
    let handles: Vec<_> = rows
        .clone()
        .map(|i| {
            let frame = data.test_x.row(i % n_test).to_vec();
            backend.submit_request(shape(i, SubmitRequest::new(frame)))
        })
        .collect::<Result<_, _>>()?;
    let (mut correct, mut escalated) = (0, 0);
    for (i, h) in rows.zip(handles) {
        let r = h.wait()?;
        correct += usize::from(r.predicted == data.test_y[i % n_test]);
        escalated += usize::from(r.escalated());
    }
    Ok(Burst {
        served,
        correct,
        escalated,
        secs: t0.elapsed().as_secs_f64(),
        joules_per_frame: backend.joules_per_frame(),
    })
}

/// Build a runtime, serve requests `0..n` on it, and shut it down.
fn serve(spec: &NetworkDeploySpec, cfg: ServeConfig, data: &BenchData, n: usize) -> Res<Burst> {
    let rt = ServeRuntime::new(spec, cfg, Arc::new(NullSink))?;
    let b = burst(&rt, data, 0..n, |_, r| r)?;
    rt.shutdown();
    Ok(b)
}

fn main() -> Res<()> {
    let out = std::env::args()
        .nth(1)
        .ok_or("usage: serve_smoke <out-dir>")?;
    let out = Path::new(&out);
    std::fs::create_dir_all(out)?;
    let scale = RunScale {
        n_train: env_usize("TN_TRAIN", 1200),
        n_test: env_usize("TN_TEST", 300),
        epochs: env_usize("TN_EPOCHS", 5),
        seeds: 1,
        threads: 2,
    };
    let trained = scale.n_train >= 800;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bench = TestBench::new(1, SEED);
    let data = bench.load_data(&scale, SEED);
    let tea = train_model(&bench, &data, Penalty::None, &scale, SEED)?;
    let biased = train_model(&bench, &data, bench.biasing_penalty(), &scale, SEED)?;

    // Co-optimization, served live: the biasing penalty shrinks per-copy
    // variance, so the biased model comes within 0.03 of its float
    // accuracy with no more replicas than Tea needs for its own.
    let mut needs = [usize::MAX; 2];
    for (k, model) in [&tea, &biased].into_iter().enumerate() {
        for replicas in [1, 2, 4] {
            let acc = serve(&model.spec, cfg(replicas).build()?, &data, REQUESTS)?.accuracy();
            let (name, float) = (model.penalty.name(), model.float_accuracy);
            println!("{name} r{replicas}: served {acc:.4}, float {float:.4}");
            if acc >= float - 0.03 {
                needs[k] = needs[k].min(replicas);
            }
        }
    }
    if trained {
        let [tea_needs, biased_needs] = needs;
        assert!(
            biased_needs <= tea_needs,
            "co-optimization violated: biased needs {biased_needs} replicas vs tea {tea_needs}"
        );
    }

    // Adaptive control under a saturating burst, exporting snapshots.
    let controller = ControllerConfig {
        sample_interval: Duration::from_millis(5),
        cooldown: Duration::from_millis(100),
        min_replicas: 1,
        max_replicas: 4,
        ..ControllerConfig::default()
    };
    let ctl_cfg = cfg(2).kernel_batch(16).telemetry(telemetry(20));
    let sink = trail(out, "telemetry.jsonl")?;
    let rt = ServeRuntime::new(&biased.spec, ctl_cfg.controller(controller).build()?, sink)?;
    burst(&rt, &data, 0..REQUESTS, |_, r| r)?;
    println!("adaptive: live shape {:?}", rt.shape());
    rt.shutdown();

    // Adaptive spf: waves until one is submitted after the controller
    // lowered spf (a short stream can end before it first acts), then
    // the same rows at a fixed spf.
    let controller = ControllerConfig {
        sample_interval: Duration::from_millis(1),
        cooldown: Duration::from_millis(4),
        min_replicas: 1,
        max_replicas: 1,
        spf_range: Some(SpfRange::new(SPF / 2, SPF)),
        ..ControllerConfig::default()
    };
    let spf_cfg = cfg(1).controller(controller).build()?;
    let rt = ServeRuntime::new(&biased.spec, spf_cfg, Arc::new(NullSink))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut served, mut correct) = (0, 0);
    loop {
        let lowered = rt.shape().spf < SPF;
        let b = burst(&rt, &data, served..served + REQUESTS, |_, r| r)?;
        (served, correct) = (served + b.served, correct + b.correct);
        if lowered || Instant::now() >= deadline {
            break;
        }
    }
    let live_spf = rt.shape().spf;
    println!("adaptive spf: live {live_spf} after {served} requests");
    rt.shutdown();
    let adaptive = correct as f32 / served as f32;
    let fixed = serve(&biased.spec, cfg(1).build()?, &data, served)?.accuracy();
    if trained {
        assert!(
            adaptive >= fixed - 0.03,
            "adaptive spf gave up too much accuracy: {adaptive:.4} vs {fixed:.4}"
        );
    }

    // Both models on one packed chip vs two solo runtimes splitting the
    // same workers, driven concurrently. Every runtime is built before
    // its clock starts, so both sides time serving only.
    let split = cfg(2).workers(WORKERS / 2).build()?;
    let solos = [&tea.spec, &biased.spec]
        .map(|spec| ServeRuntime::new(spec, split.clone(), Arc::new(NullSink)));
    let solos = solos.into_iter().collect::<Result<Vec<_>, _>>()?;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let drivers: Vec<_> = solos
            .iter()
            .map(|rt| {
                let data = &data;
                scope.spawn(move || {
                    burst(rt, data, 0..REQUESTS / 2, |_, r| r).map_err(|e| e.to_string())
                })
            })
            .collect();
        drivers
            .into_iter()
            .try_for_each(|d| d.join().expect("solo driver").map(drop))
    })?;
    let split_rps = REQUESTS as f64 / t0.elapsed().as_secs_f64();
    for rt in solos {
        rt.shutdown();
    }
    let rt = ServeRuntime::new(
        [tea.spec.clone(), biased.spec.clone()],
        cfg(2).telemetry(telemetry(20)).build()?,
        trail(out, "packed.jsonl")?,
    )?;
    let ratio = burst(&rt, &data, 0..REQUESTS, |i, r| r.model(i % 2))?.rps() / split_rps;
    rt.shutdown();
    println!("packed / split solo: {ratio:.2}x req/s");
    // A parallel-serving effect: it needs the cores to run the split
    // runtimes' workers concurrently.
    if cores >= WORKERS {
        assert!(
            ratio > 1.0,
            "packing two tenants onto one chip must beat split solo runtimes \
             at equal total workers ({ratio:.2}x)"
        );
    }

    // Quality tiers: the stream at each tier on a calibrated runtime
    // (held-out training rows), then one mixed stream into the trail.
    let calib: Vec<(Vec<f32>, usize)> = (0..data.train_y.len().min(240))
        .map(|i| (data.train_x.row(i).to_vec(), data.train_y[i]))
        .collect();
    let tiered = |sink: Arc<dyn MetricsSink>| -> Res<ServeRuntime> {
        let cfg = cfg(1)
            .tiers(tier_table())
            .telemetry(telemetry(10))
            .build()?;
        let rt = ServeRuntime::new(&biased.spec, cfg, sink)?;
        rt.calibrate_tiers(&calib)?;
        Ok(rt)
    };
    let mut cells = Vec::new();
    for tier in TIERS {
        let rt = tiered(Arc::new(NullSink))?;
        let b = burst(&rt, &data, 0..REQUESTS, |_, r| r.quality(tier))?;
        rt.shutdown();
        let (acc, rps) = (b.accuracy(), b.rps());
        println!(
            "{tier}: accuracy {acc:.4}, {} escalated, {rps:.0} req/s",
            b.escalated
        );
        cells.push(b);
    }
    let (fast, certain, guarded) = (&cells[0], &cells[1], &cells[2]);
    let (fast_rps, certain_rps) = (fast.rps(), certain.rps());
    assert!(
        fast_rps > certain_rps,
        "the fast tier must win on req/s ({fast_rps:.1} vs {certain_rps:.1})"
    );
    if trained {
        let (fast_acc, certain_acc) = (fast.accuracy(), certain.accuracy());
        let (gap, recovered) = (certain_acc - fast_acc, guarded.accuracy() - fast_acc);
        assert!(
            certain_acc >= fast_acc,
            "the certain tier must not lose to fast on accuracy ({certain_acc:.4} vs {fast_acc:.4})"
        );
        assert!(
            recovered >= gap / 2.0,
            "escalation must recover at least half the fast→certain accuracy gap \
             (gap {gap:.4}, recovered {recovered:.4})"
        );
        let jpf = [fast, guarded, certain].map(|c| c.joules_per_frame);
        assert!(
            jpf[0] <= jpf[1] && jpf[1] <= jpf[2],
            "escalation energy must sit between the pure tiers ({jpf:?})"
        );
    }
    let rt = tiered(trail(out, "tiers.jsonl")?)?;
    burst(&rt, &data, 0..REQUESTS, |i, r| r.quality(TIERS[i % 3]))?;
    rt.shutdown();

    // Scale-out: 1 shard vs SHARDS shards at equal per-shard workers; the
    // wide fleet's aggregated heartbeats go to the trail.
    let mut rps = Vec::new();
    for (shards, sink) in [
        (1, Arc::new(NullSink) as Arc<dyn MetricsSink>),
        (SHARDS, trail(out, "fleet.jsonl")?),
    ] {
        let cfg = FleetConfig::new(cfg(2).telemetry(telemetry(20)).build()?);
        let fleet = LocalFleet::launch(&biased.spec, shards, cfg, sink)?;
        rps.push(burst(fleet.router(), &data, 0..REQUESTS, |_, r| r)?.rps());
        fleet.shutdown();
    }
    let ratio = rps[1] / rps[0];
    println!("{SHARDS} shards / 1 shard: {ratio:.2}x req/s");
    // Also a parallelism effect: it needs every shard's workers running.
    if cores >= SHARDS * WORKERS {
        assert!(
            ratio > 1.0,
            "an {SHARDS}-shard fleet must beat 1 shard on aggregate req/s \
             at equal per-shard workers ({ratio:.2}x)"
        );
    }
    println!(
        "trails in {}; accuracy asserts armed: {trained}",
        out.display()
    );
    Ok(())
}
