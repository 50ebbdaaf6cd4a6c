//! Set-up of each workload's serving stack, timed call by call:
//! data generation (`tn-data` via the test bench), training (`tn-learn`),
//! spec extraction (`truenorth`), runtime start (`tn-serve`), fleet
//! launch (`tn-fleet`), tier calibration and gateway bind (`tn-gateway`).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use tn_chip::nscs::NetworkDeploySpec;
use tn_fleet::{FleetConfig, LocalFleet};
use tn_gateway::{Gateway, GatewayConfig};
use tn_serve::{
    Backpressure, MetricsSnapshot, QualityTier, QueueStats, ServeBackend, ServeConfig,
    ServeRuntime, TelemetryConfig,
};
use tn_telemetry::{LatestSink, MemorySink, MetricsSink, NullSink};
use truenorth::prelude::{BenchData, Penalty, RunScale, TestBench};

use crate::config::Table;
use crate::trace::SpanLog;

pub const WIRE_FAST: &str = "wire_fast";
pub const PACKED_PAIR: &str = "packed_pair";
pub const WIRE_FLEET_TIERS: &str = "wire_fleet_tiers";

/// Quality tiers of `wire_fleet_tiers`, in variant order, with their
/// share of the request mix.
pub const TIERS: [(&str, f64); 3] = [("fast", 0.5), ("guarded", 0.25), ("certain", 0.25)];
/// Held-out training frames each fleet shard calibrates on.
const CALIBRATION_FRAMES: usize = 240;
const SHARDS: usize = 2;

/// Trained models plus the data they were trained and tested on.
pub struct Trained {
    pub data: BenchData,
    /// Deploy specs in variant order (`packed_pair`: Tea, biased).
    pub specs: Vec<NetworkDeploySpec>,
    pub float_accuracy: f64,
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub data_s: f64,
    pub train_s: f64,
    pub extract_s: f64,
    pub start_s: f64,
    pub calibrate_s: f64,
    pub launch_s: f64,
    pub bind_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.data_s
            + self.train_s
            + self.extract_s
            + self.start_s
            + self.calibrate_s
            + self.launch_s
            + self.bind_s
    }
}

/// Generate the test bench's data and train every model the workload
/// serves (`packed_pair` trains its two tenants on the two cores at once).
pub fn train(table: &Table, workload: &str, log: &mut SpanLog, times: &mut SetupTimes) -> Trained {
    let scale = RunScale {
        n_train: table.n_train,
        n_test: table.n_test,
        epochs: table.epochs,
        seeds: 1,
        threads: 2,
    };
    let seed = table.train_seed;
    let bench = TestBench::new(1, seed);
    let (data, s) = log.time("data", "generate", || bench.load_data(&scale, seed));
    times.data_s += s;
    let penalties = if workload == PACKED_PAIR {
        vec![Penalty::None, bench.biasing_penalty()]
    } else {
        vec![bench.biasing_penalty()]
    };
    let (nets, s) = log.time("learn", "train", || {
        std::thread::scope(|scope| {
            let jobs: Vec<_> = penalties
                .iter()
                .map(|&p| {
                    let (bench, data) = (&bench, &data);
                    scope.spawn(move || {
                        bench
                            .train(data, p, scale.epochs, seed)
                            .expect("training")
                            .0
                    })
                })
                .collect();
            jobs.into_iter()
                .map(|j| j.join().expect("training thread"))
                .collect::<Vec<_>>()
        })
    });
    times.train_s += s;
    let (specs, s) = log.time("core", "extract", || {
        nets.iter()
            .map(|n| truenorth::deploy::extract_spec(n).expect("deployable network"))
            .collect::<Vec<_>>()
    });
    times.extract_s += s;
    let float_accuracy = nets
        .iter()
        .map(|n| f64::from(n.accuracy(&data.test_x, &data.test_y)))
        .sum::<f64>()
        / nets.len() as f64;
    Trained {
        data,
        specs,
        float_accuracy,
    }
}

/// The serving configuration of a workload (telemetry on for the traced
/// pass only).
pub fn serve_config(table: &Table, workload: &str, telemetry: bool) -> ServeConfig {
    let mut b = ServeConfig::builder(table.serve_seed)
        .queue_capacity(table.queue_capacity)
        .batch_max(table.batch_max)
        .kernel_batch(table.kernel_batch)
        .backpressure(Backpressure::Reject);
    b = match workload {
        WIRE_FAST => b.replicas(1).spf(2).workers(2),
        PACKED_PAIR => b.replicas(2).spf(8).workers(2),
        _ => b.replicas(1).spf(2).workers(1).tiers(tier_table()),
    };
    if telemetry {
        b = b.telemetry(TelemetryConfig {
            interval: Duration::from_millis(100),
            ..TelemetryConfig::default()
        });
    }
    b.build().expect("valid serve config")
}

/// `fast` (r1 spf2), `certain` (r4 spf8), and `guarded`: fast's operating
/// point escalating to `certain` below 0.8 calibrated confidence.
pub fn tier_table() -> Vec<QualityTier> {
    vec![
        QualityTier::new("fast", 1, 2),
        QualityTier::new("certain", 4, 8),
        QualityTier::new("guarded", 1, 2)
            .confidence_target(0.8)
            .escalate_to("certain"),
    ]
}

/// A running serving stack.
pub enum Stack {
    /// `wire_fast`: one runtime behind a gateway.
    Solo { gw: Gateway, rt: Arc<ServeRuntime> },
    /// `packed_pair`: one packed runtime, submitted to in-process.
    Packed { rt: Arc<ServeRuntime> },
    /// `wire_fleet_tiers`: a gateway over a fleet router over shards.
    Fleet { gw: Gateway, fleet: LocalFleet },
}

fn null_latest() -> Arc<LatestSink> {
    Arc::new(LatestSink::tee(Arc::new(NullSink)))
}

/// Deploy the trained models and bring the workload's stack up until the
/// first request can be sent. `sink` receives telemetry snapshots when
/// the config enables them.
pub fn deploy(
    table: &Table,
    workload: &str,
    trained: &Trained,
    telemetry: Option<Arc<MemorySink>>,
    log: &mut SpanLog,
    times: &mut SetupTimes,
) -> Stack {
    let cfg = serve_config(table, workload, telemetry.is_some());
    let sink: Arc<dyn MetricsSink> = match telemetry {
        Some(s) => s,
        None => Arc::new(NullSink),
    };
    let bind = |log: &mut SpanLog, times: &mut SetupTimes, backend: Arc<dyn ServeBackend>| {
        let (gw, s) = log.time("gateway", "bind", || {
            Gateway::bind_backend(
                "127.0.0.1:0",
                backend,
                GatewayConfig::default(),
                null_latest(),
            )
            .expect("gateway binds")
        });
        times.bind_s += s;
        gw
    };
    match workload {
        WIRE_FAST => {
            let (rt, s) = log.time("serve", "start", || {
                Arc::new(
                    ServeRuntime::new_with_sink(&trained.specs[0], cfg, sink).expect("runtime"),
                )
            });
            times.start_s += s;
            let gw = bind(log, times, Arc::clone(&rt) as Arc<dyn ServeBackend>);
            Stack::Solo { gw, rt }
        }
        PACKED_PAIR => {
            let (rt, s) = log.time("serve", "start", || {
                Arc::new(
                    ServeRuntime::new_packed_with_sink(&trained.specs, cfg, sink)
                        .expect("packed runtime"),
                )
            });
            times.start_s += s;
            Stack::Packed { rt }
        }
        _ => {
            let (fleet, s) = log.time("fleet", "launch", || {
                LocalFleet::launch_with_sink(&trained.specs[0], SHARDS, FleetConfig::new(cfg), sink)
                    .expect("fleet")
            });
            times.launch_s += s;
            let calib: Vec<(Vec<f32>, usize)> = (0..CALIBRATION_FRAMES
                .min(trained.data.train_y.len()))
                .map(|i| {
                    (
                        trained.data.train_x.row(i).to_vec(),
                        trained.data.train_y[i],
                    )
                })
                .collect();
            let ((), s) = log.time("serve", "calibrate", || {
                for i in 0..fleet.n_shards() {
                    fleet
                        .shard(i)
                        .runtime()
                        .calibrate_tiers(&calib)
                        .expect("calibration");
                }
            });
            times.calibrate_s += s;
            let gw = bind(log, times, fleet.router_arc());
            Stack::Fleet { gw, fleet }
        }
    }
}

impl Stack {
    pub fn addr(&self) -> Option<SocketAddr> {
        match self {
            Stack::Solo { gw, .. } | Stack::Fleet { gw, .. } => Some(gw.local_addr()),
            Stack::Packed { .. } => None,
        }
    }

    /// The runtime a client submits to in-process (`packed_pair`).
    pub fn runtime(&self) -> Option<&Arc<ServeRuntime>> {
        match self {
            Stack::Packed { rt } => Some(rt),
            _ => None,
        }
    }

    /// Live queue gauge of whatever the client talks to.
    pub fn queue_stats(&self) -> QueueStats {
        match self {
            Stack::Solo { rt, .. } | Stack::Packed { rt } => rt.queue_stats(),
            Stack::Fleet { gw, .. } => gw.queue_stats(),
        }
    }

    /// Counters of every runtime that executes frames (each fleet shard).
    pub fn runtime_metrics(&self) -> Vec<MetricsSnapshot> {
        match self {
            Stack::Solo { rt, .. } | Stack::Packed { rt } => vec![rt.metrics()],
            Stack::Fleet { fleet, .. } => (0..fleet.n_shards())
                .map(|i| fleet.shard(i).runtime().metrics())
                .collect(),
        }
    }

    /// Fleet router counters (`None` without a fleet).
    pub fn router_metrics(&self) -> Option<MetricsSnapshot> {
        match self {
            Stack::Fleet { gw, .. } => Some(gw.metrics()),
            _ => None,
        }
    }

    /// `cores()` summed over every serving runtime.
    pub fn cores_used(&self) -> usize {
        match self {
            Stack::Solo { rt, .. } | Stack::Packed { rt } => rt.cores(),
            Stack::Fleet { fleet, .. } => (0..fleet.n_shards())
                .map(|i| fleet.shard(i).runtime().cores())
                .sum(),
        }
    }

    /// Worker threads across every serving runtime.
    pub fn workers(&self) -> usize {
        match self {
            Stack::Solo { rt, .. } | Stack::Packed { rt } => rt.config().workers,
            Stack::Fleet { fleet, .. } => (0..fleet.n_shards())
                .map(|i| fleet.shard(i).runtime().config().workers)
                .sum(),
        }
    }

    /// Drain and stop everything; returns the final counters of every
    /// serving runtime.
    pub fn shutdown(self) -> Vec<MetricsSnapshot> {
        match self {
            Stack::Solo { gw, rt } => {
                gw.shutdown();
                vec![Arc::try_unwrap(rt)
                    .expect("gateway released the runtime")
                    .shutdown()]
            }
            Stack::Packed { rt } => {
                vec![Arc::try_unwrap(rt).expect("sole runtime owner").shutdown()]
            }
            Stack::Fleet { gw, fleet } => {
                gw.shutdown();
                fleet.shutdown().1
            }
        }
    }
}
