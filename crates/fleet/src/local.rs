//! An in-process fleet over in-memory pipes: N [`ShardServer`]s and one
//! [`FleetRouter`] wired with [`tn_serve::pipe::duplex`].
//!
//! This is the deterministic harness the integration tests, the bench
//! example, and `scripts/verify.sh` use — the full wire protocol runs
//! (framing, JSON payloads, snapshot heartbeats), but inside one
//! process with no sockets, so CI never flakes on ports and a
//! [`tn_telemetry::ManualClock`] can script staleness. It is also the
//! reference wiring for a real multi-process deployment: replace
//! `duplex` with a `TcpStream` per shard and the code is otherwise
//! identical (both satisfy [`crate::Transport`]).

use tn_chip::nscs::NetworkDeploySpec;
use tn_serve::pipe::duplex;
use tn_serve::{MetricsSnapshot, ServeBackend, ServeError};

use crate::router::{FleetConfig, FleetRouter};
use crate::shard::ShardServer;

use std::sync::Arc;
use tn_telemetry::MetricsSink;

/// Capacity of each in-memory pipe direction. Generous relative to
/// frame sizes so a bursty writer rarely parks, small enough that a
/// wedged reader exerts backpressure instead of ballooning memory.
const PIPE_CAPACITY: usize = 256 * 1024;

/// A router plus the shards it serves, owned together.
///
/// The router is held behind an [`Arc`] so a front-end (e.g.
/// `tn-gateway`'s `bind_backend`) can share it via
/// [`LocalFleet::router_arc`]; drop every shared handle before calling
/// [`LocalFleet::shutdown`].
#[derive(Debug)]
pub struct LocalFleet {
    router: Arc<FleetRouter>,
    shards: Vec<ShardServer>,
}

impl LocalFleet {
    /// Launch `n_shards` shard runtimes, each serving `specs` as the
    /// tenants of one chip (pass `&spec` for one tenant) built from
    /// `cfg.serve` — fleet homogeneity by construction — and connect a
    /// router over them. Every shard's snapshot heartbeats reach `sink`
    /// as one aggregated `tn-telemetry/1` stream.
    ///
    /// # Errors
    ///
    /// Deployment/config/packing errors from the shard runtimes, or
    /// handshake errors from the router.
    pub fn launch(
        specs: impl AsRef<[NetworkDeploySpec]>,
        n_shards: usize,
        cfg: FleetConfig,
        sink: Arc<dyn MetricsSink>,
    ) -> Result<Self, ServeError> {
        let specs = specs.as_ref();
        if n_shards == 0 {
            return Err(ServeError::BadConfig(
                "a fleet needs at least one shard".to_string(),
            ));
        }
        let mut shards = Vec::with_capacity(n_shards);
        let mut conns = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let (shard_end, router_end) = duplex(PIPE_CAPACITY);
            shards.push(ShardServer::host(specs, cfg.serve.clone(), shard_end)?);
            conns.push(router_end);
        }
        let router = Arc::new(FleetRouter::connect(conns, cfg, sink)?);
        Ok(Self { router, shards })
    }

    /// [`LocalFleet::launch`] under its former name, kept only because
    /// the `perfbench` harness still calls it.
    ///
    /// # Errors
    ///
    /// Same as [`LocalFleet::launch`].
    #[deprecated(note = "use `LocalFleet::launch`")]
    pub fn launch_with_sink(
        spec: &NetworkDeploySpec,
        n_shards: usize,
        cfg: FleetConfig,
        sink: Arc<dyn MetricsSink>,
    ) -> Result<Self, ServeError> {
        Self::launch(spec, n_shards, cfg, sink)
    }

    /// The router (submit through it via [`tn_serve::ServeBackend`]).
    pub fn router(&self) -> &FleetRouter {
        &self.router
    }

    /// A shareable [`ServeBackend`] handle to the router, for binding a
    /// front-end over the fleet. All clones must be dropped (e.g. the
    /// gateway shut down) before [`LocalFleet::shutdown`].
    pub fn router_arc(&self) -> Arc<dyn ServeBackend> {
        Arc::clone(&self.router) as Arc<dyn ServeBackend>
    }

    /// Shard `i`'s server handle (heartbeat muting, introspection).
    pub fn shard(&self, i: usize) -> &ShardServer {
        &self.shards[i]
    }

    /// Number of shards launched.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Orderly fleet shutdown: the router drains every in-flight
    /// request and tells the shards to stop, the shards drain and shut
    /// their runtimes down (emitting their closing heartbeats), and the
    /// router folds those final snapshots into the aggregate
    /// [`MetricsSnapshot`] it returns alongside each shard's own final
    /// metrics.
    ///
    /// # Panics
    ///
    /// If a [`LocalFleet::router_arc`] handle is still alive — shut the
    /// front-end holding it down first.
    pub fn shutdown(self) -> (MetricsSnapshot, Vec<MetricsSnapshot>) {
        self.router.begin_shutdown();
        let shard_metrics: Vec<MetricsSnapshot> =
            self.shards.into_iter().map(ShardServer::join).collect();
        let router = Arc::try_unwrap(self.router)
            .expect("router_arc handles must be dropped before fleet shutdown");
        (router.finish(), shard_metrics)
    }
}
