//! Glue from trained (or persisted) models to the `tn-serve` runtime.
//!
//! `tn-serve` itself depends only on `tn-chip` — it serves any
//! [`NetworkDeploySpec`]. This module closes the loop for the common
//! workflows: spin up a runtime straight from a trained
//! [`Network`], or from a model file written by
//! [`tn_learn::persist::save_network`].
//!
//! Runtimes built here tick replicas on the compiled fast path
//! ([`tn_chip::kernel::CompiledChip`]) — the deployment compiles its chip
//! at build time and the interpreter remains only as the reference
//! implementation the kernel is proven bit-identical to.
//!
//! The `gateway_*` functions put the same runtimes on the network via
//! `tn-gateway`, the std-only HTTP/TCP front-end: [`gateway_network`] is
//! the one-call path from a trained [`Network`] to an open port.

use std::net::ToSocketAddrs;
use std::path::Path;
use std::sync::Arc;

use tn_fleet::{FleetConfig, LocalFleet};
use tn_gateway::{Gateway, GatewayConfig, GatewayError};
use tn_learn::model::Network;
use tn_learn::persist::{load_network, PersistError};
use tn_serve::{ServeConfig, ServeError, ServeRuntime};
use tn_telemetry::MetricsSink;

use crate::deploy::{extract_spec, ExtractError};
use tn_chip::nscs::NetworkDeploySpec;

/// Failures on the model → runtime path.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm, so future
/// variants are not a breaking change.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServingError {
    /// The trained network has a layer that cannot deploy to TrueNorth.
    Extract(ExtractError),
    /// The persisted model file could not be read or decoded.
    Persist(PersistError),
    /// The runtime itself refused the spec or configuration.
    Serve(ServeError),
    /// The TCP front-end could not be brought up.
    Gateway(GatewayError),
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Extract(e) => write!(f, "cannot extract deploy spec: {e}"),
            Self::Persist(e) => write!(f, "cannot load persisted model: {e}"),
            Self::Serve(e) => write!(f, "cannot start serve runtime: {e}"),
            Self::Gateway(e) => write!(f, "cannot start gateway: {e}"),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Extract(e) => Some(e),
            Self::Persist(e) => Some(e),
            Self::Serve(e) => Some(e),
            Self::Gateway(e) => Some(e),
        }
    }
}

impl From<GatewayError> for ServingError {
    fn from(e: GatewayError) -> Self {
        Self::Gateway(e)
    }
}

impl From<ExtractError> for ServingError {
    fn from(e: ExtractError) -> Self {
        Self::Extract(e)
    }
}

impl From<PersistError> for ServingError {
    fn from(e: PersistError) -> Self {
        Self::Persist(e)
    }
}

impl From<ServeError> for ServingError {
    fn from(e: ServeError) -> Self {
        Self::Serve(e)
    }
}

impl From<std::io::Error> for ServingError {
    fn from(e: std::io::Error) -> Self {
        Self::Persist(PersistError::Io(e))
    }
}

/// Start a serving runtime for an already-extracted hardware spec.
///
/// # Errors
///
/// [`ServingError::Serve`] if the config is inconsistent or the spec does
/// not fit the chip at the requested replica count.
pub fn serve_spec(spec: &NetworkDeploySpec, cfg: ServeConfig) -> Result<ServeRuntime, ServingError> {
    Ok(ServeRuntime::new(spec, cfg)?)
}

/// Like [`serve_spec`], with a [`MetricsSink`] receiving the runtime's
/// periodic telemetry snapshots (driven when
/// [`ServeConfig::telemetry`] is set; see `tn_serve`'s crate docs).
///
/// # Errors
///
/// Same as [`serve_spec`].
pub fn serve_spec_with_sink(
    spec: &NetworkDeploySpec,
    cfg: ServeConfig,
    sink: Arc<dyn MetricsSink>,
) -> Result<ServeRuntime, ServingError> {
    Ok(ServeRuntime::new_with_sink(spec, cfg, sink)?)
}

/// Extract the hardware spec from a trained network and start serving it.
///
/// # Errors
///
/// [`ServingError::Extract`] for non-deployable networks, plus everything
/// [`serve_spec`] can return.
pub fn serve_network(net: &Network, cfg: ServeConfig) -> Result<ServeRuntime, ServingError> {
    let spec = extract_spec(net)?;
    serve_spec(&spec, cfg)
}

/// Start one *packed multi-tenant* runtime over several already-extracted
/// hardware specs: each spec becomes a tenant with a disjoint core
/// rectangle on one chip, addressed by
/// [`tn_serve::SubmitRequest::model`] with its index in `specs`. Every
/// tenant's responses are bit-identical to a solo runtime serving that
/// spec alone under the same config.
///
/// # Errors
///
/// [`ServingError::Serve`] if the config is inconsistent, any spec is
/// undeployable, or the tenants together exceed the chip's core budget.
pub fn serve_packed_specs(
    specs: &[NetworkDeploySpec],
    cfg: ServeConfig,
) -> Result<ServeRuntime, ServingError> {
    Ok(ServeRuntime::new_packed(specs, cfg)?)
}

/// Like [`serve_packed_specs`], with a [`MetricsSink`] receiving the
/// runtime's telemetry snapshots (which carry per-tenant
/// `serve.model.{id}.*` counters).
///
/// # Errors
///
/// Same as [`serve_packed_specs`].
pub fn serve_packed_specs_with_sink(
    specs: &[NetworkDeploySpec],
    cfg: ServeConfig,
    sink: Arc<dyn MetricsSink>,
) -> Result<ServeRuntime, ServingError> {
    Ok(ServeRuntime::new_packed_with_sink(specs, cfg, sink)?)
}

/// Extract hardware specs from several trained networks and consolidate
/// them onto one packed runtime — the one-call path from N independent
/// `bench.train(..)` results to a multi-tenant chip.
///
/// # Errors
///
/// [`ServingError::Extract`] for non-deployable networks, plus
/// everything [`serve_packed_specs`] can return.
pub fn serve_packed_networks(
    nets: &[&Network],
    cfg: ServeConfig,
) -> Result<ServeRuntime, ServingError> {
    let specs: Vec<NetworkDeploySpec> = nets
        .iter()
        .map(|net| extract_spec(net))
        .collect::<Result<_, _>>()?;
    serve_packed_specs(&specs, cfg)
}

/// Like [`serve_network`], with a [`MetricsSink`] for telemetry export.
///
/// # Errors
///
/// Same as [`serve_network`].
pub fn serve_network_with_sink(
    net: &Network,
    cfg: ServeConfig,
    sink: Arc<dyn MetricsSink>,
) -> Result<ServeRuntime, ServingError> {
    let spec = extract_spec(net)?;
    serve_spec_with_sink(&spec, cfg, sink)
}

/// Load a model persisted with [`tn_learn::persist::save_network`] and
/// start serving it — the deploy-from-disk path of the serving story.
///
/// # Errors
///
/// [`ServingError::Persist`] for unreadable or corrupt model files, plus
/// everything [`serve_network`] can return.
pub fn serve_persisted(path: &Path, cfg: ServeConfig) -> Result<ServeRuntime, ServingError> {
    let file = std::fs::File::open(path)?;
    let net = load_network(std::io::BufReader::new(file))?;
    serve_network(&net, cfg)
}

/// Serve an already-extracted hardware spec over TCP: deploy `spec`,
/// start the worker pool, and listen on `addr` (port 0 picks an
/// ephemeral port — read it back with [`Gateway::local_addr`]).
///
/// The gateway speaks HTTP/1.1 and line-JSON on the same port; see the
/// [`tn_gateway`] crate docs for the wire protocol.
///
/// # Errors
///
/// [`ServingError::Gateway`] for bad gateway knobs, an unbindable
/// address, or a runtime that refuses the spec.
pub fn gateway_spec(
    addr: impl ToSocketAddrs,
    spec: &NetworkDeploySpec,
    serve_cfg: ServeConfig,
    gw_cfg: GatewayConfig,
) -> Result<Gateway, ServingError> {
    Ok(Gateway::bind(addr, spec, serve_cfg, gw_cfg)?)
}

/// Extract the hardware spec from a trained network and serve it over
/// TCP — the one-call path from `bench.train(..)` to an open port.
///
/// # Errors
///
/// [`ServingError::Extract`] for non-deployable networks, plus
/// everything [`gateway_spec`] can return.
pub fn gateway_network(
    addr: impl ToSocketAddrs,
    net: &Network,
    serve_cfg: ServeConfig,
    gw_cfg: GatewayConfig,
) -> Result<Gateway, ServingError> {
    let spec = extract_spec(net)?;
    gateway_spec(addr, &spec, serve_cfg, gw_cfg)
}

/// Like [`gateway_network`], with a [`MetricsSink`] receiving the full
/// telemetry export stream (the gateway tees it, keeping the latest
/// snapshot for `GET /v1/snapshot`).
///
/// # Errors
///
/// Same as [`gateway_network`].
pub fn gateway_network_with_sink(
    addr: impl ToSocketAddrs,
    net: &Network,
    serve_cfg: ServeConfig,
    gw_cfg: GatewayConfig,
    sink: Arc<dyn MetricsSink>,
) -> Result<Gateway, ServingError> {
    let spec = extract_spec(net)?;
    Ok(Gateway::bind_with_sink(addr, &spec, serve_cfg, gw_cfg, sink)?)
}

/// Scale a trained network *out*: extract its hardware spec and launch
/// an in-process `tn-fleet` — `n_shards` shard runtimes (each a full
/// replica set built from `cfg.serve`) behind one router whose answer
/// stream is bit-identical to a solo runtime. Submit through
/// [`LocalFleet::router`] (a [`tn_serve::ServeBackend`]), or bind a
/// gateway over it with `Gateway::bind_backend`.
///
/// # Errors
///
/// [`ServingError::Extract`] for non-deployable networks,
/// [`ServingError::Serve`] for config/deploy/handshake failures.
pub fn fleet_network(
    net: &Network,
    n_shards: usize,
    cfg: FleetConfig,
) -> Result<LocalFleet, ServingError> {
    let spec = extract_spec(net)?;
    Ok(LocalFleet::launch(&spec, n_shards, cfg)?)
}

/// Like [`fleet_network`], deploying from a model file persisted with
/// [`tn_learn::persist::save_network`].
///
/// # Errors
///
/// [`ServingError::Persist`] for unreadable or corrupt model files, plus
/// everything [`fleet_network`] can return.
pub fn fleet_persisted(
    path: &Path,
    n_shards: usize,
    cfg: FleetConfig,
) -> Result<LocalFleet, ServingError> {
    let file = std::fs::File::open(path)?;
    let net = load_network(std::io::BufReader::new(file))?;
    fleet_network(&net, n_shards, cfg)
}

/// Like [`fleet_persisted`], with a [`MetricsSink`] receiving every
/// shard's `tn-telemetry/1` heartbeats as one aggregated stream.
///
/// # Errors
///
/// Same as [`fleet_persisted`].
pub fn fleet_persisted_with_sink(
    path: &Path,
    n_shards: usize,
    cfg: FleetConfig,
    sink: Arc<dyn MetricsSink>,
) -> Result<LocalFleet, ServingError> {
    let file = std::fs::File::open(path)?;
    let net = load_network(std::io::BufReader::new(file))?;
    let spec = extract_spec(&net)?;
    Ok(LocalFleet::launch_with_sink(&spec, n_shards, cfg, sink)?)
}

/// Like [`serve_persisted`], with a [`MetricsSink`] for telemetry export.
///
/// # Errors
///
/// Same as [`serve_persisted`].
pub fn serve_persisted_with_sink(
    path: &Path,
    cfg: ServeConfig,
    sink: Arc<dyn MetricsSink>,
) -> Result<ServeRuntime, ServingError> {
    let file = std::fs::File::open(path)?;
    let net = load_network(std::io::BufReader::new(file))?;
    serve_network_with_sink(&net, cfg, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use tn_learn::persist::save_network;

    fn tiny_trained() -> (Network, BenchData) {
        let scale = RunScale {
            n_train: 120,
            n_test: 40,
            epochs: 2,
            seeds: 1,
            threads: 1,
        };
        let bench = TestBench::new(1, 31);
        let data = bench.load_data(&scale, 31);
        let (net, _) = bench
            .train(&data, Penalty::None, scale.epochs, 31)
            .expect("train");
        (net, data)
    }

    #[test]
    fn trained_network_round_trips_through_serving() {
        let (net, data) = tiny_trained();
        let cfg = ServeConfig::builder(5).workers(2).build().expect("cfg");
        let rt = serve_network(&net, cfg).expect("serve");
        assert_eq!(rt.shape().models, vec![(28 * 28, 10)]);
        let r = rt.classify(data.test_x.row(0).to_vec()).expect("classify");
        assert!(r.predicted < 10);
        let snap = rt.shutdown();
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn persisted_model_serves_from_disk() {
        let (net, data) = tiny_trained();
        let dir = std::env::temp_dir().join("tn-serve-persist-test");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("bench1.tnm");
        let mut bytes = Vec::new();
        save_network(&net, &mut bytes).expect("encode");
        std::fs::write(&path, &bytes).expect("write");

        // The sink variant is the same deploy-from-disk path with
        // telemetry egress attached (a NullSink here keeps it silent).
        let rt = serve_persisted_with_sink(
            &path,
            ServeConfig::new(5),
            Arc::new(tn_telemetry::NullSink),
        )
        .expect("serve");
        let from_disk = rt.classify(data.test_x.row(0).to_vec()).expect("classify");
        rt.shutdown();

        // Same request seq + seed via a fresh in-memory runtime: identical.
        let rt = serve_network(&net, ServeConfig::new(5)).expect("serve");
        let in_memory = rt.classify(data.test_x.row(0).to_vec()).expect("classify");
        rt.shutdown();
        assert_eq!(from_disk.predicted, in_memory.predicted);
        assert_eq!(from_disk.votes, in_memory.votes);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sink_variant_exports_snapshots_for_a_trained_network() {
        use tn_serve::TelemetryConfig;
        use tn_telemetry::MemorySink;

        let (net, data) = tiny_trained();
        let sink = Arc::new(MemorySink::new());
        let cfg = ServeConfig::builder(5)
            .workers(2)
            .telemetry(TelemetryConfig::default())
            .build()
            .expect("cfg");
        let rt = serve_network_with_sink(&net, cfg, Arc::clone(&sink) as Arc<dyn MetricsSink>)
            .expect("serve");
        for row in 0..4 {
            rt.classify(data.test_x.row(row).to_vec()).expect("classify");
        }
        rt.shutdown();
        assert!(!sink.is_empty(), "shutdown flushes at least one snapshot");
        assert_eq!(sink.last_counter("serve.completed"), Some(4));
        assert!(sink.last_counter("chip.synaptic_ops").unwrap_or(0) > 0);
    }

    #[test]
    fn trained_network_serves_over_tcp() {
        use std::io::{Read, Write};

        // The full glue path: bench.train → extract_spec → ServeRuntime →
        // tn-gateway, answered to a bare std TcpStream — and bit-identical
        // to the in-process runtime for the same (seed, seq).
        let (net, data) = tiny_trained();
        let cfg = || ServeConfig::builder(5).workers(2).build().expect("cfg");
        let gw = gateway_network("127.0.0.1:0", &net, cfg(), GatewayConfig::default())
            .expect("gateway");

        let frame = data.test_x.row(0).to_vec();
        let nums: Vec<String> = frame.iter().map(|v| v.to_string()).collect();
        let body = format!("{{\"frame\":[{}]}}", nums.join(","));
        let mut client = std::net::TcpStream::connect(gw.local_addr()).expect("connect");
        write!(
            client,
            "POST /v1/classify HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .expect("send");
        let mut reply = String::new();
        client.read_to_string(&mut reply).expect("receive");
        let snap = gw.shutdown();
        assert_eq!(snap.completed, 1);

        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        let wire_body = reply.split("\r\n\r\n").nth(1).expect("body");
        let wire = tn_telemetry::json::parse(wire_body).expect("JSON body");

        let rt = serve_network(&net, cfg()).expect("serve");
        let local = rt.classify(frame).expect("classify");
        rt.shutdown();
        assert_eq!(
            wire.get("predicted").unwrap().as_u64(),
            Some(local.predicted as u64)
        );
        let wire_votes: Vec<u64> = wire
            .get("votes")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(wire_votes, local.votes);
    }

    #[test]
    fn packed_networks_serve_each_tenant_like_solo() {
        // Two different benchmarks consolidated onto one chip: each
        // tenant's answer for seq `s` must match a solo runtime serving it
        // alone at the same seq.
        let (net_a, data_a) = tiny_trained();
        let scale = RunScale {
            n_train: 80,
            n_test: 20,
            epochs: 2,
            seeds: 1,
            threads: 1,
        };
        let bench = TestBench::new(5, 47);
        let data_b = bench.load_data(&scale, 47);
        let (net_b, _) = bench
            .train(&data_b, Penalty::None, scale.epochs, 47)
            .expect("train");

        let cfg = || ServeConfig::builder(11).workers(2).build().expect("cfg");
        let packed = serve_packed_networks(&[&net_a, &net_b], cfg()).expect("pack");
        assert_eq!(packed.shape().models.len(), 2);

        let xa = data_a.test_x.row(0).to_vec();
        let xb = data_b.test_x.row(0).to_vec();
        let ra = packed
            .submit(tn_serve::SubmitRequest::new(xa.clone()).model(0))
            .expect("submit")
            .wait()
            .expect("serve");
        let rb = packed
            .submit(tn_serve::SubmitRequest::new(xb.clone()).model(1))
            .expect("submit")
            .wait()
            .expect("serve");
        packed.shutdown();
        assert_eq!(ra.model(), 0);
        assert_eq!(rb.model(), 1);

        let solo_a = serve_network(&net_a, cfg()).expect("serve");
        let la = solo_a
            .classify(tn_serve::SubmitRequest::new(xa).at_seq(ra.seq))
            .expect("classify");
        solo_a.shutdown();
        let solo_b = serve_network(&net_b, cfg()).expect("serve");
        let lb = solo_b
            .classify(tn_serve::SubmitRequest::new(xb).at_seq(rb.seq))
            .expect("classify");
        solo_b.shutdown();
        assert_eq!((ra.predicted, ra.votes), (la.predicted, la.votes));
        assert_eq!((rb.predicted, rb.votes), (lb.predicted, lb.votes));
    }

    #[test]
    fn missing_file_is_a_persist_error() {
        let err = serve_persisted(
            Path::new("/nonexistent/model.tnm"),
            ServeConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ServingError::Persist(PersistError::Io(_))));
        assert!(err.to_string().contains("persisted model"));
    }
}
