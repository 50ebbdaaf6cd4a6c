//! From a trained or persisted model to a running server.
//!
//! Serving takes two steps. First resolve the model to a hardware spec:
//! [`extract_spec`] for a trained [`Network`](tn_learn::model::Network),
//! [`load_spec`] for a model file written by
//! [`tn_learn::persist::save_network`]. Then hand the spec to the server
//! you want; each has one constructor:
//!
//! | server | constructor |
//! |---|---|
//! | in-process runtime | [`ServeRuntime::new`]`(specs, cfg, sink)` |
//! | HTTP/TCP front-end | [`Gateway::bind`]`(addr, specs, serve_cfg, gw_cfg, sink)` |
//! | in-process sharded fleet | [`LocalFleet::launch`]`(specs, n_shards, cfg, sink)` |
//! | one fleet shard on a connection | [`ShardServer::host`]`(specs, cfg, conn)` |
//! | fleet router over shard connections | [`FleetRouter::connect`]`(conns, cfg, sink)` |
//! | gateway over a runtime or router you built | [`Gateway::bind_backend`] |
//!
//! `specs` is `&spec` for one model or a slice of specs, which deploy as
//! the tenants of one packed chip. `sink` receives the telemetry
//! snapshots; pass a [`NullSink`](tn_telemetry::NullSink) to discard
//! them. Every server ticks its replicas on the compiled fast path
//! ([`tn_chip::kernel::CompiledChip`]).
//!
//! [`ServeRuntime::new`]: tn_serve::ServeRuntime::new
//! [`Gateway::bind`]: tn_gateway::Gateway::bind
//! [`Gateway::bind_backend`]: tn_gateway::Gateway::bind_backend
//! [`LocalFleet::launch`]: tn_fleet::LocalFleet::launch
//! [`ShardServer::host`]: tn_fleet::ShardServer::host
//! [`FleetRouter::connect`]: tn_fleet::FleetRouter::connect
//!
//! # Examples
//!
//! A runtime serving a model from disk:
//!
//! ```no_run
//! use std::sync::Arc;
//! use truenorth::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = load_spec("bench1.tnm")?;
//! let rt = ServeRuntime::new(&spec, ServeConfig::new(7), Arc::new(NullSink))?;
//! let answer = rt.classify(vec![0.0; spec.n_inputs])?;
//! println!("class {} ({:.0}% agreement)", answer.predicted, 100.0 * answer.agreement);
//! rt.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! A trained network on an open port:
//!
//! ```no_run
//! use std::sync::Arc;
//! use truenorth::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let net: Network = unimplemented!();
//! let spec = extract_spec(&net)?;
//! let cfg = ServeConfig::builder(7).replicas(2).build()?;
//! let gw = Gateway::bind("127.0.0.1:0", &spec, cfg, GatewayConfig::default(), Arc::new(NullSink))?;
//! println!("POST http://{}/v1/classify", gw.local_addr());
//! gw.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Two models packed onto every shard of a two-shard fleet; the answers
//! equal those of a solo runtime serving each model alone:
//!
//! ```no_run
//! use std::sync::Arc;
//! use truenorth::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let specs = [load_spec("digits.tnm")?, load_spec("proteins.tnm")?];
//! let cfg = FleetConfig::new(ServeConfig::new(7));
//! let fleet = LocalFleet::launch(&specs, 2, cfg, Arc::new(NullSink))?;
//! let request = SubmitRequest::new(vec![0.0; specs[1].n_inputs]).model(1);
//! let answer = fleet.router().submit_request(request)?.wait()?;
//! assert_eq!(answer.model(), 1);
//! fleet.shutdown();
//! # Ok(())
//! # }
//! ```

use std::path::Path;

use tn_learn::persist::{load_network, PersistError};

use crate::deploy::{extract_spec, ExtractError};
use tn_chip::nscs::NetworkDeploySpec;

/// Failures on the model → spec path.
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
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Extract(e) => write!(f, "cannot extract deploy spec: {e}"),
            Self::Persist(e) => write!(f, "cannot load persisted model: {e}"),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Extract(e) => Some(e),
            Self::Persist(e) => Some(e),
        }
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

/// Load a model persisted with [`tn_learn::persist::save_network`] and
/// extract its hardware spec, ready for any server constructor.
///
/// # Errors
///
/// [`ServingError::Persist`] for unreadable or corrupt model files,
/// [`ServingError::Extract`] for a network that cannot deploy.
pub fn load_spec(path: impl AsRef<Path>) -> Result<NetworkDeploySpec, ServingError> {
    let file = std::fs::File::open(path).map_err(PersistError::Io)?;
    let net = load_network(std::io::BufReader::new(file))?;
    Ok(extract_spec(&net)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::sync::Arc;
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
        let spec = extract_spec(&net).expect("spec");
        let rt = ServeRuntime::new(&spec, cfg, Arc::new(NullSink)).expect("serve");
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

        let from_disk = load_spec(&path).expect("load");
        let rt = ServeRuntime::new(&from_disk, ServeConfig::new(5), Arc::new(NullSink))
            .expect("serve");
        let from_disk = rt.classify(data.test_x.row(0).to_vec()).expect("classify");
        rt.shutdown();

        // Same request seq + seed via a fresh in-memory runtime: identical.
        let spec = extract_spec(&net).expect("spec");
        let rt = ServeRuntime::new(&spec, ServeConfig::new(5), Arc::new(NullSink)).expect("serve");
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
        let spec = extract_spec(&net).expect("spec");
        let rt = ServeRuntime::new(&spec, cfg, Arc::clone(&sink) as Arc<dyn MetricsSink>)
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
        let spec = extract_spec(&net).expect("spec");
        let cfg = || ServeConfig::builder(5).workers(2).build().expect("cfg");
        let gw = Gateway::bind(
            "127.0.0.1:0",
            &spec,
            cfg(),
            GatewayConfig::default(),
            Arc::new(NullSink),
        )
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

        let rt = ServeRuntime::new(&spec, cfg(), Arc::new(NullSink)).expect("serve");
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

        let specs = [net_a, net_b].map(|net| extract_spec(&net).expect("spec"));
        let cfg = || ServeConfig::builder(11).workers(2).build().expect("cfg");
        let packed = ServeRuntime::new(&specs, cfg(), Arc::new(NullSink)).expect("pack");
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

        let solo_a = ServeRuntime::new(&specs[0], cfg(), Arc::new(NullSink)).expect("serve");
        let la = solo_a
            .classify(tn_serve::SubmitRequest::new(xa).at_seq(ra.seq))
            .expect("classify");
        solo_a.shutdown();
        let solo_b = ServeRuntime::new(&specs[1], cfg(), Arc::new(NullSink)).expect("serve");
        let lb = solo_b
            .classify(tn_serve::SubmitRequest::new(xb).at_seq(rb.seq))
            .expect("classify");
        solo_b.shutdown();
        assert_eq!((ra.predicted, ra.votes), (la.predicted, la.votes));
        assert_eq!((rb.predicted, rb.votes), (lb.predicted, lb.votes));
    }

    #[test]
    fn missing_file_is_a_persist_error() {
        let err = load_spec("/nonexistent/model.tnm").unwrap_err();
        assert!(matches!(err, ServingError::Persist(PersistError::Io(_))));
        assert!(err.to_string().contains("persisted model"));
    }
}
