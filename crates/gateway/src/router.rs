//! Request routing: map a parsed HTTP request onto the serving runtime.
//!
//! Routing never blocks. A classify request becomes a queued
//! [`Pending`] holding the runtime's completion handle; everything else
//! (config, snapshot, health, errors) renders immediately. Load shedding
//! happens here: the runtime is always configured with
//! [`tn_serve::Backpressure::Reject`], so a full queue surfaces as
//! `503` + `Retry-After` instead of stalling the connection's reader.

use std::sync::Arc;

use tn_serve::{ServeBackend, ServeError, SubmitRequest};
use tn_telemetry::json;
use tn_telemetry::LatestSink;

use crate::conn::Pending;
use crate::http::HttpRequest;
use crate::proto;

/// Shared services every connection routes against.
#[derive(Debug, Clone)]
pub(crate) struct ServiceCtx {
    /// The serving backend (submission + live introspection) — a solo
    /// [`tn_serve::ServeRuntime`] or a fleet router, behind one trait.
    pub(crate) rt: Arc<dyn ServeBackend>,
    /// Latest-snapshot holder the runtime's observer exports into.
    pub(crate) latest: Arc<LatestSink>,
}

/// Route one complete HTTP request.
pub(crate) fn handle_http(req: &HttpRequest, ctx: &ServiceCtx) -> Pending {
    let path = req.target.split('?').next().unwrap_or("");
    let mut pending = match (req.method.as_str(), path) {
        ("POST", "/v1/classify") => classify(&req.body, ctx),
        ("GET", "/v1/config") => Pending::ready(200, proto::config_json(&*ctx.rt)),
        ("GET", "/v1/snapshot") => snapshot(ctx),
        ("GET", "/healthz") => Pending::ready(200, proto::health_json()),
        (_, "/v1/classify" | "/v1/config" | "/v1/snapshot" | "/healthz") => Pending::ready(
            405,
            proto::error_json("method_not_allowed", "unsupported method for this endpoint"),
        ),
        _ => Pending::ready(404, proto::error_json("not_found", "unknown endpoint")),
    };
    if !req.keep_alive {
        pending = pending.closing();
    }
    pending
}

/// Parse a classify body and submit it.
fn classify(body: &[u8], ctx: &ServiceCtx) -> Pending {
    match proto::parse_classify_body(body) {
        Ok(request) => submit(request, ctx),
        Err(msg) => Pending::ready(400, proto::error_json("bad_request", &msg)),
    }
}

/// Submit one classify request; map admission failures onto wire
/// responses. The routing failures (`unknown_model` / `unknown_quality`)
/// share one structured 400 shape whose `detail` object names what was
/// asked for and what this runtime serves.
fn submit(request: SubmitRequest, ctx: &ServiceCtx) -> Pending {
    match ctx.rt.submit_request(request) {
        Ok(handle) => Pending::handle(handle),
        Err(ServeError::QueueFull) => Pending::ready(
            503,
            proto::error_json("queue_full", "submission queue is full; retry later"),
        )
        .with_retry_after(retry_after_secs(&*ctx.rt)),
        Err(ServeError::ShuttingDown) => Pending::ready(
            503,
            proto::error_json("shutting_down", "gateway is draining"),
        )
        .closing(),
        // Unlike a drain, the connection stays open: unavailability is a
        // backend-capacity condition (dead/stale fleet shards) that may
        // recover, so the client is invited to retry.
        Err(ServeError::Unavailable(msg)) => Pending::ready(
            503,
            proto::error_json("unavailable", &format!("backend unavailable: {msg}")),
        )
        .with_retry_after(retry_after_secs(&*ctx.rt)),
        Err(e @ (ServeError::BadInput { .. } | ServeError::InputOutOfRange { .. })) => {
            Pending::ready(400, proto::error_json("bad_input", &e.to_string()))
        }
        Err(e @ ServeError::UnknownModel { model, models }) => Pending::ready(
            400,
            proto::error_json_detail(
                "unknown_model",
                &e.to_string(),
                Some(&format!("{{\"model\":{model},\"models\":{models}}}")),
            ),
        ),
        Err(ref e @ ServeError::UnknownQuality { ref quality, ref tiers }) => {
            let listed = tiers
                .iter()
                .map(|t| format!("\"{}\"", json::escape(t)))
                .collect::<Vec<_>>()
                .join(",");
            Pending::ready(
                400,
                proto::error_json_detail(
                    "unknown_quality",
                    &e.to_string(),
                    Some(&format!(
                        "{{\"quality\":\"{}\",\"tiers\":[{listed}]}}",
                        json::escape(quality)
                    )),
                ),
            )
        }
        Err(e) => Pending::ready(500, proto::error_json("internal", &e.to_string())),
    }
}

/// The latest telemetry snapshot, or 404 while none has been exported.
fn snapshot(ctx: &ServiceCtx) -> Pending {
    match ctx.latest.latest() {
        Some(snap) => Pending::ready(200, snap.to_json_line().trim_end().to_string()),
        None => Pending::ready(
            404,
            proto::error_json(
                "no_snapshot",
                "no telemetry snapshot exported yet (enable ServeConfig::telemetry)",
            ),
        ),
    }
}

/// `Retry-After` hint when shedding load: a rough time-to-drain estimate
/// (in-flight depth × mean service latency), clamped to `1..=30` seconds
/// so the hint is always actionable and never absurd.
fn retry_after_secs(rt: &dyn ServeBackend) -> u64 {
    let stats = rt.queue_stats();
    let mean = rt.metrics().mean_latency.as_secs_f64();
    let est = (stats.in_flight as f64 * mean).ceil();
    if est.is_finite() && est >= 1.0 {
        (est as u64).min(30)
    } else {
        1
    }
}
