//! Wire payloads: request-body parsing and response JSON rendering.
//!
//! Parsing reuses the strict [`tn_telemetry::json`] reader — anything
//! malformed is a 400, never a guess — and rendering is plain `format!`
//! with escaped strings, so the gateway stays dependency-free.

use tn_serve::{Backpressure, Response, ServeBackend, SubmitRequest};
use tn_telemetry::json::{self, escape};

/// Render an `f64` as a JSON number (non-finite values have no JSON
/// representation; they degrade to 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".to_string()
    }
}

/// Join integers into a JSON array body.
fn join<T: std::fmt::Display>(items: impl Iterator<Item = T>) -> String {
    let mut out = String::new();
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item.to_string());
    }
    out
}

/// Parse a `POST /v1/classify` body. It must be UTF-8 JSON that mirrors
/// [`SubmitRequest`] key for key: `{"frame": [x0, x1, ...]}`
/// with numeric entries is required, plus the optional routing knobs
/// `"model": M` (tenant, default 0) and `"quality": "tier-name"`
/// (quality tier, default none) — together routed to
/// [`tn_serve::ServeRuntime::submit`]. The retired `"class"` key is
/// refused with a message naming `"quality"`, its replacement.
pub(crate) fn parse_classify_body(body: &[u8]) -> Result<SubmitRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let value = json::parse(text).map_err(|e| e.to_string())?;
    let frame = value
        .get("frame")
        .ok_or_else(|| "missing \"frame\" array".to_string())?;
    let items = frame
        .as_array()
        .ok_or_else(|| "\"frame\" must be an array of numbers".to_string())?;
    let inputs: Vec<f32> = items
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_f64()
                .map(|f| f as f32)
                .ok_or_else(|| format!("frame[{i}] is not a number"))
        })
        .collect::<Result<_, _>>()?;
    if value.get("class").is_some() {
        return Err(
            "\"class\" is no longer accepted; name an operating point with \"quality\"".into(),
        );
    }
    let model = match value.get("model") {
        None => 0,
        Some(v) => v
            .as_u64()
            .and_then(|m| usize::try_from(m).ok())
            .ok_or_else(|| "\"model\" must be a non-negative integer".to_string())?,
    };
    let mut request = SubmitRequest::new(inputs).model(model);
    if let Some(v) = value.get("quality") {
        let quality = v
            .as_str()
            .ok_or_else(|| "\"quality\" must be a tier-name string".to_string())?;
        request = request.quality(quality);
    }
    Ok(request)
}

/// Render one classification result, including the uncertainty verdict:
/// `"tier"` (the answering tier's name, or `null` for tier-less
/// requests), `"confidence"` (calibrated, raw vote margin before
/// calibration), and `"escalated"`.
pub(crate) fn classify_json(r: &Response, joules_per_frame: f64) -> String {
    let tier = match r.tier() {
        Some(name) => format!("\"{}\"", escape(name)),
        None => "null".to_string(),
    };
    format!(
        "{{\"seq\":{},\"predicted\":{},\"votes\":[{}],\"replica_predictions\":[{}],\
         \"agreement\":{},\"model\":{},\"spf\":{},\"tier\":{},\
         \"confidence\":{},\"escalated\":{},\"ticks\":{},\
         \"latency_us\":{},\"joules_per_frame\":{}}}",
        r.seq,
        r.predicted,
        join(r.votes.iter()),
        join(r.replica_predictions.iter()),
        json_f64(f64::from(r.agreement)),
        r.model(),
        r.spf(),
        tier,
        json_f64(f64::from(r.confidence())),
        r.escalated(),
        r.ticks,
        u64::try_from(r.latency.as_micros()).unwrap_or(u64::MAX),
        json_f64(joules_per_frame),
    )
}

/// Render a structured error body:
/// `{"error":{"code":...,"message":...,"detail":null}}`.
pub(crate) fn error_json(code: &str, message: &str) -> String {
    error_json_detail(code, message, None)
}

/// [`error_json`] with a machine-readable `"detail"` object — the one
/// error shape every routing failure shares. `detail` must already be
/// rendered JSON (an object naming what was asked for and what the
/// runtime actually serves); `None` renders `null`.
pub(crate) fn error_json_detail(code: &str, message: &str, detail: Option<&str>) -> String {
    format!(
        "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\",\"detail\":{}}}}}",
        escape(code),
        escape(message),
        detail.unwrap_or("null"),
    )
}

/// Render the health probe body.
pub(crate) fn health_json() -> String {
    "{\"status\":\"ok\"}".to_string()
}

/// Render the `/v1/config` body from one [`ServeBackend::shape`] read
/// plus the serve config: the shape supplies the models and the *live*
/// values of the knobs the adaptive controller can move (`replicas`,
/// `kernel_batch`, and the default set's `spf`); each tier reports its
/// configured, fixed operating point.
///
/// `"model"` stays tenant 0 (backward compatible); the `"models"` array
/// lists every packed tenant (a single entry on solo runtimes), and
/// `"packed"` flags multi-tenant runtimes.
pub(crate) fn config_json(rt: &dyn ServeBackend) -> String {
    let shape = rt.shape();
    let (n_inputs, n_classes) = shape.models.first().copied().unwrap_or_default();
    let models = join(shape.models.iter().enumerate().map(|(m, (i, c))| {
        format!("{{\"id\":{m},\"n_inputs\":{i},\"n_classes\":{c}}}")
    }));
    let cfg = rt.config();
    let tiers = join(cfg.tiers.iter().map(|t| {
        let escalate = match &t.escalate_to {
            Some(name) => format!("\"{}\"", escape(name)),
            None => "null".to_string(),
        };
        format!(
            "{{\"name\":\"{}\",\"replicas\":{},\"spf\":{},\"kernel_batch\":{},\
             \"confidence_target\":{},\"escalate_to\":{escalate}}}",
            escape(&t.name),
            t.replicas,
            t.spf,
            t.kernel_batch,
            json_f64(f64::from(t.confidence_target)),
        )
    }));
    format!(
        "{{\"schema\":\"tn-gateway/1\",\
         \"model\":{{\"n_inputs\":{n_inputs},\"n_classes\":{n_classes},\"replicas\":{}}},\
         \"models\":[{models}],\"packed\":{},\"tiers\":[{tiers}],\
         \"serve\":{{\"workers\":{},\"spf\":{},\"seed\":{},\"queue_capacity\":{},\
         \"batch_max\":{},\"kernel_batch\":{},\"backpressure\":\"{}\",\
         \"connectivity\":\"{}\",\"telemetry\":{}}}}}",
        shape.replicas,
        shape.models.len() > 1,
        cfg.workers,
        shape.spf,
        cfg.seed,
        cfg.queue_capacity,
        cfg.batch_max,
        shape.kernel_batch,
        match cfg.backpressure {
            Backpressure::Block => "block",
            Backpressure::Reject => "reject",
        },
        escape(&format!("{:?}", cfg.connectivity)),
        cfg.telemetry.is_some(),
    )
}

/// Error slug for an HTTP parse failure status.
pub(crate) fn http_error_code(status: u16) -> &'static str {
    match status {
        413 => "payload_too_large",
        414 => "uri_too_long",
        431 => "headers_too_large",
        501 => "not_implemented",
        505 => "version_not_supported",
        _ => "bad_request",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn classify_frames_parse_and_reject() {
        assert_eq!(
            parse_classify_body(b"{\"frame\":[1,0.5,0]}").expect("parse"),
            SubmitRequest::new(vec![1.0, 0.5, 0.0])
        );
        assert_eq!(
            parse_classify_body(b"{\"frame\":[1,0],\"model\":1}").expect("parse"),
            SubmitRequest::new(vec![1.0, 0.0]).model(1)
        );
        assert_eq!(
            parse_classify_body(b"{\"frame\":[0],\"model\":3,\"quality\":\"q\"}").expect("parse"),
            SubmitRequest::new(vec![0.0]).model(3).quality("q")
        );
        assert_eq!(
            parse_classify_body(b"{\"frame\":[1],\"quality\":\"fast\"}").expect("parse"),
            SubmitRequest::new(vec![1.0]).quality("fast")
        );
        for (body, needle) in [
            (&b"{}"[..], "missing"),
            (b"{\"frame\":3}", "array"),
            (b"{\"frame\":[\"x\"]}", "not a number"),
            (b"{\"frame\":[1],\"class\":0}", "\"quality\""),
            (b"{\"frame\":[1],\"class\":\"gold\"}", "no longer accepted"),
            (b"{\"frame\":[1],\"model\":-2}", "model"),
            (b"{\"frame\":[1],\"model\":\"five\"}", "model"),
            (b"{\"frame\":[1],\"quality\":7}", "quality"),
            (b"not json", "JSON error"),
            (b"\xff\xfe", "UTF-8"),
        ] {
            let err = parse_classify_body(body).expect_err("reject");
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }

    #[test]
    fn rendered_bodies_are_valid_json() {
        let resp = Response {
            seq: 3,
            predicted: 1,
            votes: vec![2, 9],
            replica_predictions: vec![1, 1, 0],
            agreement: 2.0 / 3.0,
            served: tn_serve::ServedAs::new(2, 16)
                .with_tier("certain")
                .with_confidence(0.875)
                .with_escalated(true),
            worker: 0,
            ticks: 16,
            latency: Duration::from_micros(420),
        };
        let body = classify_json(&resp, 1.25e-9);
        let v = json::parse(&body).expect("valid JSON");
        assert_eq!(v.get("predicted").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("votes").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("class").is_none(), "responses carry no request class");
        assert_eq!(v.get("model").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("spf").unwrap().as_u64(), Some(16));
        assert_eq!(v.get("tier").unwrap().as_str(), Some("certain"));
        assert!((v.get("confidence").unwrap().as_f64().unwrap() - 0.875).abs() < 1e-9);
        assert_eq!(v.get("escalated").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("latency_us").unwrap().as_u64(), Some(420));
        assert!(v.get("joules_per_frame").unwrap().as_f64().unwrap() > 0.0);
        // Tier-less responses render "tier": null and the raw margin.
        let bare = Response {
            served: tn_serve::ServedAs::new(0, 8).with_confidence(0.5),
            ..resp
        };
        let v = json::parse(&classify_json(&bare, 0.0)).expect("valid JSON");
        assert!(v.get("tier").unwrap().is_null());
        assert_eq!(v.get("escalated").unwrap().as_bool(), Some(false));

        let err = error_json("queue_full", "queue \"full\"\n");
        let v = json::parse(&err).expect("valid JSON");
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("queue_full")
        );
        assert!(v.get("error").unwrap().get("detail").unwrap().is_null());
        let err = error_json_detail(
            "unknown_quality",
            "no such tier",
            Some("{\"quality\":\"turbo\",\"tiers\":[\"fast\"]}"),
        );
        let v = json::parse(&err).expect("valid JSON");
        let detail = v.get("error").unwrap().get("detail").unwrap();
        assert_eq!(detail.get("quality").unwrap().as_str(), Some("turbo"));
        assert_eq!(detail.get("tiers").unwrap().as_array().unwrap().len(), 1);
        json::parse(&health_json()).expect("valid JSON");
    }

    #[test]
    fn non_finite_numbers_degrade_to_zero() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(0.5), "0.5");
    }
}
