//! Payloads for the fleet frames.
//!
//! Every payload but one is JSON text (parsed with the same strict
//! reader `tn-telemetry` uses for snapshot lines — the workspace builds
//! offline, so there is no serde_json). The exception is the request
//! frame: a [`FrameKind::Req`](crate::frame::FrameKind::Req) payload is
//! `[head_len u32 LE][JSON head][n × f32 LE]`, a small JSON head followed
//! by the input frame as raw little-endian `f32`s, so the hottest frame
//! on the wire is never formatted as or parsed from decimal text. The
//! few floats in JSON payloads (a response's agreement and confidence)
//! are encoded with `{:?}`, which prints the shortest decimal that
//! round-trips. Both ways, floats survive the wire bit-exactly — a
//! requirement, since the fleet's contract is that its answer stream is
//! *bit-identical* to a solo runtime's.

use std::time::Duration;

use tn_serve::{Response, ServeError, ServeShape, ServedAs, SubmitRequest};
use tn_telemetry::json::{escape, parse, JsonValue};

/// The handshake schema tag; a router refuses a shard that does not
/// announce exactly this.
pub const SCHEMA: &str = "tn-fleet/4";

// ---------------------------------------------------------------------
// decode helpers
// ---------------------------------------------------------------------

fn want<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    want(v, key)?
        .as_u64()
        .ok_or_else(|| format!("{key:?} is not a non-negative integer"))
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    Ok(get_u64(v, key)? as usize)
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    want(v, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, String> {
    Ok(want(v, key)?
        .as_str()
        .ok_or_else(|| format!("{key:?} is not a string"))?
        .to_string())
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    want(v, key)?
        .as_bool()
        .ok_or_else(|| format!("{key:?} is not a boolean"))
}

fn get_arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    want(v, key)?
        .as_array()
        .ok_or_else(|| format!("{key:?} is not an array"))
}

fn u64_array(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    get_arr(v, key)?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| format!("{key:?} holds a non-integer"))
        })
        .collect()
}

fn usize_array(v: &JsonValue, key: &str) -> Result<Vec<usize>, String> {
    Ok(u64_array(v, key)?.into_iter().map(|x| x as usize).collect())
}

fn string_array(v: &JsonValue, key: &str) -> Result<Vec<String>, String> {
    get_arr(v, key)?
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{key:?} holds a non-string"))
        })
        .collect()
}

// ---------------------------------------------------------------------
// encode helpers
// ---------------------------------------------------------------------

fn json_usizes(xs: &[usize]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn json_u64s(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn json_strings(xs: &[String]) -> String {
    let items: Vec<String> = xs.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", items.join(","))
}

// ---------------------------------------------------------------------
// Hello
// ---------------------------------------------------------------------

/// Encode a shard's opening announcement: the protocol schema plus the
/// [`ServeShape`] it serves — everything a router needs for admission,
/// introspection endpoints and energy attribution, so steady-state
/// dispatch never needs a round-trip to ask a shard about itself.
pub fn encode_hello(shape: &ServeShape) -> String {
    let models: Vec<String> = shape
        .models
        .iter()
        .map(|(i, c)| format!("{{\"n_inputs\":{i},\"n_classes\":{c}}}"))
        .collect();
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"models\":[{}],\"replicas\":{},\"kernel_batch\":{},\
         \"spf\":{},\"tiers\":{},\"queue_capacity\":{},\"cores\":{}}}",
        models.join(","),
        shape.replicas,
        shape.kernel_batch,
        shape.spf,
        json_strings(&shape.tiers),
        shape.queue_capacity,
        shape.cores,
    )
}

/// Parse a Hello frame payload, refusing foreign schemas and shards that
/// serve no model or announce a zero spf.
///
/// # Errors
///
/// A human-readable description of the first malformed field.
pub fn parse_hello(text: &str) -> Result<ServeShape, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    let schema = get_str(&v, "schema")?;
    if schema != SCHEMA {
        return Err(format!("shard speaks {schema:?}, this router speaks {SCHEMA:?}"));
    }
    let models = get_arr(&v, "models")?
        .iter()
        .map(|m| Ok((get_usize(m, "n_inputs")?, get_usize(m, "n_classes")?)))
        .collect::<Result<Vec<_>, String>>()?;
    if models.is_empty() {
        return Err("\"models\" is empty".to_string());
    }
    let spf = get_usize(&v, "spf")?;
    if spf == 0 {
        return Err("\"spf\" must be >= 1".to_string());
    }
    Ok(ServeShape {
        models,
        spf,
        tiers: string_array(&v, "tiers")?,
        replicas: get_usize(&v, "replicas")?,
        kernel_batch: get_usize(&v, "kernel_batch")?,
        queue_capacity: get_usize(&v, "queue_capacity")?,
        cores: get_usize(&v, "cores")?,
    })
}

// ---------------------------------------------------------------------
// Req
// ---------------------------------------------------------------------

/// The JSON head of a Req payload: everything but the input frame,
/// whose length it announces as `"n"`.
fn req_head(seq: u64, request: &SubmitRequest) -> String {
    let quality = match &request.quality {
        Some(q) => format!("\"{}\"", escape(q)),
        None => "null".to_string(),
    };
    format!(
        "{{\"seq\":{seq},\"n\":{},\"model\":{},\"quality\":{quality}}}",
        request.frame.len(),
        request.model,
    )
}

/// Encode one dispatched request as a Req payload:
/// `[head_len u32 LE][JSON head][n × f32 LE]`. `seq` is the *router's*
/// global sequence number — the determinism key the shard pins via
/// [`SubmitRequest::at_seq`].
pub fn encode_req(seq: u64, request: &SubmitRequest) -> Vec<u8> {
    let head = req_head(seq, request);
    let mut out = Vec::with_capacity(4 + head.len() + 4 * request.frame.len());
    out.extend_from_slice(&(head.len() as u32).to_le_bytes());
    out.extend_from_slice(head.as_bytes());
    for x in &request.frame {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Parse a Req payload into `(seq, request)`; the returned request
/// already carries `at_seq(seq)`.
///
/// Strict: the head must be UTF-8 and exactly what [`encode_req`] writes
/// for the request it describes, and the tail must hold exactly `4·n`
/// bytes. A payload this accepts therefore re-encodes to itself.
///
/// # Errors
///
/// A human-readable description of the first malformed part.
pub fn parse_req(payload: &[u8]) -> Result<(u64, SubmitRequest), String> {
    let (len, rest) = payload
        .split_first_chunk::<4>()
        .ok_or_else(|| "Req payload is shorter than its 4-byte head length".to_string())?;
    let head_len = u32::from_le_bytes(*len) as usize;
    if rest.len() < head_len {
        return Err(format!(
            "Req head length {head_len} exceeds the {} payload bytes left",
            rest.len()
        ));
    }
    let (head, tail) = rest.split_at(head_len);
    let head = std::str::from_utf8(head).map_err(|_| "Req head is not valid UTF-8".to_string())?;
    let v = parse(head).map_err(|e| e.to_string())?;
    let seq = get_u64(&v, "seq")?;
    let n = get_usize(&v, "n")?;
    if n.checked_mul(4) != Some(tail.len()) {
        return Err(format!(
            "Req announces {n} inputs but carries {} frame bytes",
            tail.len()
        ));
    }
    let frame = tail
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let mut request = SubmitRequest::new(frame)
        .model(get_usize(&v, "model")?)
        .at_seq(seq);
    match want(&v, "quality")? {
        JsonValue::Null => {}
        q => {
            request = request.quality(
                q.as_str()
                    .ok_or_else(|| "\"quality\" is not a string or null".to_string())?,
            );
        }
    }
    if req_head(seq, &request) != head {
        return Err("Req head is not in canonical form".to_string());
    }
    Ok((seq, request))
}

// ---------------------------------------------------------------------
// Resp
// ---------------------------------------------------------------------

/// Encode a served [`Response`]. Latency crosses the wire as the
/// shard's own measurement; the router overwrites it with end-to-end
/// router-side latency before completing the caller's handle (wire and
/// queueing time belong in what the caller observes).
pub fn encode_resp(r: &Response) -> String {
    let tier = match r.tier() {
        Some(t) => format!("\"{}\"", escape(t)),
        None => "null".to_string(),
    };
    format!(
        "{{\"seq\":{},\"predicted\":{},\"votes\":{},\"replica_predictions\":{},\
         \"agreement\":{:?},\"model\":{},\"spf\":{},\"tier\":{tier},\
         \"confidence\":{:?},\"escalated\":{},\"worker\":{},\"ticks\":{},\"latency_ns\":{}}}",
        r.seq,
        r.predicted,
        json_u64s(&r.votes),
        json_usizes(&r.replica_predictions),
        f64::from(r.agreement),
        r.model(),
        r.spf(),
        f64::from(r.confidence()),
        r.escalated(),
        r.worker,
        r.ticks,
        r.latency.as_nanos() as u64,
    )
}

/// Parse a Resp frame payload back into a [`Response`].
///
/// # Errors
///
/// A human-readable description of the first malformed field.
pub fn parse_resp(text: &str) -> Result<Response, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    let mut served = ServedAs::new(get_usize(&v, "model")?, get_usize(&v, "spf")?)
        .with_confidence(get_f64(&v, "confidence")? as f32)
    .with_escalated(get_bool(&v, "escalated")?);
    match want(&v, "tier")? {
        JsonValue::Null => {}
        t => {
            served = served.with_tier(
                t.as_str()
                    .ok_or_else(|| "\"tier\" is not a string or null".to_string())?,
            );
        }
    }
    Ok(Response {
        seq: get_u64(&v, "seq")?,
        predicted: get_usize(&v, "predicted")?,
        votes: u64_array(&v, "votes")?,
        replica_predictions: usize_array(&v, "replica_predictions")?,
        agreement: get_f64(&v, "agreement")? as f32,
        served,
        worker: get_usize(&v, "worker")?,
        ticks: get_u64(&v, "ticks")?,
        latency: Duration::from_nanos(get_u64(&v, "latency_ns")?),
    })
}

// ---------------------------------------------------------------------
// Err
// ---------------------------------------------------------------------

/// Encode a request-level failure for `seq`.
///
/// Every [`ServeError`] variant gets a stable wire code plus its
/// structured fields, so the router reconstructs the *same variant* the
/// shard raised — a fleet caller matches on [`ServeError`] exactly as a
/// solo caller would. The two variants carrying non-reconstructible
/// payloads (`Deploy`'s error struct) travel as their rendering.
pub fn encode_err(seq: u64, e: &ServeError) -> String {
    let (code, data) = match e {
        ServeError::Deploy(d) => ("deploy", format!("{{\"detail\":\"{}\"}}", escape(&d.to_string()))),
        ServeError::BadConfig(m) => ("bad_config", format!("{{\"detail\":\"{}\"}}", escape(m))),
        ServeError::QueueFull => ("queue_full", "{}".to_string()),
        ServeError::ShuttingDown => ("shutting_down", "{}".to_string()),
        ServeError::Unavailable(m) => {
            ("unavailable", format!("{{\"detail\":\"{}\"}}", escape(m)))
        }
        ServeError::WaitTimeout => ("wait_timeout", "{}".to_string()),
        ServeError::BadInput { expected, got } => (
            "bad_input",
            format!("{{\"expected\":{expected},\"got\":{got}}}"),
        ),
        ServeError::InputOutOfRange { channel, value } => (
            "input_out_of_range",
            format!("{{\"channel\":{channel},\"value\":{:?}}}", f64::from(*value)),
        ),
        ServeError::UnknownModel { model, models } => (
            "unknown_model",
            format!("{{\"model\":{model},\"models\":{models}}}"),
        ),
        ServeError::UnknownQuality { quality, tiers } => (
            "unknown_quality",
            format!(
                "{{\"quality\":\"{}\",\"tiers\":{}}}",
                escape(quality),
                json_strings(tiers)
            ),
        ),
        ServeError::Pack(m) => ("pack", format!("{{\"detail\":\"{}\"}}", escape(m))),
        // ServeError is #[non_exhaustive]; ship future variants as their
        // rendering rather than failing to serve an error at all.
        other => (
            "other",
            format!("{{\"detail\":\"{}\"}}", escape(&other.to_string())),
        ),
    };
    format!(
        "{{\"seq\":{seq},\"code\":\"{code}\",\"message\":\"{}\",\"data\":{data}}}",
        escape(&e.to_string())
    )
}

/// Parse an Err frame payload into `(seq, error)`.
///
/// # Errors
///
/// A human-readable description of the first malformed field.
pub fn parse_err(text: &str) -> Result<(u64, ServeError), String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    let seq = get_u64(&v, "seq")?;
    let code = get_str(&v, "code")?;
    let data = want(&v, "data")?;
    let error = match code.as_str() {
        "queue_full" => ServeError::QueueFull,
        "shutting_down" => ServeError::ShuttingDown,
        "unavailable" => ServeError::Unavailable(get_str(data, "detail")?),
        "wait_timeout" => ServeError::WaitTimeout,
        "bad_input" => ServeError::BadInput {
            expected: get_usize(data, "expected")?,
            got: get_usize(data, "got")?,
        },
        "input_out_of_range" => ServeError::InputOutOfRange {
            channel: get_usize(data, "channel")?,
            value: get_f64(data, "value")? as f32,
        },
        "unknown_model" => ServeError::UnknownModel {
            model: get_usize(data, "model")?,
            models: get_usize(data, "models")?,
        },
        "unknown_quality" => ServeError::UnknownQuality {
            quality: get_str(data, "quality")?,
            tiers: string_array(data, "tiers")?,
        },
        "pack" => ServeError::Pack(get_str(data, "detail")?),
        "bad_config" => ServeError::BadConfig(get_str(data, "detail")?),
        // `deploy` cannot rebuild its error struct from a string; carry
        // the rendering in the closest reconstructible variant.
        "deploy" => ServeError::BadConfig(format!(
            "shard deploy failure: {}",
            get_str(data, "detail")?
        )),
        _ => ServeError::BadConfig(get_str(&v, "message")?),
    };
    Ok((seq, error))
}

// ---------------------------------------------------------------------
// Ctrl / Ack
// ---------------------------------------------------------------------

/// A router → shard control action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ctrl {
    /// Rebuild the shard's replica set at this count (the fleet
    /// rescale's swap step; maps to
    /// `ServeRuntime::apply_control(SetReplicas)`).
    SetReplicas(usize),
    /// Stop accepting requests, drain, and close the connection.
    Shutdown,
}

impl Ctrl {
    /// Encode as the Ctrl frame payload.
    pub fn encode(&self) -> String {
        match self {
            Ctrl::SetReplicas(r) => format!("{{\"op\":\"set_replicas\",\"replicas\":{r}}}"),
            Ctrl::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
        }
    }

    /// Parse a Ctrl frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = parse(text).map_err(|e| e.to_string())?;
        match get_str(&v, "op")?.as_str() {
            "set_replicas" => Ok(Ctrl::SetReplicas(get_usize(&v, "replicas")?)),
            "shutdown" => Ok(Ctrl::Shutdown),
            op => Err(format!("unknown control op {op:?}")),
        }
    }
}

/// A shard's acknowledgement of one [`Ctrl`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// The acknowledged op (`"set_replicas"` / `"shutdown"`).
    pub op: String,
    /// `None` on success, the shard-side error rendering on failure.
    pub error: Option<String>,
}

impl Ack {
    /// Encode as the Ack frame payload.
    pub fn encode(&self) -> String {
        match &self.error {
            None => format!("{{\"op\":\"{}\",\"ok\":true,\"error\":null}}", escape(&self.op)),
            Some(e) => format!(
                "{{\"op\":\"{}\",\"ok\":false,\"error\":\"{}\"}}",
                escape(&self.op),
                escape(e)
            ),
        }
    }

    /// Parse an Ack frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = parse(text).map_err(|e| e.to_string())?;
        let op = get_str(&v, "op")?;
        let ok = get_bool(&v, "ok")?;
        let error = match want(&v, "error")? {
            JsonValue::Null => None,
            e => Some(
                e.as_str()
                    .ok_or_else(|| "\"error\" is not a string or null".to_string())?
                    .to_string(),
            ),
        };
        if ok == error.is_some() {
            return Err("ack \"ok\" contradicts \"error\"".to_string());
        }
        Ok(Self { op, error })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips_and_checks_schema() {
        let shape = ServeShape {
            models: vec![(4, 3), (2, 2)],
            spf: 8,
            tiers: vec!["fast".to_string(), "certain".to_string()],
            replicas: 2,
            kernel_batch: 8,
            queue_capacity: 256,
            cores: 6,
        };
        assert_eq!(parse_hello(&encode_hello(&shape)), Ok(shape.clone()));
        let foreign = "{\"schema\":\"tn-fleet/3\",\"n_inputs\":1}";
        assert!(parse_hello(foreign).expect_err("schema").contains("tn-fleet/3"));
        let empty = encode_hello(&ServeShape {
            models: Vec::new(),
            ..shape.clone()
        });
        assert!(parse_hello(&empty).expect_err("no models").contains("models"));
        // The default set's spf is one value >= 1; a list (the retired
        // per-class shape) or a zero is refused at the handshake.
        let good = encode_hello(&shape);
        for bad in ["\"spf\":[]", "\"spf\":[8]", "\"spf\":0"] {
            let hello = good.replace("\"spf\":8", bad);
            assert!(parse_hello(&hello).expect_err(bad).contains("spf"), "{bad}");
        }
    }

    #[test]
    fn req_round_trips_with_exact_floats() {
        // Raw f32s on the wire: every bit pattern comes back, including
        // the sign of zero, subnormals and the last float below 1.0.
        let subnormal = f32::from_bits(1);
        let below_one = 1.0 - f32::EPSILON / 2.0;
        let req = SubmitRequest::new(vec![0.1, 1.0, 0.0, 0.333_333_34, -0.0, subnormal, below_one])
            .model(1)
            .quality("fast");
        let (seq, parsed) = parse_req(&encode_req(17, &req)).expect("parse");
        assert_eq!(seq, 17);
        assert_eq!(parsed.seq, Some(17), "wire seq pins the request seq");
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&parsed.frame), bits(&req.frame), "f32s must round-trip bit-exactly");
        assert_eq!(parsed.model, 1);
        assert_eq!(parsed.quality.as_deref(), Some("fast"));

        let bare = SubmitRequest::new(vec![0.5]);
        let (_, parsed) = parse_req(&encode_req(0, &bare)).expect("parse");
        assert_eq!(parsed.quality, None);
    }

    /// Build a Req payload around a hand-written head and tail.
    fn raw_req(head: &[u8], tail: &[u8]) -> Vec<u8> {
        let mut out = (head.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(head);
        out.extend_from_slice(tail);
        out
    }

    #[test]
    fn req_rejects_bad_heads_and_tails() {
        let head = br#"{"seq":3,"n":1,"model":0,"quality":null}"#;
        assert!(parse_req(&raw_req(head, &0.5f32.to_le_bytes())).is_ok());
        // Tail length must be exactly 4·n.
        assert!(parse_req(&raw_req(head, &[0; 3])).is_err());
        assert!(parse_req(&raw_req(head, &[0; 8])).is_err());
        // A head that is not UTF-8 is refused, not lossily rewritten.
        let bad_utf8 = b"{\"seq\":3,\"n\":0,\"model\":0,\"quality\":\"f\xFFst\"}";
        let err = parse_req(&raw_req(bad_utf8, &[])).expect_err("non-UTF-8 head");
        assert!(err.contains("UTF-8"), "{err}");
        // Valid JSON that encode_req would not write is refused too.
        let spaced = br#"{"seq":3, "n":0,"model":0,"quality":null}"#;
        assert!(parse_req(&raw_req(spaced, &[])).is_err());
        let leading_zero = br#"{"seq":03,"n":0,"model":0,"quality":null}"#;
        assert!(parse_req(&raw_req(leading_zero, &[])).is_err());
        // A tn-fleet/3 head still carrying a request class is refused.
        let classed = br#"{"seq":3,"n":0,"model":0,"class":0,"quality":null}"#;
        assert!(parse_req(&raw_req(classed, &[])).is_err());
        // Short payloads and overlong head lengths.
        assert!(parse_req(&[1, 0]).is_err());
        assert!(parse_req(&[0xFF, 0xFF, 0xFF, 0xFF, b'{']).is_err());
    }

    /// `parse_req`'s fault contract: no panic, and either an error or a
    /// request that re-encodes to exactly the bytes it was parsed from.
    fn assert_req_fault_contract(payload: &[u8], what: impl Fn() -> String) {
        if let Ok((seq, request)) = parse_req(payload) {
            let back = encode_req(seq, &request);
            assert!(back == payload, "{}: accepted a non-canonical Req", what());
        }
    }

    /// A framed stream's fault contract: `read_frame` never panics, and
    /// whatever Req frame it yields satisfies `parse_req`'s contract.
    fn assert_stream_fault_contract(stream: &[u8], what: impl Fn() -> String) {
        let mut r = stream;
        while let Ok(Some((kind, payload))) = crate::frame::read_frame(&mut r) {
            if kind == crate::frame::FrameKind::Req {
                assert_req_fault_contract(&payload, &what);
            }
        }
    }

    #[test]
    fn truncated_or_corrupt_reqs_fail_closed() {
        use crate::frame::{write_frame, FrameKind};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let inputs: Vec<f32> = (0..784).map(|i| ((i * 37) % 256) as f32 / 255.0).collect();
        let requests = [
            (0, SubmitRequest::new(Vec::new())),
            (5, SubmitRequest::new(vec![0.25, -0.0, 1.0]).model(1).quality("fast")),
            (1 << 40, SubmitRequest::new(inputs).quality("qu\"o\u{e9}")),
        ];
        let mut rng = StdRng::seed_from_u64(15);
        for (seq, request) in &requests {
            let payload = encode_req(*seq, request);
            let mut stream = Vec::new();
            write_frame(&mut stream, FrameKind::Req, &payload).expect("frame");
            write_frame(&mut stream, FrameKind::Req, &payload).expect("frame");
            // Stream offsets to probe: every byte of both frame headers,
            // Req heads and the first and last floats; every 61st byte
            // inside long float tails (each probe there decodes and
            // re-encodes a whole frame).
            let frame_len = 5 + payload.len();
            let head_end = 9 + u32::from_le_bytes(payload[..4].try_into().expect("4")) as usize;
            let probe = |pos: usize| {
                let at = pos % frame_len;
                at < head_end + 16 || at + 16 >= frame_len || pos.is_multiple_of(61)
            };
            // Every truncation of the payload; probed truncations of the
            // stream.
            for cut in 0..payload.len() {
                assert!(parse_req(&payload[..cut]).is_err(), "accepted a Req cut at {cut}");
            }
            for cut in (0..stream.len()).filter(|&c| probe(c)) {
                assert_stream_fault_contract(&stream[..cut], || format!("stream cut at {cut}"));
            }
            // Every single-byte corruption of the length prefix and JSON
            // head; random ones in the float tail.
            for p in 0..head_end - 5 {
                for flip in 1..=255u8 {
                    let mut bad = payload.clone();
                    bad[p] ^= flip;
                    assert_req_fault_contract(&bad, || format!("payload byte {p} ^ {flip:#04x}"));
                }
            }
            // Random single-byte corruptions of the stream, several at
            // every probe.
            for pos in (0..stream.len()).filter(|&p| probe(p)) {
                for _ in 0..4 {
                    let flip = rng.gen_range(1..256u32) as u8;
                    stream[pos] ^= flip;
                    let what = || format!("stream byte {pos} ^ {flip:#04x}");
                    assert_stream_fault_contract(&stream, what);
                    stream[pos] ^= flip;
                }
            }
        }
    }

    #[test]
    fn resp_round_trips_every_field() {
        let r = Response {
            seq: 41,
            predicted: 2,
            votes: vec![1, 0, 7],
            replica_predictions: vec![2, 2, 0],
            agreement: 2.0 / 3.0,
            served: ServedAs::new(1, 16)
                .with_tier("certain")
                .with_confidence(0.875)
                .with_escalated(true),
            worker: 3,
            ticks: 17,
            latency: Duration::from_nanos(12_345),
        };
        let parsed = parse_resp(&encode_resp(&r)).expect("parse");
        assert_eq!(parsed, r);
    }

    #[test]
    fn every_error_variant_round_trips_to_the_same_variant() {
        let cases = vec![
            ServeError::QueueFull,
            ServeError::ShuttingDown,
            ServeError::Unavailable("no healthy shard".to_string()),
            ServeError::WaitTimeout,
            ServeError::BadInput { expected: 4, got: 2 },
            ServeError::InputOutOfRange { channel: 1, value: 1.5 },
            ServeError::UnknownModel { model: 3, models: 1 },
            ServeError::UnknownQuality {
                quality: "warp".to_string(),
                tiers: vec!["fast".to_string()],
            },
            ServeError::Pack("tenant 1 does not fit".to_string()),
            ServeError::BadConfig("replicas must be >= 1".to_string()),
        ];
        for e in cases {
            let (seq, back) = parse_err(&encode_err(7, &e)).expect("parse");
            assert_eq!(seq, 7);
            assert_eq!(back, e);
        }
    }

    #[test]
    fn ctrl_and_ack_round_trip() {
        for c in [Ctrl::SetReplicas(3), Ctrl::Shutdown] {
            assert_eq!(Ctrl::parse(&c.encode()), Ok(c.clone()));
        }
        for a in [
            Ack { op: "set_replicas".to_string(), error: None },
            Ack {
                op: "set_replicas".to_string(),
                error: Some("replicas out of bounds".to_string()),
            },
        ] {
            assert_eq!(Ack::parse(&a.encode()), Ok(a.clone()));
        }
        assert!(Ack::parse("{\"op\":\"x\",\"ok\":true,\"error\":\"boom\"}").is_err());
    }

    /// A JSON payload's fault contract, along the router's and the
    /// shard's read path (UTF-8 check, then `parse`): every strict prefix
    /// is refused, and no single-byte corruption panics.
    fn assert_json_fault_contract<T>(payload: &str, parse: impl Fn(&str) -> Result<T, String>) {
        let read = |bytes: &[u8]| {
            std::str::from_utf8(bytes)
                .map_err(|e| e.to_string())
                .and_then(&parse)
        };
        let bytes = payload.as_bytes();
        assert!(read(bytes).is_ok(), "the intact payload parses: {payload}");
        for cut in 0..bytes.len() {
            assert!(read(&bytes[..cut]).is_err(), "accepted {payload} cut at {cut}");
        }
        let mut bad = bytes.to_vec();
        for p in 0..bad.len() {
            for flip in 1..=255u8 {
                bad[p] ^= flip;
                let _ = read(&bad);
                bad[p] ^= flip;
            }
        }
    }

    #[test]
    fn truncated_or_corrupt_json_payloads_fail_closed() {
        let shape = ServeShape {
            models: vec![(4, 3), (2, 2)],
            spf: 8,
            tiers: vec!["fast".to_string(), "qu\"o\u{e9}".to_string()],
            replicas: 2,
            kernel_batch: 8,
            queue_capacity: 256,
            cores: 6,
        };
        assert_json_fault_contract(&encode_hello(&shape), parse_hello);
        let served = ServedAs::new(1, 16).with_tier("certain").with_confidence(0.875);
        for served in [ServedAs::new(0, 8), served.with_escalated(true)] {
            let r = Response {
                seq: 41,
                predicted: 2,
                votes: vec![1, 0, 7],
                replica_predictions: vec![2, 2, 0],
                agreement: 2.0 / 3.0,
                served,
                worker: 3,
                ticks: 17,
                latency: Duration::from_nanos(12_345),
            };
            assert_json_fault_contract(&encode_resp(&r), parse_resp);
        }
        for e in [
            ServeError::QueueFull,
            ServeError::Unavailable("no healthy shard".to_string()),
            ServeError::BadInput { expected: 4, got: 2 },
            ServeError::InputOutOfRange { channel: 1, value: 1.5 },
            ServeError::UnknownModel { model: 3, models: 1 },
            ServeError::UnknownQuality {
                quality: "w\u{e4}rp".to_string(),
                tiers: vec!["fast".to_string()],
            },
        ] {
            assert_json_fault_contract(&encode_err(7, &e), parse_err);
        }
        for c in [Ctrl::SetReplicas(3), Ctrl::Shutdown] {
            assert_json_fault_contract(&c.encode(), Ctrl::parse);
        }
        for error in [None, Some("replicas out of bounds".to_string())] {
            let ack = Ack { op: "set_replicas".to_string(), error };
            assert_json_fault_contract(&ack.encode(), Ack::parse);
        }
    }
}
