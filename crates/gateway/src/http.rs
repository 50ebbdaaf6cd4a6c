//! A minimal, incremental HTTP/1.1 codec.
//!
//! The parser consumes a connection's raw read buffer and yields complete
//! requests, byte counts to discard, or well-formed protocol errors — it
//! never panics and never guesses. It supports exactly what a serving
//! wire needs: request line + headers + `Content-Length` bodies,
//! keep-alive and pipelining, split/partial reads (a request arriving one
//! byte at a time parses identically to one arriving whole). Chunked
//! transfer encoding is deliberately rejected (`501`), as is anything
//! oversized: headers beyond the configured cap draw `431`, bodies `413`.
//!
//! Responses are rendered with explicit `Content-Length` so pipelined
//! clients can frame them without chunking.

use std::fmt;

/// Hard ceiling on the request-target length (anti-abuse; RFC suggests
/// servers support at least 8000 octets total request line — a serving
/// API needs far less).
const MAX_TARGET_BYTES: usize = 1024;
/// Hard ceiling on the method token length.
const MAX_METHOD_BYTES: usize = 16;

/// Size limits the parser enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Max bytes for the request line + headers (431 beyond this).
    pub max_header_bytes: usize,
    /// Max bytes for a request body (413 beyond this).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One fully received request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method token, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path + optional query).
    pub target: String,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after responding.
    pub keep_alive: bool,
}

/// Why a request could not be parsed. Every variant maps onto one
/// well-formed HTTP error response via [`HttpError::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Request line / headers exceeded [`HttpLimits::max_header_bytes`].
    HeadersTooLarge,
    /// The request line is not `METHOD SP TARGET SP VERSION`.
    BadRequestLine,
    /// The method token contains non-token bytes or is too long.
    BadMethod,
    /// The target is malformed or longer than 1024 bytes.
    TargetTooLong,
    /// The HTTP version is not 1.0 or 1.1.
    UnsupportedVersion,
    /// A header line is malformed (no colon, raw control bytes, ...).
    BadHeader,
    /// `Content-Length` is non-numeric, duplicated inconsistently, or
    /// overflows.
    BadContentLength,
    /// The declared body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge,
    /// `Transfer-Encoding` was requested (not supported).
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The HTTP status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            Self::HeadersTooLarge => 431,
            Self::BadRequestLine | Self::BadMethod | Self::BadHeader | Self::BadContentLength => {
                400
            }
            Self::TargetTooLong => 414,
            Self::UnsupportedVersion => 505,
            Self::BodyTooLarge => 413,
            Self::UnsupportedTransferEncoding => 501,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            Self::HeadersTooLarge => "request headers exceed the configured limit",
            Self::BadRequestLine => "malformed request line",
            Self::BadMethod => "malformed method token",
            Self::TargetTooLong => "request target too long",
            Self::UnsupportedVersion => "only HTTP/1.0 and HTTP/1.1 are supported",
            Self::BadHeader => "malformed header line",
            Self::BadContentLength => "malformed Content-Length",
            Self::BodyTooLarge => "request body exceeds the configured limit",
            Self::UnsupportedTransferEncoding => "Transfer-Encoding is not supported",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HttpError {}

/// One incremental parse step over a connection's read buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Not enough bytes yet; read more and call again with the same
    /// buffer plus the new bytes.
    Incomplete,
    /// One complete request; the caller must discard `consumed` bytes
    /// from the front of the buffer (pipelined requests may follow).
    Request {
        /// The parsed request.
        request: HttpRequest,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// A protocol violation; respond with [`HttpError::status`] and close
    /// (after an error the stream offset is unrecoverable).
    Error(HttpError),
}

/// Find the end of the header section: supports `\r\n\r\n` and bare
/// `\n\n` terminators. Returns `(head_end, body_start)`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        match buf.get(i + 1) {
            Some(b'\n') => return Some((i, i + 2)),
            Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some((i, i + 3)),
            _ => {}
        }
    }
    None
}

/// RFC 7230 token characters (method and header names).
fn is_token_byte(b: u8) -> bool {
    matches!(b,
        b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.'
        | b'^' | b'_' | b'`' | b'|' | b'~'
        | b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z')
}

/// Whether `b` is a raw control byte a head may not carry (CR/LF
/// structure the lines; tab is allowed).
fn is_control_byte(b: u8) -> bool {
    b != b'\r' && b != b'\n' && b != b'\t' && (b < 0x20 || b == 0x7f)
}

/// Parse a request line (its `\n` excluded) into method, target and the
/// version's keep-alive default.
fn parse_request_line(line: &[u8]) -> Result<(&str, &str, bool), HttpError> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    // Raw control bytes are smuggling attempts.
    if line.iter().any(|&b| is_control_byte(b)) {
        return Err(HttpError::BadHeader);
    }
    let line = std::str::from_utf8(line).map_err(|_| HttpError::BadHeader)?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequestLine);
    };
    if method.len() > MAX_METHOD_BYTES || !method.bytes().all(is_token_byte) {
        return Err(HttpError::BadMethod);
    }
    if target.len() > MAX_TARGET_BYTES {
        return Err(HttpError::TargetTooLong);
    }
    match version {
        "HTTP/1.1" => Ok((method, target, true)),
        "HTTP/1.0" => Ok((method, target, false)),
        _ => Err(HttpError::UnsupportedVersion),
    }
}

/// Incrementally parse one request from the front of `buf`.
///
/// Stateless by design: the caller keeps the buffer, the parser re-scans
/// from the front each call. Head sections are capped at
/// `limits.max_header_bytes`, so the re-scan cost is bounded and the
/// code stays auditable (no resumable state machine to get wrong).
///
/// The request line is judged as soon as it ends, before the rest of the
/// head arrives: a client speaking some other protocol (say, one JSON
/// command per line) is refused at its first newline instead of waiting
/// for a blank line that never comes.
pub fn parse_request(buf: &[u8], limits: &HttpLimits) -> Parsed {
    let incomplete = || {
        if buf.len() > limits.max_header_bytes {
            Parsed::Error(HttpError::HeadersTooLarge)
        } else {
            Parsed::Incomplete
        }
    };
    let Some(line_end) = buf.iter().position(|&b| b == b'\n') else {
        return incomplete();
    };
    let (method, target, keep_alive_default) = match parse_request_line(&buf[..line_end]) {
        Ok(line) => line,
        Err(e) => return Parsed::Error(e),
    };
    let Some((head_end, body_start)) = find_head_end(buf) else {
        return incomplete();
    };
    if body_start > limits.max_header_bytes {
        return Parsed::Error(HttpError::HeadersTooLarge);
    }
    // `head_end` is a `\n`, so it is at or past the request line's end.
    let fields = &buf[(line_end + 1).min(head_end)..head_end];
    if fields.iter().any(|&b| is_control_byte(b)) {
        return Parsed::Error(HttpError::BadHeader);
    }
    let fields = match std::str::from_utf8(fields) {
        Ok(s) => s,
        Err(_) => return Parsed::Error(HttpError::BadHeader),
    };
    let lines = fields
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l));

    let mut content_length: Option<usize> = None;
    let mut keep_alive = keep_alive_default;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Error(HttpError::BadHeader);
        };
        // Obsolete line folding starts with whitespace before the name.
        if name.is_empty() || name.starts_with([' ', '\t']) || !name.bytes().all(is_token_byte) {
            return Parsed::Error(HttpError::BadHeader);
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(n) = value.parse::<usize>() else {
                return Parsed::Error(HttpError::BadContentLength);
            };
            // Duplicate Content-Length headers must agree exactly.
            if content_length.is_some_and(|prev| prev != n) {
                return Parsed::Error(HttpError::BadContentLength);
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Parsed::Error(HttpError::UnsupportedTransferEncoding);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    let body_len = content_length.unwrap_or(0);
    if body_len > limits.max_body_bytes {
        return Parsed::Error(HttpError::BodyTooLarge);
    }
    let total = match body_start.checked_add(body_len) {
        Some(t) => t,
        None => return Parsed::Error(HttpError::BadContentLength),
    };
    if buf.len() < total {
        return Parsed::Incomplete;
    }
    Parsed::Request {
        request: HttpRequest {
            method: method.to_ascii_uppercase(),
            target: target.to_string(),
            body: buf[body_start..total].to_vec(),
            keep_alive,
        },
        consumed: total,
    }
}

/// Canonical reason phrase for the statuses this gateway emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// One response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Body (always JSON on this wire).
    pub body: String,
    /// Optional `Retry-After` hint in seconds (load shedding).
    pub retry_after: Option<u64>,
    /// Close the connection after this response.
    pub close: bool,
}

impl HttpResponse {
    /// A JSON-bodied response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into(),
            retry_after: None,
            close: false,
        }
    }

    /// Attach a `Retry-After` hint.
    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }

    /// Mark the connection for close after this response.
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }

    /// Serialize into `out` (HTTP/1.1, explicit `Content-Length`).
    pub fn write_to(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(out, "Retry-After: {secs}\r\n");
        }
        if self.close {
            let _ = write!(out, "Connection: close\r\n");
        }
        let _ = write!(out, "\r\n");
        out.extend_from_slice(self.body.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> (Vec<HttpRequest>, Option<HttpError>) {
        let limits = HttpLimits::default();
        let mut buf = bytes.to_vec();
        let mut requests = Vec::new();
        loop {
            match parse_request(&buf, &limits) {
                Parsed::Incomplete => return (requests, None),
                Parsed::Request { request, consumed } => {
                    buf.drain(..consumed);
                    requests.push(request);
                }
                Parsed::Error(e) => return (requests, Some(e)),
            }
        }
    }

    #[test]
    fn parses_get_without_body() {
        let (reqs, err) = parse_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(err, None);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].target, "/healthz");
        assert!(reqs[0].body.is_empty());
        assert!(reqs[0].keep_alive);
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let (reqs, err) = parse_all(
            b"POST /v1/classify HTTP/1.1\r\nContent-Length: 17\r\n\r\n{\"frame\":[1,0.5]}",
        );
        assert_eq!(err, None);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].body, b"{\"frame\":[1,0.5]}");
    }

    #[test]
    fn partial_reads_stay_incomplete_until_whole() {
        let full = b"POST /v1/classify HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let limits = HttpLimits::default();
        for cut in 0..full.len() {
            let step = parse_request(&full[..cut], &limits);
            assert_eq!(step, Parsed::Incomplete, "cut at {cut}");
        }
        match parse_request(full, &limits) {
            Parsed::Request { request, consumed } => {
                assert_eq!(consumed, full.len());
                assert_eq!(request.body, b"abcd");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let (reqs, err) = parse_all(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n",
        );
        assert_eq!(err, None);
        assert_eq!(
            reqs.iter().map(|r| r.target.as_str()).collect::<Vec<_>>(),
            vec!["/a", "/b", "/c"]
        );
        assert_eq!(reqs[1].body, b"hi");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let (reqs, err) = parse_all(b"GET /healthz HTTP/1.1\nHost: x\n\n");
        assert_eq!(err, None);
        assert_eq!(reqs.len(), 1);
    }

    #[test]
    fn http10_defaults_to_close() {
        let (reqs, _) = parse_all(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!reqs[0].keep_alive);
        let (reqs, _) = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!reqs[0].keep_alive);
    }

    #[test]
    fn bad_content_length_is_400() {
        for bad in ["abc", "-1", "1 2", "18446744073709551616"] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            let (_, err) = parse_all(raw.as_bytes());
            assert_eq!(err, Some(HttpError::BadContentLength), "{bad}");
            assert_eq!(HttpError::BadContentLength.status(), 400);
        }
        // Duplicates must agree.
        let (_, err) =
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n");
        assert_eq!(err, Some(HttpError::BadContentLength));
        let (reqs, err) =
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok");
        assert_eq!(err, None);
        assert_eq!(reqs[0].body, b"ok");
    }

    #[test]
    fn oversized_headers_are_431() {
        let limits = HttpLimits {
            max_header_bytes: 128,
            max_body_bytes: 1024,
        };
        // No terminator in sight and already past the cap.
        let long = format!("GET /{} HTTP/1.1\r\n", "x".repeat(200));
        assert_eq!(
            parse_request(long.as_bytes(), &limits),
            Parsed::Error(HttpError::HeadersTooLarge)
        );
        // Terminator present but the head itself is too large.
        let fat = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(200));
        assert_eq!(
            parse_request(fat.as_bytes(), &limits),
            Parsed::Error(HttpError::HeadersTooLarge)
        );
        assert_eq!(HttpError::HeadersTooLarge.status(), 431);
    }

    #[test]
    fn oversized_body_is_413() {
        let limits = HttpLimits {
            max_header_bytes: 1024,
            max_body_bytes: 8,
        };
        assert_eq!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n", &limits),
            Parsed::Error(HttpError::BodyTooLarge)
        );
    }

    #[test]
    fn transfer_encoding_is_501() {
        let (_, err) = parse_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!(err, Some(HttpError::UnsupportedTransferEncoding));
        assert_eq!(HttpError::UnsupportedTransferEncoding.status(), 501);
    }

    #[test]
    fn junk_request_lines_error_cleanly() {
        for junk in [
            "\r\n\r\n",
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "G\x01T / HTTP/1.1\r\n\r\n",
            "GET / HTTP/2.0\r\n\r\n",
            "GET / FTP/1.1\r\n\r\n",
            // A bad request line errors at its newline, before the head
            // ends: one JSON command per line never sends a blank line.
            "{\"op\":\"health\"}\n",
            "GET / HTTP/2.0\r\nHost: x\r\n",
        ] {
            let (_, err) = parse_all(junk.as_bytes());
            assert!(err.is_some(), "accepted {junk:?}");
        }
    }

    #[test]
    fn header_without_colon_is_400() {
        let (_, err) = parse_all(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n");
        assert_eq!(err, Some(HttpError::BadHeader));
    }

    #[test]
    fn response_serializes_with_framing() {
        let mut out = Vec::new();
        HttpResponse::json(503, "{\"error\":\"full\"}")
            .with_retry_after(2)
            .with_close()
            .write_to(&mut out);
        let text = String::from_utf8(out).expect("ascii");
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"full\"}"));
    }
}
