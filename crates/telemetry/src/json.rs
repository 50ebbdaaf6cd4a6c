//! A minimal JSON reader for snapshot validation.
//!
//! The workspace builds with no crates.io access, so there is no
//! `serde_json`; this is the small, strict subset needed to parse and
//! validate the snapshot lines this crate itself emits (objects, arrays,
//! strings with `\uXXXX` escapes, numbers, booleans, null). It is a
//! validator first: anything malformed is an error, never a guess.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as f64; snapshot counters fit exactly below 2^53).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. BTreeMap keeps key order stable for tests.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.get(key)
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key, value).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for snapshot
                            // keys; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(first) => {
                    // Consume one UTF-8 scalar. The input came in as &str,
                    // so a leading byte is always followed by its full
                    // sequence; re-validate the slice rather than assume.
                    let len = match first {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let c = std::str::from_utf8(&self.bytes[self.pos..end])
                        .ok()
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut mantissa = Mantissa::default();
        let int_digits = self.digits(&mut mantissa);
        let mut frac_digits = None;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            frac_digits = Some(self.digits(&mut mantissa));
        }
        let mut exponent = false;
        if matches!(self.peek(), Some(b'e' | b'E')) {
            exponent = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits(&mut Mantissa::default());
        }
        // Exact fast path for plain decimals `int[.frac]` with at least
        // one integer digit, at most 15 significant digits and at most 22
        // fraction digits: the digits form an integer below 2^53 (exact
        // as an f64), `10^frac` is exact too, and one IEEE division
        // rounds their exact quotient once — bit-identical to
        // `str::parse::<f64>`, which rounds correctly. Anything else (an
        // exponent, a trailing '.', a missing integer part, long tokens)
        // goes to that parser.
        let frac = frac_digits.unwrap_or(0);
        if !exponent
            && int_digits > 0
            && frac_digits != Some(0)
            && frac < EXACT_POW10.len()
            && mantissa.significant <= 15
        {
            let v = mantissa.value as f64 / EXACT_POW10[frac];
            return Ok(JsonValue::Number(if negative { -v } else { v }));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }

    /// Skip a run of ASCII digits, folding each into `mantissa`; returns
    /// the run's length.
    fn digits(&mut self, mantissa: &mut Mantissa) -> usize {
        let start = self.pos;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            mantissa.push(d - b'0');
            self.pos += 1;
        }
        self.pos - start
    }
}

/// `10^k` for `k <= 22`: every one is exactly representable in an f64.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A number token's digits (integer and fraction part, no sign or dot)
/// read as one integer, kept only while it has at most 15 significant
/// digits — and so stays below 2^53, exact as an f64.
#[derive(Default)]
struct Mantissa {
    value: u64,
    /// Digits from the first nonzero one on.
    significant: u32,
}

impl Mantissa {
    fn push(&mut self, digit: u8) {
        if self.value != 0 || digit != 0 {
            self.significant = self.significant.saturating_add(1);
        }
        if self.significant <= 15 {
            self.value = self.value * 10 + u64::from(digit);
        }
    }
}

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("parse");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn integers_round_trip_through_as_u64() {
        let v = parse(r#"{"n": 123456789}"#).expect("parse");
        assert_eq!(v.get("n").unwrap().as_u64(), Some(123_456_789));
        let v = parse(r#"{"n": 1.5}"#).expect("parse");
        assert_eq!(v.get("n").unwrap().as_u64(), None, "fractions are not u64");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a": }"#,
            r#"{"a": 1} trailing"#,
            r#"{"a": 1, "a": 2}"#,
            "\"unterminated",
            "01e",
            r#"{"k": nul}"#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// `parse` on one number token must match `str::parse::<f64>` bit for
    /// bit, and accept or reject exactly when it does.
    fn assert_number_matches_std(token: &str) {
        match (parse(token), token.parse::<f64>()) {
            (Ok(JsonValue::Number(got)), Ok(want)) => {
                assert_eq!(got.to_bits(), want.to_bits(), "{token:?}: {got:?} vs {want:?}");
            }
            (Err(_), Err(_)) => {}
            (got, want) => panic!("{token:?}: parse gave {got:?}, str::parse gave {want:?}"),
        }
    }

    #[test]
    fn number_edge_cases_match_str_parse() {
        for token in [
            "0", "-0", "-0.0", "0.0", "007", "-007.50", "00.000",
            // 15 vs 16 significant digits (the fast path's limit).
            "123456789012345", "1234567890123456", "0.000123456789012345",
            "0.0001234567890123456", "9007199254740993", "-999999999999999.9",
            // 22 vs 23 fraction digits.
            "0.0000000000000000000001", "0.00000000000000000000001",
            "1.2345678901234567890123", "0.1000000000000000000000",
            // Typical frame values.
            "0.1", "0.003921569", "0.99999994", "1.0000001", "0.333333343267",
            // Fallback forms: trailing '.', exponents, a bare sign.
            "1.", "-0.", "1e5", "1E-3", "-2.5e+2", "1e400", "4.9e-324",
            // Malformed: the fallback's rejection is the answer.
            "-", "-.", "-.5", "1e", "1e+", "1.e", "-e5", "01e",
        ] {
            assert_number_matches_std(token);
        }
    }

    proptest::proptest! {
        /// Tokens in the number scanner's grammar,
        /// `-?[0-9]*(.[0-9]*)?([eE][+-]?[0-9]*)?`, built from random
        /// digits at every integer length up to 17 and fraction length up
        /// to 24 (across the fast path's 15-digit and 22-digit limits),
        /// with and without a sign, a dot and an exponent.
        #[test]
        fn number_tokens_parse_exactly_like_str_parse(
            digits in proptest::collection::vec(0u32..10, 41),
            negative in 0u32..2,
            exponent in 0usize..6,
        ) {
            let digits: String = digits.iter().filter_map(|&d| char::from_digit(d, 10)).collect();
            let sign = if negative == 1 { "-" } else { "" };
            let exponent = ["", "", "e7", "E-12", "e+", "e"][exponent];
            for int_len in 0..=17 {
                for frac_len in 0..=24 {
                    let int = &digits[..int_len];
                    let frac = &digits[int_len..int_len + frac_len];
                    for dot in ["", "."] {
                        if dot.is_empty() && frac_len > 0 {
                            continue;
                        }
                        let token = format!("{sign}{int}{dot}{frac}{exponent}");
                        if token.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                            assert_number_matches_std(&token);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn escape_round_trips() {
        let original = "line\nwith \"quotes\" and \\ backslash\ttab";
        let doc = format!("{{\"s\": \"{}\"}}", escape(original));
        let v = parse(&doc).expect("parse");
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""café""#).expect("parse");
        assert_eq!(v.as_str(), Some("café"));
    }
}
