//! The versioned-API envelope shared by serve, gateway, and the client.
//!
//! Every error a `/v1/...` endpoint returns is one JSON object —
//! `{"code": 503, "message": "...", "retryable": true}` — so clients branch
//! on structured fields instead of string-matching status lines, and the
//! gateway can forward a backend's envelope verbatim. The module also owns
//! the trace-propagation header name and the minimal JSON string escaping
//! used by the span logs (no serde in this workspace).

use std::fmt;

/// Header carrying the request's trace id between tiers (HTTP headers are
/// case-insensitive; we emit and match the lowercase form).
pub const TRACE_HEADER: &str = "x-cactus-trace";

/// The structured error envelope of the `/v1` API surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code the error was (or should be) served with.
    pub code: u16,
    /// Human-readable description.
    pub message: String,
    /// Whether retrying the same request may succeed (e.g. 429/502/503).
    pub retryable: bool,
}

impl ApiError {
    /// Build an envelope; `retryable` defaults from the status code class.
    #[must_use]
    pub fn new(code: u16, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            retryable: matches!(code, 429 | 502 | 503 | 504),
        }
    }

    /// Render the JSON envelope body (with trailing newline, like every
    /// other body the servers emit).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":{},\"message\":\"{}\",\"retryable\":{}}}\n",
            self.code,
            json_escape(&self.message),
            self.retryable
        )
    }

    /// Parse an envelope produced by [`ApiError::to_json`]. Returns `None`
    /// if the body is not a well-formed envelope (callers then fall back to
    /// treating the raw body as the message).
    #[must_use]
    pub fn from_json(body: &str) -> Option<Self> {
        let body = body.trim();
        let inner = body.strip_prefix('{')?.strip_suffix('}')?;
        let code: u16 = extract_field(inner, "\"code\":")?.parse().ok()?;
        let retryable: bool = extract_field(inner, "\"retryable\":")?.parse().ok()?;
        let message = extract_string_field(inner, "\"message\":\"")?;
        Some(Self {
            code,
            message,
            retryable,
        })
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "api error {}: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// Extract a bare (non-string) JSON field value following `key`.
fn extract_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let rest = &json[json.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Extract a string field value following `key` (which includes the opening
/// quote), honoring backslash escapes.
fn extract_string_field(json: &str, key: &str) -> Option<String> {
    let rest = &json[json.find(key)? + key.len()..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                other => out.push(other),
            },
            other => out.push(other),
        }
    }
    None
}

/// Escape a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
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
    fn envelope_roundtrip() {
        let e = ApiError::new(503, "backend saturated");
        assert!(e.retryable);
        let json = e.to_json();
        assert_eq!(
            json,
            "{\"code\":503,\"message\":\"backend saturated\",\"retryable\":true}\n"
        );
        assert_eq!(ApiError::from_json(&json), Some(e));
    }

    #[test]
    fn envelope_roundtrip_with_escapes() {
        let e = ApiError::new(400, "bad \"query\"\nline two");
        let parsed = ApiError::from_json(&e.to_json()).expect("parses");
        assert_eq!(parsed, e);
    }

    #[test]
    fn retryable_defaults_by_class() {
        assert!(!ApiError::new(404, "x").retryable);
        assert!(!ApiError::new(400, "x").retryable);
        assert!(ApiError::new(429, "x").retryable);
        assert!(ApiError::new(502, "x").retryable);
        assert!(ApiError::new(504, "x").retryable);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert_eq!(ApiError::from_json("not json"), None);
        assert_eq!(ApiError::from_json("{\"code\":\"abc\"}"), None);
        assert_eq!(ApiError::from_json(""), None);
    }
}
