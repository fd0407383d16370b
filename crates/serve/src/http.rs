//! A deliberately small HTTP/1.1 implementation over std TCP streams: the
//! one place either tier reads an HTTP message.
//!
//! The daemon needs exactly one request shape — `GET <path>` with a handful
//! of headers it may consult — and writes one response per request, so this
//! module implements that slice directly instead of pulling in a server
//! framework (the workspace builds with no registry access). Requests
//! ([`read_request`]) and replies ([`read_reply`]) share one reader: heads
//! are capped at [`MAX_HEAD_BYTES`] and bodies at [`MAX_BODY_BYTES`], so no
//! peer-chosen length is allocated before it is checked; anything larger,
//! non-UTF-8, or not HTTP-shaped surfaces as an [`HttpError`], which the
//! server maps to a `400` and the client to a parse error.
//!
//! Parsing is strict where laxness would be exploitable: the request line
//! must be exactly `METHOD SP TARGET SP HTTP/1.x` with single spaces and no
//! tabs (whitespace smuggling in the target is rejected), header lines
//! split on the *first* `:` only, so values containing `:` (URLs, IPv6
//! literals, timestamps) survive intact, and `Transfer-Encoding` is
//! rejected. Only the start line and the framing of a message without
//! `Content-Length` depend on direction: such a request has no body, such
//! a reply runs to EOF. Both readers take any [`BufRead`] and leave it
//! exactly past the message, so one keep-alive stream carries several.

use std::borrow::Cow;
use std::io::{BufRead, ErrorKind, Read, Write};

use cactus_obs::{ApiError, TraceId, TRACE_HEADER};

/// Upper bound on a message head (start line + headers), in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on a message body, in bytes, in either direction: a
/// request's `Content-Length` (only the store-record ingestion endpoint
/// accepts bodies), and a reply's declared or close-delimited body. Profile
/// documents are well under this.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, without the query string.
    pub path: String,
    /// Raw query string after `?`, if any.
    pub query: Option<String>,
    /// Header name/value pairs in wire order, names lowercased, values
    /// trimmed of surrounding whitespace.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless the client sent a `Content-Length`).
    pub body: String,
}

impl Request {
    /// First header value with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        header_in(&self.headers, name)
    }

    /// Whether the client asked for the connection to be closed after this
    /// response (`Connection: close`).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        close_in(&self.headers)
    }

    /// The trace id carried by the `x-cactus-trace` header, if present and
    /// well-formed. A malformed header is treated as absent (the server
    /// mints a fresh id rather than propagating garbage).
    #[must_use]
    pub fn trace_id(&self) -> Option<TraceId> {
        trace_in(&self.headers)
    }
}

/// A parsed reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpReply {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs, as in [`Request::headers`].
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpReply {
    /// First header value with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        header_in(&self.headers, name)
    }

    /// The `Retry-After` header, parsed to seconds.
    #[must_use]
    pub fn retry_after_s(&self) -> Option<u32> {
        self.header("retry-after")?.parse().ok()
    }

    /// The trace id echoed in the `x-cactus-trace` header, if any.
    #[must_use]
    pub fn trace_id(&self) -> Option<TraceId> {
        trace_in(&self.headers)
    }

    /// Whether the server will close the connection after this reply.
    #[must_use]
    pub fn connection_close(&self) -> bool {
        close_in(&self.headers)
    }
}

/// A backend's reply as the response the gateway forwards: status, content
/// type and body verbatim, plus the backend's `Retry-After` so forwarded
/// backpressure keeps its hint. Hop-by-hop headers (`connection`, the
/// length, the trace echo) are the forwarding daemon's to set.
impl From<HttpReply> for Response {
    fn from(reply: HttpReply) -> Self {
        let content_type = reply
            .header("content-type")
            .unwrap_or(crate::routes::TEXT)
            .to_owned();
        Self {
            status: reply.status,
            retry_after: reply.retry_after_s(),
            ..Self::ok(reply.body, content_type)
        }
    }
}

/// The one header lookup: stored names are lower case, so a
/// case-insensitive match needs no lower-cased copy of `name`.
fn header_in<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn close_in(headers: &[(String, String)]) -> bool {
    header_in(headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

fn trace_in(headers: &[(String, String)]) -> Option<TraceId> {
    header_in(headers, TRACE_HEADER).and_then(TraceId::parse)
}

/// Why a message could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket error (including read timeouts).
    Io(std::io::Error),
    /// The peer closed before sending a full message.
    ClosedEarly,
    /// The head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// A start line, header line, framing header or body was not
    /// well-formed; the text names which.
    Malformed(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::ClosedEarly => write!(f, "connection closed before a full message"),
            HttpError::HeadTooLarge => write!(f, "message head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::Malformed(what) => f.write_str(what),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        // Only `read_exact` reports EOF as an error: a body cut short.
        if e.kind() == ErrorKind::UnexpectedEof {
            HttpError::ClosedEarly
        } else {
            HttpError::Io(e)
        }
    }
}

/// Read and parse one request from `reader`. The reader is positioned
/// exactly past the head's terminating blank line — plus any declared
/// body — on success, so a keep-alive server can call this again on the
/// same reader for the next request. Bodies are read eagerly when a
/// `Content-Length` header is present (capped at [`MAX_BODY_BYTES`]) and
/// must be UTF-8; the API's only body-bearing requests carry profile text.
///
/// # Errors
///
/// See [`HttpError`].
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let ((method, path, query), headers) = read_head(reader, parse_request_line)?;
    let body = read_body(reader, &headers, false)?;
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Read and parse one reply from `reader`, like [`read_request`], except
/// that a reply without `Content-Length` is close-delimited: its body is
/// the rest of the stream, up to [`MAX_BODY_BYTES`].
///
/// # Errors
///
/// See [`HttpError`].
pub fn read_reply<R: BufRead>(reader: &mut R) -> Result<HttpReply, HttpError> {
    let (status, headers) = read_head(reader, parse_status_line)?;
    let body = read_body(reader, &headers, true)?;
    Ok(HttpReply {
        status,
        headers,
        body,
    })
}

/// One head, gathered into one buffer under [`MAX_HEAD_BYTES`]: the start
/// line, parsed by `start` as soon as it is in (a bad one fails before any
/// header is awaited), then each header line as it arrives, up to the
/// blank line.
fn read_head<R: BufRead, T>(
    reader: &mut R,
    start: fn(&str) -> Result<T, HttpError>,
) -> Result<(T, Vec<(String, String)>), HttpError> {
    let mut head = Vec::with_capacity(256);
    gather_line(reader, &mut head)?;
    let first = start(head_line(&head)?)?;
    let mut headers = Vec::new();
    loop {
        let at = head.len();
        gather_line(reader, &mut head)?;
        match &head[at..] {
            b"\r\n" | b"\n" => return Ok((first, headers)),
            line => headers.push(parse_header_line(head_line(line)?)?),
        }
    }
}

/// Append one `\n`-terminated line to `head` straight from the reader's
/// buffer. EOF before the terminator is [`HttpError::ClosedEarly`].
fn gather_line<R: BufRead>(reader: &mut R, head: &mut Vec<u8>) -> Result<(), HttpError> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(HttpError::ClosedEarly);
        }
        let (taken, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (buf.len(), false),
        };
        if head.len() + taken > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        head.extend_from_slice(&buf[..taken]);
        reader.consume(taken);
        if done {
            return Ok(());
        }
    }
}

/// A head line as text, without its trailing `\r\n`/`\n`.
fn head_line(raw: &[u8]) -> Result<&str, HttpError> {
    std::str::from_utf8(raw)
        .map(|text| text.trim_end_matches(['\r', '\n']))
        .map_err(|_| HttpError::Malformed("non-UTF-8 bytes in a message head".to_owned()))
}

/// Read the body `headers` frame: `Content-Length` bytes, else none — or,
/// when `to_eof`, the rest of the stream. Transfer encodings are not
/// supported — a `Transfer-Encoding` header is malformed here (the framing
/// could not be trusted otherwise).
fn read_body<R: BufRead>(
    reader: &mut R,
    headers: &[(String, String)],
    to_eof: bool,
) -> Result<String, HttpError> {
    let malformed = |what: String| Err(HttpError::Malformed(what));
    if header_in(headers, "transfer-encoding").is_some() {
        return malformed("transfer-encoding is not supported".to_owned());
    }
    let mut body = Vec::new();
    if let Some(value) = header_in(headers, "content-length") {
        let Ok(length) = value.parse::<usize>() else {
            return malformed(format!("bad content-length {value:?}"));
        };
        if length > MAX_BODY_BYTES {
            return malformed(format!("content-length {length} exceeds {MAX_BODY_BYTES}"));
        }
        body.resize(length, 0);
        reader.read_exact(&mut body)?;
    } else if to_eof {
        // One byte past the cap tells "exactly the cap" from "over it".
        reader
            .take(MAX_BODY_BYTES as u64 + 1)
            .read_to_end(&mut body)?;
        if body.len() > MAX_BODY_BYTES {
            return malformed(format!("close-delimited body exceeds {MAX_BODY_BYTES}"));
        }
    }
    String::from_utf8(body).or_else(|_| malformed("non-UTF-8 body".to_owned()))
}

/// Strict request-line parse: exactly `METHOD SP TARGET SP HTTP/1.x`, single
/// spaces, no tabs or other embedded whitespace (so a target can never smuggle
/// a second token past a lax downstream parser). Yields the uppercased
/// method, the path and the query.
fn parse_request_line(line: &str) -> Result<(String, String, Option<String>), HttpError> {
    let malformed = || HttpError::Malformed(format!("malformed request line {line:?}"));
    if line.contains(|c: char| c.is_ascii_whitespace() && c != ' ') {
        return Err(malformed());
    }
    let mut parts = line.split(' ');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(version), None)
            if !method.is_empty() && !target.is_empty() && version.starts_with("HTTP/1.") =>
        {
            let (path, query) = match target.split_once('?') {
                Some((p, q)) => (p, Some(q.to_owned())),
                None => (target, None),
            };
            Ok((method.to_ascii_uppercase(), path.to_owned(), query))
        }
        _ => Err(malformed()),
    }
}

/// Status-line parse: `HTTP/1.x SP <three digits>`, then any reason phrase.
fn parse_status_line(line: &str) -> Result<u16, HttpError> {
    line.strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1))
        .filter(|code| code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("malformed status line {line:?}")))
}

/// Split one header line on the first `:` — values keep any further colons
/// (URLs, IPv6 literals). Names must be non-empty and whitespace-free;
/// obsolete line folding (a line starting with whitespace) is rejected.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let malformed = || HttpError::Malformed(format!("malformed header line {line:?}"));
    let (name, value) = line.split_once(':').ok_or_else(malformed)?;
    if name.is_empty() || name.contains(|c: char| c.is_ascii_whitespace()) {
        return Err(malformed());
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_owned()))
}

/// One response — the only response type of both tiers; the `Connection`
/// header is chosen at write time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value: a constant for locally rendered bodies,
    /// owned when the gateway forwards a backend's verbatim.
    pub content_type: Cow<'static, str>,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` header (seconds), used by 503 backpressure.
    pub retry_after: Option<u32>,
    /// Trace id echoed back in the `x-cactus-trace` header, if assigned.
    pub trace: Option<TraceId>,
}

impl Response {
    /// A `200 OK` with the given body and content type.
    #[must_use]
    pub fn ok(body: impl Into<String>, content_type: impl Into<Cow<'static, str>>) -> Self {
        Self {
            status: 200,
            content_type: content_type.into(),
            body: body.into(),
            retry_after: None,
            trace: None,
        }
    }

    /// A structured-error response: the shared `/v1` JSON envelope.
    #[must_use]
    pub fn api_error(error: &ApiError) -> Self {
        Self {
            status: error.code,
            content_type: Cow::Borrowed("application/json"),
            body: error.to_json(),
            retry_after: None,
            trace: None,
        }
    }

    /// An error response built from a status + message via the envelope.
    #[must_use]
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Self::api_error(&ApiError::new(status, message))
    }

    /// The `503 Service Unavailable` backpressure response.
    #[must_use]
    pub fn busy(retry_after_s: u32) -> Self {
        let mut r = Self::error(503, "server saturated, retry later");
        r.retry_after = Some(retry_after_s);
        r
    }

    /// Attach the trace id echoed back to the client.
    #[must_use]
    pub fn traced(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The standard reason phrase for [`Response::status`] (`Unknown` for
    /// a forwarded backend status neither tier constructs itself).
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            422 => "Unprocessable Content",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serialize head + body to `out` with `connection: close` (one request
    /// per connection).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_to<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        self.write_conn(out, false)
    }

    /// Serialize head + body to `out`, advertising `keep-alive` or `close`
    /// (one write syscall via buffering).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_conn<W: Write>(&self, out: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("retry-after: {secs}\r\n"));
        }
        if let Some(trace) = self.trace {
            head.push_str(&format!("{TRACE_HEADER}: {trace}\r\n"));
        }
        head.push_str("\r\n");
        // Head + body in one write_all: a separate small body write after
        // the head can stall ~40 ms in Nagle + delayed-ACK on a raw socket.
        head.push_str(&self.body);
        out.write_all(head.as_bytes())?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut &raw[..])
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let raw =
            b"GET /v1/profile/a/b/c?x=1 HTTP/1.1\r\nHost: h\r\nX-Ref: http://e:8080/p\r\n\r\n";
        let r = parse(raw).expect("parse");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/profile/a/b/c");
        assert_eq!(r.query.as_deref(), Some("x=1"));
        assert_eq!(r.header("host"), Some("h"));
        // Values containing ':' survive the first-colon split.
        assert_eq!(r.header("X-Ref"), Some("http://e:8080/p"));
        assert!(!r.wants_close());
    }

    #[test]
    fn connection_close_is_detected() {
        let raw = b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n";
        assert!(parse(raw).expect("parse").wants_close());
    }

    #[test]
    fn method_is_uppercased() {
        let raw = b"get / HTTP/1.0\r\n\r\n";
        assert_eq!(parse(raw).expect("parse").method, "GET");
    }

    #[test]
    fn rejects_garbage_and_early_close() {
        assert!(matches!(
            parse(b"NOT-HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(parse(b""), Err(HttpError::ClosedEarly)));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nHost: h"),
            Err(HttpError::ClosedEarly)
        ));
    }

    #[test]
    fn rejects_whitespace_abuse_in_request_line() {
        for raw in [
            &b"GET  / HTTP/1.1\r\n\r\n"[..],      // double space
            &b"GET /a /b HTTP/1.1\r\n\r\n"[..],   // embedded space in target
            &b"GET\t/ HTTP/1.1\r\n\r\n"[..],      // tab separator
            &b"GET /\tx HTTP/1.1\r\n\r\n"[..],    // tab inside target
            &b" GET / HTTP/1.1\r\n\r\n"[..],      // leading space
            &b"GET / HTTP/1.1 extra\r\n\r\n"[..], // trailing token
            &b"GET / SMTP/1.1\r\n\r\n"[..],       // wrong protocol
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "should reject {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn rejects_malformed_headers() {
        for raw in [
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbad name: v\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "should reject {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn rejects_oversized_head() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(vec![b'a'; MAX_HEAD_BYTES]);
        assert!(matches!(parse(&raw), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn sequential_requests_parse_from_one_reader() {
        let raw = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = &raw[..];
        let first = read_request(&mut reader).expect("first");
        assert_eq!(first.path, "/a");
        assert!(!first.wants_close());
        let second = read_request(&mut reader).expect("second");
        assert_eq!(second.path, "/b");
        assert!(second.wants_close());
    }

    #[test]
    fn body_is_read_to_content_length() {
        let raw = b"POST /v1/store/record/a/b/c HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /next HTTP/1.1\r\n\r\n";
        let mut reader = &raw[..];
        let first = read_request(&mut reader).expect("post");
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, "hello");
        // The reader sits exactly past the body: keep-alive still works.
        let second = read_request(&mut reader).expect("next");
        assert_eq!(second.path, "/next");
        assert_eq!(second.body, "");
    }

    #[test]
    fn rejects_bad_bodies() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        let oversized = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(oversized.as_bytes()),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Truncated body: connection died mid-upload.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::ClosedEarly)
        ));
    }

    #[test]
    fn response_wire_format() {
        let mut buf = Vec::new();
        Response::ok("hello\n", "text/plain")
            .write_to(&mut buf)
            .expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 6\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhello\n"));

        let mut buf = Vec::new();
        Response::ok("hi\n", "text/plain")
            .write_conn(&mut buf, true)
            .expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains("connection: keep-alive\r\n"));

        let mut buf = Vec::new();
        Response::busy(7).write_to(&mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 7\r\n"));
    }

    #[test]
    fn errors_are_json_envelopes() {
        let r = Response::error(404, "unknown route");
        assert_eq!(r.content_type, "application/json");
        let envelope = ApiError::from_json(&r.body).expect("envelope body");
        assert_eq!(envelope.code, 404);
        assert_eq!(envelope.message, "unknown route");
        assert!(!envelope.retryable);
        assert!(
            ApiError::from_json(&Response::busy(1).body)
                .expect("busy envelope")
                .retryable
        );
    }

    #[test]
    fn trace_header_roundtrips() {
        let trace = TraceId::mint();
        let mut buf = Vec::new();
        Response::ok("x\n", "text/plain")
            .traced(trace)
            .write_to(&mut buf)
            .expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains(&format!("x-cactus-trace: {trace}\r\n")));

        let raw = format!("GET / HTTP/1.1\r\nX-Cactus-Trace: {trace}\r\n\r\n");
        assert_eq!(
            parse(raw.as_bytes()).expect("parse").trace_id(),
            Some(trace)
        );
        let bad = b"GET / HTTP/1.1\r\nx-cactus-trace: nope\r\n\r\n";
        assert_eq!(parse(bad).expect("parse").trace_id(), None);
    }
}
