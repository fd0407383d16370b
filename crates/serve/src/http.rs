//! A deliberately small HTTP/1.1 implementation over std TCP streams: the
//! one place either tier reads an HTTP message.
//!
//! The daemon needs exactly one request shape — `GET <path>` with a handful
//! of headers it may consult — and writes one response per request, so this
//! module implements that slice directly instead of pulling in a server
//! framework (the workspace builds with no registry access). Requests
//! ([`read_request`]) and replies (`read_reply_into`) share one reader:
//! heads are capped at [`MAX_HEAD_BYTES`] and bodies at `MAX_BODY_BYTES`,
//! so no peer-chosen length is allocated before it is checked; anything
//! larger, non-UTF-8, or not HTTP-shaped surfaces as an [`HttpError`],
//! which the server maps to a `400` and the client to a parse error.
//!
//! Parsing is strict where laxness would be exploitable: the request line
//! must be exactly `METHOD SP TARGET SP HTTP/1.x` with single spaces and no
//! tabs (whitespace smuggling in the target is rejected), header lines
//! split on the *first* `:` only, so values containing `:` (URLs, IPv6
//! literals, timestamps) survive intact, no header line may hold a control
//! byte but HTAB, and `Transfer-Encoding` is rejected. Only the start line
//! and the framing of a message without `Content-Length` depend on
//! direction: such a request has no body, such a reply runs to EOF. Both
//! readers take any [`BufRead`] and leave it exactly past the message, so
//! one keep-alive stream carries several.
//!
//! Buffers belong to the connection, not the message. A head is read into
//! one buffer, its header names are lowercased in place, and each header is
//! kept as two ranges into it ([`Headers`]); a `Content-Length` body is
//! read straight into its final `String`. The daemon refills one
//! [`Request`] per connection (`read_request_into`) and formats every
//! response head into one reused buffer, which leaves with the body in one
//! vectored write; a client `Connection` keeps its reply head the same way.

use std::borrow::Cow;
use std::fmt;
use std::io::{BufRead, ErrorKind, IoSlice, Read, Write};
use std::ops::Range;

use cactus_obs::{ApiError, TraceId, TRACE_HEADER};

use crate::routes::{CSV, JSON, NDJSON, TEXT};

/// Upper bound on a message head (start line + headers), in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on a message body, in bytes, in either direction: a
/// request's `Content-Length` (only the store-record ingestion endpoint
/// accepts bodies), and a reply's declared or close-delimited body. Profile
/// documents are well under this.
pub(crate) const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One message head as read: the start line and header lines in one
/// buffer, header names lowercased in place, and each header's name and
/// trimmed value as ranges into it. Reading a head refills the buffers and
/// keeps their capacity.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct Head {
    bytes: Vec<u8>,
    fields: Vec<Field>,
}

/// Where one header line's name and value sit in its [`Head`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Field {
    name: Range<usize>,
    value: Range<usize>,
}

impl Head {
    /// Read one head into this buffer: the start line, parsed by `start` as
    /// soon as it is in (a bad one fails before any header is awaited), then
    /// each header line as it arrives, up to the blank line.
    fn read<R: BufRead, T>(
        &mut self,
        reader: &mut R,
        start: fn(&[u8]) -> Result<T, HttpError>,
    ) -> Result<T, HttpError> {
        self.bytes.clear();
        self.fields.clear();
        // Room for a typical head up front; a kept buffer already has it.
        self.bytes.reserve(256);
        self.fields.reserve(8);
        gather_line(reader, &mut self.bytes)?;
        let first = start(head_line(&self.bytes)?)?;
        loop {
            let at = self.bytes.len();
            gather_line(reader, &mut self.bytes)?;
            let field = match &self.bytes[at..] {
                b"\r\n" | b"\n" => break,
                line => parse_header_line(head_line(line)?, at)?,
            };
            self.bytes[field.name.clone()].make_ascii_lowercase();
            self.fields.push(field);
        }
        Ok(first)
    }

    /// The text at `range`, a range a parse of this head's text produced:
    /// every line was checked to be UTF-8 as it came in, and a range
    /// starts and ends on character boundaries, so this never falls back.
    fn at(&self, range: &Range<usize>) -> &str {
        std::str::from_utf8(&self.bytes[range.clone()]).unwrap_or_default()
    }

    /// The one header lookup: stored names are lower case, so a
    /// case-insensitive match needs no lower-cased copy of `name`.
    fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|f| self.bytes[f.name.clone()].eq_ignore_ascii_case(name.as_bytes()))
            .map(|f| self.at(&f.value))
    }

    fn close(&self) -> bool {
        self.get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

impl fmt::Debug for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Headers { head: self }.fmt(f)
    }
}

/// A message's headers in wire order, names lowercased and values trimmed
/// of surrounding whitespace, borrowed from the head they were read into.
#[derive(Clone, Copy)]
pub struct Headers<'a> {
    head: &'a Head,
}

impl<'a> Headers<'a> {
    /// How many header lines the head held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.head.fields.len()
    }

    /// Whether the head held no header line.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head.fields.is_empty()
    }

    /// `(name, value)` pairs in wire order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let head = self.head;
        head.fields
            .iter()
            .map(move |f| (head.at(&f.name), head.at(&f.value)))
    }
}

impl PartialEq for Headers<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Headers<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A parsed request. One `Request` per connection is refilled in place by
/// `read_request_into`, so its buffers keep their capacity from one
/// request to the next.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Request target path, without the query string. The one part of the
    /// head copied out of it: it is read as a field (`benchmark/` does too).
    pub path: String,
    /// Request body (empty unless the client sent a `Content-Length`).
    pub body: String,
    head: Head,
    line: RequestLine,
}

impl Request {
    /// Request method, uppercased (`GET`, `POST`, …).
    #[must_use]
    pub fn method(&self) -> &str {
        self.head.at(&self.line.method)
    }

    /// Raw query string after `?`, if any.
    #[must_use]
    pub fn query(&self) -> Option<&str> {
        self.line.query.as_ref().map(|q| self.head.at(q))
    }

    /// The request target as sent: the path, then `?` and the query when
    /// there is one.
    #[must_use]
    pub fn target(&self) -> &str {
        self.head.at(&self.line.target)
    }

    /// The header lines, in wire order.
    #[must_use]
    pub fn headers(&self) -> Headers<'_> {
        Headers { head: &self.head }
    }

    /// Whether the client asked for the connection to be closed after this
    /// response (`Connection: close`).
    #[must_use]
    pub(crate) fn wants_close(&self) -> bool {
        self.head.close()
    }

    /// The trace id carried by the `x-cactus-trace` header, if present and
    /// well-formed. A malformed header is treated as absent (the server
    /// mints a fresh id rather than propagating garbage).
    #[must_use]
    pub fn trace_id(&self) -> Option<TraceId> {
        self.head.get(TRACE_HEADER).and_then(TraceId::parse)
    }
}

/// The value of the first `name=` pair in a query string (exact-key match,
/// so `k` never swallows `kernel`); `Some("")` for `name=`.
#[must_use]
pub fn query_param<'q>(query: Option<&'q str>, name: &str) -> Option<&'q str> {
    query?.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == name).then_some(value)
    })
}

/// A parsed reply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HttpReply {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    pub(crate) head: Head,
}

impl HttpReply {
    /// First header value with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.get(name)
    }

    /// The header lines, in wire order.
    #[must_use]
    pub fn headers(&self) -> Headers<'_> {
        Headers { head: &self.head }
    }

    /// The `Retry-After` header, parsed to seconds.
    #[must_use]
    pub fn retry_after_s(&self) -> Option<u32> {
        self.header("retry-after")?.parse().ok()
    }

    /// Whether the server will close the connection after this reply.
    #[must_use]
    pub(crate) fn connection_close(&self) -> bool {
        self.head.close()
    }
}

/// A backend's reply as the response the gateway forwards: status, content
/// type and body verbatim, plus the backend's `Retry-After` so forwarded
/// backpressure keeps its hint. Hop-by-hop headers (`connection`, the
/// length, the trace echo) are the forwarding daemon's to set. A content
/// type either tier writes itself is forwarded as that constant; any other
/// is copied.
impl From<HttpReply> for Response {
    fn from(reply: HttpReply) -> Self {
        let content_type = reply.header("content-type").unwrap_or(TEXT);
        let content_type = [TEXT, CSV, JSON, NDJSON]
            .into_iter()
            .find(|known| *known == content_type)
            .map_or_else(|| Cow::Owned(content_type.to_owned()), Cow::Borrowed);
        Self {
            status: reply.status,
            retry_after: reply.retry_after_s(),
            ..Self::ok(reply.body, content_type)
        }
    }
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

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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
        HttpError::Io(e)
    }
}

/// Read and parse one request from `reader`. The reader is positioned
/// exactly past the head's terminating blank line — plus any declared
/// body — on success, so a keep-alive server can call this again on the
/// same reader for the next request. Bodies are read eagerly when a
/// `Content-Length` header is present (capped at `MAX_BODY_BYTES`) and
/// must be UTF-8; the API's only body-bearing requests carry profile text.
///
/// # Errors
///
/// See [`HttpError`].
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let mut request = Request::default();
    read_request_into(reader, &mut request)?;
    Ok(request)
}

/// [`read_request`] into `request`, reusing its buffers. After an error
/// `request` holds no message worth reading.
pub(crate) fn read_request_into<R: BufRead>(
    reader: &mut R,
    request: &mut Request,
) -> Result<(), HttpError> {
    let line = request.head.read(reader, parse_request_line)?;
    request.head.bytes[line.method.clone()].make_ascii_uppercase();
    request.path.clear();
    request.path.push_str(request.head.at(&line.path));
    request.line = line;
    read_body(reader, &request.head, false, &mut request.body)
}

/// Read and parse one reply from `reader`, like [`read_request`], except
/// that a reply without `Content-Length` is close-delimited: its body is
/// the rest of the stream, up to [`MAX_BODY_BYTES`]. The head is read into
/// `head`, a buffer the caller keeps between replies; the reply carries an
/// exact-size copy of it.
///
/// # Errors
///
/// See [`HttpError`].
pub(crate) fn read_reply_into<R: BufRead>(
    reader: &mut R,
    head: &mut Head,
) -> Result<HttpReply, HttpError> {
    let status = head.read(reader, parse_status_line)?;
    let mut body = String::new();
    read_body(reader, head, true, &mut body)?;
    Ok(HttpReply {
        status,
        body,
        head: head.clone(),
    })
}

/// [`read_reply_into`] with a head buffer of its own.
#[cfg(test)]
pub(crate) fn read_reply<R: BufRead>(reader: &mut R) -> Result<HttpReply, HttpError> {
    read_reply_into(reader, &mut Head::default())
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

fn non_utf8_head() -> HttpError {
    HttpError::Malformed("non-UTF-8 bytes in a message head".to_owned())
}

/// A head line without its trailing `\r\n`/`\n`, checked to be UTF-8 (an
/// all-ASCII line, the usual one, needs no further look).
fn head_line(raw: &[u8]) -> Result<&[u8], HttpError> {
    let end = raw.len()
        - raw
            .iter()
            .rev()
            .take_while(|&&b| matches!(b, b'\r' | b'\n'))
            .count();
    let line = &raw[..end];
    if !line.is_ascii() && std::str::from_utf8(line).is_err() {
        return Err(non_utf8_head());
    }
    Ok(line)
}

/// A line [`head_line`] checked (or a part of one cut at ASCII bytes), as
/// text.
fn text(line: &[u8]) -> &str {
    std::str::from_utf8(line).unwrap_or_default()
}

/// Read the body `head` frames into `body` (emptied first, capacity
/// kept): `Content-Length` bytes, straight into the string's own buffer
/// with no zero-fill and no second copy, else none — or, when `to_eof`,
/// the rest of the stream. Transfer encodings are not supported — a
/// `Transfer-Encoding` header is malformed here (the framing could not be
/// trusted otherwise).
fn read_body<R: BufRead>(
    reader: &mut R,
    head: &Head,
    to_eof: bool,
    body: &mut String,
) -> Result<(), HttpError> {
    let malformed = |what: String| Err(HttpError::Malformed(what));
    if head.get("transfer-encoding").is_some() {
        return malformed("transfer-encoding is not supported".to_owned());
    }
    let mut bytes = std::mem::take(body).into_bytes();
    bytes.clear();
    if let Some(value) = head.get("content-length") {
        let Ok(length) = value.parse::<usize>() else {
            return malformed(format!("bad content-length {value:?}"));
        };
        if length > MAX_BODY_BYTES {
            return malformed(format!("content-length {length} exceeds {MAX_BODY_BYTES}"));
        }
        bytes.reserve_exact(length);
        reader.take(length as u64).read_to_end(&mut bytes)?;
        if bytes.len() < length {
            return Err(HttpError::ClosedEarly);
        }
    } else if to_eof {
        // One byte past the cap tells "exactly the cap" from "over it".
        reader
            .take(MAX_BODY_BYTES as u64 + 1)
            .read_to_end(&mut bytes)?;
        if bytes.len() > MAX_BODY_BYTES {
            return malformed(format!("close-delimited body exceeds {MAX_BODY_BYTES}"));
        }
    }
    *body =
        String::from_utf8(bytes).map_err(|_| HttpError::Malformed("non-UTF-8 body".to_owned()))?;
    Ok(())
}

/// Where a request line's parts sit in the head (it starts at offset 0).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RequestLine {
    method: Range<usize>,
    target: Range<usize>,
    path: Range<usize>,
    query: Option<Range<usize>>,
}

/// Strict request-line parse: exactly `METHOD SP TARGET SP HTTP/1.x`, single
/// spaces, no tabs or other embedded whitespace (so a target can never smuggle
/// a second token past a lax downstream parser). Yields where the method,
/// the target, its path and its query sit.
fn parse_request_line(line: &[u8]) -> Result<RequestLine, HttpError> {
    let malformed = || HttpError::Malformed(format!("malformed request line {:?}", text(line)));
    // One pass: the two separating spaces, the target's first `?`, and no
    // other whitespace anywhere.
    let (mut spaces, mut query) = ([0usize; 2], None);
    let mut seen = 0;
    for (i, &b) in line.iter().enumerate() {
        match b {
            b' ' if seen < 2 => {
                spaces[seen] = i;
                seen += 1;
            }
            b'?' if seen == 1 && query.is_none() => query = Some(i),
            _ if b.is_ascii_whitespace() => return Err(malformed()),
            _ => {}
        }
    }
    let [before_target, before_version] = spaces;
    if seen < 2
        || before_target == 0
        || before_version == before_target + 1
        || !line[before_version + 1..].starts_with(b"HTTP/1.")
    {
        return Err(malformed());
    }
    let target = before_target + 1..before_version;
    Ok(RequestLine {
        method: 0..before_target,
        path: target.start..query.unwrap_or(target.end),
        query: query.map(|q| q + 1..target.end),
        target,
    })
}

/// Status-line parse: `HTTP/1.x SP <three digits>`, then any reason phrase.
fn parse_status_line(line: &[u8]) -> Result<u16, HttpError> {
    let line = text(line);
    line.strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1))
        .filter(|code| code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("malformed status line {line:?}")))
}

/// Split one header line, which starts at offset `at` of its head, on the
/// first `:` — values keep any further colons (URLs, IPv6 literals). Names
/// must be non-empty and whitespace-free; obsolete line folding (a line
/// starting with whitespace) is rejected, and so is any C0 control byte but
/// HTAB in a name or value (RFC 9110 §5.5): a bare CR or a NUL would
/// otherwise reach a head the gateway writes.
fn parse_header_line(line: &[u8], at: usize) -> Result<Field, HttpError> {
    let malformed = || HttpError::Malformed(format!("malformed header line {:?}", text(line)));
    // One pass: the first `:`, no whitespace before it, and no control
    // byte but HTAB anywhere.
    let mut colon = None;
    for (i, &b) in line.iter().enumerate() {
        if (b < b' ' && b != b'\t') || (colon.is_none() && b.is_ascii_whitespace()) {
            return Err(malformed());
        }
        if b == b':' && colon.is_none() {
            colon = Some(i);
        }
    }
    let name_len = match colon {
        Some(0) | None => return Err(malformed()),
        Some(len) => len,
    };
    let value = text(&line[name_len + 1..]);
    let trimmed = value.trim_start();
    let start = at + name_len + 1 + (value.len() - trimmed.len());
    Ok(Field {
        name: at..at + name_len,
        value: start..start + trimmed.trim_end().len(),
    })
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
    pub(crate) fn api_error(error: &ApiError) -> Self {
        Self {
            status: error.code,
            content_type: Cow::Borrowed(JSON),
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
    pub(crate) fn busy(retry_after_s: u32) -> Self {
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
    pub(crate) fn reason(&self) -> &'static str {
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
    pub(crate) fn write_to<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        self.write_conn(out, false)
    }

    /// Serialize head + body to `out`, advertising `keep-alive` or `close`.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_conn<W: Write>(&self, out: &mut W, keep_alive: bool) -> std::io::Result<()> {
        self.write_reusing(out, keep_alive, &mut Vec::new())
    }

    /// [`Response::write_conn`], formatting the head into `head` (emptied
    /// first), a buffer the caller keeps between responses. Head and body
    /// leave in one vectored write, so the body is never copied: a
    /// separate small body write after the head could stall ~40 ms in
    /// Nagle + delayed-ACK on a raw socket.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub(crate) fn write_reusing<W: Write>(
        &self,
        out: &mut W,
        keep_alive: bool,
        head: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        head.clear();
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(head, "retry-after: {secs}\r\n");
        }
        if let Some(trace) = self.trace {
            let _ = write!(head, "{TRACE_HEADER}: {trace}\r\n");
        }
        head.extend_from_slice(b"\r\n");
        write_all_vectored(
            out,
            &mut [IoSlice::new(head), IoSlice::new(self.body.as_bytes())],
        )?;
        out.flush()
    }
}

/// `write_all` over several buffers: `write_vectored` until every byte is
/// out.
fn write_all_vectored<W: Write>(out: &mut W, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match out.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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
        assert_eq!(r.method(), "GET");
        assert_eq!(r.path, "/v1/profile/a/b/c");
        assert_eq!(r.query(), Some("x=1"));
        assert_eq!(r.head.get("host"), Some("h"));
        // Values containing ':' survive the first-colon split.
        assert_eq!(r.head.get("X-Ref"), Some("http://e:8080/p"));
        assert!(!r.wants_close());
    }

    #[test]
    fn query_param_matches_exact_keys_only() {
        let q = Some("kernel=force&k=7&device=rtx-3080");
        assert_eq!(query_param(q, "k"), Some("7"));
        assert_eq!(query_param(q, "kernel"), Some("force"));
        assert_eq!(query_param(q, "device"), Some("rtx-3080"));
        assert_eq!(query_param(q, "scale"), None);
        assert_eq!(query_param(None, "k"), None);
        // An empty value is present, the first pair wins, and the value
        // runs from the first `=`.
        assert_eq!(query_param(Some("scale=&scale=tiny"), "scale"), Some(""));
        assert_eq!(
            query_param(Some("threshold=0.5=x"), "threshold"),
            Some("0.5=x")
        );
    }

    #[test]
    fn connection_close_is_detected() {
        let raw = b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n";
        assert!(parse(raw).expect("parse").wants_close());
    }

    #[test]
    fn method_is_uppercased() {
        let raw = b"get / HTTP/1.0\r\n\r\n";
        assert_eq!(parse(raw).expect("parse").method(), "GET");
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
    fn rejects_control_bytes_in_header_lines() {
        for raw in [
            &b"GET / HTTP/1.1\r\nX-A: v\rx-injected: 1\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX-A: v\0w\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX-A: v\x1bw\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX\x01A: v\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "should reject {:?}",
                String::from_utf8_lossy(raw)
            );
        }
        // HTAB is the one control byte a value may hold.
        let tabbed = parse(b"GET / HTTP/1.1\r\nX-A: a\tb\r\n\r\n").expect("parse");
        assert_eq!(tabbed.head.get("x-a"), Some("a\tb"));
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
        assert_eq!(first.method(), "POST");
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

    #[test]
    fn a_reused_request_reads_each_message_afresh() {
        let raw = b"POST /a?x=1 HTTP/1.1\r\nContent-Length: 5\r\nX-Long-Header-Name: v\r\n\r\nhelloget /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let mut reader = &raw[..];
        let mut request = Request::default();
        read_request_into(&mut reader, &mut request).expect("first");
        assert_eq!((request.method(), request.target()), ("POST", "/a?x=1"));
        read_request_into(&mut reader, &mut request).expect("second");
        assert_eq!(request.method(), "GET");
        assert_eq!(request.path, "/b");
        assert_eq!(request.query(), None);
        assert_eq!(request.target(), "/b");
        assert_eq!(request.body, "");
        assert_eq!(
            request.headers().iter().collect::<Vec<_>>(),
            [("host", "h")]
        );
        assert!(reader.is_empty());
    }

    #[test]
    fn a_vectored_write_survives_short_writes() {
        /// Takes at most three bytes per call, from the first buffer only.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let response = Response::ok("hello, body\n", "text/plain").traced(TraceId::mint());
        let mut whole = Vec::new();
        response.write_conn(&mut whole, true).expect("write");
        let mut trickle = Trickle(Vec::new());
        response.write_conn(&mut trickle, true).expect("write");
        assert_eq!(trickle.0, whole);
    }

    /// The reader this module had before heads were read in place, kept
    /// verbatim as the oracle of the one above.
    mod oracle {
        use super::super::{HttpError, MAX_BODY_BYTES, MAX_HEAD_BYTES};
        use std::io::{BufRead, ErrorKind, Read};

        #[derive(Debug, PartialEq, Eq)]
        pub(super) struct Request {
            pub method: String,
            pub path: String,
            pub query: Option<String>,
            pub headers: Vec<(String, String)>,
            pub body: String,
        }

        #[derive(Debug, PartialEq, Eq)]
        pub(super) struct HttpReply {
            pub status: u16,
            pub headers: Vec<(String, String)>,
            pub body: String,
        }

        fn header_in<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
            headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        }

        fn io(e: std::io::Error) -> HttpError {
            if e.kind() == ErrorKind::UnexpectedEof {
                HttpError::ClosedEarly
            } else {
                HttpError::Io(e)
            }
        }

        /// Read and parse one request from `reader`. The reader is positioned
        /// exactly past the head's terminating blank line — plus any declared
        /// body — on success, so a keep-alive server can call this again on the
        /// same reader for the next request. Bodies are read eagerly when a
        /// `Content-Length` header is present (capped at `MAX_BODY_BYTES`) and
        /// must be UTF-8; the API's only body-bearing requests carry profile text.
        ///
        /// # Errors
        ///
        /// See [`HttpError`].
        pub(super) fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
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
        pub(super) fn read_reply<R: BufRead>(reader: &mut R) -> Result<HttpReply, HttpError> {
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
                let buf = reader.fill_buf().map_err(io)?;
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
                reader.read_exact(&mut body).map_err(io)?;
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
                    if !method.is_empty()
                        && !target.is_empty()
                        && version.starts_with("HTTP/1.") =>
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
        /// obsolete line folding (a line starting with whitespace) is rejected, and
        /// so is any C0 control byte but HTAB in a name or value (RFC 9110 §5.5): a
        /// bare CR or a NUL would otherwise reach a head the gateway writes.
        fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
            let malformed = || HttpError::Malformed(format!("malformed header line {line:?}"));
            let (name, value) = line.split_once(':').ok_or_else(malformed)?;
            if name.is_empty()
                || name.contains(|c: char| c.is_ascii_whitespace())
                || line.bytes().any(|b| b < b' ' && b != b'\t')
            {
                return Err(malformed());
            }
            Ok((name.to_ascii_lowercase(), value.trim().to_owned()))
        }
    }

    /// Start lines, header lines and bodies — well-formed, odd and broken —
    /// so that generated streams reach every branch of both readers.
    const STARTS: &[&str] = &[
        "GET /a HTTP/1.1\r\n",
        "get /v1/p?x=1&t=2 HTTP/1.0\r\n",
        "POST /b?c HTTP/1.1\r\n",
        "HTTP/1.1 200 OK\r\n",
        "HTTP/1.0 503 Busy\n",
        "GET  / HTTP/1.1\r\n",
        "",
    ];
    const HEADER_LINES: &[&str] = &[
        "Host: h\r\n",
        "X-Cactus-Trace: 00000000deadbeef\r\n",
        "content-length: 3\r\n",
        "Content-Length: 0\r\n",
        "CONTENT-LENGTH:  5 \n",
        "content-length: x\r\n",
        "transfer-encoding: chunked\r\n",
        "connection: close\r\n",
        "Retry-After: 2\r\n",
        "x-ref: http://e:8080/p\r\n",
        "X-\u{3b1}: \u{3b2}\r\n",
        "x-sp: \u{a0}v\u{3000}\r\n",
        "x-tab:\ta\tb \r\n",
        "x-e: \u{e9}\r\r\n",
        "no colon\r\n",
        ": empty\r\n",
        "bad name: v\r\n",
        " folded\r\n",
        "x-cr: a\rb\r\n",
        "x-nul: a\0b\r\n",
    ];
    const BODIES: &[&str] = &["", "abc", "hello", "abcde", "\u{e9}\u{e9}"];

    /// One message: a start line, header lines (one in six with raw bytes
    /// spliced in), a terminator and a body.
    fn message() -> impl proptest::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        let line = (
            proptest::sample::select(HEADER_LINES),
            0u32..6,
            0u32..64,
            prop::collection::vec(0u32..256, 1..4),
        )
            .prop_map(|(line, pick, at, raw)| {
                let mut line = line.as_bytes().to_vec();
                if pick == 0 {
                    let at = at as usize % (line.len() + 1);
                    line.splice(at..at, raw.into_iter().map(|b| b as u8));
                }
                line
            });
        (
            proptest::sample::select(STARTS),
            prop::collection::vec(line, 0..6),
            proptest::sample::select(&["\r\n", "\n", "\r\r\n", ""]),
            proptest::sample::select(BODIES),
        )
            .prop_map(|(start, lines, blank, body)| {
                let mut raw = start.as_bytes().to_vec();
                raw.extend(lines.concat());
                raw.extend_from_slice(blank.as_bytes());
                raw.extend_from_slice(body.as_bytes());
                raw
            })
    }

    /// A stream of one to three messages.
    fn stream() -> impl proptest::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        prop::collection::vec(message(), 1..4).prop_map(|messages| messages.concat())
    }

    fn pairs(headers: Headers<'_>) -> Vec<(String, String)> {
        headers
            .iter()
            .map(|(n, v)| (n.to_owned(), v.to_owned()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8192))]

        /// Over one stream of messages read until the first error, one
        /// reused `Request` reads what the old reader read — method, path,
        /// query, headers, body and the position left behind — or both fail.
        #[test]
        fn the_request_reader_reads_what_the_old_one_read(raw in stream()) {
            let (mut new_rest, mut old_rest) = (&raw[..], &raw[..]);
            let mut request = Request::default();
            loop {
                let new = read_request_into(&mut new_rest, &mut request);
                let old = oracle::read_request(&mut old_rest);
                match (new, old) {
                    (Ok(()), Ok(old)) => {
                        proptest::prop_assert_eq!(
                            (request.method(), &request.path, request.query(), pairs(request.headers()), &request.body),
                            (old.method.as_str(), &old.path, old.query.as_deref(), old.headers, &old.body)
                        );
                        let target = old.query.map_or(old.path.clone(), |q| format!("{}?{q}", old.path));
                        proptest::prop_assert_eq!(request.target(), target);
                        proptest::prop_assert_eq!(new_rest, old_rest);
                    }
                    (Err(_), Err(_)) => break,
                    (new, old) => proptest::prop_assert!(false, "new {:?} vs old {:?}", new.map(|()| &request), old),
                }
            }
        }

        /// The same for replies, each head read into one kept buffer.
        #[test]
        fn the_reply_reader_reads_what_the_old_one_read(raw in stream()) {
            let (mut new_rest, mut old_rest) = (&raw[..], &raw[..]);
            let mut head = Head::default();
            loop {
                let new = read_reply_into(&mut new_rest, &mut head);
                let old = oracle::read_reply(&mut old_rest);
                match (new, old) {
                    (Ok(new), Ok(old)) => {
                        proptest::prop_assert_eq!(
                            (new.status, pairs(new.headers()), &new.body),
                            (old.status, old.headers, &old.body)
                        );
                        proptest::prop_assert_eq!(new_rest, old_rest);
                    }
                    (Err(_), Err(_)) => break,
                    (new, old) => proptest::prop_assert!(false, "new {:?} vs old {:?}", new, old),
                }
            }
        }
    }
}
