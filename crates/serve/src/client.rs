//! Typed client for the daemon, used by the integration tests, the
//! `loadgen` binary, and the gateway's backend connection pool.
//!
//! One transport: [`Connection`] keeps one `TcpStream` alive across
//! sequential requests, honoring the server's `Connection: close` and
//! redialing once when a reused stream turns out to have been closed by the
//! server (its idle timeout) before any reply byte; a [`Client`] call is one
//! exchange on a fresh `Connection`. Replies are read by
//! `crate::http::read_reply_into`, under the same head and body bounds the
//! server applies to requests, so a malformed, oversized or unframeable
//! reply is [`ClientError::Parse`]. The profile endpoint's body is the
//! bit-exact `cactus_profiler::store` serialization, so [`Client::profile`]
//! hands back a fully typed [`Profile`] without a JSON layer.
//!
//! Replies on the `/v1` surface carry structured errors: a non-200 whose
//! body parses as the shared JSON envelope surfaces as
//! [`ClientError::Api`], so callers branch on `code`/`retryable` instead of
//! string-matching. `/v1/metricsz` pages go through the one strict
//! exposition parser in `cactus_obs` — a malformed or duplicated sample is
//! an error naming the line, never a silently dropped entry.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cactus_gpu::catalog::CatalogEntry;
use cactus_obs::{expo, ApiError, Exposition, TraceId, TRACE_HEADER};
use cactus_profiler::store::read_profile;
use cactus_profiler::Profile;

pub use crate::http::HttpReply;
use crate::http::{read_reply_into, Head, HttpError};
use crate::wire::{self, CompareRow, DeviceEntry, SimilarHit};

impl HttpReply {
    /// Convert a non-200 reply into the most structured error available:
    /// the parsed envelope when the body is one, the raw body otherwise.
    fn into_error(self) -> ClientError {
        match ApiError::from_json(&self.body) {
            Some(envelope) => ClientError::Api(envelope),
            None => ClientError::Status(self.status, self.body),
        }
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered with a structured `/v1` error envelope.
    Api(ApiError),
    /// The server answered non-200 without a parseable envelope.
    Status(u16, String),
    /// A reply the message reader rejected (malformed, oversized or
    /// unframeable), or a 200 body that did not parse as the expected type.
    Parse(String),
}

impl ClientError {
    /// The HTTP status carried by this error, if it was a server answer.
    #[must_use]
    pub fn status(&self) -> Option<u16> {
        match self {
            ClientError::Api(e) => Some(e.code),
            ClientError::Status(code, _) => Some(*code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Api(e) => write!(f, "{e}"),
            ClientError::Status(code, body) => {
                write!(f, "unexpected status {code}: {}", body.trim())
            }
            ClientError::Parse(msg) => write!(f, "unparseable body: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A reply cut short is a transport failure; one the reader rejected is a
/// parse failure.
impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::Io(e) => ClientError::Io(e),
            HttpError::ClosedEarly => {
                ClientError::Io(std::io::Error::new(ErrorKind::UnexpectedEof, e.to_string()))
            }
            other => ClientError::Parse(other.to_string()),
        }
    }
}

/// A device id validated against the [`cactus_gpu::catalog`]: holds the
/// canonical catalog spelling, so a `DeviceId` in a query can only name a
/// device the fleet could model. Raw strings stop at [`DeviceId::resolve`]
/// — typos surface there as a structured 404, not as a wasted round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(&'static str);

impl DeviceId {
    /// Resolve a raw slug (case-insensitive) to its canonical catalog id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with a 404 envelope naming the catalog when
    /// the slug is not a catalog id — the same shape the server would
    /// answer, so callers handle local and remote rejection identically.
    pub fn resolve(slug: &str) -> Result<Self, ClientError> {
        match cactus_gpu::by_id(slug) {
            Some(entry) => Ok(Self::from(entry)),
            None => Err(ClientError::Api(ApiError::new(
                404,
                format!(
                    "unknown device {slug:?}; the catalog has: {}",
                    cactus_gpu::catalog::device_ids().join(", ")
                ),
            ))),
        }
    }

    /// The canonical catalog spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

/// A catalog entry's id needs no resolving.
impl From<&CatalogEntry> for DeviceId {
    fn from(entry: &CatalogEntry) -> Self {
        Self(entry.id)
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::str::FromStr for DeviceId {
    type Err = ClientError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::resolve(s)
    }
}

/// One profile request on the `/v1` surface, by URL slugs.
#[derive(Debug, Clone, Copy)]
pub struct ProfileQuery<'a> {
    /// Catalog-validated device id, e.g. `rtx-3080`.
    pub device: DeviceId,
    /// Scale slug: `tiny`, `small`, or `profile`.
    pub scale: &'a str,
    /// Workload name, e.g. `GMS`.
    pub workload: &'a str,
}

/// One reference similarity query on `/v1/similar`, by URL slugs.
#[derive(Debug, Clone, Copy)]
pub struct SimilarQuery<'a> {
    /// Catalog-validated device id, e.g. `rtx-3080`.
    pub device: DeviceId,
    /// Scale slug: `tiny`, `small`, or `profile`.
    pub scale: &'a str,
    /// Workload name, e.g. `GMS`.
    pub workload: &'a str,
    /// Kernel to search for (`None` = the profile's dominant kernel).
    pub kernel: Option<&'a str>,
    /// Neighbors to return (`None` = the server default).
    pub k: Option<usize>,
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
}

impl Client {
    /// A client for `addr` with a 30 s I/O timeout.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            timeout: Duration::from_secs(30),
        }
    }

    /// Override the connect/read/write timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// A keep-alive connection to the same address and timeout.
    #[must_use]
    pub fn connection(&self) -> Connection {
        Connection::new(self.addr, self.timeout)
    }

    /// Issue one `GET path` and parse the reply (whatever its status).
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable response heads.
    pub fn get(&self, path: &str) -> Result<HttpReply, ClientError> {
        self.get_traced(path, None)
    }

    /// Like [`Client::get`], propagating `trace` via the `x-cactus-trace`
    /// header so the server joins this request's span tree instead of
    /// minting a fresh id.
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable response heads.
    pub fn get_traced(&self, path: &str, trace: Option<TraceId>) -> Result<HttpReply, ClientError> {
        self.connection().get_traced(path, trace)
    }

    /// Issue one `POST path` with a text body and parse the reply
    /// (whatever its status). Used to push store records between nodes.
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable response heads.
    pub fn post_traced(
        &self,
        path: &str,
        body: &str,
        trace: Option<TraceId>,
    ) -> Result<HttpReply, ClientError> {
        self.connection().post_traced(path, body, trace)
    }

    /// `GET path`: the body of a `200`, or the reply as an error.
    fn get_ok(&self, path: &str) -> Result<String, ClientError> {
        let reply = self.get(path)?;
        if reply.status != 200 {
            return Err(reply.into_error());
        }
        Ok(reply.body)
    }

    /// `GET /v1/healthz`, true on `200 ok`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; a non-200 yields `Ok(false)`.
    pub fn healthz(&self) -> Result<bool, ClientError> {
        Ok(self.get("/v1/healthz")?.status == 200)
    }

    /// `GET /v1/devices` as typed catalog rows, each flagged with whether
    /// the answering backend models it.
    ///
    /// # Errors
    ///
    /// Transport errors, non-200 statuses (as [`ClientError::Api`] when the
    /// server sent the envelope), and unparseable bodies.
    pub fn devices(&self) -> Result<Vec<DeviceEntry>, ClientError> {
        wire::read_devices(&self.get_ok("/v1/devices")?)
    }

    /// `GET /v1/compare/<scale>/<workload>?devices=...&format=csv` as
    /// typed per-`(device, kernel)` roofline rows. Served by the gateway,
    /// which fans the triple out to one owning backend per device.
    ///
    /// # Errors
    ///
    /// Transport errors, non-200 statuses (as [`ClientError::Api`] when the
    /// server sent the envelope), and unparseable bodies.
    pub fn compare(
        &self,
        scale: &str,
        workload: &str,
        devices: &[DeviceId],
    ) -> Result<Vec<CompareRow>, ClientError> {
        let ids: Vec<&str> = devices.iter().map(|d| d.as_str()).collect();
        wire::read_compare(&self.get_ok(&format!(
            "/v1/compare/{scale}/{workload}?devices={}&format=csv",
            ids.join(",")
        ))?)
    }

    /// `GET /v1/metricsz` strictly parsed through the shared exposition
    /// parser.
    ///
    /// # Errors
    ///
    /// Transport errors, a non-200 status, or a malformed page —
    /// duplicate or unparsable samples are [`ClientError::Parse`] (with
    /// the offending line), never silently dropped.
    pub fn metrics(&self) -> Result<Exposition, ClientError> {
        expo::parse(&self.get_ok("/v1/metricsz")?).map_err(|e| ClientError::Parse(e.to_string()))
    }

    /// Fetch one profile as a typed [`Profile`].
    ///
    /// # Errors
    ///
    /// Transport errors, non-200 statuses (as [`ClientError::Api`] when the
    /// server sent the envelope), and unparseable bodies.
    pub fn profile(&self, query: ProfileQuery<'_>) -> Result<Profile, ClientError> {
        let ProfileQuery {
            device,
            scale,
            workload,
        } = query;
        read_profile(&self.get_ok(&format!("/v1/profile/{device}/{scale}/{workload}"))?)
            .map_err(|e| ClientError::Parse(e.to_string()))
    }

    /// Reference similarity query: ingest-and-search one profile's kernels
    /// via `/v1/similar?device=&scale=&workload=`.
    ///
    /// # Errors
    ///
    /// Transport errors, non-200 statuses (as [`ClientError::Api`] when the
    /// server sent the envelope), and unparseable bodies.
    pub fn similar(&self, query: SimilarQuery<'_>) -> Result<Vec<SimilarHit>, ClientError> {
        let SimilarQuery {
            device,
            scale,
            workload,
            kernel,
            k,
        } = query;
        let mut path = format!("/v1/similar?device={device}&scale={scale}&workload={workload}");
        if let Some(kernel) = kernel {
            path.push_str(&format!("&kernel={kernel}"));
        }
        if let Some(k) = k {
            path.push_str(&format!("&k={k}"));
        }
        wire::read_similar(&self.get_ok(&path)?)
    }

    /// Inline similarity query: search for an explicit `MetricId::ALL`-order
    /// metric vector via `/v1/similar?vector=`.
    ///
    /// # Errors
    ///
    /// Transport errors, non-200 statuses (including the `400` an unseeded
    /// index answers), and unparseable bodies.
    pub fn similar_vector(
        &self,
        vector: &[f64],
        k: Option<usize>,
    ) -> Result<Vec<SimilarHit>, ClientError> {
        let joined = vector
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut path = format!("/v1/similar?vector={joined}");
        if let Some(k) = k {
            path.push_str(&format!("&k={k}"));
        }
        wire::read_similar(&self.get_ok(&path)?)
    }
}

/// Serialize one full keep-alive request — head plus optional body — into
/// `wire` (emptied first; a buffer the connection keeps), for a single
/// `write_all` (see call sites). An empty `body` emits no `content-length`
/// header, matching the server's GET-only fast path.
fn request_wire(
    wire: &mut String,
    method: &str,
    path: &str,
    addr: SocketAddr,
    trace: Option<TraceId>,
    body: &str,
) {
    use std::fmt::Write as _;
    wire.clear();
    // Writing into a `String` cannot fail.
    let _ = write!(
        wire,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: keep-alive\r\n"
    );
    if let Some(trace) = trace {
        let _ = write!(wire, "{TRACE_HEADER}: {trace}\r\n");
    }
    if !body.is_empty() {
        let _ = write!(wire, "content-length: {}\r\n", body.len());
    }
    wire.push_str("\r\n");
    wire.push_str(body);
}

/// Dial `addr` within `connect`, with `timeout` on read and write.
fn dial(
    addr: SocketAddr,
    connect: Duration,
    timeout: Duration,
) -> std::io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect_timeout(&addr, connect)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(BufReader::new(stream))
}

/// What [`Connection::send`] saw while waiting for the reply to begin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sent {
    /// The reply's first byte is buffered; [`Connection::finish`] reads it.
    Ready,
    /// The stall wait ran out with nothing read: the request is still in
    /// flight, and [`Connection::finish`] waits for it under the
    /// connection's full timeout.
    InFlight,
}

/// A keep-alive connection: one `TcpStream`, and the buffers its requests
/// are written from and its reply heads read into, reused across
/// sequential requests.
///
/// The stream dials lazily on the first request. After each reply the
/// connection stays open unless the server answered `Connection: close`, in
/// which case the next request redials. One rule redials mid-request, in
/// [`send`](Self::send) alone and at most once: when a *reused* stream
/// shows that the server had closed it (`owes_redial`). A fresh dial's
/// failure, a timeout and a malformed reply surface at once, so a dead or
/// stalled server is never masked and costs one bound, and a request the
/// server may have read is not sent again (RFC 9110 §9.2.2).
///
/// An exchange is two halves — [`send`](Self::send) writes the request and
/// waits for the reply to begin, [`finish`](Self::finish) reads it — so a
/// caller can notice a stalled backend between them and move the
/// connection to another thread with the request still in flight.
/// [`get_traced`](Self::get_traced) and [`post_traced`](Self::post_traced)
/// are the two halves back to back.
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    timeout: Duration,
    /// Bound on one dial; the I/O `timeout` unless
    /// [`with_dial_timeout`](Self::with_dial_timeout) set it.
    dial_timeout: Duration,
    stream: Option<BufReader<TcpStream>>,
    /// The last request written; while `in_flight`, the one not yet
    /// answered.
    wire: String,
    /// Whether a request is written but its reply not yet read.
    in_flight: bool,
    /// The last reply's head.
    head: Head,
    dials: u64,
    reuses: u64,
}

impl Connection {
    /// A lazily-dialed keep-alive connection to `addr`, with `timeout` on
    /// connect, read and write.
    #[must_use]
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            dial_timeout: timeout,
            stream: None,
            wire: String::new(),
            in_flight: false,
            head: Head::default(),
            dials: 0,
            reuses: 0,
        }
    }

    /// Bound every dial by `dial` instead of the I/O timeout, so a peer
    /// whose accept queue is full costs at most `dial` per attempt.
    #[must_use]
    pub fn with_dial_timeout(mut self, dial: Duration) -> Self {
        self.dial_timeout = dial;
        self
    }

    /// The remote address this connection dials.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a live, idle stream is currently held (i.e. the next request
    /// will reuse it instead of dialing).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.stream.is_some() && !self.in_flight
    }

    /// TCP connections dialed over this connection's lifetime.
    #[must_use]
    pub fn dials(&self) -> u64 {
        self.dials
    }

    /// Requests that reused an already-open stream.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Issue one `GET path`, reusing the open stream when possible.
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable replies (see [`Connection`] for the
    /// one redial).
    pub fn get(&mut self, path: &str) -> Result<HttpReply, ClientError> {
        self.get_traced(path, None)
    }

    /// Like [`Connection::get`], propagating `trace` via the
    /// `x-cactus-trace` header.
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable replies (see [`Connection`] for the
    /// one redial).
    pub fn get_traced(
        &mut self,
        path: &str,
        trace: Option<TraceId>,
    ) -> Result<HttpReply, ClientError> {
        self.request("GET", path, "", trace)
    }

    /// Issue one `POST path` with a text body, reusing the open stream
    /// when possible. Used by the gateway to push store records to
    /// backends (its repair pass).
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable replies (see [`Connection`] for the
    /// one redial).
    pub fn post_traced(
        &mut self,
        path: &str,
        body: &str,
        trace: Option<TraceId>,
    ) -> Result<HttpReply, ClientError> {
        self.request("POST", path, body, trace)
    }

    /// One whole exchange — [`send`](Self::send) with no stall wait, then
    /// [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable replies (see [`Connection`] for the
    /// one redial).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        trace: Option<TraceId>,
    ) -> Result<HttpReply, ClientError> {
        self.send(method, path, body, trace, None)?;
        self.finish()
    }

    /// First half of an exchange: write the request (empty `body` = none)
    /// and wait for the reply's first byte — at most `stall` when given and
    /// shorter than the connection's timeout, else the full timeout. Nothing
    /// of the reply is consumed either way.
    ///
    /// # Errors
    ///
    /// Socket errors, after the one redial a stale reused stream is owed
    /// (`owes_redial`). A wait that outlasts the full timeout is an
    /// error; outlasting `stall` is [`Sent::InFlight`].
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        trace: Option<TraceId>,
        stall: Option<Duration>,
    ) -> Result<Sent, ClientError> {
        if std::mem::take(&mut self.in_flight) {
            // An abandoned exchange left its reply unread on the stream.
            self.stream = None;
        }
        request_wire(&mut self.wire, method, path, self.addr, trace, body);
        let reused = self.stream.is_some();
        let sent = match self.begin(stall) {
            Err(e) if owes_redial(reused, &e) => self.begin(stall),
            sent => {
                self.reuses += u64::from(reused && sent.is_ok());
                sent
            }
        };
        self.in_flight = sent.is_ok();
        sent
    }

    /// Second half of an exchange: read the reply to the request
    /// [`send`](Self::send) wrote, under the connection's full timeout,
    /// keeping the stream open unless the server said `Connection: close`
    /// or the read failed. Never redials: the server may have read the
    /// request.
    ///
    /// # Errors
    ///
    /// Socket errors and unparseable replies; an error when no request is
    /// in flight.
    pub fn finish(&mut self) -> Result<HttpReply, ClientError> {
        let (true, Some(reader)) = (std::mem::take(&mut self.in_flight), &mut self.stream) else {
            return Err(ClientError::Io(std::io::Error::other(
                "finish() without a request in flight",
            )));
        };
        let reply = read_reply_into(reader, &mut self.head).map_err(ClientError::from);
        if !matches!(&reply, Ok(r) if !r.connection_close()) {
            self.stream = None;
        }
        reply
    }

    /// [`write_and_wait`] of the request in `wire` on the open stream,
    /// dialing when there is none. The stream is dropped on any error.
    fn begin(&mut self, stall: Option<Duration>) -> Result<Sent, ClientError> {
        let reader = match &mut self.stream {
            Some(reader) => reader,
            empty => {
                let reader = empty.insert(dial(self.addr, self.dial_timeout, self.timeout)?);
                self.dials += 1;
                reader
            }
        };
        let stall = stall.filter(|s| *s < self.timeout);
        let sent = write_and_wait(reader, &self.wire, stall);
        if sent.is_err() {
            self.stream = None;
        }
        Ok(sent?)
    }
}

/// Whether a failed [`Connection::send`] is owed its one redial: only on a
/// reused stream whose failure shows the server had closed it — EOF, a
/// reset, an abort or a broken pipe, met by the write or before the reply's
/// first byte. A timeout is a live server that may have read the request,
/// and a parse error is a reply; neither is sent again.
fn owes_redial(reused: bool, err: &ClientError) -> bool {
    use ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
    reused
        && matches!(err, ClientError::Io(e)
            if matches!(e.kind(), UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe))
}

/// Write `wire` and block until the reply's first byte is buffered,
/// consuming nothing. With `stall` set, an empty buffer first waits at most
/// that long for the socket to turn readable ([`crate::net::readable_within`]);
/// the read that follows runs under the stream's own full timeout, so EOF
/// and socket errors surface through it either way.
fn write_and_wait(
    reader: &mut BufReader<TcpStream>,
    wire: &str,
    stall: Option<Duration>,
) -> std::io::Result<Sent> {
    // One write_all per request: fragment-per-write on a raw socket
    // triggers Nagle + delayed-ACK stalls (~40 ms) on the peer.
    reader.get_mut().write_all(wire.as_bytes())?;
    if let Some(stall) = stall {
        if reader.buffer().is_empty() && !crate::net::readable_within(reader.get_ref(), stall)? {
            return Ok(Sent::InFlight);
        }
    }
    let first = loop {
        match reader.fill_buf() {
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            other => break other.map(|buf| !buf.is_empty()),
        }
    };
    if first? {
        Ok(Sent::Ready)
    } else {
        Err(ErrorKind::UnexpectedEof.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_reply;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::time::Instant;

    #[test]
    fn parses_reply_head_and_body() {
        let raw = "HTTP/1.1 503 Service Unavailable\r\ncontent-type: text/plain\r\nretry-after: 2\r\n\r\nbusy\n";
        let reply = read_reply(&mut raw.as_bytes()).expect("parse");
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("Content-Type"), Some("text/plain"));
        assert_eq!(reply.retry_after_s(), Some(2));
        assert_eq!(reply.body, "busy\n");
        assert!(!reply.connection_close());
    }

    #[test]
    fn content_length_bounds_the_body_for_keep_alive() {
        let raw = "HTTP/1.1 200 OK\r\ncontent-length: 3\r\nconnection: keep-alive\r\n\r\nabcHTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nxy";
        let mut reader = raw.as_bytes();
        let first = read_reply(&mut reader).expect("first");
        assert_eq!(first.body, "abc");
        assert!(!first.connection_close());
        let second = read_reply(&mut reader).expect("second");
        assert_eq!(second.body, "xy");
        assert!(second.connection_close());
    }

    /// Odd header blocks, after either start line: the same header-line
    /// rule, terminator rule, framing headers and body bounds apply.
    const ODD_HEADERS: &[&str] = &[
        "Content-Type: text/plain\r\n",
        "content-length: 5\r\n",
        "CONTENT-LENGTH:  3 \n",
        "Content-Length: x\r\n",
        "Retry-After: 2\r\n",
        "connection: close\r\n",
        "no colon here\r\n",
        "x-cactus-trace:: a:b\r\n",
        "  Spaced-Name :  v  \r\r\n",
        "X-\u{3b1}: \u{3b2}\r\n",
        "Transfer-Encoding: chunked\r\n",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// A header block is accepted behind a status line exactly when it
        /// is accepted behind a request line, to the same header list or
        /// the same error, and leaves the reader at the same place — except
        /// that without a `Content-Length` the reply runs to EOF while the
        /// request has no body.
        #[test]
        fn a_reply_head_reads_like_a_request_head(
            headers in proptest::prelude::prop::collection::vec(
                proptest::sample::select(ODD_HEADERS),
                0..6,
            ),
            blank in proptest::sample::select(&["\r\n", "\n", "\r\r\n", ""]),
            body in proptest::sample::select(&[
                "", "abc", "hello", "abcHTTP/1.1 200 OK\r\ncontent-length: 1\r\n\r\nz",
            ]),
        ) {
            let block = format!("{}{blank}{body}", headers.concat());
            let (reply_wire, request_wire) =
                (format!("HTTP/1.1 200 OK\r\n{block}"), format!("GET / HTTP/1.1\r\n{block}"));
            let (mut reply_rest, mut request_rest) =
                (reply_wire.as_bytes(), request_wire.as_bytes());
            let reply = read_reply(&mut reply_rest);
            let request = crate::http::read_request(&mut request_rest);
            proptest::prop_assert_eq!(
                reply.as_ref().map(|r| r.headers()).map_err(ToString::to_string),
                request.as_ref().map(|r| r.headers()).map_err(ToString::to_string)
            );
            match (&reply, &request) {
                (Ok(reply), Ok(request))
                    if !request
                        .headers()
                        .iter()
                        .any(|(k, _)| k.eq_ignore_ascii_case("content-length")) =>
                {
                    proptest::prop_assert!(request.body.is_empty());
                    proptest::prop_assert_eq!(reply.body.as_bytes(), request_rest);
                    proptest::prop_assert!(reply_rest.is_empty());
                }
                (Ok(reply), Ok(request)) => {
                    proptest::prop_assert_eq!(&reply.body, &request.body);
                    proptest::prop_assert_eq!(reply_rest, request_rest);
                }
                _ => proptest::prop_assert_eq!(reply_rest, request_rest),
            }
        }

        /// The reply-side twin of the request parser's totality property:
        /// arbitrary bytes are a reply or a typed error, never a panic.
        #[test]
        fn arbitrary_bytes_never_panic_read_reply(
            raw in proptest::prelude::prop::collection::vec(0u32..256, 0..256),
        ) {
            let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            // A reply or a typed error — reaching this line is the property.
            let _ = read_reply(&mut bytes.as_slice());
        }
    }

    #[test]
    fn status_lines_are_read_strictly() {
        for (line, status) in [
            ("HTTP/1.1 200 OK\r\n", Some(200)),
            ("HTTP/1.1 503 Busy\n", Some(503)),
            ("HTTP/1.0 404 Not Found\r\r\n", Some(404)),
            ("HTTP/1.1 204\r\n", Some(204)),
            ("garbage\r\n", None),
            ("HTTP/1.1 70000 Big\r\n", None),
            ("HTTP/1.1 +20 Signed\r\n", None),
            ("HTTP/1.1  200 Spaced\r\n", None),
            ("HTTP/1.1 \u{e9}200 OK\r\n", None),
            ("SMTP/1.1 200 OK\r\n", None),
        ] {
            let wire = format!("{line}content-length: 0\r\n\r\n");
            match read_reply(&mut wire.as_bytes()) {
                Ok(reply) => assert_eq!(Some(reply.status), status, "{line:?}"),
                Err(HttpError::Malformed(msg)) => {
                    assert_eq!(status, None, "{line:?}: {msg}");
                    assert!(msg.starts_with("malformed status line"), "{msg}");
                }
                Err(other) => panic!("{line:?}: {other:?}"),
            }
        }
        assert!(matches!(
            read_reply(&mut "".as_bytes()),
            Err(HttpError::ClosedEarly)
        ));
    }

    #[test]
    fn replies_past_the_bounds_are_parse_errors() {
        let huge_length = "HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\nx";
        let huge_head = format!(
            "HTTP/1.1 200 OK\r\nx-pad: {}\r\ncontent-length: 0\r\n\r\n",
            "p".repeat(crate::http::MAX_HEAD_BYTES)
        );
        let huge_body = format!(
            "HTTP/1.1 200 OK\r\n\r\n{}",
            "b".repeat(crate::http::MAX_BODY_BYTES + 1)
        );
        let chunked = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n1\r\nx\r\n0\r\n\r\n";
        for wire in [huge_length, &huge_head, &huge_body, chunked] {
            let err = read_reply(&mut wire.as_bytes()).map_err(ClientError::from);
            assert!(
                matches!(err, Err(ClientError::Parse(_))),
                "{:?}: {err:?}",
                &wire[..wire.len().min(60)]
            );
        }
        // A close-delimited body of exactly the cap is still a reply.
        let at_cap = format!(
            "HTTP/1.1 200 OK\r\n\r\n{}",
            "b".repeat(crate::http::MAX_BODY_BYTES)
        );
        let reply = read_reply(&mut at_cap.as_bytes()).expect("a body at the cap");
        assert_eq!(reply.body.len(), crate::http::MAX_BODY_BYTES);
    }

    /// A backend cannot smuggle a header into the head the gateway writes:
    /// a bare CR inside a reply's header value is a parse error, which the
    /// router fails over from, not a value it relays.
    #[test]
    fn a_bare_cr_in_a_reply_header_is_a_parse_error() {
        let wire = "HTTP/1.1 200 OK\r\ncontent-type: text/plain\rx-injected: 1\r\ncontent-length: 2\r\n\r\nok";
        let err = read_reply(&mut wire.as_bytes()).map_err(ClientError::from);
        assert!(matches!(err, Err(ClientError::Parse(_))), "{err:?}");
    }

    #[test]
    fn rejects_torn_replies() {
        assert!(read_reply(&mut "HTTP/1.1 200 OK\r\n".as_bytes()).is_err());
        assert!(read_reply(&mut "garbage\r\n\r\nbody".as_bytes()).is_err());
        assert!(read_reply(&mut "".as_bytes()).is_err());
    }

    #[test]
    fn envelope_bodies_become_api_errors() {
        let reply = HttpReply {
            status: 503,
            body: ApiError::new(503, "saturated").to_json(),
            ..HttpReply::default()
        };
        match reply.into_error() {
            ClientError::Api(e) => {
                assert_eq!(e.code, 503);
                assert!(e.retryable);
            }
            other => panic!("expected Api error, got {other:?}"),
        }
        let raw = HttpReply {
            status: 500,
            body: "plain text\n".to_owned(),
            ..HttpReply::default()
        };
        assert!(matches!(raw.into_error(), ClientError::Status(500, _)));
    }

    /// Run `script` over a listener on an ephemeral port, return its address.
    fn scripted_server(script: impl FnOnce(TcpListener) + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || script(listener));
        addr
    }

    fn accept(listener: &TcpListener) -> TcpStream {
        listener.accept().expect("accept").0
    }

    /// Read one request head; panics when the peer closes first.
    fn read_request(stream: &mut TcpStream) {
        let mut head = Vec::new();
        let mut buf = [0u8; 2048];
        while !head.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = stream.read(&mut buf).expect("request bytes");
            assert!(n > 0, "peer closed mid-request");
            head.extend_from_slice(&buf[..n]);
        }
    }

    fn answer(stream: &mut TcpStream, body: &str, connection: &str) {
        let wire = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
            body.len(),
        );
        stream.write_all(wire.as_bytes()).expect("answer");
    }

    /// Accept every later connection, read its request, count it on
    /// `reads` and hold it unanswered: what a redial would meet.
    fn count_redials(listener: &TcpListener, reads: &mpsc::Sender<()>) {
        let mut held = Vec::new();
        for mut redialed in listener.incoming().flatten() {
            read_request(&mut redialed);
            reads.send(()).expect("count");
            held.push(redialed);
        }
    }

    /// Serve one canned response on an ephemeral port, return its address.
    fn one_shot_server(body: &'static str) -> SocketAddr {
        scripted_server(move |listener| {
            let mut stream = accept(&listener);
            read_request(&mut stream);
            answer(&mut stream, body, "close");
        })
    }

    const STALL: Option<Duration> = Some(Duration::from_millis(10));
    const NO_STALL: Option<Duration> = Some(Duration::from_secs(4));

    fn connection(addr: SocketAddr) -> Connection {
        Connection::new(addr, Duration::from_secs(5))
    }

    #[test]
    fn a_stall_leaves_the_request_in_flight_and_finish_reads_it_whole() {
        let (release, released) = mpsc::channel::<()>();
        let addr = scripted_server(move |listener| {
            let mut stream = accept(&listener);
            for held_back in [true, false, false] {
                read_request(&mut stream);
                if held_back {
                    released.recv().expect("release");
                }
                answer(&mut stream, "payload\n", "keep-alive");
            }
        });
        let mut conn = connection(addr);
        let sent = conn.send("GET", "/x", "", None, STALL).expect("send");
        assert_eq!(sent, Sent::InFlight);
        assert!(!conn.is_connected(), "an in-flight stream is not idle");
        release.send(()).expect("release");
        let stalled = conn.finish().expect("finish");
        assert!(conn.is_connected());
        // The same reply read in one go: the stalled wait consumed nothing.
        let whole = conn.get("/x").expect("get");
        assert_eq!(stalled, whole);
        assert_eq!(whole.body, "payload\n");
        let sent = conn.send("GET", "/x", "", None, NO_STALL).expect("send");
        assert_eq!(sent, Sent::Ready);
        assert_eq!(conn.finish().expect("finish"), whole);
        assert_eq!((conn.dials(), conn.reuses()), (1, 2));
        assert!(conn.finish().is_err(), "nothing left in flight");
    }

    #[test]
    fn a_stale_reused_stream_is_redialed_once_in_the_wait_half() {
        let (reaped_tx, reaped) = mpsc::channel::<()>();
        let addr = scripted_server(move |listener| {
            let mut first = accept(&listener);
            read_request(&mut first);
            answer(&mut first, "one\n", "keep-alive");
            drop(first);
            reaped_tx.send(()).expect("signal");
            let mut second = accept(&listener);
            for body in ["two\n", "three\n"] {
                read_request(&mut second);
                answer(&mut second, body, "keep-alive");
            }
        });
        let mut conn = connection(addr);
        assert_eq!(conn.get("/x").expect("first").body, "one\n");
        reaped.recv().expect("server closed the idle stream");
        let sent = conn.send("GET", "/x", "", None, NO_STALL).expect("send");
        assert_eq!(sent, Sent::Ready);
        assert_eq!(conn.dials(), 2, "redialed while waiting, not in finish");
        assert_eq!(conn.finish().expect("second").body, "two\n");
        assert_eq!(conn.reuses(), 0, "the redialed stream was fresh");
        assert_eq!(conn.get("/x").expect("third").body, "three\n");
        assert_eq!((conn.dials(), conn.reuses()), (2, 1));
    }

    /// Once the wait half has returned, the server may have read the
    /// request: a stream that dies after that is an error, not a redial.
    #[test]
    fn a_reused_stream_that_dies_in_flight_surfaces_without_a_redial() {
        let (kill, killed) = mpsc::channel::<()>();
        let (read_tx, reads) = mpsc::channel::<()>();
        let addr = scripted_server(move |listener| {
            let mut first = accept(&listener);
            read_request(&mut first);
            answer(&mut first, "one\n", "keep-alive");
            read_request(&mut first);
            read_tx.send(()).expect("count");
            killed.recv().expect("kill");
            drop(first);
            count_redials(&listener, &read_tx);
        });
        let mut conn = connection(addr);
        assert_eq!(conn.get("/x").expect("first").body, "one\n");
        let sent = conn.send("GET", "/x", "", None, STALL).expect("send");
        assert_eq!(sent, Sent::InFlight);
        kill.send(()).expect("kill");
        assert!(conn.finish().is_err(), "the stream died in flight");
        assert_eq!(conn.dials(), 1);
        assert_eq!(reads.try_iter().count(), 1, "the request was read once");
    }

    #[test]
    fn only_a_reused_stream_the_server_closed_owes_a_redial() {
        let io = |kind: ErrorKind| ClientError::Io(kind.into());
        for (err, stale) in [
            (io(ErrorKind::UnexpectedEof), true),
            (io(ErrorKind::ConnectionReset), true),
            (io(ErrorKind::ConnectionAborted), true),
            (io(ErrorKind::BrokenPipe), true),
            (io(ErrorKind::TimedOut), false),
            (io(ErrorKind::WouldBlock), false),
            (ClientError::Parse("head past the bound".to_owned()), false),
        ] {
            assert_eq!(owes_redial(true, &err), stale, "reused: {err:?}");
            assert!(!owes_redial(false, &err), "fresh: {err:?}");
        }
    }

    /// A peer that reads the request on a reused stream and never answers
    /// costs one timeout: a timeout is no sign of a stale stream, so the
    /// request is not sent a second time.
    #[test]
    fn a_stalled_reused_stream_costs_one_timeout_and_is_sent_once() {
        let (read_tx, reads) = mpsc::channel::<()>();
        let addr = scripted_server(move |listener| {
            let mut first = accept(&listener);
            read_request(&mut first);
            answer(&mut first, "one\n", "keep-alive");
            read_request(&mut first);
            read_tx.send(()).expect("count");
            // Held open unanswered, and so is a redial.
            count_redials(&listener, &read_tx);
        });
        let timeout = Duration::from_millis(300);
        let mut conn = Connection::new(addr, timeout);
        assert_eq!(conn.get("/x").expect("first").body, "one\n");
        let started = Instant::now();
        assert!(conn.get("/x").is_err(), "the stalled exchange fails");
        let waited = started.elapsed();
        assert!(waited < timeout * 3 / 2, "waited {waited:?}");
        assert_eq!(conn.dials(), 1);
        assert_eq!(reads.try_iter().count(), 1, "the request was read once");
    }

    #[test]
    fn a_fresh_dial_that_fails_surfaces_without_a_redial() {
        let (done, wait) = mpsc::channel::<()>();
        let addr = scripted_server(move |listener| {
            let mut stream = accept(&listener);
            read_request(&mut stream);
            drop(stream);
            // The listener stays open: a redial would connect and count.
            let _ = wait.recv();
        });
        let mut conn = connection(addr);
        assert!(conn.send("GET", "/x", "", None, NO_STALL).is_err());
        assert_eq!(conn.dials(), 1);
        assert!(!conn.is_connected());
        drop(done);
    }

    /// Regression: the old `metrics()` folded pages into a `HashMap`,
    /// silently swallowing duplicate and unparsable lines. The strict
    /// parser must surface both as hard errors.
    #[test]
    fn metrics_rejects_duplicate_samples() {
        let addr =
            one_shot_server("cactus_serve_requests_total 1\ncactus_serve_requests_total 2\n");
        let client = Client::new(addr).with_timeout(Duration::from_secs(5));
        let err = client.metrics().expect_err("duplicates must not parse");
        match err {
            ClientError::Parse(msg) => {
                assert!(msg.contains("duplicate"), "{msg}");
                assert!(msg.contains("line 2"), "{msg}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn metrics_rejects_unparsable_values() {
        let addr = one_shot_server("cactus_serve_requests_total one\n");
        let client = Client::new(addr).with_timeout(Duration::from_secs(5));
        assert!(matches!(
            client.metrics().expect_err("garbage must not parse"),
            ClientError::Parse(_)
        ));
    }
}
