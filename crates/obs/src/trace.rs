//! Structured tracing: one [`TraceId`] per request, one span tree per trace.
//!
//! The edge tier (gateway, or serve when hit directly) mints a [`TraceId`]
//! and every hop forwards it in the `x-cactus-trace` header. Inside a
//! process, a [`SpanCtx`] carries the trace id and current parent span;
//! [`SpanCtx::child`] opens a [`SpanGuard`] that measures wall time and, on
//! drop, files a [`SpanRecord`] into the process-wide [`Tracer`]: a bounded
//! ring buffer (served at `/v1/tracez`) plus an optional append-only JSONL
//! span log for offline grepping (the CI smoke job follows one trace id
//! through both tiers' logs).
//!
//! Span start times are microsecond offsets from the tracer's epoch, so
//! within one process spans of a trace can be ordered and nested
//! (`start_us` / `dur_us`) without any wall-clock agreement between tiers.
//!
//! Tags are typed ([`TagValue`]): a `&'static str`, an integer or a `bool`
//! is kept as given, so filing a span formats nothing and allocates only
//! its tag list; text is made only when `/v1/tracez` or the span log
//! renders the span.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::api::json_escape;
use crate::lock::{rank, RankedMutex};

/// The span-name registry: every name passed to [`SpanCtx::child`] anywhere
/// in the workspace must appear here, and `cactus-lint`'s surface rule
/// enforces it. One request yields one tree drawn from this taxonomy:
///
/// | name            | opened by                                          |
/// |-----------------|----------------------------------------------------|
/// | `gateway.route` | gateway edge, around the whole routed request      |
/// | `proxy.attempt` | gateway, one backend attempt (retry/hedge each get one) |
/// | `serve.request` | serve edge, around the whole handled request       |
/// | `serve.cache`   | serve, response-cache probe                        |
/// | `serve.profile` | serve, profile resolution on a cache miss          |
/// | `serve.store`   | serve, profile-store lookup                        |
/// | `serve.simulate`| serve, single-flight simulation of a store miss    |
/// | `serve.similar` | serve, one `/v1/similar` query end to end          |
/// | `serve.workload`| serve, one `POST /v1/workloads` submission         |
/// | `wir.parse`     | serve, parsing a submitted IR definition           |
/// | `wir.check`     | serve, static validation of a submitted definition |
/// | `wir.exec`      | serve, one whole IR interpretation on a fresh engine |
/// | `engine.launch` | serve, one whole simulated run on a fresh engine   |
/// | `simindex.encode` | simindex, FAMD projection of a kernel profile    |
/// | `simindex.search` | simindex, pruned k-NN probe of the vector index  |
/// | `simindex.recluster` | simindex, bounded local re-cluster pass       |
/// | `store.append`  | store, one durable record append (fsync included)  |
/// | `store.get`     | store, one indexed record read + CRC check         |
/// | `store.compact` | store, one background compaction pass              |
/// | `store.sync`    | gateway repair pass; serve, one pushed record ingest |
pub(crate) const SPAN_NAMES: &[&str] = &[
    "gateway.route",
    "gateway.compare",
    "proxy.attempt",
    "serve.request",
    "serve.cache",
    "serve.profile",
    "serve.store",
    "serve.simulate",
    "serve.similar",
    "serve.workload",
    "wir.parse",
    "wir.check",
    "wir.exec",
    "engine.launch",
    "simindex.encode",
    "simindex.search",
    "simindex.recluster",
    "store.append",
    "store.get",
    "store.compact",
    "store.sync",
];

/// A 64-bit trace id, rendered as 16 lowercase hex digits. Never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

/// `splitmix64` finalizer — cheap, well-mixed, and deterministic, which is
/// all an id mint needs (this is not a security boundary).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TraceId {
    /// Mint a fresh id: clock entropy mixed with a process-local counter
    /// and the pid, so concurrent mints and concurrent processes diverge.
    #[must_use]
    pub fn mint() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
        });
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let pid = u64::from(std::process::id());
        let mut id = splitmix64(nanos ^ (seq << 32) ^ (pid << 17));
        if id == 0 {
            id = 1;
        }
        Self(id)
    }

    /// Parse the 16-hex-digit wire form (as carried in `x-cactus-trace`).
    /// Returns `None` for anything malformed or zero — a bad header means
    /// the edge re-mints rather than propagating garbage.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        match u64::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(v) => Some(Self(v)),
        }
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One tag's value, kept as the caller gave it and formatted only when its
/// span is rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagValue {
    /// Text known at compile time (`"true"`, a route label, …).
    Str(&'static str),
    /// An unsigned integer (a count, a status, a backend index).
    Uint(u64),
    /// A flag.
    Bool(bool),
    /// Text made at run time (a path, a key, an error message).
    Owned(String),
}

impl From<&'static str> for TagValue {
    fn from(value: &'static str) -> Self {
        Self::Str(value)
    }
}

impl From<String> for TagValue {
    fn from(value: String) -> Self {
        Self::Owned(value)
    }
}

impl From<bool> for TagValue {
    fn from(value: bool) -> Self {
        Self::Bool(value)
    }
}

impl From<u64> for TagValue {
    fn from(value: u64) -> Self {
        Self::Uint(value)
    }
}

impl From<u32> for TagValue {
    fn from(value: u32) -> Self {
        Self::Uint(u64::from(value))
    }
}

impl From<u16> for TagValue {
    fn from(value: u16) -> Self {
        Self::Uint(u64::from(value))
    }
}

impl From<usize> for TagValue {
    fn from(value: usize) -> Self {
        Self::Uint(u64::try_from(value).unwrap_or(u64::MAX))
    }
}

impl fmt::Display for TagValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Str(s) => f.write_str(s),
            Self::Uint(n) => write!(f, "{n}"),
            Self::Bool(b) => write!(f, "{b}"),
            Self::Owned(s) => f.write_str(s),
        }
    }
}

/// A finished span, as stored in the ring and written to the span log.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id, unique within the process.
    pub span_id: u64,
    /// Parent span id, 0 for a root span.
    pub parent_id: u64,
    /// Span name from the fixed taxonomy (`gateway.route`, `serve.cache`, …).
    pub name: &'static str,
    /// Start, µs since the tracer's epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Free-form key/value annotations (`hit=true`, `backend=1`, …).
    pub tags: Vec<(&'static str, TagValue)>,
}

impl SpanRecord {
    /// One-line JSON form, shared by `/v1/tracez` and the JSONL span log.
    /// Every tag value is a JSON string, whatever its type.
    #[must_use]
    pub(crate) fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"trace\":\"{}\",\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}",
            self.trace, self.span_id, self.parent_id, self.name, self.start_us, self.dur_us
        );
        if !self.tags.is_empty() {
            out.push_str(",\"tags\":{");
            for (i, (k, v)) in self.tags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(k);
                out.push_str("\":\"");
                match v {
                    TagValue::Str(text) => out.push_str(&json_escape(text)),
                    TagValue::Owned(text) => out.push_str(&json_escape(text)),
                    // Digits and `true`/`false` need no escaping.
                    TagValue::Uint(_) | TagValue::Bool(_) => {
                        let _ = write!(out, "{v}");
                    }
                }
                out.push('"');
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

struct TracerInner {
    ring: VecDeque<SpanRecord>,
    log: Option<File>,
}

/// Process-wide span sink: bounded ring buffer plus optional JSONL log.
///
/// The sink mutex ranks last ([`rank::TRACER`]) in the workspace lock
/// order: spans are filed from `SpanGuard::drop`, which can fire with any
/// other lock held, so the tracer must nest inside everything.
pub struct Tracer {
    sink: RankedMutex<TracerInner>,
    capacity: usize,
    next_span: AtomicU64,
    epoch: Instant,
}

impl Tracer {
    /// A tracer keeping the most recent `capacity` finished spans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            sink: RankedMutex::new(
                rank::TRACER,
                "obs.tracer",
                TracerInner {
                    ring: VecDeque::with_capacity(capacity.min(4096)),
                    log: None,
                },
            ),
            capacity: capacity.max(1),
            next_span: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    /// Additionally append every finished span to a JSONL file at `path`
    /// (created or appended to).
    pub fn with_span_log(self, path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        self.sink.lock().log = Some(file);
        Ok(self)
    }

    /// A root [`SpanCtx`] for this trace (parent id 0).
    #[must_use]
    pub fn ctx(&self, trace: TraceId) -> SpanCtx<'_> {
        SpanCtx {
            tracer: self,
            trace,
            parent: 0,
        }
    }

    fn record(&self, span: SpanRecord) {
        let mut sink = self.sink.lock();
        if let Some(log) = sink.log.as_mut() {
            // Span-log writes are best-effort: losing a log line must never
            // fail the request that produced it.
            let _ = writeln!(log, "{}", span.to_json());
        }
        if sink.ring.len() == self.capacity {
            sink.ring.pop_front();
        }
        sink.ring.push_back(span);
    }

    /// Finished spans for one trace, in finish order.
    #[must_use]
    pub fn spans_for(&self, trace: TraceId) -> Vec<SpanRecord> {
        let sink = self.sink.lock();
        sink.ring
            .iter()
            .filter(|s| s.trace == trace)
            .cloned()
            .collect()
    }

    /// Render the ring as JSONL, oldest first — the `/v1/tracez` body.
    /// With `filter`, only that trace's spans are emitted.
    #[must_use]
    pub fn render(&self, filter: Option<TraceId>) -> String {
        let sink = self.sink.lock();
        let mut out = String::new();
        for span in &sink.ring {
            if filter.is_none_or(|t| span.trace == t) {
                out.push_str(&span.to_json());
                out.push('\n');
            }
        }
        out
    }
}

/// The ambient trace context threaded through a request: which trace we are
/// in and which span is the current parent. `Copy`, so it passes freely
/// down call chains.
#[derive(Clone, Copy)]
pub struct SpanCtx<'a> {
    tracer: &'a Tracer,
    trace: TraceId,
    parent: u64,
}

impl<'a> SpanCtx<'a> {
    /// The trace id this context belongs to.
    #[must_use]
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The tracer this context files spans into.
    #[must_use]
    pub fn tracer(&self) -> &'a Tracer {
        self.tracer
    }

    /// Open a child span. The span measures until the guard drops. `name`
    /// must come from `SPAN_NAMES`; `cactus-lint` enforces this statically
    /// and debug builds assert it at runtime.
    #[must_use]
    pub fn child(&self, name: &'static str) -> SpanGuard<'a> {
        debug_assert!(
            SPAN_NAMES.contains(&name),
            "span name {name:?} is not in trace::SPAN_NAMES"
        );
        // One clock read serves both the offset and the duration's start.
        let started = Instant::now();
        SpanGuard {
            tracer: self.tracer,
            trace: self.trace,
            span_id: self.tracer.next_span.fetch_add(1, Ordering::Relaxed),
            parent_id: self.parent,
            name,
            start_us: micros(started.saturating_duration_since(self.tracer.epoch)),
            started,
            tags: Vec::new(),
        }
    }
}

/// An open span; files its [`SpanRecord`] when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    trace: TraceId,
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    start_us: u64,
    started: Instant,
    tags: Vec<(&'static str, TagValue)>,
}

impl<'a> SpanGuard<'a> {
    /// Annotate the span (`hit=true`, `backend=2`, …). The value is kept
    /// as given — a `&'static str`, an integer, a `bool` or an owned
    /// `String` — and formatted only when the span is rendered.
    pub fn tag(&mut self, key: &'static str, value: impl Into<TagValue>) {
        self.tags.push((key, value.into()));
    }

    /// A context whose children become children of *this* span.
    #[must_use]
    pub fn ctx(&self) -> SpanCtx<'a> {
        SpanCtx {
            tracer: self.tracer,
            trace: self.trace,
            parent: self.span_id,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_us = micros(self.started.elapsed());
        self.tracer.record(SpanRecord {
            trace: self.trace,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: self.name,
            start_us: self.start_us,
            dur_us,
            tags: std::mem::take(&mut self.tags),
        });
    }
}

/// Whole microseconds, saturating.
fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_and_parse_roundtrip() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b, "sequential mints diverge");
        let wire = a.to_string();
        assert_eq!(wire.len(), 16);
        assert_eq!(TraceId::parse(&wire), Some(a));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse("0000000000000000"), None);
        assert_eq!(TraceId::parse("00000000000000001"), None); // 17 digits
        assert_eq!(
            TraceId::parse("0123456789abcdef"),
            TraceId::parse("0123456789ABCDEF")
        );
    }

    #[test]
    fn span_tree_records_parentage_and_order() {
        let tracer = Tracer::new(64);
        let trace = TraceId::mint();
        {
            let ctx = tracer.ctx(trace);
            let mut root = ctx.child("serve.request");
            root.tag("path", "/v1/profile");
            {
                let mut cache = root.ctx().child("serve.cache");
                cache.tag("hit", "false");
            }
            {
                let _sim = root.ctx().child("serve.simulate");
            }
        }
        let spans = tracer.spans_for(trace);
        assert_eq!(spans.len(), 3);
        // Children finish before the root.
        assert_eq!(spans[0].name, "serve.cache");
        assert_eq!(spans[1].name, "serve.simulate");
        assert_eq!(spans[2].name, "serve.request");
        let root = &spans[2];
        assert_eq!(root.parent_id, 0);
        assert_eq!(spans[0].parent_id, root.span_id);
        assert_eq!(spans[1].parent_id, root.span_id);
        assert!(
            spans[0].start_us <= spans[1].start_us,
            "cache before simulate"
        );
        assert!(root.start_us <= spans[0].start_us, "root opens first");
    }

    #[test]
    fn ring_is_bounded() {
        let tracer = Tracer::new(2);
        let trace = TraceId::mint();
        for _ in 0..5 {
            let _span = tracer.ctx(trace).child("serve.request");
        }
        assert_eq!(tracer.spans_for(trace).len(), 2);
    }

    #[test]
    fn render_filters_by_trace() {
        let tracer = Tracer::new(16);
        let (a, b) = (TraceId::mint(), TraceId::mint());
        drop(tracer.ctx(a).child("gateway.route"));
        drop(tracer.ctx(b).child("gateway.route"));
        let all = tracer.render(None);
        assert_eq!(all.lines().count(), 2);
        let only_a = tracer.render(Some(a));
        assert_eq!(only_a.lines().count(), 1);
        assert!(only_a.contains(&a.to_string()));
        assert!(!only_a.contains(&b.to_string()));
    }

    #[test]
    fn span_json_is_valid_jsonl() {
        let tracer = Tracer::new(4);
        let trace = TraceId::mint();
        {
            let mut span = tracer.ctx(trace).child("engine.launch");
            span.tag("memo_hits", "3");
        }
        let line = tracer.render(Some(trace));
        assert!(line.starts_with("{\"trace\":\""));
        assert!(line.contains("\"name\":\"engine.launch\""));
        assert!(line.contains("\"tags\":{\"memo_hits\":\"3\"}"));
        assert!(line.trim_end().ends_with('}'));
    }

    #[test]
    fn span_log_appends_jsonl() {
        let dir = std::env::temp_dir().join(format!("obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        let _ = std::fs::remove_file(&path);
        let tracer = Tracer::new(4).with_span_log(&path).unwrap();
        let trace = TraceId::mint();
        drop(tracer.ctx(trace).child("serve.request"));
        drop(tracer.ctx(trace).child("serve.cache"));
        let logged = std::fs::read_to_string(&path).unwrap();
        assert_eq!(logged.lines().count(), 2);
        assert!(logged.contains(&trace.to_string()));
        let _ = std::fs::remove_file(&path);
    }

    /// The renderer from before tags were typed, kept as the oracle of
    /// `SpanRecord::to_json`: it takes every tag value as its string.
    fn old_to_json(record: &SpanRecord, tags: &[(&'static str, String)]) -> String {
        let mut out = format!(
            "{{\"trace\":\"{}\",\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}",
            record.trace, record.span_id, record.parent_id, record.name, record.start_us, record.dur_us
        );
        if !tags.is_empty() {
            out.push_str(",\"tags\":{");
            for (i, (k, v)) in tags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(k);
                out.push_str("\":\"");
                out.push_str(&json_escape(v));
                out.push('"');
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    const TEXTS: &[&str] = &[
        "",
        "plain",
        "/v1/profile/rtx-3080/tiny/GMS?t=0.700",
        "quote \" and \\ backslash",
        "line\nbreak\ttab\rcr",
        "\u{1}\u{1f}\u{7f}",
        "\u{fc}n\u{ef}c\u{f8}d\u{e9} \u{2713}",
    ];

    /// Typed tags render to the bytes the old renderer made of their
    /// strings: every kind of value, with every text and number, in spans
    /// of one to five tags.
    #[test]
    fn typed_tags_render_like_their_strings() {
        const KEYS: [&str; 5] = ["hit", "key", "status", "backend", "path"];
        const NUMBERS: [u64; 5] = [0, 7, 200, 503, u64::MAX];
        let tracer = Tracer::new(4096);
        let trace = TraceId::mint();
        let mut filed = 0;
        for (t, &text) in TEXTS.iter().enumerate() {
            for (n, &number) in NUMBERS.iter().enumerate() {
                for len in 1..=5 {
                    let mut span = tracer.ctx(trace).child("serve.request");
                    for i in 0..len {
                        let key = KEYS[(t + n + i) % KEYS.len()];
                        match (t + n + i) % 5 {
                            0 => span.tag(key, text),
                            1 => span.tag(key, text.to_owned()),
                            2 => span.tag(key, number),
                            3 => span.tag(key, number % 2 == 0),
                            _ => span.tag(key, usize::try_from(number % 1000).unwrap_or(0)),
                        }
                    }
                    drop(span);
                    filed += 1;
                }
            }
        }
        let records = tracer.spans_for(trace);
        assert_eq!(records.len(), filed);
        for record in &records {
            let strings: Vec<(&'static str, String)> = record
                .tags
                .iter()
                .map(|(k, v)| (*k, v.to_string()))
                .collect();
            assert_eq!(record.to_json(), old_to_json(record, &strings));
        }
    }

    /// A tag is stored in no more room than a `(&str, String)` tag took, so
    /// the ring's resident size does not grow.
    #[test]
    fn a_typed_tag_is_no_larger_than_a_string_tag() {
        use std::mem::size_of;
        assert!(size_of::<(&str, TagValue)>() <= size_of::<(&str, String)>());
    }
}
