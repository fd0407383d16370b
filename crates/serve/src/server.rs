//! The daemon: accept loop, bounded queue, worker pool, backpressure, and
//! graceful shutdown.
//!
//! ```text
//! accept thread ──try_send──► bounded queue ──recv──► worker pool (N threads)
//!      │                        (cap = Q)                 │
//!      └── queue full: write `503 Retry-After` ───────────┴── handle():
//!                                                  LRU → store → single-flight sim
//! ```
//!
//! The accept loop never blocks on a slow client: a connection either
//! enqueues or is answered `503` immediately, so saturation degrades into
//! fast, explicit pushback instead of unbounded queueing. Connections are
//! keep-alive by default: a worker serves sequential requests from one
//! stream until the client asks `Connection: close`, the idle read timeout
//! fires, [`KEEP_ALIVE_MAX`] requests have been served, or shutdown begins
//! (the last response then advertises `close`). Shutdown is graceful by
//! construction — the accept thread exits and drops the queue sender, each
//! worker drains what was already queued, finishes its in-flight
//! connection, and exits on the closed channel; [`Server::join`] returns
//! once every response has been written.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cactus_obs::lock::{rank, RankedMutex};
use cactus_obs::{Gauge, MetricsRegistry, TraceId, Tracer};

use crate::cache::{CachedResponse, ResponseCache};
use crate::http::{self, HttpError, Response};
use crate::metrics::ServerMetrics;
use crate::net;
use crate::routes;
use crate::service::ProfileService;
use crate::similar::SimService;

/// How long the accept loop sleeps between polls when idle. Accepted
/// connections are processed back to back; this only bounds the latency of
/// the first request after an idle period.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Requests served over one keep-alive connection before the server forces
/// a close, bounding how long a single client can pin a worker.
pub const KEEP_ALIVE_MAX: usize = 256;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before the server
    /// starts answering `503`.
    pub queue: usize,
    /// Response-cache capacity (entries); 0 disables response caching.
    pub cache_capacity: usize,
    /// `Retry-After` seconds advertised on `503`.
    pub retry_after_s: u32,
    /// Per-connection read timeout; doubles as the keep-alive idle timeout
    /// (slow, silent, or idle clients).
    pub read_timeout: Duration,
    /// Profile-store directory override (`None` =
    /// [`cactus_store::default_dir`]: `CACTUS_PROFILE_STORE`, else the
    /// workspace's `results/profiles/`, shared with the fig/table bins).
    pub store_dir: Option<PathBuf>,
    /// Catalog ids this backend models (one engine pool each, advertised on
    /// `/v1/healthz` and `/v1/devices`); empty = the full catalog.
    pub devices: Vec<String>,
    /// Spans retained in the in-memory ring served by `/v1/tracez`.
    pub trace_capacity: usize,
    /// Append every finished span as one JSON line to this file (`None`
    /// disables the log; the in-memory ring is always on).
    pub span_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue: 64,
            cache_capacity: 256,
            retry_after_s: 1,
            read_timeout: Duration::from_secs(5),
            store_dir: None,
            devices: Vec::new(),
            trace_capacity: 2048,
            span_log: None,
        }
    }
}

/// State shared by the accept thread and every worker.
pub struct ServerState {
    /// Store + simulation levels of the hierarchy.
    pub service: ProfileService,
    /// The LRU response cache (first level).
    pub cache: ResponseCache,
    /// Request counters and the latency histogram.
    pub metrics: ServerMetrics,
    /// The central registry every `cactus_serve_*` metric lives in; renders
    /// `/v1/metricsz` through the shared exposition code.
    pub registry: MetricsRegistry,
    /// Span ring (and optional JSONL log) behind `/v1/tracez`.
    pub tracer: Tracer,
    /// The online kernel-similarity service behind `/v1/similar`.
    pub sim: SimService,
    config: ServeConfig,
    /// Values owned elsewhere (cache, service, config), mirrored into
    /// registry gauges at scrape time so one renderer covers everything.
    scraped: ScrapedGauges,
}

struct ScrapedGauges {
    queue_capacity: Gauge,
    workers: Gauge,
    cache_hits: Gauge,
    cache_misses: Gauge,
    cache_entries: Gauge,
    memo_hit_rate: Gauge,
    wir_definitions: Gauge,
    simindex_size: Gauge,
    simindex_cells: Gauge,
    simindex_clusters: Gauge,
    simindex_queries: Gauge,
    simindex_probes: Gauge,
    simindex_pruned: Gauge,
    simindex_inserts: Gauge,
    simindex_reclusters: Gauge,
    store_segments: Gauge,
    store_live_records: Gauge,
    store_dead_records: Gauge,
    store_live_bytes: Gauge,
    store_dead_bytes: Gauge,
    store_appends: Gauge,
    store_gets: Gauge,
    store_compactions: Gauge,
    store_truncations: Gauge,
}

impl ScrapedGauges {
    fn register(registry: &MetricsRegistry) -> Result<Self, cactus_obs::RegistryError> {
        Ok(Self {
            queue_capacity: registry.gauge("cactus_serve_queue_capacity", "accept queue bound")?,
            workers: registry.gauge("cactus_serve_workers", "worker threads")?,
            cache_hits: registry.gauge("cactus_serve_cache_hits_total", "response cache hits")?,
            cache_misses: registry
                .gauge("cactus_serve_cache_misses_total", "response cache misses")?,
            cache_entries: registry
                .gauge("cactus_serve_cache_entries", "response cache entries")?,
            memo_hit_rate: registry.gauge(
                "cactus_serve_engine_memo_hit_rate",
                "fraction of launches replayed from memo caches",
            )?,
            wir_definitions: registry.gauge(
                "cactus_wir_definitions",
                "IR workload definitions in the routing registry",
            )?,
            simindex_size: registry
                .gauge("cactus_simindex_size", "vectors in the similarity index")?,
            simindex_cells: registry.gauge(
                "cactus_simindex_cells",
                "coarse cells in the index partition",
            )?,
            simindex_clusters: registry
                .gauge("cactus_simindex_clusters", "online similarity clusters")?,
            simindex_queries: registry.gauge(
                "cactus_simindex_queries_total",
                "similarity searches answered",
            )?,
            simindex_probes: registry.gauge(
                "cactus_simindex_probes_total",
                "full distance computations across similarity searches",
            )?,
            simindex_pruned: registry.gauge(
                "cactus_simindex_pruned_total",
                "vectors skipped by pruning across similarity searches",
            )?,
            simindex_inserts: registry.gauge(
                "cactus_simindex_inserts_total",
                "vectors inserted into the similarity index",
            )?,
            simindex_reclusters: registry.gauge(
                "cactus_simindex_reclusters_total",
                "bounded local re-cluster passes",
            )?,
            store_segments: registry.gauge(
                "cactus_store_segments",
                "segment files in the durable store",
            )?,
            store_live_records: registry.gauge(
                "cactus_store_live_records",
                "records the store index points at",
            )?,
            store_dead_records: registry.gauge(
                "cactus_store_dead_records",
                "superseded records awaiting compaction",
            )?,
            store_live_bytes: registry
                .gauge("cactus_store_live_bytes", "payload bytes of live records")?,
            store_dead_bytes: registry.gauge(
                "cactus_store_dead_bytes",
                "payload bytes reclaimable by compaction",
            )?,
            store_appends: registry
                .gauge("cactus_store_appends_total", "records appended since open")?,
            store_gets: registry
                .gauge("cactus_store_gets_total", "store point reads since open")?,
            store_compactions: registry.gauge(
                "cactus_store_compactions_total",
                "compaction passes since open",
            )?,
            store_truncations: registry.gauge(
                "cactus_store_truncations_total",
                "torn segment tails truncated during recovery",
            )?,
        })
    }
}

impl ServerState {
    /// Render the `/v1/metricsz` body via the shared exposition renderer,
    /// refreshing the scrape-time gauges first.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        self.scraped.queue_capacity.set(self.config.queue as f64);
        self.scraped.workers.set(self.config.workers as f64);
        self.scraped.cache_hits.set(self.cache.hits() as f64);
        self.scraped.cache_misses.set(self.cache.misses() as f64);
        self.scraped.cache_entries.set(self.cache.len() as f64);
        let memo = self.service.engine_memo_stats();
        self.scraped.memo_hit_rate.set(memo.hit_rate());
        self.scraped
            .wir_definitions
            .set(self.service.wir_count() as f64);
        let sim = self.sim.snapshot();
        self.scraped.simindex_size.set(sim.index.size as f64);
        self.scraped.simindex_cells.set(sim.index.cells as f64);
        self.scraped.simindex_clusters.set(sim.clusters as f64);
        self.scraped.simindex_queries.set(sim.index.queries as f64);
        self.scraped.simindex_probes.set(sim.index.probes as f64);
        self.scraped.simindex_pruned.set(sim.index.pruned as f64);
        self.scraped.simindex_inserts.set(sim.index.inserts as f64);
        self.scraped.simindex_reclusters.set(sim.reclusters as f64);
        let store = self.service.store().stats();
        self.scraped.store_segments.set(store.segments as f64);
        self.scraped
            .store_live_records
            .set(store.live_records as f64);
        self.scraped
            .store_dead_records
            .set(store.dead_records as f64);
        self.scraped.store_live_bytes.set(store.live_bytes as f64);
        self.scraped.store_dead_bytes.set(store.dead_bytes as f64);
        self.scraped.store_appends.set(store.appends as f64);
        self.scraped.store_gets.set(store.gets as f64);
        self.scraped.store_compactions.set(store.compactions as f64);
        self.scraped.store_truncations.set(store.truncations as f64);
        self.registry.render()
    }
}

/// A running daemon. Dropping the handle does **not** stop the server; call
/// [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind, spawn the worker pool and accept thread, and return.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        // SO_REUSEADDR so a supervised restart can rebind its pinned port
        // immediately (lingering TIME_WAIT sockets would otherwise block it).
        let listener = net::bind_reusable(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let registry = MetricsRegistry::new();
        let registered = || io::Error::other("fresh registry collided");
        let metrics = ServerMetrics::register(&registry).map_err(|_| registered())?;
        let scraped = ScrapedGauges::register(&registry).map_err(|_| registered())?;
        let service =
            ProfileService::with_registry(config.store_dir.clone(), &config.devices, &registry)
                .map_err(io::Error::other)?;
        let mut tracer = Tracer::new(config.trace_capacity);
        if let Some(path) = &config.span_log {
            tracer = tracer.with_span_log(path)?;
        }

        let state = Arc::new(ServerState {
            service,
            cache: ResponseCache::new(config.cache_capacity),
            metrics,
            registry,
            tracer,
            sim: SimService::new(),
            config: config.clone(),
            scraped,
        });
        warm_cache(&state, config.cache_capacity);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue.max(1));
        let rx = Arc::new(RankedMutex::new(
            rank::WORKER_QUEUE,
            "serve.worker_queue",
            rx,
        ));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                let shutdown = Arc::clone(&shutdown);
                let read_timeout = config.read_timeout;
                std::thread::spawn(move || worker_loop(&state, &rx, read_timeout, &shutdown))
            })
            .collect();

        let accept = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(&listener, &tx, &state, &shutdown))
        };

        let compactor = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || compactor_loop(&state, &shutdown))
        };

        Ok(Self {
            addr,
            shutdown,
            accept: Some(accept),
            workers,
            compactor: Some(compactor),
            state,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (tests and benches read counters through this).
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Begin graceful shutdown: stop accepting, let workers drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Shut down (if not already requested) and wait until every queued and
    /// in-flight request has been answered and all threads exited.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
    }

    /// Drop every cached response and pooled engine (benches use this to
    /// re-measure cold paths on a running server).
    pub fn reset_caches(&self) {
        self.state.cache.clear();
        self.state.service.reset();
    }
}

/// Warm the response cache from the durable store at startup. A record
/// at its key's current record version is byte-identical to the
/// `/v1/profile` body it would produce, so a restarted daemon serves its
/// persisted working set from the very first request — no re-simulation,
/// no cold LRU.
fn warm_cache(state: &ServerState, capacity: usize) {
    if capacity == 0 {
        return;
    }
    let store = state.service.store();
    let mut warmed = 0usize;
    for entry in store.entries() {
        if warmed >= capacity {
            break;
        }
        if Some(entry.version) != crate::service::current_version(&entry.key) {
            continue;
        }
        // Replicated records for devices this backend does not model are
        // unreachable through the routes; do not spend cache slots on them.
        let device = entry.key.split('/').next().unwrap_or_default();
        if !state.service.models(device) {
            continue;
        }
        let Ok(Some(record)) = store.get(&entry.key) else {
            continue;
        };
        let Ok(body) = String::from_utf8(record.value) else {
            continue;
        };
        state.cache.put(
            &format!("profile/{}", entry.key),
            CachedResponse {
                content_type: routes::TEXT,
                body,
            },
        );
        warmed += 1;
    }
}

/// How often the background compactor polls the store for reclaimable
/// segments. Compaction itself only runs when `maybe_compact`'s dead-byte
/// threshold trips, so the steady-state cost of the loop is one stats
/// read per interval.
const COMPACT_INTERVAL: Duration = Duration::from_secs(1);

/// Background compaction: poll `maybe_compact` until shutdown. Emits one
/// `store.compact` span per pass that actually ran (or failed) — idle
/// polls stay out of the trace ring.
fn compactor_loop(state: &ServerState, shutdown: &AtomicBool) {
    const TICK: Duration = Duration::from_millis(20);
    let mut idle = Duration::ZERO;
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(TICK);
        idle += TICK;
        if idle < COMPACT_INTERVAL {
            continue;
        }
        idle = Duration::ZERO;
        match state.service.store().maybe_compact() {
            Ok(None) => {}
            Ok(Some(report)) => {
                let mut span = state.tracer.ctx(TraceId::mint()).child("store.compact");
                span.tag("victims", report.victims.to_string());
                span.tag("copied", report.copied.to_string());
                span.tag("reclaimed_bytes", report.reclaimed_bytes.to_string());
            }
            Err(e) => {
                let mut span = state.tracer.ctx(TraceId::mint()).child("store.compact");
                span.tag("error", e.to_string());
            }
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    state: &ServerState,
    shutdown: &AtomicBool,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                state.metrics.queue_depth.add(1.0);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        state.metrics.queue_depth.add(-1.0);
                        reject_busy(state, stream);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Dropping `tx` here closes the queue: workers drain what is already
    // enqueued, then exit on the closed channel.
}

/// Answer `503 + Retry-After` without occupying a worker.
fn reject_busy(state: &ServerState, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    // Drain the request head before answering: closing with unread bytes in
    // the receive buffer sends an RST that can discard the in-flight 503.
    let mut stream = stream;
    let mut buf = [0u8; 1024];
    loop {
        match io::Read::read(&mut stream, &mut buf) {
            Ok(n) if n > 0 => {
                if buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            _ => break,
        }
    }
    let response = Response::busy(state.config.retry_after_s);
    state.metrics.requests.inc();
    state.metrics.connections.inc();
    state.metrics.count_status(response.status);
    let _ = response.write_to(&mut stream);
}

fn worker_loop(
    state: &ServerState,
    rx: &RankedMutex<Receiver<TcpStream>>,
    read_timeout: Duration,
    shutdown: &AtomicBool,
) {
    loop {
        let next = rx.lock().recv();
        let Ok(stream) = next else { break };
        state.metrics.queue_depth.add(-1.0);
        handle_connection(state, &stream, read_timeout, shutdown);
    }
}

/// Serve sequential keep-alive requests from one connection until the
/// client closes (or asks to), an error or idle timeout occurs, the
/// per-connection request cap is reached, or shutdown begins.
fn handle_connection(
    state: &ServerState,
    stream: &TcpStream,
    read_timeout: Duration,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    state.metrics.connections.inc();

    let mut reader = BufReader::new(stream);
    let mut served = 0usize;
    loop {
        let request = http::read_request(&mut reader);
        let start = Instant::now();
        let (response, client_close) = match request {
            Ok(request) => {
                state.metrics.requests.inc();
                if served > 0 {
                    state.metrics.keepalive_reuses.inc();
                }
                // One trace id per request: propagated from the gateway via
                // the x-cactus-trace header, or minted here when the client
                // hit this tier directly. The serve.request span roots this
                // tier's span tree; handlers hang sub-spans off its ctx.
                let trace = request.trace_id().unwrap_or_else(TraceId::mint);
                let mut span = state.tracer.ctx(trace).child("serve.request");
                span.tag("path", request.path.clone());
                // A panicking handler must not kill the worker thread;
                // convert it into a 500 and keep serving.
                let response = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    routes::respond(state, &request, span.ctx())
                }))
                .unwrap_or_else(|_| Response::error(500, "internal error: handler panicked"));
                span.tag("status", response.status.to_string());
                (response.traced(trace), request.wants_close())
            }
            // Clean close or idle timeout between requests: nothing to answer.
            Err(HttpError::ClosedEarly | HttpError::Io(_)) => return,
            // A malformed head gets its 400, then the connection closes
            // (framing can no longer be trusted).
            Err(e) => {
                state.metrics.requests.inc();
                let response = Response::error(400, format!("bad request: {e}"));
                state.metrics.count_status(response.status);
                let mut out = stream;
                let _ = response.write_to(&mut out);
                return;
            }
        };

        served += 1;
        let keep_alive =
            !client_close && served < KEEP_ALIVE_MAX && !shutdown.load(Ordering::SeqCst);
        let mut out = stream;
        let write_result = response.write_conn(&mut out, keep_alive);
        let _ = out.flush();
        state.metrics.count_status(response.status);
        let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        state.metrics.record_latency_us(elapsed_us);
        if !keep_alive || write_result.is_err() {
            return;
        }
    }
}
