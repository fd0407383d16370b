//! The serve tier on the shared [`daemon`] skeleton:
//! configuration, the state every worker shares, the [`Handler`] that
//! turns one request into the LRU → store → single-flight-simulation walk
//! of [`routes`], startup cache warming, and the background compactor.
//! The listener, queue, worker pool, backpressure and drain are the
//! skeleton's; see its module docs.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cactus_obs::{Gauge, MetricsRegistry, TraceId, Tracer};

use crate::cache::{CachedResponse, ResponseCache};
pub use crate::daemon::KEEP_ALIVE_MAX;
use crate::daemon::{self, Daemon, Event, Handler, Limits};
use crate::http::{Request, Response};
use crate::metrics::ServerMetrics;
use crate::routes;
use crate::service::ProfileService;
use crate::similar::SimService;

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
    pub(crate) metrics: ServerMetrics,
    /// The central registry every `cactus_serve_*` metric lives in; renders
    /// `/v1/metricsz` through the shared exposition code.
    pub registry: MetricsRegistry,
    /// Span ring (and optional JSONL log) behind `/v1/tracez`.
    pub tracer: Tracer,
    /// The online kernel-similarity service behind `/v1/similar`.
    pub(crate) sim: SimService,
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
    pub(crate) fn render_metrics(&self) -> String {
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

impl Handler for ServerState {
    fn respond(&self, request: &Request, trace: TraceId) -> Response {
        // The serve.request span roots this tier's span tree; handlers hang
        // sub-spans off its ctx.
        let mut span = self.tracer.ctx(trace).child("serve.request");
        span.tag("path", request.path.clone());
        let response = routes::respond(self, request, span.ctx());
        span.tag("status", response.status.to_string());
        response
    }

    fn observe(&self, event: Event) {
        let m = &self.metrics;
        match event {
            Event::Accepted => {
                m.connections.inc();
                m.queue_depth.add(1.0);
            }
            Event::Rejected => {
                m.queue_depth.add(-1.0);
                m.requests.inc();
                m.count_status(503);
            }
            Event::Dequeued => m.queue_depth.add(-1.0),
            Event::Request { reused } => {
                m.requests.inc();
                if reused {
                    m.keepalive_reuses.inc();
                }
            }
            Event::Responded { status, elapsed_us } => {
                m.count_status(status);
                m.record_latency_us(elapsed_us);
            }
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop the server; call
/// [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    daemon: Daemon<ServerState>,
    compactor: JoinHandle<()>,
}

impl Server {
    /// Bind, spawn the worker pool and accept thread, and return.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        let bound = daemon::bind(&config.addr)?;

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

        let limits = Limits {
            workers: config.workers,
            queue: config.queue,
            read_timeout: config.read_timeout,
            retry_after_s: config.retry_after_s,
        };
        let state = ServerState {
            service,
            cache: ResponseCache::new(config.cache_capacity),
            metrics,
            registry,
            tracer,
            sim: SimService::new(),
            config,
            scraped,
        };
        warm_cache(&state);
        let daemon = bound.serve(limits, state);

        let compactor = {
            let state = Arc::clone(daemon.handler());
            let shutdown = daemon.shutdown_flag();
            std::thread::spawn(move || compactor_loop(&state, &shutdown))
        };
        Ok(Self { daemon, compactor })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.daemon.addr()
    }

    /// Shared state (tests and benches read counters through this).
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        self.daemon.handler()
    }

    /// Begin graceful shutdown: stop accepting, let workers drain.
    pub fn shutdown(&self) {
        self.daemon.shutdown();
    }

    /// Shut down (if not already requested) and wait until every queued and
    /// in-flight request has been answered and all threads exited.
    pub fn join(self) {
        self.daemon.join();
        let _ = self.compactor.join();
    }
}

/// Warm the response cache from the durable store at startup. A record
/// at its key's current record version is byte-identical to the
/// `/v1/profile` body it would produce, so a restarted daemon serves its
/// persisted working set from the very first request — no re-simulation,
/// no cold LRU.
fn warm_cache(state: &ServerState) {
    let capacity = state.config.cache_capacity;
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
