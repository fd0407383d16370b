//! The gateway daemon: listener, worker pool, health thread, and the glue
//! between incoming connections and the [`Router`](crate::proxy::Router).
//!
//! ```text
//!                    ┌────────────── health thread ───────────────┐
//!                    │ tick(): Ejected → HalfOpen after cooldown  │
//!                    │ active probes: GET /v1/healthz per backend │
//!                    │ (each probe refreshes the capability map)  │
//!                    └───────────────────┬────────────────────────┘
//!                                        ▼
//! accept ──try_send──► bounded queue ──► workers ──► Router::forward
//!    │                                     │           ring → health →
//!    └── full: 503 Retry-After ◄───────────┘           pool → hedge/retry
//! ```
//!
//! The listener/queue/worker skeleton deliberately mirrors `cactus-serve`'s
//! server (same backpressure and graceful-drain semantics); what differs is
//! the work each request does — a proxied exchange instead of a local
//! simulation. The gateway serves its own `/v1/healthz`, `/v1/metricsz`,
//! `/v1/tracez`, a fleet-wide `/v1/devices` catalog view, and the
//! cross-device `/v1/compare` synthesis locally; every other `GET` is
//! forwarded (so an unversioned path earns a backend's `404`) — after an
//! edge catalog check, so a request for a device the catalog has never
//! heard of is answered `404` here instead of burning a backend attempt.
//!
//! Each request gets one trace id: propagated from the client's
//! `x-cactus-trace` header when present, minted here otherwise. The id is
//! echoed back to the client, forwarded to the chosen backend, and roots a
//! `gateway.route` span whose `proxy.attempt` children record the failover
//! path — so one request yields one id visible in both tiers' `/v1/tracez`.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cactus_obs::lock::{rank, RankedMutex};
use cactus_obs::{ApiError, TraceId, Tracer, TRACE_HEADER};
use cactus_serve::http::{self, HttpError, Request};
use cactus_serve::net;
use cactus_serve::server::KEEP_ALIVE_MAX;
use cactus_serve::{parse_health_devices, Client};

use crate::capability::device_for_target;
use crate::compare;
use crate::connpool::ConnPool;
use crate::health::{HealthState, HealthTracker};
use crate::metrics::{render_metrics, GatewayMetrics};
use crate::proxy::{Forwarded, RoutePolicy, Router};
use crate::ring::HashRing;
use crate::sync;

const ACCEPT_POLL: Duration = Duration::from_millis(1);
const HEALTH_TICK: Duration = Duration::from_millis(50);

/// The cross-device comparison route (`cactus-lint` checks served routes
/// against client-consumed paths, so the pattern lives here as a literal).
pub const COMPARE_ROUTE: &str = "/v1/compare/{scale}/{workload}";

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads proxying requests.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before the gateway
    /// answers `503`.
    pub queue: usize,
    /// Client-side read timeout (also the keep-alive idle timeout).
    pub read_timeout: Duration,
    /// Per-exchange timeout toward a backend (connect + request + reply).
    /// Cold profile simulations can be slow; keep this generous.
    pub backend_timeout: Duration,
    /// Consecutive failures before a backend is ejected.
    pub eject_after: u32,
    /// How long an ejected backend sits out before a half-open trial.
    pub cooldown: Duration,
    /// Interval between active `/v1/healthz` probes; `None` disables probing
    /// (health is then driven purely by data-path outcomes).
    pub probe_interval: Option<Duration>,
    /// Timeout for one active probe.
    pub probe_timeout: Duration,
    /// Idle keep-alive connections pooled per backend.
    pub max_idle_conns: usize,
    /// `Retry-After` seconds advertised on a local `503`.
    pub retry_after_s: u32,
    /// Retry and hedging policy.
    pub policy: RoutePolicy,
    /// Finished spans kept in the `/v1/tracez` ring buffer.
    pub trace_capacity: usize,
    /// Optional JSONL span log: every finished span is appended here.
    pub span_log: Option<PathBuf>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 8,
            queue: 128,
            read_timeout: Duration::from_secs(5),
            backend_timeout: Duration::from_secs(60),
            eject_after: 2,
            cooldown: Duration::from_secs(1),
            probe_interval: Some(Duration::from_millis(500)),
            probe_timeout: Duration::from_millis(500),
            max_idle_conns: 8,
            retry_after_s: 1,
            policy: RoutePolicy::default(),
            trace_capacity: 2048,
            span_log: None,
        }
    }
}

/// A running gateway. Call [`Gateway::shutdown`] then [`Gateway::join`] to
/// stop it; dropping the handle alone does not.
pub struct Gateway {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    health_thread: Option<JoinHandle<()>>,
    router: Arc<Router>,
    tracer: Arc<Tracer>,
    backend_addrs: Vec<SocketAddr>,
}

impl Gateway {
    /// Bind the listener, build the ring over `backends`, and spawn the
    /// worker pool and health thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects an empty backend list.
    pub fn start(config: GatewayConfig, backends: Vec<SocketAddr>) -> io::Result<Self> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one backend",
            ));
        }
        let listener = net::bind_reusable(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // Ring labels are the backend address strings: stable across
        // restarts of the same fleet layout, independent of list order.
        let labels: Vec<String> = backends.iter().map(ToString::to_string).collect();
        let health = Arc::new(HealthTracker::new(
            backends.len(),
            config.eject_after,
            config.cooldown,
        ));
        let pool = Arc::new(ConnPool::new(
            backends.clone(),
            config.backend_timeout,
            config.max_idle_conns,
        ));
        let metrics = Arc::new(GatewayMetrics::new(backends.len()));
        let router = Arc::new(Router::new(
            HashRing::new(&labels),
            Arc::clone(&health),
            pool,
            metrics,
            config.policy.clone(),
        ));

        // One synchronous capability-discovery pass before traffic flows:
        // each backend that answers `/v1/healthz` tells us which catalog
        // devices it models. Backends that don't answer stay "unknown"
        // (optimistically routable); active probes refresh the map later,
        // so a backend restarted with a different device set is re-learned.
        for (i, &backend) in backends.iter().enumerate() {
            let probe = Client::new(backend)
                .with_timeout(config.probe_timeout)
                .get("/v1/healthz");
            if let Ok(reply) = probe {
                if reply.status == 200 {
                    if let Some(devices) = parse_health_devices(&reply.body) {
                        router.capabilities.record(i, devices);
                    }
                }
            }
        }

        let mut tracer = Tracer::new(config.trace_capacity);
        if let Some(path) = &config.span_log {
            tracer = tracer.with_span_log(path)?;
        }
        let tracer = Arc::new(tracer);

        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue.max(1));
        let rx = Arc::new(RankedMutex::new(
            rank::WORKER_QUEUE,
            "gateway.worker_queue",
            rx,
        ));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let router = Arc::clone(&router);
                let tracer = Arc::clone(&tracer);
                let rx = Arc::clone(&rx);
                let shutdown = Arc::clone(&shutdown);
                let config = config.clone();
                let backend_addrs = backends.clone();
                std::thread::spawn(move || {
                    worker_loop(&router, &tracer, &rx, &config, &backend_addrs, &shutdown);
                })
            })
            .collect();

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let router = Arc::clone(&router);
            let retry_after_s = config.retry_after_s;
            std::thread::spawn(move || {
                accept_loop(&listener, &tx, &router, retry_after_s, &shutdown)
            })
        };

        let health_thread = {
            let shutdown = Arc::clone(&shutdown);
            let router = Arc::clone(&router);
            let tracer = Arc::clone(&tracer);
            let probe_interval = config.probe_interval;
            let probe_timeout = config.probe_timeout;
            let backend_addrs = backends.clone();
            std::thread::spawn(move || {
                health_loop(
                    &router,
                    &tracer,
                    &backend_addrs,
                    probe_interval,
                    probe_timeout,
                    &shutdown,
                );
            })
        };

        Ok(Self {
            addr,
            shutdown,
            accept: Some(accept),
            workers,
            health_thread: Some(health_thread),
            router,
            tracer,
            backend_addrs: backends,
        })
    }

    /// The bound listener address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared routing state (tests read health and counters through it).
    #[must_use]
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The gateway's span sink (tests read span trees through it).
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The fleet addresses the ring was built over, in ring-index order.
    #[must_use]
    pub fn backend_addrs(&self) -> &[SocketAddr] {
        &self.backend_addrs
    }

    /// Begin graceful shutdown: stop accepting, let workers drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Shut down (if not already requested) and wait for every queued and
    /// in-flight request to be answered and all threads to exit.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(health) = self.health_thread.take() {
            let _ = health.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    router: &Router,
    retry_after_s: u32,
    shutdown: &AtomicBool,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream)) => reject_busy(router, stream, retry_after_s),
                Err(TrySendError::Disconnected(_)) => break,
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Dropping `tx` closes the queue; workers drain and exit.
}

/// Answer `503 + Retry-After` without occupying a worker.
fn reject_busy(router: &Router, mut stream: TcpStream, retry_after_s: u32) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    // Drain the request head so closing does not RST away the 503.
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
    router.metrics.requests.inc();
    router.metrics.count_response(503);
    let body = ApiError::new(503, "gateway saturated").to_json();
    let wire = format!(
        "HTTP/1.1 503 {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nretry-after: {}\r\nconnection: close\r\n\r\n{}",
        http::reason_phrase(503),
        body.len(),
        retry_after_s,
        body
    );
    let _ = stream.write_all(wire.as_bytes());
}

fn worker_loop(
    router: &Arc<Router>,
    tracer: &Tracer,
    rx: &RankedMutex<Receiver<TcpStream>>,
    config: &GatewayConfig,
    backend_addrs: &[SocketAddr],
    shutdown: &AtomicBool,
) {
    loop {
        let next = rx.lock().recv();
        let Ok(stream) = next else { break };
        handle_connection(router, tracer, &stream, config, backend_addrs, shutdown);
    }
}

/// Serve sequential keep-alive requests from one client connection.
fn handle_connection(
    router: &Arc<Router>,
    tracer: &Tracer,
    stream: &TcpStream,
    config: &GatewayConfig,
    backend_addrs: &[SocketAddr],
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));

    let mut reader = BufReader::new(stream);
    let mut served = 0usize;
    loop {
        let request = http::read_request(&mut reader);
        let start = Instant::now();
        let (response, trace, client_close) = match request {
            Ok(request) => {
                router.metrics.requests.inc();
                // Propagate the caller's trace id, or mint one at the edge.
                let trace = request.trace_id().unwrap_or_else(TraceId::mint);
                let response = {
                    let mut span = tracer.ctx(trace).child("gateway.route");
                    span.tag("path", request.path.clone());
                    let response = respond(router, backend_addrs, &request, span.ctx());
                    span.tag("status", response.status.to_string());
                    response
                };
                (response, Some(trace), request.wants_close())
            }
            Err(HttpError::ClosedEarly | HttpError::Io(_)) => return,
            Err(e) => {
                router.metrics.requests.inc();
                router.metrics.count_response(400);
                let mut out = stream;
                let _ = write_response(
                    &mut out,
                    &Forwarded {
                        status: 400,
                        content_type: "application/json".to_owned(),
                        body: ApiError::new(400, format!("bad request: {e}")).to_json(),
                        backend: None,
                    },
                    false,
                    None,
                );
                return;
            }
        };

        served += 1;
        let keep_alive =
            !client_close && served < KEEP_ALIVE_MAX && !shutdown.load(Ordering::SeqCst);
        let mut out = stream;
        let write_result = write_response(&mut out, &response, keep_alive, trace);
        let _ = out.flush();
        router.metrics.count_response(response.status);
        let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        router.metrics.latency.observe_us(elapsed_us);
        if !keep_alive || write_result.is_err() {
            return;
        }
    }
}

/// Dispatch one request: local endpoints (`/v1/healthz`, `/v1/metricsz`,
/// `/v1/tracez`, …) are answered by the gateway itself; everything else is
/// forwarded under the request's span context.
fn respond(
    router: &Arc<Router>,
    backend_addrs: &[SocketAddr],
    request: &Request,
    ctx: cactus_obs::SpanCtx<'_>,
) -> Forwarded {
    if request.method == "POST" && request.path == "/v1/workloads" {
        return broadcast_workload(backend_addrs, request, ctx);
    }
    if request.method != "GET" {
        return Forwarded {
            status: 405,
            content_type: "application/json".to_owned(),
            body: ApiError::new(405, "only GET is supported (POST only on /v1/workloads)")
                .to_json(),
            backend: None,
        };
    }
    match request.path.as_str() {
        "/v1/healthz" => Forwarded {
            status: 200,
            content_type: "text/plain; charset=utf-8".to_owned(),
            body: "ok\n".to_owned(),
            backend: None,
        },
        "/v1/metricsz" => Forwarded {
            status: 200,
            content_type: "text/plain; charset=utf-8".to_owned(),
            body: render_metrics(&router.metrics, &router.health, &router.pool, backend_addrs),
            backend: None,
        },
        "/v1/tracez" => tracez(ctx, request.query.as_deref()),
        "/v1/store/manifest" => Forwarded {
            status: 200,
            content_type: "text/plain; charset=utf-8".to_owned(),
            body: sync::fleet_manifest(router, backend_addrs),
            backend: None,
        },
        "/v1/devices" => Forwarded {
            status: 200,
            content_type: "text/csv; charset=utf-8".to_owned(),
            body: fleet_devices(router, backend_addrs),
            backend: None,
        },
        path if path.starts_with("/v1/compare/") => compare::compare(router, request, ctx),
        _ => {
            // Re-assemble the full target so query strings survive the
            // trip to the backend.
            let target = match &request.query {
                Some(q) => format!("{}?{q}", request.path),
                None => request.path.clone(),
            };
            // Edge catalog check: a device id the catalog has never heard
            // of can't be answered by any backend — reject here with the
            // envelope instead of spending fleet attempts on it.
            if let Some(device) = device_for_target(&target) {
                if cactus_gpu::by_id(&device).is_none() {
                    let known = cactus_gpu::catalog::device_ids().join(", ");
                    return Forwarded {
                        status: 404,
                        content_type: "application/json".to_owned(),
                        body: ApiError::new(
                            404,
                            format!("unknown device {device:?}; the catalog has: {known}"),
                        )
                        .to_json(),
                        backend: None,
                    };
                }
            }
            let response = router.forward(&target, &routing_key(&target), Some(ctx));
            // A 200 profile answer means the winning backend durably holds
            // the record; copy it to the key's follower replica while the
            // request is still warm (deduped per key per process).
            if response.status == 200 {
                if let Some(winner) = response.backend {
                    sync::replicate_after_forward(router, &target, winner, Some(ctx));
                }
            }
            response
        }
    }
}

/// `POST /v1/workloads`: validate the submitted IR definition at the edge,
/// then broadcast it to every backend so the workload becomes routable
/// wherever the hash ring may land its profile requests.
///
/// Pre-validation runs the exact stack every backend runs
/// ([`cactus_serve::service::validate_submission`]), so a deterministic
/// rejection (`422` with the findings envelope, or a `400` name conflict)
/// is answered here before any backend persists anything — the fleet never
/// ends up half-registered over a verdict the gateway could have reached
/// itself. During the fan-out, any backend that is unreachable or answers
/// non-200 leaves the fleet divergent, and the client is told so: a `200`
/// is returned only when *every* backend accepted; otherwise the gateway
/// answers a retryable `502` naming the split (re-POSTing the same
/// definition is idempotent and converges the stragglers, and anti-entropy
/// replays `wir/` records into re-admitted backends as well).
fn broadcast_workload(
    backend_addrs: &[SocketAddr],
    request: &Request,
    ctx: cactus_obs::SpanCtx<'_>,
) -> Forwarded {
    use cactus_serve::service::{validate_submission, WorkloadRejection};
    match validate_submission(&request.body) {
        Ok(_) => {}
        Err(WorkloadRejection::Invalid(findings)) => {
            return Forwarded {
                status: 422,
                content_type: "application/json".to_owned(),
                body: cactus_serve::routes::workload_rejection_body(&findings),
                backend: None,
            }
        }
        Err(WorkloadRejection::Conflict(msg)) => {
            return Forwarded {
                status: 400,
                content_type: "application/json".to_owned(),
                body: ApiError::new(400, msg).to_json(),
                backend: None,
            }
        }
        Err(WorkloadRejection::Store(msg)) => {
            return Forwarded {
                status: 500,
                content_type: "application/json".to_owned(),
                body: ApiError::new(500, msg).to_json(),
                backend: None,
            }
        }
    }
    let mut accepted: Option<Forwarded> = None;
    let mut rejected: Option<Forwarded> = None;
    let mut accepts = 0usize;
    let mut failures = 0usize;
    for (index, addr) in backend_addrs.iter().enumerate() {
        let mut span = ctx.child("proxy.attempt");
        span.tag("backend", addr.to_string());
        match Client::new(*addr).post_traced("/v1/workloads", &request.body, Some(ctx.trace())) {
            Ok(reply) => {
                span.tag("status", reply.status.to_string());
                let content_type = reply
                    .header("content-type")
                    .unwrap_or("text/plain; charset=utf-8")
                    .to_owned();
                let forwarded = Forwarded {
                    status: reply.status,
                    content_type,
                    body: reply.body,
                    backend: Some(index),
                };
                if reply.status == 200 {
                    accepts += 1;
                    accepted.get_or_insert(forwarded);
                } else {
                    failures += 1;
                    rejected.get_or_insert(forwarded);
                }
            }
            Err(e) => {
                span.tag("error", e.to_string());
                failures += 1;
            }
        }
    }
    match (accepted, failures) {
        (Some(ok), 0) => ok,
        (Some(_), _) => Forwarded {
            status: 502,
            content_type: "application/json".to_owned(),
            body: ApiError::new(
                502,
                format!(
                    "workload accepted by {accepts} of {} backend(s); the rest were \
                     unreachable or refused it — resubmit to converge the fleet",
                    backend_addrs.len()
                ),
            )
            .to_json(),
            backend: None,
        },
        // Nothing accepted: a deterministic backend verdict (unexpected
        // after edge pre-validation, e.g. a version-skewed backend) beats
        // a generic 502.
        (None, _) => rejected.unwrap_or_else(|| Forwarded {
            status: 502,
            content_type: "application/json".to_owned(),
            body: ApiError::new(502, "no backend accepted the workload submission").to_json(),
            backend: None,
        }),
    }
}

/// `/v1/tracez[?trace=ID]`: the gateway's span ring as JSON lines. The
/// tracer is reached through the request's own span context.
fn tracez(ctx: cactus_obs::SpanCtx<'_>, query: Option<&str>) -> Forwarded {
    let filter = match query.and_then(|q| {
        q.split('&')
            .find_map(|pair| pair.strip_prefix("trace="))
            .map(|v| TraceId::parse(v).ok_or(v))
    }) {
        Some(Err(bad)) => {
            return Forwarded {
                status: 400,
                content_type: "application/json".to_owned(),
                body: ApiError::new(
                    400,
                    format!("invalid trace id {bad:?}; expected 16 hex digits"),
                )
                .to_json(),
                backend: None,
            }
        }
        Some(Ok(id)) => Some(id),
        None => None,
    };
    Forwarded {
        status: 200,
        content_type: "application/x-ndjson".to_owned(),
        body: ctx.tracer().render(filter),
        backend: None,
    }
}

/// The fleet-wide device catalog: the same 10-column CSV shape a single
/// backend's `/v1/devices` serves (so the typed client parses both), with
/// `modeled` meaning "at least one backend models it", prefixed by one
/// comment line per backend naming its observed device set.
fn fleet_devices(router: &Router, backend_addrs: &[SocketAddr]) -> String {
    let mut out = String::new();
    for (i, addr) in backend_addrs.iter().enumerate() {
        let set = router
            .capabilities
            .devices(i)
            .map_or_else(|| "unknown".to_owned(), |d| d.join(" "));
        out.push_str(&format!("# backend {i} = {addr}: {set}\n"));
    }
    // `None` = no backend observed yet: report the whole catalog as modeled,
    // matching the router's optimistic treatment of unknown backends.
    let fleet = router.capabilities.fleet_devices();
    out.push_str(
        "device,modeled,name,store_version,sm_count,peak_gips,peak_gtxn_per_s,\
         elbow_intensity,dram_bandwidth_gbps,l2_bytes\n",
    );
    for entry in cactus_gpu::CATALOG {
        let device = entry.device();
        let modeled = fleet
            .as_ref()
            .is_none_or(|ids| ids.iter().any(|id| id == entry.id));
        out.push_str(&format!(
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{}\n",
            entry.id,
            modeled,
            device.name,
            entry.store_version(),
            device.sm_count,
            device.peak_gips(),
            device.peak_gtxn_per_s(),
            device.elbow_intensity(),
            device.dram_bandwidth_gbps,
            device.l2.size_bytes,
        ));
    }
    out
}

/// The shard key for a request path. Profile endpoints
/// (`/v1/<endpoint>/<device>/<scale>/<workload>`) key on the full tuple so
/// every view of one profile lands on the same shard cache; similarity
/// reference queries (`/v1/similar?device=&scale=&workload=`) key on that
/// triple so repeated queries about one profile land on the backend whose
/// index already ingested it; anything else keys on the whole path
/// (inline-vector and stats queries thereby share one backend's index).
#[must_use]
pub fn routing_key(target: &str) -> String {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let trimmed = path.trim_matches('/');
    if trimmed == "v1/similar" || trimmed == "v1/similar/stats" {
        let param = |name: &str| {
            query?.split('&').find_map(|pair| {
                let (k, v) = pair.split_once('=')?;
                (k == name).then_some(v)
            })
        };
        if let (Some(d), Some(s), Some(w)) = (param("device"), param("scale"), param("workload")) {
            return format!("similar/{d}/{s}/{w}");
        }
        return trimmed.to_owned();
    }
    let parts: Vec<&str> = trimmed.split('/').collect();
    if let ["v1", rest @ ..] = parts.as_slice() {
        if rest.len() == 4 {
            return rest.join("/");
        }
    }
    trimmed.to_owned()
}

/// Write a forwarded (or locally produced) response in the same wire shape
/// `cactus-serve` uses, echoing the request's trace id. The gateway keeps
/// its own writer because forwarded bodies carry the backend's content type
/// verbatim.
fn write_response<W: Write>(
    out: &mut W,
    response: &Forwarded,
    keep_alive: bool,
    trace: Option<TraceId>,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let trace_header = trace.map_or(String::new(), |t| format!("{TRACE_HEADER}: {t}\r\n"));
    // One write_all: fragment-per-write on a raw socket triggers Nagle +
    // delayed-ACK stalls (~40 ms) on the peer.
    let wire = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}connection: {}\r\n\r\n{}",
        response.status,
        http::reason_phrase(response.status),
        response.content_type,
        response.body.len(),
        trace_header,
        connection,
        response.body
    );
    out.write_all(wire.as_bytes())
}

/// The health thread: promote cooled-down ejections to half-open,
/// (optionally) actively probe routable backends so failures are noticed
/// even when no traffic is flowing, and run one store anti-entropy pass
/// for every backend that just passed its half-open trial — a re-admitted
/// backend may have missed replicated writes while it was away.
fn health_loop(
    router: &Arc<Router>,
    tracer: &Tracer,
    backend_addrs: &[SocketAddr],
    probe_interval: Option<Duration>,
    probe_timeout: Duration,
    shutdown: &AtomicBool,
) {
    let health = &router.health;
    let mut last_probe = Instant::now();
    while !shutdown.load(Ordering::SeqCst) {
        health.tick();
        if let Some(interval) = probe_interval {
            if last_probe.elapsed() >= interval {
                last_probe = Instant::now();
                for (i, &addr) in backend_addrs.iter().enumerate() {
                    // Ejected backends sit out their cooldown; probing them
                    // early would tell us nothing tick() doesn't.
                    if health.state(i) == HealthState::Ejected {
                        continue;
                    }
                    let probe = Client::new(addr)
                        .with_timeout(probe_timeout)
                        .get("/v1/healthz");
                    match probe {
                        Ok(reply) if reply.status == 200 => {
                            health.report_success(i);
                            // The body advertises the backend's modeled
                            // devices; refreshing on every probe keeps the
                            // capability map right across restarts that
                            // change a backend's device set.
                            if let Some(devices) = parse_health_devices(&reply.body) {
                                router.capabilities.record(i, devices);
                            }
                        }
                        _ => health.report_failure(i),
                    }
                }
            }
        }
        // Re-admissions are flagged by the data path and the probes alike;
        // each one gets exactly one repair pass here, off the request path.
        for i in router.health.take_readmitted() {
            let _ = sync::anti_entropy(router, tracer, i);
        }
        std::thread::sleep(HEALTH_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_key_extracts_profile_tuple() {
        assert_eq!(
            routing_key("/v1/profile/rtx-3080/tiny/GMS"),
            "profile/rtx-3080/tiny/GMS"
        );
        assert_eq!(
            routing_key("/v1/kernels/a100/small/PRT"),
            "kernels/a100/small/PRT"
        );
        assert_eq!(routing_key("/v1/workloads"), "v1/workloads");
        assert_eq!(routing_key("/other/path"), "other/path");
    }

    #[test]
    fn routing_key_shards_similar_queries_on_the_triple() {
        assert_eq!(
            routing_key("/v1/similar?device=rtx-3080&scale=tiny&workload=GMS&k=3"),
            "similar/rtx-3080/tiny/GMS"
        );
        assert_eq!(
            routing_key("/v1/similar/stats?device=rtx-3080&scale=tiny&workload=GMS"),
            "similar/rtx-3080/tiny/GMS"
        );
        // Vector and stats queries without a triple share the path key so
        // they reach one backend's (seeded) index consistently.
        assert_eq!(routing_key("/v1/similar?vector=1,2,3&k=2"), "v1/similar");
        assert_eq!(routing_key("/v1/similar/stats"), "v1/similar/stats");
    }

    #[test]
    fn gateway_requires_backends() {
        let err = Gateway::start(GatewayConfig::default(), Vec::new());
        assert!(err.is_err());
    }
}
