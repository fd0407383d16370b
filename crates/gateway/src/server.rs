//! The gateway tier on the shared daemon skeleton
//! ([`cactus_serve::daemon`]): configuration, the [`Handler`] that routes
//! one request — local pages, the workload broadcast, or a forward through
//! the [`Router`](crate::proxy::Router) — and the health thread.
//!
//! ```text
//!                    ┌────────────── health thread ───────────────┐
//!                    │ tick(): Ejected → HalfOpen after cooldown  │
//!                    │ active probes: GET /v1/healthz per backend │
//!                    │ (each probe refreshes the capability map)  │
//!                    └───────────────────┬────────────────────────┘
//!                                        ▼
//! daemon workers ──► GatewayHandler::respond ──► Router::forward
//!                                                  ring → health →
//!                                                  pool → hedge/retry
//! ```
//!
//! The listener, queue, worker pool, backpressure, keep-alive loop and
//! drain are `cactus-serve`'s, run unchanged; what differs is the work each
//! request does — a proxied exchange instead of a local simulation. The
//! gateway serves its own `/v1/healthz`, `/v1/metricsz`, `/v1/tracez`, a
//! fleet-wide `/v1/devices` catalog view, and the cross-device
//! `/v1/compare` synthesis locally; every other `GET` is forwarded (so an
//! unversioned path earns a backend's `404`) — after an edge catalog
//! check, so a request for a device the catalog has never heard of is
//! answered `404` here instead of burning a backend attempt.
//!
//! Each request gets one trace id: propagated from the client's
//! `x-cactus-trace` header when present, minted by the skeleton otherwise.
//! The id is echoed back to the client, forwarded to the chosen backend,
//! and roots a `gateway.route` span whose `proxy.attempt` children record
//! the failover path — so one request yields one id visible in both tiers'
//! `/v1/tracez`.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cactus_obs::{SpanCtx, TraceId, Tracer};
use cactus_serve::daemon::{self, Daemon, Event, Handler, Limits};
use cactus_serve::http::{Request, Response};
use cactus_serve::routes::{tracez, workload_rejection, CSV, TEXT};
use cactus_serve::wire::{self, parse_health_devices, DeviceEntry};
use cactus_serve::Client;

use crate::capability::device_for_target;
use crate::compare;
use crate::connpool::ConnPool;
use crate::health::{HealthState, HealthTracker};
use crate::metrics::{render_metrics, GatewayMetrics};
use crate::proxy::{RoutePolicy, Router};
use crate::ring::HashRing;
use crate::sync;

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

/// The gateway's half of the daemon: what every worker needs to route one
/// request.
struct GatewayHandler {
    router: Arc<Router>,
    tracer: Arc<Tracer>,
    backend_addrs: Vec<SocketAddr>,
}

impl Handler for GatewayHandler {
    fn respond(&self, request: &Request, trace: TraceId) -> Response {
        let mut span = self.tracer.ctx(trace).child("gateway.route");
        span.tag("path", request.path.clone());
        let response = respond(&self.router, &self.backend_addrs, request, span.ctx());
        span.tag("status", response.status.to_string());
        response
    }

    fn observe(&self, event: Event) {
        let m = &self.router.metrics;
        match event {
            Event::Accepted | Event::Dequeued => {}
            Event::Rejected => {
                m.requests.inc();
                m.count_response(503);
            }
            Event::Request { .. } => m.requests.inc(),
            Event::Responded { status, elapsed_us } => {
                m.count_response(status);
                m.latency.observe_us(elapsed_us);
            }
        }
    }
}

/// A running gateway. Call [`Gateway::shutdown`] then [`Gateway::join`] to
/// stop it; dropping the handle alone does not.
pub struct Gateway {
    daemon: Daemon<GatewayHandler>,
    health_thread: JoinHandle<()>,
}

impl Gateway {
    /// Bind the listener, build the ring over `backends`, and spawn the
    /// worker pool and health thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects an empty backend list and a
    /// policy that fails [`RoutePolicy::validate`].
    pub fn start(config: GatewayConfig, backends: Vec<SocketAddr>) -> io::Result<Self> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one backend",
            ));
        }
        config
            .policy
            .validate()
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        let bound = daemon::bind(&config.addr)?;

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

        let daemon = bound.serve(
            Limits {
                workers: config.workers,
                queue: config.queue,
                read_timeout: config.read_timeout,
                retry_after_s: config.retry_after_s,
            },
            GatewayHandler {
                router,
                tracer: Arc::new(tracer),
                backend_addrs: backends,
            },
        );

        let health_thread = {
            let handler = Arc::clone(daemon.handler());
            let shutdown = daemon.shutdown_flag();
            std::thread::spawn(move || {
                health_loop(
                    &handler,
                    config.probe_interval,
                    config.probe_timeout,
                    &shutdown,
                );
            })
        };
        Ok(Self {
            daemon,
            health_thread,
        })
    }

    /// The bound listener address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.daemon.addr()
    }

    /// The shared routing state (tests read health and counters through it).
    #[must_use]
    pub fn router(&self) -> &Arc<Router> {
        &self.daemon.handler().router
    }

    /// The gateway's span sink (tests read span trees through it).
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.daemon.handler().tracer
    }

    /// The fleet addresses the ring was built over, in ring-index order.
    #[must_use]
    pub fn backend_addrs(&self) -> &[SocketAddr] {
        &self.daemon.handler().backend_addrs
    }

    /// Begin graceful shutdown: stop accepting, let workers drain.
    pub fn shutdown(&self) {
        self.daemon.shutdown();
    }

    /// Shut down (if not already requested) and wait for every queued and
    /// in-flight request to be answered and all threads to exit.
    pub fn join(self) {
        self.daemon.join();
        let _ = self.health_thread.join();
    }
}

/// Dispatch one request: local endpoints (`/v1/healthz`, `/v1/metricsz`,
/// `/v1/tracez`, …) are answered by the gateway itself; everything else is
/// forwarded under the request's span context.
fn respond(
    router: &Arc<Router>,
    backend_addrs: &[SocketAddr],
    request: &Request,
    ctx: SpanCtx<'_>,
) -> Response {
    if request.method == "POST" && request.path == "/v1/workloads" {
        return broadcast_workload(backend_addrs, request, ctx);
    }
    if request.method != "GET" {
        return Response::error(405, "only GET is supported (POST only on /v1/workloads)");
    }
    match request.path.as_str() {
        "/v1/healthz" => Response::ok("ok\n", TEXT),
        "/v1/metricsz" => Response::ok(
            render_metrics(&router.metrics, &router.health, &router.pool, backend_addrs),
            TEXT,
        ),
        "/v1/tracez" => tracez(ctx.tracer(), request.query.as_deref()),
        "/v1/store/manifest" => Response::ok(sync::fleet_manifest(router, backend_addrs), TEXT),
        "/v1/devices" => Response::ok(fleet_devices(router, backend_addrs), CSV),
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
            let device = device_for_target(&target);
            if let Some(device) = device {
                if cactus_gpu::by_id(device).is_none() {
                    let known = cactus_gpu::catalog::device_ids().join(", ");
                    return Response::error(
                        404,
                        format!("unknown device {device:?}; the catalog has: {known}"),
                    );
                }
            }
            forward_replicated(router, &target, device, ctx)
        }
    }
}

/// Forward `target`, which addresses `device`, on its routing key. A 200
/// profile answer means the winning backend durably holds the record; copy
/// it to the key's follower replica while the request is still warm
/// (deduped per key per process).
pub(crate) fn forward_replicated(
    router: &Arc<Router>,
    target: &str,
    device: Option<&str>,
    ctx: SpanCtx<'_>,
) -> Response {
    let (response, winner) = router.forward(target, &routing_key(target), device, Some(ctx));
    if let (200, Some(winner)) = (response.status, winner) {
        sync::replicate_after_forward(router, target, winner, Some(ctx));
    }
    response
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
    ctx: SpanCtx<'_>,
) -> Response {
    use cactus_serve::service::{validate_submission, WorkloadRejection};
    match validate_submission(&request.body) {
        Ok(_) => {}
        Err(WorkloadRejection::Invalid(findings)) => return workload_rejection(&findings),
        Err(WorkloadRejection::Conflict(msg)) => return Response::error(400, msg),
        Err(WorkloadRejection::Store(msg)) => return Response::error(500, msg),
    }
    let mut accepted: Option<Response> = None;
    let mut rejected: Option<Response> = None;
    let mut accepts = 0usize;
    let mut failures = 0usize;
    for addr in backend_addrs {
        let mut span = ctx.child("proxy.attempt");
        span.tag("backend", addr.to_string());
        match Client::new(*addr).post_traced("/v1/workloads", &request.body, Some(ctx.trace())) {
            Ok(reply) => {
                span.tag("status", reply.status.to_string());
                if reply.status == 200 {
                    accepts += 1;
                    accepted.get_or_insert_with(|| reply.into());
                } else {
                    failures += 1;
                    rejected.get_or_insert_with(|| reply.into());
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
        (Some(_), _) => Response::error(
            502,
            format!(
                "workload accepted by {accepts} of {} backend(s); the rest were \
                 unreachable or refused it — resubmit to converge the fleet",
                backend_addrs.len()
            ),
        ),
        // Nothing accepted: a deterministic backend verdict (unexpected
        // after edge pre-validation, e.g. a version-skewed backend) beats
        // a generic 502.
        (None, _) => rejected
            .unwrap_or_else(|| Response::error(502, "no backend accepted the workload submission")),
    }
}

/// The fleet-wide device catalog: a backend's `/v1/devices` table, written
/// by the same [`wire::write_devices`] so the typed client reads both, with
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
    let rows =
        DeviceEntry::catalog(|id| fleet.as_ref().is_none_or(|ids| ids.iter().any(|f| f == id)));
    wire::write_devices(&mut out, &rows);
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
    match trimmed.strip_prefix("v1/") {
        Some(tuple) if tuple.split('/').count() == 4 => tuple.to_owned(),
        _ => trimmed.to_owned(),
    }
}

/// The health thread: promote cooled-down ejections to half-open,
/// (optionally) actively probe routable backends so failures are noticed
/// even when no traffic is flowing, and run one store anti-entropy pass
/// for every backend that just passed its half-open trial — a re-admitted
/// backend may have missed replicated writes while it was away.
fn health_loop(
    gateway: &GatewayHandler,
    probe_interval: Option<Duration>,
    probe_timeout: Duration,
    shutdown: &AtomicBool,
) {
    let GatewayHandler {
        router,
        tracer,
        backend_addrs,
    } = gateway;
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

    #[test]
    fn gateway_rejects_a_hedge_floor_above_the_cap() {
        let config = GatewayConfig {
            policy: RoutePolicy {
                hedge_floor: Duration::from_secs(3),
                hedge_cap: Duration::from_secs(2),
                ..RoutePolicy::default()
            },
            ..GatewayConfig::default()
        };
        let backend = "127.0.0.1:1".parse().expect("addr");
        let err = Gateway::start(config, vec![backend])
            .err()
            .expect("floor above cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("hedge floor"), "{err}");
    }
}
