//! The gateway tier on the shared daemon skeleton
//! ([`cactus_serve::daemon`]): configuration, the [`Handler`] that routes
//! one request — local pages, the workload broadcast, or a forward through
//! the [`Router`] — and the health thread.
//!
//! ```text
//!                    ┌────────────── health thread ───────────────┐
//!                    │ every probe interval:                      │
//!                    │ probe round: GET /v1/healthz per backend   │
//!                    │ (the first runs before serving; each probe │
//!                    │ refreshes the capability map)              │
//!                    │ then one store repair pass (sync::repair)  │
//!                    └───────────────────┬────────────────────────┘
//!                                        ▼
//! daemon workers ──► GatewayHandler::respond ──► Router::forward
//!                                                  rank → health →
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

use std::borrow::Cow;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cactus_obs::{SpanCtx, TraceId, Tracer};
use cactus_serve::daemon::{self, Daemon, Event, Handler, Limits, Periodic};
use cactus_serve::http::{query_param, Request, Response};
use cactus_serve::routes::{tracez, workload_rejection, CSV, TEXT};
use cactus_serve::server::TRACE_CAPACITY;
use cactus_serve::wire::{self, parse_health_devices, DeviceEntry};

use crate::compare;
use crate::connpool::ConnPool;
use crate::health::HealthTracker;
use crate::metrics::{render_metrics, GatewayMetrics};
use crate::proxy::{Router, HEDGE_CAP};
use crate::ring::HashRing;
use crate::sync;

/// The cross-device comparison route (`cactus-lint` checks served routes
/// against client-consumed paths, so the pattern lives here as a literal).
pub const COMPARE_ROUTE: &str = "/v1/compare/{scale}/{workload}";

/// Gateway tuning knobs: the values a deployment sets. Everything else
/// is a constant — the daemon's idle timeout and request deadline
/// ([`daemon::READ_TIMEOUT`], 5 s) and `Retry-After`
/// ([`daemon::RETRY_AFTER_S`], 1 s), the pooled connections' I/O
/// timeout (60 s), dial, probe and repair bound (`PROBE_TIMEOUT`, 500 ms) and idle
/// cap (8 per backend), the retry policy (3 attempts, backoff from 10 ms
/// capped at 200 ms), the hedge quantile (p90) and cap (`HEDGE_CAP`, 2 s),
/// and the `/v1/tracez` ring ([`TRACE_CAPACITY`] spans).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads proxying requests.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before the gateway
    /// answers `503`.
    pub queue: usize,
    /// Consecutive failures before a backend is ejected.
    pub eject_after: u32,
    /// How long an ejected backend sits out before a half-open trial; zero
    /// means no sit-out, so an ejected backend is half-open at once.
    pub cooldown: Duration,
    /// Interval between active `/v1/healthz` probe rounds, each followed by
    /// one store repair pass — the only code that copies store records
    /// between backends. `None` leaves only the round `Gateway::start` runs
    /// before serving: health is then driven by data-path outcomes, the
    /// gateway sends no background traffic, and no record is copied to a
    /// replica.
    pub probe_interval: Option<Duration>,
    /// Whether a forward's first attempt hedges on the next candidate when
    /// the primary stalls.
    pub hedge: bool,
    /// Minimum hedge delay (also the delay while a backend's latency window
    /// is empty); at most the 2 s hedge cap.
    pub hedge_floor: Duration,
    /// Optional JSONL span log: every finished span is appended here.
    pub span_log: Option<PathBuf>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 8,
            queue: 128,
            eject_after: 2,
            cooldown: Duration::from_secs(1),
            probe_interval: Some(Duration::from_millis(500)),
            hedge: true,
            hedge_floor: Duration::from_millis(20),
            span_log: None,
        }
    }
}

impl GatewayConfig {
    /// Check the values that come from outside the program: a hedge floor
    /// no higher than the hedge cap.
    ///
    /// # Errors
    ///
    /// A message naming the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.hedge_floor > HEDGE_CAP {
            return Err(format!(
                "hedge floor {:?} is above the hedge cap {HEDGE_CAP:?}",
                self.hedge_floor
            ));
        }
        Ok(())
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
        span.tag("status", response.status);
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

/// A running gateway. Call [`Gateway::join`] to stop it; dropping the
/// handle alone does not.
pub struct Gateway {
    daemon: Daemon<GatewayHandler>,
    /// The health thread; `None` without a probe interval.
    health_thread: Option<Periodic>,
}

impl Gateway {
    /// Bind the listener, rank over `backends`, run the first
    /// probe round, and spawn the worker pool and health thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects an empty backend list and a
    /// config that fails [`GatewayConfig::validate`].
    pub fn start(config: GatewayConfig, backends: Vec<SocketAddr>) -> io::Result<Self> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one backend",
            ));
        }
        config
            .validate()
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        let bound = daemon::bind(&config.addr)?;

        // Rank labels are the backend address strings: stable across
        // restarts of the same fleet layout, independent of list order.
        let labels: Vec<String> = backends.iter().map(ToString::to_string).collect();
        let router = Arc::new(Router::new(
            HashRing::new(&labels),
            Arc::new(HealthTracker::new(
                backends.len(),
                config.eject_after,
                config.cooldown,
            )),
            Arc::new(ConnPool::new(backends.clone())),
            Arc::new(GatewayMetrics::new(backends.len())),
            config.hedge.then_some(config.hedge_floor),
        ));

        // Capability discovery is the first probe round, run before traffic
        // flows. A backend that does not answer stays "unknown"
        // (optimistically routable) and takes one failure.
        probe_round(&router, backends.len());

        let mut tracer = Tracer::new(TRACE_CAPACITY);
        if let Some(path) = &config.span_log {
            tracer = tracer.with_span_log(path)?;
        }

        let daemon = bound.serve(
            Limits {
                workers: config.workers,
                queue: config.queue,
            },
            GatewayHandler {
                router,
                tracer: Arc::new(tracer),
                backend_addrs: backends,
            },
        );

        let health_thread = config.probe_interval.map(|interval| {
            let handler = Arc::clone(daemon.handler());
            Periodic::spawn(interval, move || probe_and_repair(&handler))
        });
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

    /// Shut down (if not already requested) and wait for every queued and
    /// in-flight request to be answered and all threads to exit.
    pub fn join(self) {
        if let Some(health_thread) = self.health_thread {
            health_thread.stop();
        }
        self.daemon.join();
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
    if request.method() == "POST" && request.path == "/v1/workloads" {
        return broadcast_workload(router, backend_addrs, request, ctx);
    }
    if request.method() != "GET" {
        return Response::error(405, "only GET is supported (POST only on /v1/workloads)");
    }
    match request.path.as_str() {
        "/v1/healthz" => Response::ok("ok\n", TEXT),
        "/v1/metricsz" => Response::ok(
            render_metrics(&router.metrics, &router.health, &router.pool, backend_addrs),
            TEXT,
        ),
        "/v1/tracez" => tracez(ctx.tracer(), request.query()),
        "/v1/store/manifest" => Response::ok(sync::fleet_manifest(router, backend_addrs), TEXT),
        "/v1/devices" => Response::ok(fleet_devices(router, backend_addrs), CSV),
        path if path.starts_with("/v1/compare/") => compare::compare(router, request, ctx),
        _ => {
            // The full target as sent, so query strings survive the trip
            // to the backend.
            let target = request.target();
            let (key, device) = parse_target(target);
            // Edge catalog check: a device id the catalog has never heard
            // of can't be answered by any backend — reject here with the
            // envelope instead of spending fleet attempts on it.
            if let Some(device) = device {
                if cactus_gpu::by_id(device).is_none() {
                    let known = cactus_gpu::catalog::device_ids().join(", ");
                    return Response::error(
                        404,
                        format!("unknown device {device:?}; the catalog has: {known}"),
                    );
                }
            }
            router.forward(target, &key, device, Some(ctx))
        }
    }
}

/// `POST /v1/workloads`: validate the submitted IR definition at the edge,
/// then broadcast it to every backend so the workload becomes routable
/// wherever the ranking may land its profile requests.
///
/// Pre-validation runs the one admission stack every backend runs
/// ([`cactus_serve::service::validate_submission`]) and answers a refusal
/// with the backends' own renderer
/// ([`cactus_serve::routes::workload_rejection`]), so a deterministic
/// rejection is answered here, byte for byte as a backend would, before any
/// backend persists anything. During the fan-out, any backend that is
/// unreachable or answers non-200 leaves the fleet divergent, and the
/// client is told so: a `200` is returned only when *every* backend
/// accepted; otherwise the gateway answers a retryable `502` naming the
/// split. Re-POSTing the same definition is idempotent and converges the
/// stragglers; so does the repair pass, which copies the `wir/<name>`
/// record to every backend that lacks it, where it passes the same stack.
fn broadcast_workload(
    router: &Router,
    backend_addrs: &[SocketAddr],
    request: &Request,
    ctx: SpanCtx<'_>,
) -> Response {
    if let Err(rejection) = cactus_serve::service::validate_submission(&request.body, None) {
        return workload_rejection(&rejection);
    }
    let mut accepted: Option<Response> = None;
    let mut rejected: Option<Response> = None;
    let mut accepts = 0usize;
    let mut failures = 0usize;
    for (i, addr) in backend_addrs.iter().enumerate() {
        let mut span = ctx.child("proxy.attempt");
        span.tag("backend", addr.to_string());
        let trace = Some(ctx.trace());
        match router.exchange(i, "POST", "/v1/workloads", &request.body, trace, None) {
            Ok(reply) => {
                span.tag("status", reply.status);
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

/// The shard key for a request target. Every target that addresses one
/// (device, scale, workload) triple keys on the triple's store key
/// `<device>/<scale>/<workload>` (`Triple::key` without a submitted
/// workload's `@digest`, which no path carries): the four views
/// (`/v1/<view>/<device>/<scale>/<workload>`), a store record
/// (`/v1/store/record/<device>/<scale>/<workload>`) and a similarity
/// reference query (`/v1/similar[/stats]?device=&scale=&workload=`). So
/// each of them reaches the owner of the triple's record first and its
/// follower next, and a triple is simulated once. Anything else keys on
/// its whole path (inline-vector and stats queries thereby share one
/// backend's index). Borrowed from `target` except for a similarity
/// query's triple.
#[must_use]
pub fn routing_key(target: &str) -> Cow<'_, str> {
    parse_target(target).0
}

/// The one parse of a forwarded target: its [`routing_key`] and the
/// catalog device it names, if any (empty counts as none).
fn parse_target(target: &str) -> (Cow<'_, str>, Option<&str>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = path.trim_matches('/');
    let rest = path.strip_prefix("v1/").unwrap_or_default();
    if rest == "similar" || rest == "similar/stats" {
        let device = query_param(query, "device");
        let key = match (
            device,
            query_param(query, "scale"),
            query_param(query, "workload"),
        ) {
            (Some(d), Some(s), Some(w)) => Cow::Owned(format!("{d}/{s}/{w}")),
            _ => Cow::Borrowed(path),
        };
        return (key, device.filter(|d| !d.is_empty()));
    }
    let triple = match rest.split_once('/') {
        Some(("store", tail)) => tail.strip_prefix("record/"),
        Some((view, tail)) if view != "compare" => Some(tail),
        _ => None,
    };
    match triple {
        Some(triple) if triple.split('/').count() == 3 => {
            (Cow::Borrowed(triple), triple.split('/').next())
        }
        _ => (Cow::Borrowed(path), None),
    }
}

/// One probe round: `GET /v1/healthz` on each of the `backends`, over the
/// pool, reported to the health tracker. A `200` also records the device
/// set its body advertises, so the capability map stays right across
/// restarts that change a backend's devices. Ejected backends are not
/// probed: they sit out their whole cooldown.
fn probe_round(router: &Router, backends: usize) {
    let health = &router.health;
    for i in 0..backends {
        if !health.available(i) {
            continue;
        }
        match router.probe(i) {
            Some(reply) if reply.status == 200 => {
                health.report_success(i);
                if let Some(devices) = parse_health_devices(&reply.body) {
                    router.capabilities.record(i, devices);
                }
            }
            _ => {
                health.report_failure(i);
            }
        }
    }
}

/// The health thread's job, run every probe interval: a probe round, so
/// failures are noticed even when no traffic is flowing, then one store
/// repair pass over the backends available after that round — the one
/// place records are copied between replicas.
fn probe_and_repair(gateway: &GatewayHandler) {
    probe_round(&gateway.router, gateway.backend_addrs.len());
    sync::repair(&gateway.router, &gateway.tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_key_extracts_profile_tuple() {
        assert_eq!(
            routing_key("/v1/profile/rtx-3080/tiny/GMS"),
            "rtx-3080/tiny/GMS"
        );
        assert_eq!(routing_key("/v1/kernels/a100/small/PRT"), "a100/small/PRT");
        assert_eq!(routing_key("/v1/workloads"), "v1/workloads");
        assert_eq!(routing_key("/other/path"), "other/path");
        // Every other route of a triple shares its key, borrowed.
        for target in [
            "/v1/dominant/a100/small/PRT?threshold=0.5",
            "/v1/store/record/a100/small/PRT",
        ] {
            let key = routing_key(target);
            assert!(matches!(key, Cow::Borrowed("a100/small/PRT")), "{target}");
        }
        assert_eq!(
            routing_key("/v1/store/record/wir/gnn"),
            "v1/store/record/wir/gnn"
        );
        assert_eq!(
            routing_key("/v1/compare/small/PRT?devices=a100,rtx-3080"),
            "v1/compare/small/PRT"
        );
    }

    #[test]
    fn routing_key_shards_similar_queries_on_the_triple() {
        assert_eq!(
            routing_key("/v1/similar?device=rtx-3080&scale=tiny&workload=GMS&k=3"),
            "rtx-3080/tiny/GMS"
        );
        assert_eq!(
            routing_key("/v1/similar/stats?device=rtx-3080&scale=tiny&workload=GMS"),
            "rtx-3080/tiny/GMS"
        );
        // Vector and stats queries without a triple share the path key so
        // they reach one backend's (seeded) index consistently.
        assert_eq!(routing_key("/v1/similar?vector=1,2,3&k=2"), "v1/similar");
        assert_eq!(routing_key("/v1/similar/stats"), "v1/similar/stats");
    }

    #[test]
    fn device_extraction_covers_the_routed_surface() {
        for (target, want) in [
            ("/v1/profile/rtx-3080/profile/GMS", Some("rtx-3080")),
            ("/v1/roofline/uhd-630/tiny/BFS", Some("uhd-630")),
            ("/v1/kernels/a100/profile/GMS", Some("a100")),
            ("/v1/dominant/a100/profile/GMS", Some("a100")),
            ("/v1/store/record/rtx-3060/tiny/GMS", Some("rtx-3060")),
            ("/v1/similar?device=rtx-3080&scale=tiny", Some("rtx-3080")),
            ("/v1/similar?scale=tiny", None),
            ("/v1/compare/profile/GMS?devices=a,b", None),
            ("/v1/healthz", None),
            ("/v1/devices", None),
            ("/v1/store/manifest", None),
            (
                "/v1/similar/stats?device=a100&scale=tiny&workload=GMS",
                Some("a100"),
            ),
            ("/v1/similar?device=&scale=tiny&workload=GMS", None),
            ("/v1/store/record/wir/gnn", None),
        ] {
            assert_eq!(parse_target(target).1, want, "target {target}");
        }
    }

    #[test]
    fn gateway_requires_backends() {
        let err = Gateway::start(GatewayConfig::default(), Vec::new());
        assert!(err.is_err());
    }

    #[test]
    fn gateway_rejects_a_hedge_floor_above_the_cap() {
        let config = GatewayConfig {
            hedge_floor: Duration::from_secs(3),
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
