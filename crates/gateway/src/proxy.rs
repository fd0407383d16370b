//! The forwarding engine: candidate selection, retries with jittered
//! backoff, and latency-triggered hedging.
//!
//! Every request resolves to a routing key; rendezvous hashing ranks the
//! fleet into a failover list for that key (primary first). The proxy then:
//!
//! 1. **Filters by health** — ejected backends sink to the end of the list
//!    as a last resort (if every backend is ejected, trying one anyway beats
//!    a guaranteed 502, and doubles as an extra recovery probe).
//! 2. **Hedges the first attempt** — the worker that took the request runs
//!    the primary exchange itself and waits for the reply's *first byte*
//!    under a threshold derived from the primary's own recent latency
//!    window (p-quantile clamped to a floor/cap). Bytes in time: it reads
//!    the reply and settles inline — no thread, no channel. Only a stall
//!    spawns anything: the in-flight connection moves to a finisher thread,
//!    an identical request races it on the next candidate, the first
//!    usable reply wins, and the loser still reads its reply to the end
//!    before its connection goes back to the pool.
//! 3. **Retries retryable outcomes** — transport errors (which also feed the
//!    ejection tracker) and `503` backpressure move to the next candidate
//!    after a jittered exponential backoff. Any other status is the
//!    backend's answer and is forwarded verbatim.
//!
//! Retries are only safe because the data plane is GET-only (idempotent);
//! the gateway rejects other methods before reaching this module.
//!
//! Tracing: `Router::forward` takes the request's span context and files
//! one `proxy.attempt` span per backend attempt (tagged with the target,
//! whether a hedge was launched, and the outcome), and propagates the trace
//! id to the backend in the `x-cactus-trace` header so both tiers' span
//! logs carry the same id. Synthesized errors (`no backend in the fleet
//! models device`, `all attempts failed`) are the shared JSON envelope.

use std::io;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cactus_obs::{SpanCtx, TagValue, TraceId};
use cactus_serve::client::{ClientError, HttpReply, Sent};
use cactus_serve::http::Response;
use cactus_serve::Connection;

use crate::capability::CapabilityMap;
use crate::connpool::{ConnPool, PROBE_TIMEOUT};
use crate::health::HealthTracker;
use crate::metrics::GatewayMetrics;
use crate::ring::{hash_str, HashRing};

/// Total backend attempts per request (first try + retries).
const MAX_ATTEMPTS: usize = 3;

/// First backoff delay before a retry; doubles per retry.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Ceiling on any single backoff delay.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Latency quantile of the primary's window that arms the hedge timer.
const HEDGE_QUANTILE: f64 = 0.9;

/// Maximum hedge delay; a configured hedge floor may not exceed it.
pub(crate) const HEDGE_CAP: Duration = Duration::from_secs(2);

/// The shared routing state: ranking + health + pool + counters.
#[derive(Debug)]
pub struct Router {
    ring: HashRing,
    pub health: Arc<HealthTracker>,
    pub pool: Arc<ConnPool>,
    pub metrics: Arc<GatewayMetrics>,
    /// Which catalog devices each backend models; consulted before the
    /// ranked failover order so requests never reach an incapable backend.
    pub capabilities: CapabilityMap,
    /// The minimum hedge delay; `None` when hedging is off.
    hedge_floor: Option<Duration>,
}

enum Attempt {
    /// A backend answered; forward its reply.
    Reply(HttpReply),
    /// Backend saturated (503): retryable, no health penalty.
    Saturated(HttpReply),
    /// Transport or parse failure: retryable, counts toward ejection.
    Failed,
}

impl Router {
    #[must_use]
    pub(crate) fn new(
        ring: HashRing,
        health: Arc<HealthTracker>,
        pool: Arc<ConnPool>,
        metrics: Arc<GatewayMetrics>,
        hedge_floor: Option<Duration>,
    ) -> Self {
        let n = metrics.backends.len();
        Self {
            ring,
            health,
            pool,
            metrics,
            capabilities: CapabilityMap::new(n),
            hedge_floor,
        }
    }

    /// The replica set for the triple key `<device>/<scale>/<workload>`:
    /// the first two backends in its rendezvous ranking that model its
    /// device, independent of current health — with every backend up, the first
    /// two candidates a forward of any route of the triple tries.
    /// Health-independence is the point — the set names where a record
    /// *should* live, so the repair pass can refill a backend that was down
    /// when the record was written. Capability-dependence is equally the
    /// point: a backend that does not model the key's device could never
    /// serve (or re-derive) the record, so it is not a legitimate replica
    /// home.
    #[must_use]
    pub(crate) fn replica_set(&self, triple: &str) -> Vec<usize> {
        let device = triple.split('/').next().unwrap_or_default();
        let mut set = self.ring.candidates(triple);
        set.retain(|&i| self.capabilities.capable(i, device));
        set.truncate(2);
        set
    }

    /// One pooled exchange with backend `i` outside the retry/hedge
    /// machinery and with no health report. Every gateway→backend exchange
    /// other than a forward goes through here: probes, the workload
    /// broadcast, the repair pass and the fleet manifest. A backend serves
    /// one keep-alive connection per worker, so an exchange on a fresh
    /// connection could wait behind workers that idle pooled connections
    /// hold. `TimedOut` when no byte of the reply arrives within `stall`;
    /// the connection is then dropped with its reply unread.
    pub(crate) fn exchange(
        &self,
        i: usize,
        method: &str,
        path: &str,
        body: &str,
        trace: Option<TraceId>,
        stall: Option<Duration>,
    ) -> Result<HttpReply, ClientError> {
        let mut conn = self.pool.checkout(i);
        if conn.send(method, path, body, trace, stall)? == Sent::InFlight {
            return Err(ClientError::Io(io::ErrorKind::TimedOut.into()));
        }
        let reply = conn.finish()?;
        self.pool.checkin(i, conn);
        Ok(reply)
    }

    /// `GET /v1/healthz` on backend `i`, `None` unless the reply begins
    /// within [`PROBE_TIMEOUT`].
    #[must_use]
    pub(crate) fn probe(&self, i: usize) -> Option<HttpReply> {
        self.exchange(i, "GET", "/v1/healthz", "", None, Some(PROBE_TIMEOUT))
            .ok()
    }

    /// `GET path` from backend `i`: `Some(body)` on a 200, `None` otherwise.
    #[must_use]
    pub(crate) fn fetch(&self, i: usize, path: &str, trace: Option<TraceId>) -> Option<String> {
        let reply = self.exchange(i, "GET", path, "", trace, None).ok()?;
        (reply.status == 200).then_some(reply.body)
    }

    /// Push one store record to backend `i` via
    /// `POST /v1/store/record/<key>`. True when the backend stored it.
    #[must_use]
    pub(crate) fn push_record(
        &self,
        i: usize,
        key: &str,
        body: &str,
        trace: Option<TraceId>,
    ) -> bool {
        let path = format!("/v1/store/record/{key}");
        self.exchange(i, "POST", &path, body, trace, None)
            .is_ok_and(|reply| reply.status == 200)
    }

    /// The ranked failover order for `key`, with currently-ejected backends
    /// moved to the back (kept as last resorts rather than dropped), and,
    /// given a `device`, only the backends that model it. Incapable
    /// backends are *dropped*, not demoted: a backend without the device's
    /// model answers a guaranteed 404, so routing to it is never better
    /// than failing over — and "last resort" semantics
    /// would let a capable-but-slow shard's traffic leak onto a shard that
    /// cannot answer it at all.
    #[must_use]
    pub(crate) fn candidates_for(&self, key: &str, device: Option<&str>) -> Vec<usize> {
        let mut order = self.ring.candidates(key);
        if let Some(d) = device {
            order.retain(|&i| self.capabilities.capable(i, d));
        }
        // Stable partition in place, routable first: each candidate's
        // health is read once, and the list is at most fleet-size long.
        let mut up = 0;
        for at in 0..order.len() {
            if self.health.available(order[at]) {
                order[up..=at].rotate_right(1);
                up += 1;
            }
        }
        order
    }

    /// Forward `GET path` for routing key `key` through the fleet,
    /// applying hedging and retries, on the backends that model `device`
    /// (both parsed from `path` by the caller, once). Always produces a
    /// response: the backend's verbatim reply, or a synthesized `502`
    /// envelope when every attempt failed. `ctx` (when present) receives one `proxy.attempt`
    /// span per attempt and supplies the trace id forwarded to backends.
    pub(crate) fn forward(
        self: &Arc<Self>,
        path: &str,
        key: &str,
        device: Option<&str>,
        ctx: Option<SpanCtx<'_>>,
    ) -> Response {
        let trace = ctx.map(|c| c.trace());
        let candidates = self.candidates_for(key, device);
        if candidates.is_empty() {
            // The fleet is never empty, so only a device filter empties it.
            let d = device.unwrap_or_default();
            return Response::error(
                404,
                format!("no backend in the fleet models device {d:?} (see /v1/devices)"),
            );
        }
        let mut rng = hash_str(key) | 1;
        let mut last_saturated: Option<HttpReply> = None;
        for attempt in 0..MAX_ATTEMPTS {
            let target = candidates[attempt % candidates.len()];
            if attempt > 0 {
                self.metrics.retries.inc();
                std::thread::sleep(backoff(attempt, &mut rng));
            }
            let mut span = ctx.map(|c| c.child("proxy.attempt"));
            if let Some(span) = span.as_mut() {
                span.tag("attempt", attempt);
                span.tag("backend", target);
            }
            let hedge = match (attempt, self.hedge_floor, candidates.get(1)) {
                (0, Some(floor), Some(&next)) => Some((next, floor)),
                _ => None,
            };
            let (outcome, winner, hedged) = match hedge {
                Some((next, floor)) => self.hedged_attempt(path, target, next, floor, trace),
                None => (self.try_backend(target, path, trace), target, false),
            };
            if let Some(span) = span.as_mut() {
                span.tag("hedged", hedged);
                span.tag("winner", winner);
                span.tag(
                    "outcome",
                    match &outcome {
                        Attempt::Reply(reply) => TagValue::from(reply.status),
                        Attempt::Saturated(_) => TagValue::from("saturated"),
                        Attempt::Failed => TagValue::from("failed"),
                    },
                );
            }
            match outcome {
                Attempt::Reply(reply) => {
                    self.metrics.forwarded.inc();
                    self.metrics.backends[winner].routed.inc();
                    return reply.into();
                }
                Attempt::Saturated(reply) => last_saturated = Some(reply),
                Attempt::Failed => {}
            }
        }
        // Attempts exhausted. A live-but-saturated fleet forwards its own
        // backpressure signal; a dead fleet gets a synthesized 502.
        match last_saturated {
            Some(reply) => {
                self.metrics.forwarded.inc();
                reply.into()
            }
            None => Response::error(502, "all backends failed"),
        }
    }

    /// The first attempt with a hedge armed: run the primary exchange on
    /// this thread, and only if its first byte is not in by the hedge
    /// threshold hand the in-flight connection to a finisher thread and
    /// race it against `hedge_target`. Returns the winning outcome, which
    /// backend produced it, and whether the hedge was launched.
    fn hedged_attempt(
        self: &Arc<Self>,
        path: &str,
        primary: usize,
        hedge_target: usize,
        hedge_floor: Duration,
        trace: Option<TraceId>,
    ) -> (Attempt, usize, bool) {
        let mut conn = self.pool.checkout(primary);
        let started = Instant::now();
        let threshold = self.hedge_threshold(primary, hedge_floor);
        let sent = conn.send("GET", path, "", trace, Some(threshold));
        if !matches!(sent, Ok(Sent::InFlight)) {
            let result = sent.and_then(|_| conn.finish());
            return (self.settle(primary, conn, started, result), primary, false);
        }
        // Primary is slow: launch the hedge and take whichever answers
        // first with a usable reply.
        self.metrics.hedges.inc();
        let (tx, rx) = mpsc::channel::<(usize, Attempt)>();
        {
            let (router, tx) = (Arc::clone(self), tx.clone());
            std::thread::spawn(move || {
                let result = conn.finish();
                let _ = tx.send((primary, router.settle(primary, conn, started, result)));
            });
        }
        {
            let (router, path) = (Arc::clone(self), path.to_owned());
            std::thread::spawn(move || {
                let _ = tx.send((hedge_target, router.try_backend(hedge_target, &path, trace)));
            });
        }
        let mut first_bad: Option<(usize, Attempt)> = None;
        while let Ok((who, outcome)) = rx.recv() {
            if matches!(outcome, Attempt::Reply(_)) {
                if who == hedge_target {
                    self.metrics.hedge_wins.inc();
                }
                return (outcome, who, true);
            }
            first_bad.get_or_insert((who, outcome));
        }
        // Both senders gone without a usable reply. `None` is only possible
        // if a racer thread died; treat as failed.
        let (who, outcome) = first_bad.unwrap_or((primary, Attempt::Failed));
        (outcome, who, true)
    }

    /// One whole exchange with backend `i` over a pooled connection,
    /// propagating the trace id.
    fn try_backend(&self, i: usize, path: &str, trace: Option<TraceId>) -> Attempt {
        let mut conn = self.pool.checkout(i);
        let started = Instant::now();
        let result = conn.get_traced(path, trace);
        self.settle(i, conn, started, result)
    }

    /// Book one finished data-plane exchange with backend `i`: feed the
    /// latency window and the health tracker, and check the connection
    /// back in only once its reply has been read to the end.
    fn settle(
        &self,
        i: usize,
        conn: Connection,
        started: Instant,
        result: Result<HttpReply, ClientError>,
    ) -> Attempt {
        match result {
            Ok(reply) => {
                let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                // Connection first: whoever sees the sample can already
                // check the drained connection out.
                self.pool.checkin(i, conn);
                self.metrics.backends[i].latency.record(us);
                self.health.report_success(i);
                if reply.status == 503 {
                    Attempt::Saturated(reply)
                } else {
                    Attempt::Reply(reply)
                }
            }
            Err(ClientError::Io(_) | ClientError::Parse(_)) => {
                self.metrics.backends[i].failures.inc();
                self.health.report_failure(i);
                if !self.health.available(i) {
                    // Ejection invalidates pooled sockets; recovery trials
                    // should start from fresh dials.
                    self.pool.evict(i);
                }
                Attempt::Failed
            }
            Err(ClientError::Api(_) | ClientError::Status(..)) => {
                // Connection never yields these, but stay total.
                Attempt::Failed
            }
        }
    }

    /// How long to wait on the primary before launching the hedge: the
    /// [`HEDGE_QUANTILE`] of the primary's own latency window, clamped to
    /// `[floor, HEDGE_CAP]`; the floor alone while the window is cold.
    fn hedge_threshold(&self, primary: usize, floor: Duration) -> Duration {
        let observed = self.metrics.backends[primary]
            .latency
            .quantile_us(HEDGE_QUANTILE)
            .map_or(floor, Duration::from_micros);
        observed.clamp(floor, HEDGE_CAP)
    }
}

/// Jittered exponential backoff before retry `attempt` (1-based): uniform
/// over `(0, BACKOFF_BASE * 2^(attempt-1)]`, capped at [`BACKOFF_CAP`].
fn backoff(attempt: usize, rng: &mut u64) -> Duration {
    let exp = u32::try_from(attempt.saturating_sub(1)).unwrap_or(u32::MAX);
    let ceiling = BACKOFF_BASE
        .saturating_mul(2u32.saturating_pow(exp))
        .min(BACKOFF_CAP);
    let ceiling_us = u64::try_from(ceiling.as_micros()).unwrap_or(u64::MAX);
    Duration::from_micros(xorshift(rng) % ceiling_us.max(1))
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;
    use std::net::SocketAddr;

    /// A router over `addrs` with hedging off.
    fn router(addrs: Vec<SocketAddr>) -> Arc<Router> {
        let labels: Vec<String> = addrs.iter().map(ToString::to_string).collect();
        let n = addrs.len();
        Arc::new(Router::new(
            HashRing::new(&labels),
            Arc::new(HealthTracker::new(n, 2, Duration::from_secs(60))),
            Arc::new(ConnPool::new(addrs)),
            Arc::new(GatewayMetrics::new(n)),
            None,
        ))
    }

    /// Low loopback ports with nothing listening: connects fail fast with
    /// ECONNREFUSED, standing in for dead backends.
    fn dead_addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 1 + i).parse().expect("addr"))
            .collect()
    }

    #[test]
    fn all_dead_backends_synthesize_502_and_eject() {
        let r = router(dead_addrs(2));
        let out = r.forward("/v1/workloads", "v1/workloads", None, None);
        assert_eq!(out.status, 502);
        assert!(
            out.body.contains("\"code\":502") && out.body.contains("\"retryable\":true"),
            "synth errors are envelopes, got {:?}",
            out.body
        );
        assert_eq!(r.metrics.retries.get(), 2);
        // 3 attempts over 2 backends: one backend saw 2 failures -> ejected.
        assert_eq!(r.health.ejections(), 1);
        let ejected = (0..2)
            .filter(|&i| r.health.state(i) == HealthState::Ejected)
            .count();
        assert_eq!(ejected, 1);
    }

    #[test]
    fn candidates_push_ejected_backends_to_the_back() {
        let r = router(dead_addrs(3));
        let key = "rtx-3080/tiny/GMS";
        let order = r.candidates_for(key, None);
        let primary = order[0];
        r.health.report_failure(primary);
        r.health.report_failure(primary);
        assert_eq!(r.health.state(primary), HealthState::Ejected);
        let reordered = r.candidates_for(key, None);
        assert_eq!(
            *reordered.last().expect("non-empty"),
            primary,
            "ejected primary demoted to last resort"
        );
        assert_eq!(reordered.len(), 3, "no candidate dropped");
    }

    #[test]
    fn incapable_backends_are_dropped_not_demoted() {
        let r = router(dead_addrs(3));
        r.capabilities.record(0, vec!["uhd-630".into()]);
        r.capabilities.record(1, vec!["rtx-3080".into()]);
        r.capabilities.record(2, vec!["rtx-3080".into()]);
        let key = "rtx-3080/tiny/GMS";
        let order = r.candidates_for(key, Some("rtx-3080"));
        assert!(!order.contains(&0), "incapable backend 0 in {order:?}");
        assert_eq!(order.len(), 2);
        // Ejection still only demotes *capable* candidates.
        r.health.report_failure(order[0]);
        r.health.report_failure(order[0]);
        let reordered = r.candidates_for(key, Some("rtx-3080"));
        assert_eq!(
            reordered.len(),
            2,
            "ejected capable backend kept as last resort"
        );
        assert!(!reordered.contains(&0));
        // The replica set parses the device out of the key itself.
        let replicas = r.replica_set(key);
        assert_eq!(replicas.len(), 2);
        assert!(!replicas.contains(&0), "replica home must model the device");
        assert_eq!(r.replica_set("uhd-630/tiny/GMS"), vec![0]);
    }

    #[test]
    fn fleet_without_the_device_synthesizes_404() {
        let r = router(dead_addrs(2));
        r.capabilities.record(0, vec!["rtx-3080".into()]);
        r.capabilities.record(1, vec!["rtx-3080".into()]);
        let out = r.forward(
            "/v1/profile/a100/tiny/GMS",
            "a100/tiny/GMS",
            Some("a100"),
            None,
        );
        assert_eq!(out.status, 404);
        assert!(
            out.body.contains("models device") && out.body.contains("a100"),
            "got {:?}",
            out.body
        );
        assert_eq!(r.metrics.retries.get(), 0, "nothing was attempted");
    }

    /// The order `candidates_for` had as a filter, a two-`Vec` partition
    /// and a concatenation: the oracle for the in-place partition.
    fn filter_then_partition(r: &Router, key: &str, device: Option<&str>) -> Vec<usize> {
        let (up, down): (Vec<usize>, Vec<usize>) = r
            .ring
            .candidates(key)
            .into_iter()
            .filter(|&i| device.is_none_or(|d| r.capabilities.capable(i, d)))
            .partition(|&i| r.health.available(i));
        let mut all = up;
        all.extend(down);
        all
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Per backend: health 0 healthy, 1 ejected, 2 half-open;
        /// capability 0 unknown, 1 models the device, 2 does not.
        #[test]
        fn candidates_for_keeps_the_filter_then_partition_order(
            states in proptest::prelude::prop::collection::vec((0usize..3, 0usize..3), 1..8),
            key in 0u32..1_000_000,
            with_device in 0u32..2,
        ) {
            let key = format!("rtx-3080/tiny/w{key}");
            let n = states.len();
            let labels: Vec<String> =
                dead_addrs(n).iter().map(ToString::to_string).collect();
            let r = Router::new(
                HashRing::new(&labels),
                // Zero cooldown: a tick moves every ejected backend to
                // half-open, and no health thread ticks behind the test.
                Arc::new(HealthTracker::new(n, 1, Duration::ZERO)),
                Arc::new(ConnPool::new(dead_addrs(n))),
                Arc::new(GatewayMetrics::new(n)),
                None,
            );
            let device = (with_device == 1).then_some("rtx-3080");
            for (want, tick) in [(2, true), (1, false)] {
                for (i, _) in states.iter().enumerate().filter(|(_, s)| s.0 == want) {
                    r.health.report_failure(i);
                }
                if tick {
                    r.health.tick();
                }
            }
            for (i, &(health, capability)) in states.iter().enumerate() {
                let state = [HealthState::Healthy, HealthState::Ejected, HealthState::HalfOpen];
                proptest::prop_assert_eq!(r.health.state(i), state[health]);
                match capability {
                    1 => r.capabilities.record(i, vec!["rtx-3080".into(), "a100".into()]),
                    2 => r.capabilities.record(i, vec!["uhd-630".into()]),
                    _ => {}
                }
            }
            proptest::prop_assert_eq!(
                r.candidates_for(&key, device),
                filter_then_partition(&r, &key, device)
            );
        }
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let mut rng = 42u64;
        for attempt in 1..6 {
            let d = backoff(attempt, &mut rng);
            assert!(d <= BACKOFF_CAP, "attempt {attempt}: {d:?}");
        }
    }
}
