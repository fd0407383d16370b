//! The forwarding engine: candidate selection, retries with jittered
//! backoff, and latency-triggered hedging.
//!
//! Every request resolves to a routing key; the ring orders the fleet into
//! a failover list for that key (primary first). The proxy then:
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
//! Tracing: [`Router::forward`] takes the request's span context and files
//! one `proxy.attempt` span per backend attempt (tagged with the target,
//! whether a hedge was launched, and the outcome), and propagates the trace
//! id to the backend in the `x-cactus-trace` header so both tiers' span
//! logs carry the same id. Synthesized errors (`no backends`, `all attempts
//! failed`) are the shared JSON envelope.

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cactus_obs::lock::{rank, RankedMutex};
use cactus_obs::{SpanCtx, TraceId};
use cactus_serve::client::{ClientError, HttpReply, Sent};
use cactus_serve::http::Response;
use cactus_serve::Connection;

use crate::capability::CapabilityMap;
use crate::connpool::ConnPool;
use crate::health::HealthTracker;
use crate::metrics::GatewayMetrics;
use crate::ring::{hash_str, HashRing};

/// Retry/hedge tuning; embedded in the gateway config.
#[derive(Debug, Clone)]
pub struct RoutePolicy {
    /// Total backend attempts per request (first try + retries).
    pub max_attempts: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Ceiling on any single backoff delay.
    pub backoff_cap: Duration,
    /// Master switch for hedged requests.
    pub hedge: bool,
    /// Latency quantile of the primary's window that arms the hedge timer.
    pub hedge_quantile: f64,
    /// Minimum hedge delay (also the default while the window is empty).
    pub hedge_floor: Duration,
    /// Maximum hedge delay.
    pub hedge_cap: Duration,
}

impl RoutePolicy {
    /// Check the policy's invariants: a hedge floor no higher than the cap.
    ///
    /// # Errors
    ///
    /// A message naming the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.hedge_floor > self.hedge_cap {
            return Err(format!(
                "hedge floor {:?} is above the hedge cap {:?}",
                self.hedge_floor, self.hedge_cap
            ));
        }
        Ok(())
    }
}

impl Default for RoutePolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            hedge: true,
            hedge_quantile: 0.9,
            hedge_floor: Duration::from_millis(20),
            hedge_cap: Duration::from_secs(2),
        }
    }
}

/// The shared routing state: ring + health + pool + counters.
#[derive(Debug)]
pub struct Router {
    ring: HashRing,
    pub health: Arc<HealthTracker>,
    pub pool: Arc<ConnPool>,
    pub metrics: Arc<GatewayMetrics>,
    /// Which catalog devices each backend models; consulted before the
    /// ring's failover order so requests never reach an incapable backend.
    pub capabilities: CapabilityMap,
    policy: RoutePolicy,
    /// Store keys (`<device>/<scale>/<workload>`) whose profile record has
    /// already been pushed to its follower replica this process lifetime —
    /// replication is idempotent, so this is purely a de-duplication of
    /// repeat reads.
    replicated: RankedMutex<HashSet<String>>,
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
    pub fn new(
        ring: HashRing,
        health: Arc<HealthTracker>,
        pool: Arc<ConnPool>,
        metrics: Arc<GatewayMetrics>,
        policy: RoutePolicy,
    ) -> Self {
        let n = metrics.backends.len();
        Self {
            ring,
            health,
            pool,
            metrics,
            capabilities: CapabilityMap::new(n),
            policy,
            replicated: RankedMutex::new(
                rank::REPLICATED_KEYS,
                "gateway.replicated_keys",
                HashSet::new(),
            ),
        }
    }

    /// The replica set for `key`: the first two *capable* backends in raw
    /// ring order, independent of current health. Health-independence is
    /// the point — the set names where a record *should* live, so
    /// anti-entropy can repair a backend that was down when the record was
    /// written. Capability-dependence is equally the point: a backend that
    /// does not model the key's device could never serve (or re-derive) the
    /// record, so it is not a legitimate replica home.
    #[must_use]
    pub fn replica_set(&self, key: &str) -> Vec<usize> {
        // Replication keys are `profile/<device>/<scale>/<workload>`.
        let device = {
            let segs: Vec<&str> = key.split('/').collect();
            match segs.as_slice() {
                ["profile", device, _, _] => Some((*device).to_owned()),
                _ => None,
            }
        };
        self.ring
            .candidates(key)
            .into_iter()
            .filter(|&i| {
                device
                    .as_deref()
                    .is_none_or(|d| self.capabilities.capable(i, d))
            })
            .take(2)
            .collect()
    }

    /// True when the store record `key` (`<device>/<scale>/<workload>`) was
    /// already claimed for replication this process lifetime. A borrowed
    /// lookup: repeat reads of a key allocate nothing here.
    pub(crate) fn is_replicated(&self, key: &str) -> bool {
        self.replicated.lock().contains(key)
    }

    /// True when `key`'s record was already pushed to its follower this
    /// process lifetime; marks it when not. One CAS-style check so repeat
    /// reads don't re-push.
    pub fn mark_replicated(&self, key: &str) -> bool {
        !self.replicated.lock().insert(key.to_owned())
    }

    /// Forget a [`mark_replicated`](Self::mark_replicated) claim — used
    /// when the copy that claimed the key could not read the source record,
    /// so a later read retries the replication.
    pub fn unmark_replicated(&self, key: &str) {
        self.replicated.lock().remove(key);
    }

    /// One pooled exchange with backend `i` outside the retry/hedge
    /// machinery and with no health report — the control-plane primitive
    /// replication and anti-entropy build on. `None` on a transport error.
    fn exchange(
        &self,
        i: usize,
        method: &str,
        path: &str,
        body: &str,
        trace: Option<TraceId>,
    ) -> Option<HttpReply> {
        let mut conn = self.pool.checkout(i);
        let reply = conn.request(method, path, body, trace).ok()?;
        self.pool.checkin(i, conn);
        Some(reply)
    }

    /// `GET path` from backend `i`: `Some(body)` on a 200, `None` otherwise.
    #[must_use]
    pub fn fetch(&self, i: usize, path: &str, trace: Option<TraceId>) -> Option<String> {
        let reply = self.exchange(i, "GET", path, "", trace)?;
        (reply.status == 200).then_some(reply.body)
    }

    /// Push one store record to backend `i` via
    /// `POST /v1/store/record/<key>`. True when the backend stored it.
    #[must_use]
    pub fn push_record(&self, i: usize, key: &str, body: &str, trace: Option<TraceId>) -> bool {
        self.exchange(i, "POST", &format!("/v1/store/record/{key}"), body, trace)
            .is_some_and(|reply| reply.status == 200)
    }

    /// The ring's failover order for `key`, with currently-ejected backends
    /// moved to the back (kept as last resorts rather than dropped).
    #[must_use]
    pub fn candidates(&self, key: &str) -> Vec<usize> {
        self.candidates_for(key, None)
    }

    /// [`candidates`](Self::candidates) restricted to backends that model
    /// `device`. Incapable backends are *dropped*, not demoted: a backend
    /// without the device's model answers a guaranteed 404, so routing to
    /// it is never better than failing over — and "last resort" semantics
    /// would let a capable-but-slow shard's traffic leak onto a shard that
    /// cannot answer it at all.
    #[must_use]
    pub fn candidates_for(&self, key: &str, device: Option<&str>) -> Vec<usize> {
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
    /// (the path's [`device_for_target`](crate::capability::device_for_target),
    /// which the caller has already parsed). Always produces a response: the
    /// backend's verbatim reply, or a synthesized `502` envelope when every
    /// attempt failed — together with the ring index of the backend whose
    /// answer won (`None` for synthesized responses and forwarded
    /// backpressure). `ctx` (when present) receives one `proxy.attempt`
    /// span per attempt and supplies the trace id forwarded to backends.
    pub fn forward(
        self: &Arc<Self>,
        path: &str,
        key: &str,
        device: Option<&str>,
        ctx: Option<SpanCtx<'_>>,
    ) -> (Response, Option<usize>) {
        let trace = ctx.map(|c| c.trace());
        let candidates = self.candidates_for(key, device);
        if candidates.is_empty() {
            let synthesized = match device {
                Some(d) if !self.ring.is_empty() => Response::error(
                    404,
                    format!("no backend in the fleet models device {d:?} (see /v1/devices)"),
                ),
                _ => Response::error(502, "no backends configured"),
            };
            return (synthesized, None);
        }
        let mut rng = hash_str(key) | 1;
        let mut last_saturated: Option<HttpReply> = None;
        let attempts = (self.policy.max_attempts as usize).max(1);
        for attempt in 0..attempts {
            let target = candidates[attempt % candidates.len()];
            if attempt > 0 {
                self.metrics.retries.inc();
                std::thread::sleep(self.backoff(attempt, &mut rng));
            }
            let mut span = ctx.map(|c| c.child("proxy.attempt"));
            if let Some(span) = span.as_mut() {
                span.tag("attempt", attempt.to_string());
                span.tag("backend", target.to_string());
            }
            let hedge_target = if attempt == 0 && self.policy.hedge {
                candidates.get(1).copied()
            } else {
                None
            };
            let (outcome, winner, hedged) = match hedge_target {
                Some(hedge) => self.hedged_attempt(path, target, hedge, trace),
                None => (self.try_backend(target, path, trace), target, false),
            };
            if let Some(span) = span.as_mut() {
                span.tag("hedged", hedged.to_string());
                span.tag("winner", winner.to_string());
                span.tag(
                    "outcome",
                    match &outcome {
                        Attempt::Reply(reply) => reply.status.to_string(),
                        Attempt::Saturated(_) => "saturated".to_owned(),
                        Attempt::Failed => "failed".to_owned(),
                    },
                );
            }
            match outcome {
                Attempt::Reply(reply) => {
                    self.metrics.forwarded.inc();
                    self.metrics.backends[winner].routed.inc();
                    return (reply.into(), Some(winner));
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
                (reply.into(), None)
            }
            None => (Response::error(502, "all backends failed"), None),
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
        trace: Option<TraceId>,
    ) -> (Attempt, usize, bool) {
        let mut conn = self.pool.checkout(primary);
        let started = Instant::now();
        let sent = conn.send("GET", path, "", trace, Some(self.hedge_threshold(primary)));
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
    /// configured quantile of the primary's own latency window, clamped to
    /// `[hedge_floor, hedge_cap]`; the floor alone while the window is cold.
    fn hedge_threshold(&self, primary: usize) -> Duration {
        let observed = self.metrics.backends[primary]
            .latency
            .quantile_us(self.policy.hedge_quantile)
            .map_or(self.policy.hedge_floor, Duration::from_micros);
        observed.clamp(self.policy.hedge_floor, self.policy.hedge_cap)
    }

    /// Jittered exponential backoff before retry `attempt` (1-based):
    /// uniform over `(0, base * 2^(attempt-1)]`, capped.
    fn backoff(&self, attempt: usize, rng: &mut u64) -> Duration {
        let exp = u32::try_from(attempt.saturating_sub(1)).unwrap_or(u32::MAX);
        let ceiling = self
            .policy
            .backoff_base
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.policy.backoff_cap);
        let ceiling_us = u64::try_from(ceiling.as_micros()).unwrap_or(u64::MAX);
        Duration::from_micros(xorshift(rng) % ceiling_us.max(1))
    }
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

    fn router(addrs: Vec<SocketAddr>, policy: RoutePolicy) -> Arc<Router> {
        let labels: Vec<String> = addrs.iter().map(ToString::to_string).collect();
        let n = addrs.len();
        Arc::new(Router::new(
            HashRing::new(&labels),
            Arc::new(HealthTracker::new(n, 2, Duration::from_secs(60))),
            Arc::new(ConnPool::new(addrs, Duration::from_millis(50), 4)),
            Arc::new(GatewayMetrics::new(n)),
            policy,
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
        let r = router(
            dead_addrs(2),
            RoutePolicy {
                hedge: false,
                backoff_base: Duration::from_micros(100),
                backoff_cap: Duration::from_micros(200),
                ..RoutePolicy::default()
            },
        );
        let (out, winner) = r.forward("/v1/workloads", "v1/workloads", None, None);
        assert_eq!(winner, None);
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
        let r = router(dead_addrs(3), RoutePolicy::default());
        let key = "profile/rtx-3080/tiny/GMS";
        let order = r.candidates(key);
        let primary = order[0];
        r.health.report_failure(primary);
        r.health.report_failure(primary);
        assert_eq!(r.health.state(primary), HealthState::Ejected);
        let reordered = r.candidates(key);
        assert_eq!(
            *reordered.last().expect("non-empty"),
            primary,
            "ejected primary demoted to last resort"
        );
        assert_eq!(reordered.len(), 3, "no candidate dropped");
    }

    #[test]
    fn incapable_backends_are_dropped_not_demoted() {
        let r = router(dead_addrs(3), RoutePolicy::default());
        r.capabilities.record(0, vec!["uhd-630".into()]);
        r.capabilities.record(1, vec!["rtx-3080".into()]);
        r.capabilities.record(2, vec!["rtx-3080".into()]);
        let key = "profile/rtx-3080/tiny/GMS";
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
        assert_eq!(r.replica_set("profile/uhd-630/tiny/GMS"), vec![0]);
    }

    #[test]
    fn fleet_without_the_device_synthesizes_404() {
        let r = router(
            dead_addrs(2),
            RoutePolicy {
                hedge: false,
                ..RoutePolicy::default()
            },
        );
        r.capabilities.record(0, vec!["rtx-3080".into()]);
        r.capabilities.record(1, vec!["rtx-3080".into()]);
        let (out, _) = r.forward(
            "/v1/profile/a100/tiny/GMS",
            "profile/a100/tiny/GMS",
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
            let key = format!("profile/rtx-3080/tiny/w{key}");
            let n = states.len();
            let labels: Vec<String> =
                dead_addrs(n).iter().map(ToString::to_string).collect();
            let r = Router::new(
                HashRing::new(&labels),
                // Zero cooldown: a tick moves every ejected backend to
                // half-open, and no health thread ticks behind the test.
                Arc::new(HealthTracker::new(n, 1, Duration::ZERO)),
                Arc::new(ConnPool::new(dead_addrs(n), Duration::from_millis(50), 4)),
                Arc::new(GatewayMetrics::new(n)),
                RoutePolicy::default(),
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
        let r = router(dead_addrs(1), RoutePolicy::default());
        let mut rng = 42u64;
        for attempt in 1..6 {
            let d = r.backoff(attempt, &mut rng);
            assert!(d <= r.policy.backoff_cap, "attempt {attempt}: {d:?}");
        }
    }
}
