//! Gateway observability: registry-backed counters, per-backend route
//! accounting, and the sliding latency windows that feed the hedging policy.
//!
//! Counters and the end-to-end latency histogram are handles into one
//! [`MetricsRegistry`] — `/v1/metricsz` renders through the same exposition
//! code as `cactus-serve`, so one scraper (and the shared strict parser)
//! handles the whole stack. Per-backend latency stays in a [`LatencyRing`]
//! rather than a histogram: the hedging policy needs exact sliding-window
//! quantiles of *recent* exchanges, which a cumulative histogram cannot
//! provide; its p90 is copied into a gauge at scrape time. The invariant a
//! scraper can assert: `cactus_gateway_requests_forwarded_total` equals the
//! sum of all `cactus_gateway_backend_<i>_routed_total`.

use std::net::SocketAddr;

use cactus_obs::lock::{rank, RankedMutex};
use cactus_obs::{Counter, Gauge, Histogram, MetricsRegistry, RegistryError};
use cactus_serve::metrics::nearest_rank;

use crate::connpool::ConnPool;
use crate::health::{HealthState, HealthTracker};

/// Samples kept per sliding latency window.
pub const LATENCY_WINDOW: usize = 512;

/// A fixed-size sliding window of microsecond latencies; old samples are
/// overwritten, quantiles are computed over whatever is present.
#[derive(Debug)]
pub struct LatencyRing {
    window: RankedMutex<Window>,
}

/// The samples in arrival order (a ring once full) and the same samples
/// sorted, kept in step by [`LatencyRing::record`].
#[derive(Debug)]
struct Window {
    ring: Vec<u64>,
    next: usize,
    sorted: Vec<u64>,
}

impl Default for LatencyRing {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRing {
    #[must_use]
    pub fn new() -> Self {
        Self {
            window: RankedMutex::new(
                rank::LATENCY_WINDOW,
                "gateway.latency_ring",
                Window {
                    ring: Vec::with_capacity(LATENCY_WINDOW),
                    next: 0,
                    sorted: Vec::with_capacity(LATENCY_WINDOW),
                },
            ),
        }
    }

    /// Record one latency sample in microseconds. Once the window is full
    /// the oldest sample leaves the sorted copy and `us` enters it in one
    /// shift of the elements between the two positions.
    pub fn record(&self, us: u64) {
        let mut guard = self.window.lock();
        let Window { ring, next, sorted } = &mut *guard;
        let at = sorted.partition_point(|&x| x < us);
        if ring.len() < LATENCY_WINDOW {
            ring.push(us);
            sorted.insert(at, us);
            return;
        }
        let evicted = std::mem::replace(&mut ring[*next], us);
        *next = (*next + 1) % LATENCY_WINDOW;
        // Equal samples are interchangeable: any match is the one to drop.
        let gone = sorted
            .binary_search(&evicted)
            .unwrap_or_else(|i| i.min(sorted.len() - 1));
        if at > gone {
            sorted.copy_within(gone + 1..at, gone);
            sorted[at - 1] = us;
        } else {
            sorted.copy_within(at..gone, at + 1);
            sorted[at] = us;
        }
    }

    /// The `q`-quantile (0.0..=1.0) of the current window, in microseconds;
    /// `None` while the window is empty. The sample
    /// [`cactus_serve::metrics::quantile`] would read from the sorted
    /// window, read in O(1) from the sorted copy: this runs on every
    /// hedge-armed forward.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let guard = self.window.lock();
        let sorted = &guard.sorted;
        sorted.get(nearest_rank(sorted.len(), q)).copied()
    }

    /// Number of samples currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.window.lock().ring.len()
    }

    /// True when no sample has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-backend route accounting.
#[derive(Debug)]
pub struct BackendMetrics {
    /// Requests whose winning response came from this backend.
    pub routed: Counter,
    /// Transport-level failures attempting this backend.
    pub failures: Counter,
    /// Latencies of successful exchanges with this backend (sliding window;
    /// feeds the hedge threshold).
    pub latency: LatencyRing,
}

/// Gauges whose sources live outside the registry (health tracker, conn
/// pool, latency rings); copied in at scrape time by [`render_metrics`].
#[derive(Debug)]
struct Scraped {
    ejections: Gauge,
    pool_dials: Gauge,
    pool_reuses: Gauge,
    backend_state: Vec<Gauge>,
    backend_latency_p90: Vec<Gauge>,
}

/// All gateway-level counters, shared across workers and registered in one
/// [`MetricsRegistry`] under `cactus_gateway_*` names.
#[derive(Debug)]
pub struct GatewayMetrics {
    registry: MetricsRegistry,
    /// Requests accepted by the gateway listener.
    pub requests: Counter,
    /// Responses by class: 2xx, 4xx, 5xx.
    pub responses_2xx: Counter,
    pub responses_4xx: Counter,
    pub responses_5xx: Counter,
    /// Requests forwarded to some backend and answered (any status).
    pub forwarded: Counter,
    /// Attempts re-routed to another ring candidate after a retryable
    /// failure.
    pub retries: Counter,
    /// Hedge requests launched.
    pub hedges: Counter,
    /// Hedge requests whose response won the race.
    pub hedge_wins: Counter,
    /// Store records pushed to follower replicas after a profile forward.
    pub store_replications: Counter,
    /// Replica pushes that failed (transport error or non-200).
    pub store_replication_failures: Counter,
    /// Anti-entropy passes run for re-admitted backends.
    pub store_syncs: Counter,
    /// Records copied to re-admitted backends by anti-entropy.
    pub store_sync_records: Counter,
    /// `/v1/compare` requests answered (any status).
    pub compare_requests: Counter,
    /// Per-device profile fetches fanned out by `/v1/compare`.
    pub compare_fanout: Counter,
    /// `/v1/compare` requests that failed (bad input or a failed leg).
    pub compare_failures: Counter,
    /// End-to-end gateway latency (request read to response written), µs.
    pub latency: Histogram,
    /// Per-backend accounting, indexed by ring position.
    pub backends: Vec<BackendMetrics>,
    scraped: Scraped,
}

impl GatewayMetrics {
    /// Register every gateway metric for a fleet of `backends` in a fresh
    /// private registry.
    #[must_use]
    pub fn new(backends: usize) -> Self {
        // lint:allow(no_panic, fresh private registry cannot collide)
        Self::register(&MetricsRegistry::new(), backends).expect("fresh registry has no collisions")
    }

    /// Register every gateway metric in `registry`.
    ///
    /// # Errors
    ///
    /// Fails if any `cactus_gateway_*` name is already registered (one
    /// gateway per registry).
    pub fn register(registry: &MetricsRegistry, backends: usize) -> Result<Self, RegistryError> {
        let backend_metrics = (0..backends)
            .map(|i| {
                Ok(BackendMetrics {
                    routed: registry.counter(
                        &format!("cactus_gateway_backend_{i}_routed_total"),
                        "requests whose winning response came from this backend",
                    )?,
                    failures: registry.counter(
                        &format!("cactus_gateway_backend_{i}_failures_total"),
                        "transport-level failures attempting this backend",
                    )?,
                    latency: LatencyRing::new(),
                })
            })
            .collect::<Result<Vec<_>, RegistryError>>()?;
        let scraped = Scraped {
            ejections: registry.gauge(
                "cactus_gateway_ejections_total",
                "backends ejected from rotation so far",
            )?,
            pool_dials: registry.gauge(
                "cactus_gateway_pool_dials_total",
                "backend connections dialed by the pool",
            )?,
            pool_reuses: registry.gauge(
                "cactus_gateway_pool_reuses_total",
                "backend exchanges served over a pooled connection",
            )?,
            backend_state: (0..backends)
                .map(|i| {
                    registry.gauge(
                        &format!("cactus_gateway_backend_{i}_state"),
                        "0 healthy, 1 ejected, 2 half-open",
                    )
                })
                .collect::<Result<Vec<_>, RegistryError>>()?,
            backend_latency_p90: (0..backends)
                .map(|i| {
                    registry.gauge(
                        &format!("cactus_gateway_backend_{i}_latency_p90_us"),
                        "p90 of this backend's sliding latency window, microseconds",
                    )
                })
                .collect::<Result<Vec<_>, RegistryError>>()?,
        };
        Ok(Self {
            registry: registry.clone(),
            requests: registry.counter(
                "cactus_gateway_requests_total",
                "requests accepted by the gateway listener",
            )?,
            responses_2xx: registry
                .counter("cactus_gateway_responses_2xx_total", "2xx responses")?,
            responses_4xx: registry
                .counter("cactus_gateway_responses_4xx_total", "4xx responses")?,
            responses_5xx: registry
                .counter("cactus_gateway_responses_5xx_total", "5xx responses")?,
            forwarded: registry.counter(
                "cactus_gateway_requests_forwarded_total",
                "requests forwarded to some backend and answered",
            )?,
            retries: registry.counter(
                "cactus_gateway_retries_total",
                "attempts re-routed after a retryable failure",
            )?,
            hedges: registry.counter("cactus_gateway_hedges_total", "hedge requests launched")?,
            hedge_wins: registry.counter(
                "cactus_gateway_hedge_wins_total",
                "hedge requests whose response won the race",
            )?,
            store_replications: registry.counter(
                "cactus_gateway_store_replications_total",
                "store records pushed to follower replicas",
            )?,
            store_replication_failures: registry.counter(
                "cactus_gateway_store_replication_failures_total",
                "replica pushes that failed",
            )?,
            store_syncs: registry.counter(
                "cactus_gateway_store_syncs_total",
                "anti-entropy passes for re-admitted backends",
            )?,
            store_sync_records: registry.counter(
                "cactus_gateway_store_sync_records_total",
                "records copied by anti-entropy",
            )?,
            compare_requests: registry.counter(
                "cactus_gateway_compare_requests_total",
                "cross-device compare requests answered",
            )?,
            compare_fanout: registry.counter(
                "cactus_gateway_compare_fanout_total",
                "per-device profile fetches fanned out by compare",
            )?,
            compare_failures: registry.counter(
                "cactus_gateway_compare_failures_total",
                "compare requests that failed",
            )?,
            latency: registry.histogram(
                "cactus_gateway_latency",
                "end-to-end gateway latency in microseconds",
            )?,
            backends: backend_metrics,
            scraped,
        })
    }

    /// The registry these metrics render through.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Bump the response-class counter for `status`.
    pub fn count_response(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.inc();
    }
}

fn state_code(state: HealthState) -> u8 {
    match state {
        HealthState::Healthy => 0,
        HealthState::Ejected => 1,
        HealthState::HalfOpen => 2,
    }
}

/// Render the `/v1/metricsz` body: copy the externally-owned values (health
/// states, pool counters, ring quantiles) into their scrape gauges, then
/// hand the page to the shared registry renderer. The `# backend i = addr`
/// comment lines map ring indices to fleet addresses (comments are skipped
/// by the exposition parser).
#[must_use]
pub fn render_metrics(
    metrics: &GatewayMetrics,
    health: &HealthTracker,
    pool: &ConnPool,
    addrs: &[SocketAddr],
) -> String {
    metrics.scraped.ejections.set(health.ejections() as f64);
    metrics.scraped.pool_dials.set(pool.dials() as f64);
    metrics.scraped.pool_reuses.set(pool.reuses() as f64);
    for (i, b) in metrics.backends.iter().enumerate() {
        metrics.scraped.backend_state[i].set(f64::from(state_code(health.state(i))));
        metrics.scraped.backend_latency_p90[i].set(b.latency.quantile_us(0.90).unwrap_or(0) as f64);
    }
    let mut out = String::with_capacity(4096);
    for (i, addr) in addrs.iter().enumerate() {
        out.push_str(&format!("# backend {i} = {addr}\n"));
    }
    out.push_str(&metrics.registry.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_serve::metrics::quantile;
    use proptest::prelude::*;
    use std::time::Duration;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The O(1) read from the ring's kept-sorted window is the very
        /// sample the sorted-slice `quantile` reads from a freshly sorted
        /// copy of the recorded tail — at every fill level, after the ring
        /// wrapped, with heavy ties, and at both ends of `q`.
        #[test]
        fn ring_quantile_equals_quantile_of_the_sorted_window(
            recorded in prop::collection::vec(
                prop_oneof![0u64..8, 0u64..u64::MAX],
                1..2 * LATENCY_WINDOW + 2,
            ),
            q in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..1.0],
        ) {
            let ring = LatencyRing::new();
            for &us in &recorded {
                ring.record(us);
            }
            let kept = recorded.len().min(LATENCY_WINDOW);
            prop_assert_eq!(ring.len(), kept);
            let mut sorted = recorded[recorded.len() - kept..].to_vec();
            sorted.sort_unstable();
            prop_assert_eq!(ring.quantile_us(q), Some(quantile(&sorted, q)));
        }
    }

    #[test]
    fn latency_ring_slides() {
        let ring = LatencyRing::new();
        assert!(ring.quantile_us(0.5).is_none());
        for i in 0..(LATENCY_WINDOW as u64 + 10) {
            ring.record(i);
        }
        assert_eq!(ring.len(), LATENCY_WINDOW);
        // Oldest samples (0..10) were overwritten, so the minimum survives
        // the slide.
        let p0 = ring.quantile_us(0.0).expect("non-empty");
        assert!(p0 >= 10, "old samples evicted, min is {p0}");
    }

    #[test]
    fn forwarded_equals_sum_of_routed_in_render() {
        let m = GatewayMetrics::new(2);
        m.forwarded.add(3);
        m.backends[0].routed.add(2);
        m.backends[1].routed.inc();
        m.count_response(200);
        m.count_response(502);
        let health = HealthTracker::new(2, 2, Duration::from_secs(1));
        let addrs: Vec<SocketAddr> = vec![
            "127.0.0.1:7001".parse().expect("addr"),
            "127.0.0.1:7002".parse().expect("addr"),
        ];
        let pool = ConnPool::new(addrs.clone(), Duration::from_secs(1), 4);
        let body = render_metrics(&m, &health, &pool, &addrs);
        assert!(body.contains("cactus_gateway_requests_forwarded_total 3"));
        assert!(body.contains("cactus_gateway_backend_0_routed_total 2"));
        assert!(body.contains("cactus_gateway_backend_1_routed_total 1"));
        assert!(body.contains("cactus_gateway_responses_2xx_total 1"));
        assert!(body.contains("cactus_gateway_responses_5xx_total 1"));
        assert!(body.contains("# backend 0 = 127.0.0.1:7001"));
    }

    /// The page must round-trip through the shared strict parser — the
    /// acceptance criterion for one exposition code path across both tiers.
    #[test]
    fn rendered_page_parses_strictly() {
        let m = GatewayMetrics::new(2);
        m.requests.add(7);
        m.latency.observe_us(1200);
        let health = HealthTracker::new(2, 2, Duration::from_secs(1));
        let addrs: Vec<SocketAddr> = vec![
            "127.0.0.1:7001".parse().expect("addr"),
            "127.0.0.1:7002".parse().expect("addr"),
        ];
        let pool = ConnPool::new(addrs.clone(), Duration::from_secs(1), 4);
        let page = render_metrics(&m, &health, &pool, &addrs);
        let expo = cactus_obs::parse(&page).expect("strict parse of own page");
        assert_eq!(expo.get("cactus_gateway_requests_total"), Some(7.0));
        assert_eq!(expo.get("cactus_gateway_latency_count"), Some(1.0));
        assert_eq!(expo.get("cactus_gateway_backend_1_state"), Some(0.0));
    }

    #[test]
    fn double_registration_collides() {
        let registry = MetricsRegistry::new();
        let _first = GatewayMetrics::register(&registry, 1).expect("first");
        assert!(
            GatewayMetrics::register(&registry, 1).is_err(),
            "one gateway per registry"
        );
    }
}
