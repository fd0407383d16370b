//! Registry-backed request metrics behind `/v1/metricsz`.
//!
//! Counters, the queue-depth gauge, and the latency histogram are handles
//! into the server's shared [`MetricsRegistry`] — the registry renders the
//! whole exposition page (one code path shared with the gateway), so this
//! module only names the server's metrics and routes status codes to the
//! right counter. Latency lives in a log-bucket histogram: quantile
//! estimates never undershoot the true value and overshoot by at most 2×,
//! and `cactus_serve_latency_p50_us`/`_p90_us`/`_p99_us` keep rendering
//! under the same flat names the pre-registry dashboards scraped.

use cactus_obs::{Counter, Gauge, Histogram, MetricsRegistry, RegistryError};

/// Thread-safe request/latency counters for one server, registered in its
/// metrics registry under `cactus_serve_*` names.
#[derive(Debug, Clone)]
pub(crate) struct ServerMetrics {
    /// Requests parsed and handled (a keep-alive connection contributes one
    /// per request it carries).
    pub requests: Counter,
    /// Connections accepted (including `503`-rejected ones).
    pub connections: Counter,
    /// Requests served over an already-open keep-alive connection.
    pub keepalive_reuses: Counter,
    /// Responses with a 2xx status.
    pub responses_ok: Counter,
    /// Responses with a 4xx status.
    pub responses_client_error: Counter,
    /// 503 backpressure responses (accept-queue full).
    pub responses_busy: Counter,
    /// Responses with a 5xx status other than 503.
    pub responses_error: Counter,
    /// Connections currently waiting in the accept queue.
    pub queue_depth: Gauge,
    /// Request-handling latency histogram (µs).
    pub latency: Histogram,
}

impl ServerMetrics {
    /// Register every server metric in `registry`.
    ///
    /// # Errors
    ///
    /// Fails if any `cactus_serve_*` name is already registered (one server
    /// per registry).
    pub(crate) fn register(registry: &MetricsRegistry) -> Result<Self, RegistryError> {
        Ok(Self {
            requests: registry
                .counter("cactus_serve_requests_total", "requests parsed and handled")?,
            connections: registry.counter(
                "cactus_serve_connections_total",
                "connections accepted (including 503-rejected)",
            )?,
            keepalive_reuses: registry.counter(
                "cactus_serve_keepalive_reuses_total",
                "requests served over an already-open keep-alive connection",
            )?,
            responses_ok: registry.counter("cactus_serve_responses_ok_total", "2xx responses")?,
            responses_client_error: registry
                .counter("cactus_serve_responses_client_error_total", "4xx responses")?,
            responses_busy: registry.counter(
                "cactus_serve_responses_busy_total",
                "503 backpressure responses",
            )?,
            responses_error: registry.counter(
                "cactus_serve_responses_error_total",
                "5xx responses other than 503",
            )?,
            queue_depth: registry.gauge(
                "cactus_serve_queue_depth",
                "connections waiting in the accept queue",
            )?,
            latency: registry.histogram(
                "cactus_serve_latency",
                "request handling latency in microseconds",
            )?,
        })
    }

    /// Record the handling latency of one request, in microseconds.
    pub(crate) fn record_latency_us(&self, us: u64) {
        self.latency.observe_us(us);
    }

    /// Tally one written response under the right status-class counter.
    pub(crate) fn count_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_ok,
            503 => &self.responses_busy,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_error,
        };
        counter.inc();
    }
}

/// Nearest-rank quantile over an already-sorted slice (0 when empty). Used
/// by the gateway's sliding latency windows and the load generator, which
/// keep exact samples rather than histogram buckets.
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len(), q)]
}

/// The index [`quantile`] reads: the nearest rank of `q` (clamped to
/// 0.0..=1.0) among `len` sorted samples; 0 when `len` is 0.
#[must_use]
pub fn nearest_rank(len: usize, q: f64) -> usize {
    let last = len.saturating_sub(1);
    ((q.clamp(0.0, 1.0) * last as f64).round() as usize).min(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> ServerMetrics {
        ServerMetrics::register(&MetricsRegistry::new()).expect("fresh registry")
    }

    #[test]
    fn quantile_estimates_bound_the_truth() {
        let m = metrics();
        assert_eq!(m.latency.quantile_us(0.50), 0);
        for us in 1..=100 {
            m.record_latency_us(us);
        }
        for (q, truth) in [(0.50, 50), (0.90, 90), (0.99, 99)] {
            let est = m.latency.quantile_us(q);
            assert!(est >= truth, "estimate {est} undershoots {truth}");
            assert!(est <= 2 * truth, "estimate {est} overshoots 2x{truth}");
        }
    }

    #[test]
    fn latency_renders_under_flat_quantile_names() {
        let registry = MetricsRegistry::new();
        let m = ServerMetrics::register(&registry).expect("register");
        m.record_latency_us(100);
        let page = registry.render();
        for name in [
            "cactus_serve_latency_p50_us ",
            "cactus_serve_latency_p90_us ",
            "cactus_serve_latency_p99_us ",
            "cactus_serve_latency_count 1",
        ] {
            assert!(page.contains(name), "missing {name} in:\n{page}");
        }
    }

    #[test]
    fn status_classes_route_to_counters() {
        let m = metrics();
        for status in [200, 200, 404, 503, 500] {
            m.count_status(status);
        }
        assert_eq!(m.responses_ok.get(), 2);
        assert_eq!(m.responses_client_error.get(), 1);
        assert_eq!(m.responses_busy.get(), 1);
        assert_eq!(m.responses_error.get(), 1);
    }

    #[test]
    fn double_registration_collides() {
        let registry = MetricsRegistry::new();
        let _first = ServerMetrics::register(&registry).expect("first");
        assert!(
            ServerMetrics::register(&registry).is_err(),
            "one server per registry"
        );
    }

    #[test]
    fn quantile_of_singleton() {
        assert_eq!(quantile(&[42], 0.99), 42);
    }
}
