//! The central metrics registry.
//!
//! Registration is the cold path: it takes one mutex, validates the metric
//! name, and rejects collisions so two subsystems can never silently share
//! (or shadow) a counter. The handles it returns — [`Counter`], [`Gauge`],
//! [`Histogram`] — are `Arc`ed atomics: updating one is a single relaxed
//! atomic op with no lock, so instrumented hot paths (request loops, engine
//! launches) pay nanoseconds.
//!
//! Histograms are latency histograms over microseconds with fixed
//! power-of-two buckets: observation `v` lands in bucket `⌈log2(v+1)⌉`, so
//! bucket `i` covers `(2^(i-1), 2^i]`. Quantiles report the upper bound of
//! the bucket containing the requested rank, which overestimates the true
//! quantile by at most 2× — a deliberate trade for O(1) observation and a
//! few hundred bytes per histogram regardless of traffic.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::lock::{rank, RankedMutex};

/// Number of log2 buckets. Bucket 0 holds `v == 0`; bucket `i` holds
/// `(2^(i-1), 2^i]`; the last bucket is a catch-all for anything larger
/// than `2^(BUCKETS-2)` µs (~9.5 hours), far beyond any request latency.
pub(crate) const BUCKETS: usize = 36;

/// Errors returned by metric registration (never by updates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A metric with this name is already registered (possibly as a
    /// different kind).
    Collision(String),
    /// The name is not a valid metric identifier
    /// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    InvalidName(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Collision(name) => write!(f, "metric {name:?} already registered"),
            Self::InvalidName(name) => write!(f, "invalid metric name {name:?}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64` (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative). Lock-free via CAS.
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A latency histogram over microseconds with fixed log2 buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// Index of the bucket an observation lands in: 0 for 0, else
/// `ceil(log2(v+1))`, clamped to the catch-all.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        // `v` in (2^(i-1), 2^i] maps to bucket i, i.e. bits(v-1) + 1.
        let idx = (u64::BITS - (v - 1).leading_zeros()) as usize + 1;
        idx.min(BUCKETS - 1)
    }
}

/// Upper bound of bucket `i` in µs (`2^(i-1)` for `i ≥ 1`, 0 for bucket 0).
#[must_use]
pub(crate) fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// Record one observation in microseconds.
    pub fn observe_us(&self, us: u64) {
        self.0.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(us, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum of all observations in µs.
    #[must_use]
    pub(crate) fn sum_us(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Quantile estimate in µs: the upper bound of the bucket containing
    /// rank `⌈q·count⌉`. Returns 0 for an empty histogram. The estimate
    /// never undershoots the true quantile and overshoots by at most 2×.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Snapshot of cumulative bucket counts paired with their upper bounds,
    /// for exposition rendering.
    #[must_use]
    pub(crate) fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(BUCKETS);
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            out.push((bucket_bound(i), cum));
        }
        out
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Entry {
    help: String,
    metric: Metric,
}

/// The central registry. Cheap to clone and share (`Arc` inside); all
/// registration goes through one mutex, all reads snapshot under it.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    // BTreeMap so exposition output is deterministically ordered by name.
    metrics: Arc<RankedMutex<BTreeMap<String, Entry>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            metrics: Arc::new(RankedMutex::new(
                rank::METRICS_REGISTRY,
                "obs.registry",
                BTreeMap::new(),
            )),
        }
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    /// Create an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, metric: Metric) -> Result<(), RegistryError> {
        if !valid_name(name) {
            return Err(RegistryError::InvalidName(name.to_owned()));
        }
        let mut map = self.metrics.lock();
        if map.contains_key(name) {
            return Err(RegistryError::Collision(name.to_owned()));
        }
        map.insert(
            name.to_owned(),
            Entry {
                help: help.to_owned(),
                metric,
            },
        );
        Ok(())
    }

    /// Register a counter. Fails on name collision or invalid name.
    pub fn counter(&self, name: &str, help: &str) -> Result<Counter, RegistryError> {
        let c = Counter(Arc::new(AtomicU64::new(0)));
        self.register(name, help, Metric::Counter(c.clone()))?;
        Ok(c)
    }

    /// Register a gauge. Fails on name collision or invalid name.
    pub fn gauge(&self, name: &str, help: &str) -> Result<Gauge, RegistryError> {
        let g = Gauge(Arc::new(AtomicU64::new(0f64.to_bits())));
        self.register(name, help, Metric::Gauge(g.clone()))?;
        Ok(g)
    }

    /// Register a latency histogram (µs, log2 buckets). Fails on name
    /// collision or invalid name.
    pub fn histogram(&self, name: &str, help: &str) -> Result<Histogram, RegistryError> {
        let h = Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }));
        self.register(name, help, Metric::Histogram(h.clone()))?;
        Ok(h)
    }

    /// Render the whole registry in Prometheus text exposition format.
    ///
    /// Counters and gauges emit `# HELP` / `# TYPE` comments followed by a
    /// single `name value` sample. Histograms emit cumulative
    /// `name_bucket{le="..."}` samples plus `name_sum` / `name_count`, and
    /// derived `name_p50_us` / `name_p90_us` / `name_p99_us` gauges so flat
    /// scrapers (and the pre-registry dashboards) keep working.
    #[must_use]
    pub fn render(&self) -> String {
        let map = self.metrics.lock();
        let mut out = String::with_capacity(4096);
        for (name, entry) in map.iter() {
            match &entry.metric {
                Metric::Counter(c) => {
                    push_header(&mut out, name, &entry.help, "counter");
                    push_sample(&mut out, name, &c.get().to_string());
                }
                Metric::Gauge(g) => {
                    push_header(&mut out, name, &entry.help, "gauge");
                    push_sample(&mut out, name, &format_f64(g.get()));
                }
                Metric::Histogram(h) => {
                    push_header(&mut out, name, &entry.help, "histogram");
                    let buckets = h.cumulative_buckets();
                    let count = buckets.last().map_or(0, |&(_, c)| c);
                    for &(bound, cum) in &buckets {
                        // Skip empty leading buckets to keep output compact,
                        // but always emit at least the +Inf line below.
                        if cum == 0 && bound < bucket_bound(BUCKETS - 1) {
                            continue;
                        }
                        out.push_str(name);
                        out.push_str("_bucket{le=\"");
                        out.push_str(&bound.to_string());
                        out.push_str("\"} ");
                        out.push_str(&cum.to_string());
                        out.push('\n');
                    }
                    out.push_str(name);
                    out.push_str("_bucket{le=\"+Inf\"} ");
                    out.push_str(&count.to_string());
                    out.push('\n');
                    push_sample(&mut out, &format!("{name}_sum"), &h.sum_us().to_string());
                    push_sample(&mut out, &format!("{name}_count"), &count.to_string());
                    for (q, tag) in [(0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
                        push_sample(
                            &mut out,
                            &format!("{name}_{tag}_us"),
                            &h.quantile_us(q).to_string(),
                        );
                    }
                }
            }
        }
        out
    }
}

fn push_header(out: &mut String, name: &str, help: &str, kind: &str) {
    if !help.is_empty() {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(help);
        out.push('\n');
    }
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn push_sample(out: &mut String, name: &str, value: &str) {
    out.push_str(name);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Render an `f64` the way the exposition format expects: integral values
/// without a trailing `.0`, everything else in shortest round-trip form.
#[must_use]
pub(crate) fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total", "a counter").unwrap();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = reg.gauge("g", "a gauge").unwrap();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
        g.add(0.5);
        assert!((g.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn name_collision_rejected_across_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("dup", "").unwrap();
        assert_eq!(
            reg.counter("dup", "").err(),
            Some(RegistryError::Collision("dup".into()))
        );
        assert!(matches!(
            reg.gauge("dup", ""),
            Err(RegistryError::Collision(_))
        ));
        assert!(matches!(
            reg.histogram("dup", ""),
            Err(RegistryError::Collision(_))
        ));
    }

    #[test]
    fn invalid_names_rejected() {
        let reg = MetricsRegistry::new();
        assert!(matches!(
            reg.counter("", ""),
            Err(RegistryError::InvalidName(_))
        ));
        assert!(matches!(
            reg.counter("9lead", ""),
            Err(RegistryError::InvalidName(_))
        ));
        assert!(matches!(
            reg.counter("has space", ""),
            Err(RegistryError::InvalidName(_))
        ));
        assert!(matches!(
            reg.counter("has-dash", ""),
            Err(RegistryError::InvalidName(_))
        ));
        assert!(reg.counter("ok_name:sub", "").is_ok());
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(9), 5);
        // Bound of each bucket lands in that bucket.
        for i in 1..BUCKETS {
            assert_eq!(bucket_index(bucket_bound(i)), i, "bound of bucket {i}");
        }
    }

    #[test]
    fn histogram_quantile_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_us", "latency").unwrap();
        // 100 observations: 1..=100 µs.
        for v in 1..=100u64 {
            h.observe_us(v);
        }
        assert_eq!(h.0.count.load(Ordering::Relaxed), 100);
        assert_eq!(h.sum_us(), 5050);
        // The estimate must never undershoot the true quantile and must
        // overshoot by at most 2×.
        for (q, truth) in [(0.5, 50u64), (0.9, 90), (0.99, 99), (1.0, 100)] {
            let est = h.quantile_us(q);
            assert!(est >= truth, "q={q}: est {est} < truth {truth}");
            assert!(est <= truth * 2, "q={q}: est {est} > 2x truth {truth}");
        }
        // Empty histogram reports 0.
        let empty = reg.histogram("empty_us", "").unwrap();
        assert_eq!(empty.quantile_us(0.99), 0);
    }

    #[test]
    fn render_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        let b = reg.counter("bbb_total", "second").unwrap();
        let a = reg.counter("aaa_total", "first").unwrap();
        a.inc();
        b.add(2);
        let text = reg.render();
        let a_pos = text.find("aaa_total 1").expect("aaa sample");
        let b_pos = text.find("bbb_total 2").expect("bbb sample");
        assert!(a_pos < b_pos, "output sorted by name");
        assert!(text.contains("# TYPE aaa_total counter"));
        assert!(text.contains("# HELP aaa_total first"));
    }
}
