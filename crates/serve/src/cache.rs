//! The in-memory LRU response cache — the first level of the serving
//! hierarchy (LRU → profile store → single-flight simulation).
//!
//! Entries are whole rendered responses keyed by canonical request path. A
//! hit is one hash lookup and an `Arc` clone under the lock; the entry is
//! shared, the reply is not — [`CachedResponse::to_response`] copies the
//! body into the `Response` it builds, once per reply and outside the lock.
//! Only `200` responses are cached (callers enforce this), eviction is
//! least-recently-*used* (get bumps recency), and hit/miss counters feed
//! `/v1/metricsz`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cactus_obs::lock::{rank, RankedMutex};

use crate::http::Response;

/// A cached, immutable rendering of a successful response.
#[derive(Debug, PartialEq, Eq)]
pub struct CachedResponse {
    /// `Content-Type` of the cached body.
    pub content_type: &'static str,
    /// The rendered body.
    pub body: String,
}

impl CachedResponse {
    /// Rehydrate the cached entry into a `200` response (copies the body).
    #[must_use]
    pub fn to_response(&self) -> Response {
        Response::ok(self.body.clone(), self.content_type)
    }
}

#[derive(Debug)]
struct Entry {
    stamp: u64,
    value: Arc<CachedResponse>,
}

#[derive(Debug, Default)]
struct Inner {
    clock: u64,
    map: HashMap<String, Entry>,
}

/// A thread-safe LRU cache of rendered responses.
#[derive(Debug)]
pub struct ResponseCache {
    capacity: usize,
    inner: RankedMutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResponseCache {
    /// An empty cache holding at most `capacity` responses (0 disables
    /// caching: every get misses, every put is dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: RankedMutex::new(rank::RESPONSE_CACHE, "serve.cache", Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up `key`, bumping its recency on a hit.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<CachedResponse>> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) `key`, evicting the least-recently-used entry
    /// when full. Returns the shared handle to the inserted value.
    pub fn put(&self, key: &str, value: CachedResponse) -> Arc<CachedResponse> {
        let value = Arc::new(value);
        if self.capacity == 0 {
            return value;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.map.contains_key(key) && inner.map.len() >= self.capacity {
            // O(len) eviction scan: capacities are small (hundreds) and puts
            // only happen on the slow (store/simulate) path.
            if let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&lru);
            }
        }
        inner.map.insert(
            key.to_owned(),
            Entry {
                stamp: clock,
                value: Arc::clone(&value),
            },
        );
        value
    }

    /// Cached entry count.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Lookups answered from the cache.
    #[must_use]
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the next level.
    #[must_use]
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drop one cached response (used to invalidate derived listings when
    /// a submission changes what they would contain).
    pub(crate) fn remove(&self, key: &str) {
        self.inner.lock().map.remove(key);
    }

    /// Drop every cached response whose key satisfies `pred` (used to
    /// invalidate all rendered views of a workload when a re-submission
    /// replaces its definition).
    pub(crate) fn remove_where(&self, pred: impl Fn(&str) -> bool) {
        self.inner.lock().map.retain(|k, _| !pred(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(s: &str) -> CachedResponse {
        CachedResponse {
            content_type: "text/plain",
            body: s.to_owned(),
        }
    }

    #[test]
    fn get_put_and_counters() {
        let cache = ResponseCache::new(4);
        assert!(cache.get("/a").is_none());
        cache.put("/a", resp("A"));
        let hit = cache.get("/a").expect("hit");
        assert_eq!(hit.body, "A");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ResponseCache::new(2);
        cache.put("/a", resp("A"));
        cache.put("/b", resp("B"));
        let _ = cache.get("/a"); // /b is now the LRU entry
        cache.put("/c", resp("C"));
        assert!(cache.get("/a").is_some());
        assert!(cache.get("/b").is_none(), "/b should have been evicted");
        assert!(cache.get("/c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn replacing_a_key_does_not_evict_others() {
        let cache = ResponseCache::new(2);
        cache.put("/a", resp("A1"));
        cache.put("/b", resp("B"));
        cache.put("/a", resp("A2"));
        assert_eq!(cache.get("/a").expect("hit").body, "A2");
        assert!(cache.get("/b").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResponseCache::new(0);
        cache.put("/a", resp("A"));
        assert!(cache.get("/a").is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn remove_where_drops_only_matching_keys() {
        let cache = ResponseCache::new(8);
        cache.put("profile/rtx-3080/tiny/gnn", resp("old"));
        cache.put("dominant/rtx-3080/tiny/gnn?t=0.700", resp("old"));
        cache.put("profile/rtx-3080/tiny/gms", resp("keep"));
        cache.remove_where(|k| {
            k.split('?')
                .next()
                .is_some_and(|path| path.ends_with("/gnn"))
        });
        assert!(cache.get("profile/rtx-3080/tiny/gnn").is_none());
        assert!(cache.get("dominant/rtx-3080/tiny/gnn?t=0.700").is_none());
        assert!(cache.get("profile/rtx-3080/tiny/gms").is_some());
    }
}
