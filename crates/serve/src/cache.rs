//! The in-memory LRU response cache — the first level of the serving
//! hierarchy (LRU → profile store → single-flight simulation).
//!
//! Entries are whole rendered responses keyed by canonical request path.
//! Only `200` responses are cached (callers enforce this), eviction is
//! exactly least-recently-*used* (a hit and a put both count as a use), and
//! hit/miss counters feed `/v1/metricsz`. Eviction is the only way out:
//! every key names immutable content — a submitted workload's triple keys
//! carry its definition's digest — so nothing is ever invalidated.
//!
//! Every operation is O(1) under the lock: the entries sit in a dense slab
//! threaded by index into one recency list, newest to oldest, and the map
//! holds each key's slab index. A hit is one hash lookup, a relink to the
//! newest end and an `Arc` clone; a put into a full cache evicts the oldest
//! end. The entry is shared, the reply is not:
//! [`CachedResponse::to_response`] copies the body into the `Response` it
//! builds, once per reply and outside the lock: 0.04–0.09 µs for a 2 KiB
//! body in a release build on a 2-vCPU KVM guest, too little to share the
//! body instead.

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

/// The end of the recency list, in either direction.
const NIL: usize = usize::MAX;

/// One entry in the slab, linked by index to its recency neighbours.
#[derive(Debug)]
struct Node {
    key: Arc<str>,
    value: Arc<CachedResponse>,
    /// The next more recently used entry; `NIL` at the newest end.
    newer: usize,
    /// The next less recently used entry; `NIL` at the oldest end.
    older: usize,
}

/// The slab, its recency list and the key → slot map.
#[derive(Debug)]
struct Inner {
    map: HashMap<Arc<str>, usize>,
    nodes: Vec<Node>,
    newest: usize,
    oldest: usize,
}

impl Inner {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            nodes: Vec::new(),
            newest: NIL,
            oldest: NIL,
        }
    }

    /// Take slot `i` out of the recency list (its links are left stale).
    fn unlink(&mut self, i: usize) {
        let (newer, older) = (self.nodes[i].newer, self.nodes[i].older);
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o].newer = newer,
        }
    }

    /// Put slot `i` at the newest end.
    fn link_newest(&mut self, i: usize) {
        self.nodes[i].newer = NIL;
        self.nodes[i].older = self.newest;
        match self.newest {
            NIL => self.oldest = i,
            n => self.nodes[n].newer = i,
        }
        self.newest = i;
    }

    /// Mark slot `i` most recently used.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.link_newest(i);
        }
    }

    /// Add a new entry at the newest end.
    fn push(&mut self, key: Arc<str>, value: Arc<CachedResponse>) {
        let i = self.nodes.len();
        self.nodes.push(Node {
            key: Arc::clone(&key),
            value,
            newer: NIL,
            older: NIL,
        });
        self.link_newest(i);
        self.map.insert(key, i);
    }

    /// Drop the entry in slot `i` (the oldest: eviction is the only
    /// removal). The last slot moves into the hole, so the slab stays
    /// dense; its neighbours and its map entry follow it.
    fn remove_at(&mut self, i: usize) {
        self.unlink(i);
        let gone = self.nodes.swap_remove(i);
        self.map.remove(&gone.key);
        if i < self.nodes.len() {
            let (newer, older) = (self.nodes[i].newer, self.nodes[i].older);
            match newer {
                NIL => self.newest = i,
                n => self.nodes[n].older = i,
            }
            match older {
                NIL => self.oldest = i,
                o => self.nodes[o].newer = i,
            }
            if let Some(slot) = self.map.get_mut(&self.nodes[i].key) {
                *slot = i;
            }
        }
    }
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
            inner: RankedMutex::new(rank::RESPONSE_CACHE, "serve.cache", Inner::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up `key`, making it the most recently used entry on a hit.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<CachedResponse>> {
        let mut inner = self.inner.lock();
        match inner.map.get(key).copied() {
            Some(i) => {
                inner.touch(i);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&inner.nodes[i].value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) `key` as the most recently used entry, evicting
    /// the least recently used one when full. Returns the shared handle to
    /// the inserted value.
    pub fn put(&self, key: &str, value: CachedResponse) -> Arc<CachedResponse> {
        let value = Arc::new(value);
        if self.capacity == 0 {
            return value;
        }
        let mut inner = self.inner.lock();
        if let Some(i) = inner.map.get(key).copied() {
            inner.nodes[i].value = Arc::clone(&value);
            inner.touch(i);
            return value;
        }
        if inner.nodes.len() >= self.capacity {
            let oldest = inner.oldest;
            inner.remove_at(oldest);
        }
        inner.push(Arc::from(key), Arc::clone(&value));
        value
    }

    /// Cached entry count.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().nodes.len()
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

    /// The cache before it kept a recency list: a clock stamp per entry
    /// and an O(len) scan for the oldest stamp on a full put. Kept as the
    /// oracle of the list's eviction order.
    mod oracle {
        use std::collections::HashMap;

        #[derive(Default)]
        pub(super) struct StampCache {
            capacity: usize,
            clock: u64,
            map: HashMap<String, (u64, String)>,
        }

        impl StampCache {
            pub(super) fn new(capacity: usize) -> Self {
                Self {
                    capacity,
                    ..Self::default()
                }
            }

            pub(super) fn get(&mut self, key: &str) -> Option<String> {
                self.clock += 1;
                let clock = self.clock;
                let entry = self.map.get_mut(key)?;
                entry.0 = clock;
                Some(entry.1.clone())
            }

            pub(super) fn put(&mut self, key: &str, body: &str) {
                if self.capacity == 0 {
                    return;
                }
                self.clock += 1;
                if !self.map.contains_key(key) && self.map.len() >= self.capacity {
                    if let Some(lru) = self
                        .map
                        .iter()
                        .min_by_key(|(_, (stamp, _))| *stamp)
                        .map(|(k, _)| k.clone())
                    {
                        self.map.remove(&lru);
                    }
                }
                self.map
                    .insert(key.to_owned(), (self.clock, body.to_owned()));
            }

            pub(super) fn keys(&self) -> Vec<String> {
                let mut keys: Vec<String> = self.map.keys().cloned().collect();
                keys.sort();
                keys
            }
        }
    }

    fn keys(cache: &ResponseCache) -> Vec<String> {
        let inner = cache.inner.lock();
        let mut keys: Vec<String> = inner.nodes.iter().map(|n| n.key.to_string()).collect();
        keys.sort();
        keys
    }

    /// Walk the recency list both ways: every slot once, links mirrored,
    /// and every map entry naming its own slot.
    fn assert_list_consistent(cache: &ResponseCache) {
        let inner = cache.inner.lock();
        let mut order = Vec::new();
        let (mut at, mut newer) = (inner.newest, NIL);
        while at != NIL {
            assert_eq!(inner.nodes[at].newer, newer);
            order.push(at);
            (newer, at) = (at, inner.nodes[at].older);
        }
        assert_eq!(inner.oldest, newer);
        assert_eq!(order.len(), inner.nodes.len());
        assert_eq!(inner.map.len(), inner.nodes.len());
        for (key, &slot) in &inner.map {
            assert_eq!(&inner.nodes[slot].key, key);
        }
    }

    /// Over random traces of gets and puts, the recency list hits,
    /// misses and evicts exactly as the stamp-scan oracle does, at every
    /// capacity the serving path meets (disabled, tiny, and the default).
    #[test]
    fn eviction_order_matches_the_stamp_scan() {
        for capacity in [0usize, 1, 2, 256] {
            for seed in 1..=4u64 {
                let cache = ResponseCache::new(capacity);
                let mut oracle = oracle::StampCache::new(capacity);
                let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let keyspace = 2 * capacity as u64 + 3;
                for step in 0..4000u64 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let key = format!("/k/{}", (rng >> 8) % keyspace);
                    if rng % 16 < 7 {
                        let got = cache.get(&key).map(|hit| hit.body.clone());
                        assert_eq!(
                            got,
                            oracle.get(&key),
                            "cap {capacity} seed {seed} step {step}"
                        );
                    } else {
                        let body = format!("{key}@{step}");
                        cache.put(&key, resp(&body));
                        oracle.put(&key, &body);
                        assert_eq!(
                            keys(&cache),
                            oracle.keys(),
                            "cap {capacity} seed {seed} step {step}"
                        );
                    }
                }
                assert_list_consistent(&cache);
            }
        }
    }
}
