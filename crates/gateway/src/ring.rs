//! Consistent-hash ring over the backend fleet.
//!
//! Each backend contributes `VNODES` virtual points to a 64-bit ring;
//! a key routes to the first point clockwise from its hash. Two properties
//! make this the right shape for profile sharding:
//!
//! * **Cache affinity** — a given `(endpoint, device, scale, workload)` key
//!   always lands on the same backend, so that shard's response cache and
//!   engine memo cache stay hot for its slice of the keyspace.
//! * **Minimal disruption** — ejecting or adding one backend only remaps
//!   the keys whose nearest point belonged to it (~1/N of the keyspace);
//!   every other key keeps its shard and its warm caches.
//!
//! [`HashRing::candidates`] returns *all* backends in ring order from the
//! key's position, which is exactly the failover order: the proxy tries the
//! primary first, and a retry or hedge moves to the next distinct backend
//! on the ring.

/// Virtual points per backend. High enough that the per-backend share of a
/// uniform keyspace concentrates near 1/N, low enough that ring
/// construction and lookup stay trivial.
pub(crate) const VNODES: usize = 128;

/// An immutable consistent-hash ring over `n` backends.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, backend)` sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Build the ring from stable backend labels (their addresses): ring
    /// geometry depends on the labels, not the order they were listed in.
    #[must_use]
    pub fn new(labels: &[String]) -> Self {
        let mut points: Vec<(u64, usize)> = labels
            .iter()
            .enumerate()
            .flat_map(|(backend, label)| {
                (0..VNODES).map(move |v| (hash_str(&format!("{label}#{v}")), backend))
            })
            .collect();
        points.sort_unstable();
        Self {
            points,
            backends: labels.len(),
        }
    }

    /// True when the ring has no backends.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.backends == 0
    }

    /// The backend owning `key` (its first candidate).
    ///
    /// # Panics
    ///
    /// Panics on an empty ring.
    #[must_use]
    pub fn primary(&self, key: &str) -> usize {
        // lint:allow(no_panic, candidates() yields one entry per backend and the ring is non-empty per the documented contract)
        self.candidates(key)[0]
    }

    /// Every backend in ring order starting from `key`'s position: the
    /// failover order. Distinct backends only, so the list length equals
    /// the backend count.
    #[must_use]
    pub fn candidates(&self, key: &str) -> Vec<usize> {
        let h = hash_str(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let (before, after) = self.points.split_at(start);
        let mut order = Vec::with_capacity(self.backends);
        for &(_, backend) in after.iter().chain(before) {
            if order.len() == self.backends {
                break;
            }
            // At most fleet-size entries to scan: cheaper than a `seen` set.
            if !order.contains(&backend) {
                order.push(backend);
            }
        }
        order
    }
}

/// FNV-1a folded through a splitmix64 finalizer: FNV alone clusters nearby
/// strings; the finalizer spreads the points uniformly around the ring.
#[must_use]
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(h)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_backends() {
        let ring = HashRing::new(&labels(3));
        for key in ["a/b/c", "profile/rtx-3080/tiny/GMS", ""] {
            let c1 = ring.candidates(key);
            let c2 = ring.candidates(key);
            assert_eq!(c1, c2, "stable for {key:?}");
            assert_eq!(c1.len(), 3, "all backends listed for {key:?}");
            let mut sorted = c1.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "distinct backends for {key:?}");
        }
    }

    #[test]
    fn keys_balance_across_backends() {
        let ring = HashRing::new(&labels(3));
        let mut counts = [0usize; 3];
        for i in 0..3000 {
            counts[ring.primary(&format!("kernels/device-{}/scale/wl-{i}", i % 7))] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (600..=1500).contains(&c),
                "backend {b} owns {c}/3000 keys — ring is skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_backend_only_remaps_its_own_keys() {
        let all = HashRing::new(&labels(3));
        // The two-backend ring keeps the same labels for backends 0 and 1.
        let without_last = HashRing::new(&labels(2));
        let mut moved = 0usize;
        let total = 1000usize;
        for i in 0..total {
            let key = format!("key-{i}");
            let before = all.primary(&key);
            let after = without_last.primary(&key);
            if before < 2 {
                assert_eq!(before, after, "key {key} was not on the removed backend");
            } else {
                moved += 1;
            }
        }
        assert!(
            moved > 0 && moved < total / 2,
            "~1/3 of keys should move, moved {moved}/{total}"
        );
    }

    /// The walk `candidates` had, with a `seen` vector beside the order.
    fn seen_set_walk(ring: &HashRing, key: &str) -> Vec<usize> {
        let start = ring.points.partition_point(|&(p, _)| p < hash_str(key));
        let mut seen = vec![false; ring.backends];
        let mut order = Vec::new();
        for i in 0..ring.points.len() {
            let (_, backend) = ring.points[(start + i) % ring.points.len()];
            if !seen[backend] {
                seen[backend] = true;
                order.push(backend);
            }
        }
        order
    }

    #[test]
    fn candidates_equal_the_seen_set_walk() {
        for n in 1..8 {
            let ring = HashRing::new(&labels(n));
            for i in 0..500 {
                let key = format!("profile/device-{}/tiny/wl-{i}", i % 5);
                assert_eq!(
                    ring.candidates(&key),
                    seen_set_walk(&ring, &key),
                    "{n}: {key}"
                );
            }
        }
    }

    #[test]
    fn candidate_order_follows_the_ring() {
        let ring = HashRing::new(&labels(5));
        // The failover order must itself be stable and start at the primary.
        let c = ring.candidates("some/profile/key");
        assert_eq!(c[0], ring.primary("some/profile/key"));
        assert_eq!(c.len(), 5);
    }
}
