//! Rendezvous (highest-random-weight) placement over the backend fleet
//! (Thaler & Ravishankar, IEEE/ACM ToN 1998): a key ranks every backend by
//! `splitmix64(hash(key) ^ hash(label))`, highest first. The ranking is the
//! failover order: the proxy tries the primary first, and a retry or hedge
//! moves to the next backend in it. Two properties suit profile sharding:
//!
//! * **Cache affinity** — a triple key always lands on the same backend, so
//!   that shard's store, response cache and engine memo cache stay hot.
//! * **Minimal disruption** — a backend's weight for a key ignores the other
//!   backends, so removing or adding one remaps only its own keys (~1/N),
//!   and every key keeps the relative order of the rest.

use std::cmp::Reverse;

/// An immutable rendezvous ranking over `n` backends.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `hash_str` of each backend's label, by backend index.
    labels: Vec<u64>,
}

impl HashRing {
    /// Rank by stable backend labels (their addresses), whatever order
    /// they are listed in.
    #[must_use]
    pub fn new(labels: &[String]) -> Self {
        Self {
            labels: labels.iter().map(|label| hash_str(label)).collect(),
        }
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

    /// Every backend by `key`'s weight for it, highest first, ties (only
    /// two identical labels tie) by index: the failover order. The list
    /// length equals the backend count.
    #[must_use]
    pub fn candidates(&self, key: &str) -> Vec<usize> {
        let h = hash_str(key);
        let mut order: Vec<usize> = (0..self.labels.len()).collect();
        order.sort_unstable_by_key(|&i| (Reverse(splitmix64(h ^ self.labels[i])), i));
        order
    }
}

/// FNV-1a folded through a splitmix64 finalizer: FNV alone clusters nearby
/// strings, such as addresses that differ in one port digit.
#[must_use]
pub(crate) fn hash_str(s: &str) -> u64 {
    splitmix64(cactus_store::fnv1a64(s.as_bytes()))
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

    /// `key`'s candidates as labels rather than indices.
    fn ranked<'a>(ring: &HashRing, labels: &'a [String], key: &str) -> Vec<&'a str> {
        ring.candidates(key)
            .into_iter()
            .map(|i| labels[i].as_str())
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_backends() {
        let ring = HashRing::new(&labels(3));
        for key in ["a/b/c", "rtx-3080/tiny/GMS", ""] {
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

    /// Removing any one backend keeps, for every key, the relative order of
    /// the others: only the removed backend's keys change owner, and a
    /// replica set without it does not change at all.
    #[test]
    fn removing_a_backend_only_remaps_its_own_keys() {
        let all_labels = labels(3);
        let all = HashRing::new(&all_labels);
        for removed in 0..all_labels.len() {
            let mut rest = all_labels.clone();
            let gone = rest.remove(removed);
            let without = HashRing::new(&rest);
            let mut moved = 0usize;
            for i in 0..1000 {
                let key = format!("key-{i}");
                let mut before = ranked(&all, &all_labels, &key);
                moved += usize::from(before[0] == gone);
                before.retain(|&label| label != gone);
                assert_eq!(
                    before,
                    ranked(&without, &rest, &key),
                    "{key} without {gone}"
                );
            }
            assert!(
                (1..500).contains(&moved),
                "~1/3 of keys should move without {gone}, moved {moved}/1000"
            );
        }
    }

    #[test]
    fn permuted_labels_rank_the_same_labels() {
        let fwd = labels(5);
        let mut perm = fwd.clone();
        perm.rotate_left(2);
        perm.swap(0, 4);
        let (a, b) = (HashRing::new(&fwd), HashRing::new(&perm));
        for i in 0..500 {
            let key = format!("device-{}/tiny/wl-{i}", i % 5);
            assert_eq!(ranked(&a, &fwd, &key), ranked(&b, &perm, &key), "{key}");
        }
    }

    /// 500 three-backend fleets on seeded ports from Linux's default
    /// ephemeral range (where `Supervisor`'s `:0` binds land), each placing
    /// the 756 triple keys: 6 devices × 3 scales × 42 workloads. Noise alone
    /// puts the largest owner near 265 keys. The consistent-hash ring this
    /// ranking replaced gave one backend over 306 (0.405) in 2.4 % of
    /// layouts, first at layout 52; this ranking's worst in 20 000 is 304.
    #[test]
    fn no_port_layout_skews_the_triple_keys() {
        let prt: Vec<&str> = cactus_suites::all().iter().map(|b| b.name).collect();
        let cactus = cactus_core::workloads::suite().into_iter().map(|w| w.abbr);
        let workloads: Vec<&str> = cactus.chain(prt).collect();
        let keys: Vec<String> = cactus_gpu::CATALOG
            .iter()
            .flat_map(|d| ["tiny", "small", "profile"].map(|s| format!("{}/{s}", d.id)))
            .flat_map(|ds| workloads.iter().map(move |w| format!("{ds}/{w}")))
            .collect();
        assert_eq!(keys.len(), 756);
        let mut ports = (1u64..).map(|i| format!("127.0.0.1:{}", 32_768 + splitmix64(i) % 28_232));
        for layout in 0..500 {
            let labels: Vec<String> = loop {
                let l: Vec<String> = ports.by_ref().take(3).collect();
                if l[0] != l[1] && l[0] != l[2] && l[1] != l[2] {
                    break l;
                }
            };
            let ring = HashRing::new(&labels);
            let mut owned = [0usize; 3];
            for key in &keys {
                owned[ring.primary(key)] += 1;
            }
            assert!(
                owned.iter().all(|&n| n <= 306),
                "layout {layout}: {labels:?} own {owned:?} of the 756 triple keys"
            );
        }
    }

    /// `hash_str` as it was, with its own FNV-1a loop: every key's ranking
    /// must not move.
    #[test]
    fn hash_str_equals_its_inline_fnv() {
        let inline = |s: &str| {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in s.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            splitmix64(h)
        };
        for key in ["", "a", "127.0.0.1:7000#5", "rtx-3080/tiny/GMS"] {
            assert_eq!(hash_str(key), inline(key), "{key:?}");
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
