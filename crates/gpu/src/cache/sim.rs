//! Trace-driven set-associative LRU cache simulator.
//!
//! The reference the analytic model ([`super::analytic`]) is validated
//! against: exact, one address at a time, and used only by the test suite,
//! the `--bin ablation` cache study and `--bench simulator` — the engine
//! never replays traces.

use crate::device::CacheGeometry;

/// A set-associative cache with true-LRU replacement, driven by byte
/// addresses.
///
/// Lines are allocated at `line_bytes` granularity. The simulator tracks hits
/// and misses; it does not model data contents.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    assoc: usize,
    line_shift: u32,
    /// `tags[set * assoc + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Stamp of each way's last touch, larger = more recently used; indexed
    /// like `tags`.
    ages: Vec<u64>,
    /// Accesses so far; the next stamp handed out is `clock + 1`.
    clock: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two or the geometry implies
    /// zero sets.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = geometry.sets() as usize;
        let assoc = geometry.associativity as usize;
        assert!(sets > 0 && assoc > 0, "degenerate cache geometry");
        Self {
            sets,
            assoc,
            line_shift: geometry.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * assoc],
            ages: vec![0; sets * assoc],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Access one byte address; returns `true` on hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line % self.sets as u64) as usize;
        self.clock += 1;
        let base = set * self.assoc;
        let ways = &self.tags[base..base + self.assoc];

        if let Some(way) = ways.iter().position(|&t| t == line) {
            self.ages[base + way] = self.clock;
            self.hits += 1;
            return true;
        }

        // Miss: fill into invalid way or evict LRU (smallest age).
        let victim = match ways.iter().position(|&t| t == u64::MAX) {
            Some(w) => w,
            None => {
                let mut lru_way = 0;
                let mut lru_age = u64::MAX;
                for (w, &age) in self.ages[base..base + self.assoc].iter().enumerate() {
                    if age < lru_age {
                        lru_age = age;
                        lru_way = w;
                    }
                }
                lru_way
            }
        };
        self.tags[base + victim] = line;
        self.ages[base + victim] = self.clock;
        self.misses += 1;
        false
    }

    /// Number of hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total accesses so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate over all accesses so far (0 if none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        SetAssocCache::new(CacheGeometry {
            size_bytes: 4096,
            line_bytes: 64,
            sector_bytes: 32,
            associativity: 4,
        })
    }

    fn two_way_single_set() -> SetAssocCache {
        SetAssocCache::new(CacheGeometry {
            size_bytes: 2 * 64,
            line_bytes: 64,
            sector_bytes: 32,
            associativity: 2,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_that_fits_has_only_cold_misses() {
        let mut c = small_cache(); // 64 lines
        for pass in 0..4 {
            for line in 0..32u64 {
                let hit = c.access(line * 64);
                assert_eq!(hit, pass > 0, "pass {pass} line {line}");
            }
        }
    }

    #[test]
    fn cyclic_sweep_larger_than_cache_thrashes() {
        let mut c = small_cache(); // 64 lines, 16 sets × 4 ways
                                   // 128 distinct lines, cycled: classic LRU worst case — ~0% hits.
        for _ in 0..4 {
            for line in 0..128u64 {
                c.access(line * 64);
            }
        }
        assert!(c.hit_rate() < 0.01, "got {}", c.hit_rate());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = two_way_single_set();
        // Single set, 2 ways.
        c.access(0); // A
        c.access(64); // B
        c.access(0); // A hit, A is MRU
        c.access(128); // C evicts B
        assert!(c.access(0), "A should survive");
        assert!(!c.access(64), "B should have been evicted");
    }
}
