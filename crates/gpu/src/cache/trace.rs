//! Synthetic address-trace generation, used to validate the analytic cache
//! model against the trace-driven simulator.
//!
//! [`generate_into`] is the one entry point: it fills a caller-owned buffer
//! with block base addresses, suitable for a [`super::SetAssocCache`]
//! configured with `line_bytes == block_bytes`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessPattern;

/// Pattern parameters pre-resolved to block counts, so the per-address
/// loop carries no re-derivation.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Streaming,
    Random {
        blocks: u64,
    },
    Sweep {
        blocks: u64,
    },
    HotCold {
        hot_fraction: f64,
        hot_blocks: u64,
        cold_blocks: u64,
    },
    Broadcast {
        blocks: u64,
    },
}

/// Incremental trace generator: the address stream depends only on
/// `(pattern, block_bytes, n, seed)`, not on how it is chunked.
#[derive(Debug, Clone)]
struct TraceGen {
    kind: Kind,
    block_bytes: u64,
    /// Next global index to emit.
    next: u64,
    /// Total addresses to emit.
    n: u64,
    rng: StdRng,
}

impl TraceGen {
    /// Start a generator for `n` block-aligned addresses of `pattern`.
    fn new(pattern: &AccessPattern, block_bytes: u32, n: usize, seed: u64) -> Self {
        let bb = u64::from(block_bytes);
        let kind = match *pattern {
            AccessPattern::Streaming => Kind::Streaming,
            AccessPattern::RandomUniform { working_set_bytes } => Kind::Random {
                blocks: (working_set_bytes / bb).max(1),
            },
            AccessPattern::Sweep {
                working_set_bytes, ..
            } => Kind::Sweep {
                blocks: (working_set_bytes / bb).max(1),
            },
            AccessPattern::HotCold {
                hot_fraction,
                hot_bytes,
                cold_bytes,
            } => Kind::HotCold {
                hot_fraction: hot_fraction.clamp(0.0, 1.0),
                hot_blocks: (hot_bytes / bb).max(1),
                cold_blocks: (cold_bytes / bb).max(1),
            },
            AccessPattern::Broadcast { bytes } => Kind::Broadcast {
                blocks: (bytes / bb).max(1),
            },
        };
        Self {
            kind,
            block_bytes: bb,
            next: 0,
            n: n as u64,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Emit up to `max` addresses into `buf` (cleared first, capacity
    /// reused). Returns the number written; 0 means the trace is exhausted.
    fn next_chunk(&mut self, buf: &mut Vec<u64>, max: usize) -> usize {
        buf.clear();
        let count = ((self.n - self.next) as usize).min(max);
        if count == 0 {
            return 0;
        }
        buf.reserve(count);
        let bb = self.block_bytes;
        let start = self.next;
        match self.kind {
            Kind::Streaming => {
                for i in start..start + count as u64 {
                    buf.push(i * bb);
                }
            }
            Kind::Random { blocks } => {
                for _ in 0..count {
                    buf.push(self.rng.gen_range(0..blocks) * bb);
                }
            }
            Kind::Sweep { blocks } => {
                for i in start..start + count as u64 {
                    buf.push((i % blocks) * bb);
                }
            }
            Kind::HotCold {
                hot_fraction,
                hot_blocks,
                cold_blocks,
            } => {
                for _ in 0..count {
                    if self.rng.gen_bool(hot_fraction) {
                        buf.push(self.rng.gen_range(0..hot_blocks) * bb);
                    } else {
                        // Cold region sits above the hot region in the
                        // address space.
                        buf.push((hot_blocks + self.rng.gen_range(0..cold_blocks)) * bb);
                    }
                }
            }
            Kind::Broadcast { blocks } => {
                for i in start..start + count as u64 {
                    buf.push((i % blocks) * bb);
                }
            }
        }
        self.next += count as u64;
        count
    }
}

/// Generate `n` block-aligned byte addresses following `pattern` into a
/// caller-owned buffer (cleared first), reusing its capacity, so repeated
/// configurations can share one buffer.
pub fn generate_into(
    pattern: &AccessPattern,
    block_bytes: u32,
    n: usize,
    seed: u64,
    out: &mut Vec<u64>,
) {
    TraceGen::new(pattern, block_bytes, n, seed).next_chunk(out, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(pattern: &AccessPattern, block_bytes: u32, n: usize, seed: u64) -> Vec<u64> {
        let mut out = Vec::new();
        generate_into(pattern, block_bytes, n, seed, &mut out);
        out
    }

    #[test]
    fn streaming_addresses_are_unique_and_ordered() {
        let t = generate(&AccessPattern::Streaming, 32, 100, 1);
        assert_eq!(t.len(), 100);
        for w in t.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn random_stays_in_working_set() {
        let pat = AccessPattern::RandomUniform {
            working_set_bytes: 64 * 32,
        };
        let t = generate(&pat, 32, 10_000, 2);
        assert!(t.iter().all(|&a| a < 64 * 32));
    }

    #[test]
    fn hot_cold_respects_fraction() {
        let pat = AccessPattern::HotCold {
            hot_fraction: 0.8,
            hot_bytes: 32 * 32,
            cold_bytes: 1024 * 32,
        };
        let t = generate(&pat, 32, 100_000, 3);
        let hot = t.iter().filter(|&&a| a < 32 * 32).count();
        let frac = hot as f64 / t.len() as f64;
        assert!((frac - 0.8).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let pat = AccessPattern::RandomUniform {
            working_set_bytes: 1 << 16,
        };
        assert_eq!(generate(&pat, 32, 1000, 7), generate(&pat, 32, 1000, 7));
    }

    #[test]
    fn chunked_generation_matches_one_shot() {
        for pat in [
            AccessPattern::Streaming,
            AccessPattern::RandomUniform {
                working_set_bytes: 1 << 14,
            },
            AccessPattern::Sweep {
                working_set_bytes: 1 << 12,
                sweeps: 3,
            },
            AccessPattern::HotCold {
                hot_fraction: 0.7,
                hot_bytes: 1 << 10,
                cold_bytes: 1 << 14,
            },
            AccessPattern::Broadcast { bytes: 1 << 8 },
        ] {
            let whole = generate(&pat, 32, 10_000, 9);
            let mut gen = TraceGen::new(&pat, 32, 10_000, 9);
            let mut chunked = Vec::new();
            let mut buf = Vec::new();
            // Deliberately odd chunk size to exercise boundaries.
            while gen.next_chunk(&mut buf, 777) > 0 {
                chunked.extend_from_slice(&buf);
            }
            assert_eq!(chunked, whole, "pattern {pat:?}");
            assert_eq!(gen.next, gen.n);
        }
    }

    #[test]
    fn generate_into_reuses_buffer() {
        let pat = AccessPattern::Streaming;
        let mut buf = Vec::new();
        generate_into(&pat, 32, 100, 1, &mut buf);
        assert_eq!(buf.len(), 100);
        let cap = buf.capacity();
        generate_into(&pat, 32, 50, 1, &mut buf);
        assert_eq!(buf.len(), 50);
        assert_eq!(buf.capacity(), cap, "capacity must be reused");
    }
}
