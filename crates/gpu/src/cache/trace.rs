//! Synthetic address-trace generation, used to validate the analytic cache
//! model against the trace-driven simulator.
//!
//! [`generate_into`] is the one entry point: it fills a caller-owned buffer
//! with block base addresses, suitable for a [`super::SetAssocCache`]
//! configured with `line_bytes == block_bytes`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessPattern;

/// Generate `n` block-aligned byte addresses following `pattern` into a
/// caller-owned buffer (cleared first), reusing its capacity, so repeated
/// configurations can share one buffer. The stream depends only on
/// `(pattern, block_bytes, n, seed)`.
pub fn generate_into(
    pattern: &AccessPattern,
    block_bytes: u32,
    n: usize,
    seed: u64,
    out: &mut Vec<u64>,
) {
    out.clear();
    out.reserve(n);
    let bb = u64::from(block_bytes);
    let blocks = |bytes: u64| (bytes / bb).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    match *pattern {
        AccessPattern::Streaming => out.extend((0..n as u64).map(|i| i * bb)),
        AccessPattern::RandomUniform { working_set_bytes } => {
            let blocks = blocks(working_set_bytes);
            out.extend((0..n).map(|_| rng.gen_range(0..blocks) * bb));
        }
        AccessPattern::Sweep {
            working_set_bytes: bytes,
            ..
        }
        | AccessPattern::Broadcast { bytes } => {
            let blocks = blocks(bytes);
            out.extend((0..n as u64).map(|i| (i % blocks) * bb));
        }
        AccessPattern::HotCold {
            hot_fraction,
            hot_bytes,
            cold_bytes,
        } => {
            let hot_fraction = hot_fraction.clamp(0.0, 1.0);
            let (hot_blocks, cold_blocks) = (blocks(hot_bytes), blocks(cold_bytes));
            out.extend((0..n).map(|_| {
                if rng.gen_bool(hot_fraction) {
                    rng.gen_range(0..hot_blocks) * bb
                } else {
                    // Cold region sits above the hot region in the address
                    // space.
                    (hot_blocks + rng.gen_range(0..cold_blocks)) * bb
                }
            }));
        }
    }
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
