//! Closed-form steady-state cache hit-rate models, one per
//! [`AccessPattern`].
//!
//! The models operate at *sector* granularity (32 B), which matches how
//! Ampere-class GPUs fill their sectored caches: a streaming kernel touching
//! each sector exactly once gets a ~0 % hit rate even though four sectors
//! share a 128 B line, exactly what Nsight reports for copy-like kernels.
//!
//! * `Streaming` — every block touched once → only cold misses.
//! * `RandomUniform` / `HotCold` — the independent-reference model solved
//!   with **Che's approximation** [Che, Tung, Wang 2002]: a block with access
//!   probability `p` hits with probability `1 − exp(−p·T)` where the
//!   characteristic time `T` solves `Σᵢ (1 − exp(−pᵢ·T)) = C`.
//! * `Sweep` — cyclic re-reference: full reuse when the set fits, classic
//!   LRU thrash (≈ 0 reuse) when it does not.
//!
//! Each formula is validated against the trace-driven simulator in
//! `tests/cache_validation.rs` and by property tests.

use crate::access::AccessPattern;

/// Minimum accesses below which we don't trust steady-state math and just
/// report the cold-miss bound.
const EPS: f64 = 1e-12;

/// Steady-state hit rate of a stream with the given `pattern`, performing
/// `accesses` block-granular accesses against a cache holding
/// `capacity_blocks` blocks of `block_bytes` each.
///
/// Returns a value in `[0, 1]`.
#[must_use]
pub fn hit_rate(
    pattern: &AccessPattern,
    capacity_blocks: f64,
    block_bytes: u32,
    accesses: f64,
) -> f64 {
    if accesses <= EPS {
        return 0.0;
    }
    let bb = f64::from(block_bytes);
    match *pattern {
        AccessPattern::Streaming => 0.0,
        AccessPattern::RandomUniform { working_set_bytes } => {
            let distinct = (working_set_bytes as f64 / bb).max(1.0).min(accesses);
            uniform_hit(distinct, capacity_blocks, accesses)
        }
        AccessPattern::Sweep {
            working_set_bytes,
            sweeps,
        } => {
            let distinct = (working_set_bytes as f64 / bb).max(1.0);
            let sweeps = f64::from(sweeps.max(1));
            if distinct <= capacity_blocks {
                // Cold misses on the first sweep only. Within a sweep each
                // block is touched accesses/(distinct*sweeps) times.
                (1.0 - distinct / accesses).clamp(0.0, 1.0)
            } else {
                // Cyclic LRU thrash: no inter-sweep reuse. Intra-sweep
                // repeats (accesses > distinct*sweeps) still hit.
                let per_sweep = accesses / sweeps;
                (1.0 - distinct / per_sweep).clamp(0.0, 1.0)
            }
        }
        AccessPattern::HotCold {
            hot_fraction,
            hot_bytes,
            cold_bytes,
        } => {
            let f = hot_fraction.clamp(0.0, 1.0);
            let dh = (hot_bytes as f64 / bb).max(1.0);
            let dc = (cold_bytes as f64 / bb).max(1.0);
            // Expected distinct blocks actually touched per class (coupon
            // collector): D·(1 − e^(−N_class/D)).
            let nh = f * accesses;
            let nc = (1.0 - f) * accesses;
            let th = dh * (1.0 - (-nh / dh).exp());
            let tc = dc * (1.0 - (-nc / dc).exp());
            if dh + dc <= capacity_blocks {
                return (1.0 - (th + tc) / accesses).clamp(0.0, 1.0);
            }
            let (hh, hc) = che_two_class(f, dh, dc, capacity_blocks);
            // Per class: compulsory miss on the first touch of each block
            // reached, steady-state hits on the rest.
            let hot_hits = if nh > 0.0 {
                hh * (nh - th).max(0.0)
            } else {
                0.0
            };
            let cold_hits = if nc > 0.0 {
                hc * (nc - tc).max(0.0)
            } else {
                0.0
            };
            ((hot_hits + cold_hits) / accesses).clamp(0.0, 1.0)
        }
        AccessPattern::Broadcast { bytes } => {
            let distinct = (bytes as f64 / bb).max(1.0).min(accesses);
            uniform_hit(distinct, capacity_blocks, accesses)
        }
    }
}

/// Uniform IRM over `distinct` blocks: steady-state hit `min(1, C/D)`, with
/// cold misses amortized over `accesses`.
fn uniform_hit(distinct: f64, capacity: f64, accesses: f64) -> f64 {
    // Expected distinct blocks actually touched (coupon collector).
    let touched = distinct * (1.0 - (-accesses / distinct).exp());
    if distinct <= capacity {
        (1.0 - touched / accesses).clamp(0.0, 1.0)
    } else {
        // Compulsory miss on the first touch of each block reached,
        // steady-state capacity hit rate `C/D` on the rest.
        let steady = capacity / distinct;
        (steady * (1.0 - touched / accesses)).clamp(0.0, 1.0)
    }
}

/// Che's approximation for a two-class IRM: `f` of accesses spread uniformly
/// over `dh` hot blocks, `1 − f` over `dc` cold blocks, cache capacity `c`
/// blocks. Returns the per-class steady-state hit probabilities `(h_hot,
/// h_cold)`.
#[must_use]
pub(crate) fn che_two_class(f: f64, dh: f64, dc: f64, c: f64) -> (f64, f64) {
    let ph = if dh > 0.0 { f / dh } else { 0.0 };
    let pc = if dc > 0.0 { (1.0 - f) / dc } else { 0.0 };
    let occupied = |t: f64| dh * (1.0 - (-ph * t).exp()) + dc * (1.0 - (-pc * t).exp());

    // The cache can hold everything: all warm accesses hit.
    if dh + dc <= c {
        return (1.0, 1.0);
    }

    // Bisection for T with occupied(T) = c; occupied is increasing in T.
    // A step is a pure function of the bracket `(lo, hi)`, so once one
    // leaves it bitwise unchanged every later step would too: stopping there
    // returns the bits the full 200 steps return (`reference` below).
    let mut lo: f64 = 0.0;
    let mut hi: f64 = 1.0;
    while occupied(hi) < c && hi < 1e18 {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let end = if occupied(mid) < c { &mut lo } else { &mut hi };
        if end.to_bits() == mid.to_bits() {
            break;
        }
        *end = mid;
    }
    let t = 0.5 * (lo + hi);
    ((1.0 - (-ph * t).exp()), (1.0 - (-pc * t).exp()))
}

#[cfg(test)]
mod reference {
    //! The Che solve as a fixed 200-step bisection, kept verbatim as the
    //! oracle: however `che_two_class` ends its bisection, it must return
    //! these bits.

    /// Che's approximation for a two-class IRM, bisected 200 times.
    pub(super) fn che_two_class(f: f64, dh: f64, dc: f64, c: f64) -> (f64, f64) {
        let ph = if dh > 0.0 { f / dh } else { 0.0 };
        let pc = if dc > 0.0 { (1.0 - f) / dc } else { 0.0 };
        let occupied = |t: f64| dh * (1.0 - (-ph * t).exp()) + dc * (1.0 - (-pc * t).exp());

        // The cache can hold everything: all warm accesses hit.
        if dh + dc <= c {
            return (1.0, 1.0);
        }

        // Bisection for T with occupied(T) = c; occupied is increasing in T.
        let mut lo = 0.0;
        let mut hi = 1.0;
        while occupied(hi) < c && hi < 1e18 {
            hi *= 2.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if occupied(mid) < c {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t = 0.5 * (lo + hi);
        ((1.0 - (-ph * t).exp()), (1.0 - (-pc * t).exp()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn streaming_never_hits() {
        let h = hit_rate(&AccessPattern::Streaming, 1024.0, 32, 1e6);
        assert_eq!(h, 0.0);
    }

    #[test]
    fn fitting_random_ws_approaches_one() {
        let pat = AccessPattern::RandomUniform {
            working_set_bytes: 1024 * 32,
        };
        let h = hit_rate(&pat, 4096.0, 32, 1e7);
        assert!(h > 0.999, "got {h}");
    }

    #[test]
    fn oversized_random_ws_is_capacity_ratio() {
        // 8192 blocks of working set, 1024-block cache → ~1/8 hit rate.
        let pat = AccessPattern::RandomUniform {
            working_set_bytes: 8192 * 32,
        };
        let h = hit_rate(&pat, 1024.0, 32, 1e7);
        assert!((h - 0.125).abs() < 0.01, "got {h}");
    }

    #[test]
    fn fitting_sweep_reuses_across_sweeps() {
        let pat = AccessPattern::Sweep {
            working_set_bytes: 512 * 32,
            sweeps: 8,
        };
        // 8 sweeps × 512 accesses.
        let h = hit_rate(&pat, 1024.0, 32, 8.0 * 512.0);
        assert!((h - 7.0 / 8.0).abs() < 1e-9, "got {h}");
    }

    #[test]
    fn thrashing_sweep_has_no_reuse() {
        let pat = AccessPattern::Sweep {
            working_set_bytes: 4096 * 32,
            sweeps: 8,
        };
        let h = hit_rate(&pat, 1024.0, 32, 8.0 * 4096.0);
        assert!(h < 0.01, "got {h}");
    }

    #[test]
    fn hot_cold_prefers_hot_region() {
        // 90% of accesses to 256 hot blocks, 10% to 65536 cold blocks,
        // 1024-block cache: hot region should be ~fully resident.
        let (hh, hc) = che_two_class(0.9, 256.0, 65536.0, 1024.0);
        assert!(hh > 0.95, "hot hit {hh}");
        assert!(hc < 0.35, "cold hit {hc}");
    }

    /// `che_two_class` against the 200-step oracle, both outputs bit for bit.
    fn assert_che_matches_reference(f: f64, dh: f64, dc: f64, c: f64) {
        let (hh, hc) = che_two_class(f, dh, dc, c);
        let (rh, rc) = reference::che_two_class(f, dh, dc, c);
        assert_eq!(
            (hh.to_bits(), hc.to_bits()),
            (rh.to_bits(), rc.to_bits()),
            "f={f} dh={dh} dc={dc} c={c}: ({hh}, {hc}) vs the oracle's ({rh}, {rc})"
        );
    }

    #[test]
    fn che_matches_the_reference_on_the_edges() {
        let rows = [
            // All accesses cold, all hot.
            (0.0, 256.0, 65536.0, 1024.0),
            (1.0, 256.0, 65536.0, 1024.0),
            (0.0, 1.0, 1.0, 1.0),
            (1.0, 1.0, 1.0, 1.0),
            // One block in a class.
            (0.9, 1.0, 65536.0, 1024.0),
            (0.1, 65536.0, 1.0, 1024.0),
            (0.5, 1.0, 1.0, 1.5),
            // One block short of holding everything.
            (0.9, 256.0, 65536.0, 256.0 + 65536.0 - 1.0),
            (0.3, 4096.0, 4096.0, 8191.0),
            // A cache of one block or less (c = 0 runs all 200 steps).
            (0.9, 256.0, 65536.0, 1.0),
            (0.9, 256.0, 65536.0, 0.5),
            (0.9, 256.0, 65536.0, 0.0),
            // A cold class so large that `hi` stops doubling at the 1e18 cap.
            (0.5, 16.0, 1e30, 1e20),
            (0.0, 1.0, 1e300, 1e200),
        ];
        for (f, dh, dc, c) in rows {
            assert_che_matches_reference(f, dh, dc, c);
        }
        // The cap row really reaches the cap.
        let pc = 0.5 / 1e30;
        let occupied =
            16.0 * (1.0 - (-0.5 / 16.0 * 1e18f64).exp()) + 1e30 * (1.0 - (-pc * 1e18f64).exp());
        assert!(occupied < 1e20, "{occupied}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50_000))]

        /// Random two-class streams: class sizes from 1 to 2^40 blocks,
        /// caches from empty to larger than both classes.
        #[test]
        fn che_matches_the_reference_bit_for_bit(
            f in 0.0f64..1.0,
            log_dh in 0.0f64..40.0,
            log_dc in 0.0f64..40.0,
            fill in 0.0f64..1.2,
        ) {
            let (dh, dc) = (log_dh.exp2(), log_dc.exp2());
            assert_che_matches_reference(f, dh, dc, fill * (dh + dc));
        }
    }

    #[test]
    fn hot_cold_overall_rate_reasonable() {
        let pat = AccessPattern::HotCold {
            hot_fraction: 0.9,
            hot_bytes: 256 * 32,
            cold_bytes: 65536 * 32,
        };
        let h = hit_rate(&pat, 1024.0, 32, 1e7);
        assert!(h > 0.85 && h < 0.95, "got {h}");
    }

    #[test]
    fn broadcast_is_nearly_free() {
        let pat = AccessPattern::Broadcast { bytes: 64 * 32 };
        let h = hit_rate(&pat, 1024.0, 32, 1e6);
        assert!(h > 0.9999, "got {h}");
    }

    #[test]
    fn hit_rates_stay_in_unit_interval() {
        let pats = [
            AccessPattern::Streaming,
            AccessPattern::RandomUniform {
                working_set_bytes: 123_456,
            },
            AccessPattern::Sweep {
                working_set_bytes: 999_999,
                sweeps: 3,
            },
            AccessPattern::HotCold {
                hot_fraction: 0.7,
                hot_bytes: 4096,
                cold_bytes: 1 << 20,
            },
            AccessPattern::Broadcast { bytes: 256 },
        ];
        for pat in &pats {
            for &cap in &[1.0, 64.0, 4096.0] {
                for &n in &[1.0, 100.0, 1e9] {
                    let h = hit_rate(pat, cap, 32, n);
                    assert!((0.0..=1.0).contains(&h), "{pat:?} cap={cap} n={n} → {h}");
                }
            }
        }
    }
}
