//! Validation of the analytic cache model against the trace-driven
//! set-associative simulator — the "analytic vs. trace-driven" ablation
//! called out in DESIGN.md.
//!
//! For each access pattern we generate a synthetic block-granular trace,
//! replay it through [`SetAssocCache`] (configured at sector granularity, as
//! the analytic model assumes for sectored GPU caches), and require the
//! closed-form hit rate to land within a tolerance band of the measured one.

use cactus_gpu::access::AccessPattern;
use cactus_gpu::cache::analytic;
use cactus_gpu::cache::trace;
use cactus_gpu::cache::SetAssocCache;
use cactus_gpu::device::CacheGeometry;
use cactus_gpu::CATALOG;

use proptest::prelude::*;

const BLOCK: u32 = 32;

/// Sector-granular geometry with the given capacity in blocks.
fn sector_geometry(capacity_blocks: u64, associativity: u32) -> CacheGeometry {
    CacheGeometry {
        size_bytes: capacity_blocks * u64::from(BLOCK),
        line_bytes: BLOCK,
        sector_bytes: BLOCK,
        associativity,
    }
}

fn replayed_hit_rate(pattern: &AccessPattern, geometry: CacheGeometry, n: usize, seed: u64) -> f64 {
    // One trace buffer per test thread, reused across every validation
    // case.
    thread_local! {
        static BUF: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    BUF.with(|buf| {
        let mut addrs = buf.borrow_mut();
        trace::generate_into(pattern, BLOCK, n, seed, &mut addrs);
        let mut cache = SetAssocCache::new(geometry);
        for &a in addrs.iter() {
            cache.access(a);
        }
        cache.hit_rate()
    })
}

fn measured_hit_rate(pattern: &AccessPattern, capacity_blocks: u64, n: usize, seed: u64) -> f64 {
    replayed_hit_rate(pattern, sector_geometry(capacity_blocks, 8), n, seed)
}

fn analytic_hit_rate(pattern: &AccessPattern, capacity_blocks: u64, n: usize) -> f64 {
    analytic::hit_rate(pattern, capacity_blocks as f64, BLOCK, n as f64)
}

#[test]
fn streaming_matches_simulator() {
    let pat = AccessPattern::Streaming;
    let m = measured_hit_rate(&pat, 1024, 50_000, 1);
    let a = analytic_hit_rate(&pat, 1024, 50_000);
    assert!(m < 1e-9, "simulator measured {m}");
    assert!((m - a).abs() < 1e-9);
}

#[test]
fn fitting_random_matches_simulator() {
    let pat = AccessPattern::RandomUniform {
        working_set_bytes: 512 * u64::from(BLOCK),
    };
    let m = measured_hit_rate(&pat, 2048, 100_000, 2);
    let a = analytic_hit_rate(&pat, 2048, 100_000);
    assert!((m - a).abs() < 0.02, "measured {m}, analytic {a}");
}

#[test]
fn oversized_random_matches_simulator() {
    // Working set 4x the cache: steady-state hit ≈ 1/4.
    let pat = AccessPattern::RandomUniform {
        working_set_bytes: 4096 * u64::from(BLOCK),
    };
    let m = measured_hit_rate(&pat, 1024, 200_000, 3);
    let a = analytic_hit_rate(&pat, 1024, 200_000);
    assert!((m - a).abs() < 0.03, "measured {m}, analytic {a}");
}

#[test]
fn fitting_sweep_matches_simulator() {
    let ws_blocks = 700u64;
    let sweeps = 10u32;
    let n = (ws_blocks * u64::from(sweeps)) as usize;
    let pat = AccessPattern::Sweep {
        working_set_bytes: ws_blocks * u64::from(BLOCK),
        sweeps,
    };
    let m = measured_hit_rate(&pat, 1024, n, 4);
    let a = analytic_hit_rate(&pat, 1024, n);
    assert!((m - a).abs() < 0.02, "measured {m}, analytic {a}");
}

#[test]
fn thrashing_sweep_matches_simulator() {
    let ws_blocks = 3000u64;
    let sweeps = 5u32;
    let n = (ws_blocks * u64::from(sweeps)) as usize;
    let pat = AccessPattern::Sweep {
        working_set_bytes: ws_blocks * u64::from(BLOCK),
        sweeps,
    };
    let m = measured_hit_rate(&pat, 1024, n, 5);
    let a = analytic_hit_rate(&pat, 1024, n);
    assert!(m < 0.02, "cyclic LRU should thrash, measured {m}");
    assert!((m - a).abs() < 0.02, "measured {m}, analytic {a}");
}

#[test]
fn hot_cold_matches_simulator() {
    let pat = AccessPattern::HotCold {
        hot_fraction: 0.85,
        hot_bytes: 512 * u64::from(BLOCK),
        cold_bytes: 16_384 * u64::from(BLOCK),
    };
    let m = measured_hit_rate(&pat, 2048, 300_000, 6);
    let a = analytic_hit_rate(&pat, 2048, 300_000);
    // Che's approximation is an IRM average; true LRU slightly beats it on
    // skewed streams, so allow a wider band here.
    assert!((m - a).abs() < 0.07, "measured {m}, analytic {a}");
}

#[test]
fn broadcast_matches_simulator() {
    let pat = AccessPattern::Broadcast {
        bytes: 128 * u64::from(BLOCK),
    };
    let m = measured_hit_rate(&pat, 1024, 50_000, 7);
    let a = analytic_hit_rate(&pat, 1024, 50_000);
    assert!(m > 0.99);
    assert!((m - a).abs() < 0.01, "measured {m}, analytic {a}");
}

/// The hand-picked cases above all run one 8-way geometry; this one runs
/// every cache the catalog ships — each device's L1 and the smallest L2, at
/// sector granularity with the device's own associativity (4- and 16-way,
/// power-of-two and 384/768/1536-set caches alike).
#[test]
fn analytic_tracks_simulator_on_every_catalog_cache() {
    let mut caches: Vec<(String, CacheGeometry)> = CATALOG
        .iter()
        .map(|e| (format!("{} L1", e.id), e.device().l1))
        .collect();
    let (id, l2) = CATALOG
        .iter()
        .map(|e| (e.id, e.device().l2))
        .min_by_key(|(_, l2)| l2.size_bytes)
        .expect("catalog is not empty");
    caches.push((format!("{id} L2"), l2));

    let bytes = |blocks: u64| blocks * u64::from(BLOCK);
    let random = |blocks: u64| AccessPattern::RandomUniform {
        working_set_bytes: bytes(blocks),
    };
    let sweep = |blocks: u64, sweeps: u32| AccessPattern::Sweep {
        working_set_bytes: bytes(blocks),
        sweeps,
    };
    for (name, cache) in caches {
        let cap = cache.size_bytes / u64::from(BLOCK);
        let geometry = sector_geometry(cap, cache.associativity);
        let hot_cold = AccessPattern::HotCold {
            hot_fraction: 0.85,
            hot_bytes: bytes(cap / 4),
            cold_bytes: bytes(cap * 8),
        };
        let cases = [
            ("random 0.5x", random(cap / 2), cap * 40),
            ("random 4x", random(cap * 4), cap * 40),
            ("fitting sweep", sweep(cap * 3 / 4, 10), cap * 3 / 4 * 10),
            ("thrashing sweep", sweep(cap * 3, 5), cap * 3 * 5),
            ("hot-cold", hot_cold, cap * 40),
        ];
        for (seed, (case, pat, n)) in (0u64..).zip(cases) {
            let n = n as usize;
            let m = replayed_hit_rate(&pat, geometry, n, seed);
            let a = analytic_hit_rate(&pat, cap, n);
            assert!(
                (m - a).abs() < 0.03,
                "{name}, {case}: measured {m}, analytic {a}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Analytic model tracks the simulator for uniform-random working sets
    /// across a wide range of capacity ratios.
    #[test]
    fn prop_random_uniform_tracks_simulator(
        ws_blocks in 64u64..8192,
        cap_blocks in 128u64..4096,
        seed in 0u64..1000,
    ) {
        let pat = AccessPattern::RandomUniform {
            working_set_bytes: ws_blocks * u64::from(BLOCK),
        };
        let n = 60_000usize;
        let m = measured_hit_rate(&pat, cap_blocks, n, seed);
        let a = analytic_hit_rate(&pat, cap_blocks, n);
        // LRU beats the IRM capacity-ratio bound slightly; allow 6 points.
        prop_assert!((m - a).abs() < 0.06, "ws={ws_blocks} cap={cap_blocks}: measured {m}, analytic {a}");
    }

    /// Hit rates from both models always stay in [0, 1] and the analytic
    /// model is monotonically non-decreasing in capacity.
    #[test]
    fn prop_analytic_monotone_in_capacity(
        ws_blocks in 1u64..10_000,
        hot_frac in 0.0f64..1.0,
    ) {
        let pats = [
            AccessPattern::RandomUniform { working_set_bytes: ws_blocks * 32 },
            AccessPattern::Sweep { working_set_bytes: ws_blocks * 32, sweeps: 4 },
            AccessPattern::HotCold {
                hot_fraction: hot_frac,
                hot_bytes: (ws_blocks / 8).max(1) * 32,
                cold_bytes: ws_blocks * 32,
            },
        ];
        for pat in &pats {
            let mut prev = -1.0f64;
            for cap in [16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0] {
                let h = analytic::hit_rate(pat, cap, BLOCK, 1e6);
                prop_assert!((0.0..=1.0).contains(&h));
                // Sweep is a step function but still monotone in capacity.
                prop_assert!(h + 1e-9 >= prev, "{pat:?}: cap {cap} gave {h} < {prev}");
                prev = h;
            }
        }
    }

    /// The trace-driven simulator conserves accesses.
    #[test]
    fn prop_simulator_conserves_accesses(
        n in 1usize..5000,
        cap in 8u64..512,
        seed in 0u64..100,
    ) {
        let pat = AccessPattern::RandomUniform { working_set_bytes: 1 << 16 };
        let mut addrs = Vec::new();
        trace::generate_into(&pat, BLOCK, n, seed, &mut addrs);
        let mut cache = SetAssocCache::new(sector_geometry(cap, 4));
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), n as u64);
        prop_assert_eq!(cache.accesses(), n as u64);
    }
}
