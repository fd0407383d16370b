//! The cache model's cost contract: the analytic hit rate the engine
//! evaluates on every launch against replaying the equivalent trace through
//! the set-associative simulator (the oracle the tests validate it with) —
//! the cost side of the `--bin ablation` cache-model study — required
//! ≥ 10⁴×. A ratio between two things timed in this process, so there is no
//! baseline to record or refresh.
//!
//! The two sides are sampled alternately, so machine-phase drift hits both,
//! and the ratio is taken between floors (fastest sample), the statistic
//! least sensitive to whoever else is on the box.

use std::hint::black_box;
use std::time::Instant;

use cactus_gpu::access::AccessPattern;
use cactus_gpu::cache::{analytic, trace, SetAssocCache};
use cactus_gpu::device::CacheGeometry;

/// Seconds one call of `routine` took, on a `setup()` value built off the
/// clock. `main` keeps the floor (fastest sample) of each side.
fn secs<S, R>(setup: impl FnOnce() -> S, routine: impl FnOnce(S) -> R) -> f64 {
    let input = setup();
    let start = Instant::now();
    black_box(routine(input));
    start.elapsed().as_secs_f64()
}

const SAMPLES: usize = 10;

/// A 128 KiB, 8-way cache at sector granularity, as the validation tests
/// configure the simulator.
const L1: CacheGeometry = CacheGeometry {
    size_bytes: 128 * 1024,
    line_bytes: 32,
    sector_bytes: 32,
    associativity: 8,
};

fn replayed_hit_rate(mut cache: SetAssocCache, addrs: &[u64]) -> f64 {
    for &a in addrs {
        cache.access(a);
    }
    cache.hit_rate()
}

/// One kernel's worth of `RandomUniform` accesses (50 k over 4 MiB). One
/// analytic evaluation is far below the clock's resolution, so a sample is
/// `CALLS` of them.
fn main() {
    const CALLS: u32 = 10_000;
    let pattern = AccessPattern::RandomUniform {
        working_set_bytes: 1 << 22,
    };
    let n = 50_000usize;
    let mut addrs = Vec::new();
    trace::generate_into(&pattern, 32, n, 11, &mut addrs);

    let (mut model, mut replay) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        let calls = secs(
            || (),
            |()| {
                for _ in 0..CALLS {
                    black_box(analytic::hit_rate(
                        black_box(&pattern),
                        4096.0,
                        32,
                        n as f64,
                    ));
                }
            },
        );
        model = model.min(calls / f64::from(CALLS));
        replay = replay.min(secs(
            || SetAssocCache::new(L1),
            |cache| replayed_hit_rate(cache, &addrs),
        ));
    }
    let ratio = replay / model;
    println!(
        "cache/model-50k: analytic {:.1} ns, trace-driven {:.2} ms, analytic speedup {ratio:.2e}x",
        model * 1e9,
        replay * 1e3
    );
    assert!(
        ratio >= 1e4,
        "analytic model must be >=1e4x the trace replay, got {ratio:.2e}x"
    );
}
