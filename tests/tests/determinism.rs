//! Determinism guarantees of the execution engine.
//!
//! The parallel fan-out ([`cactus_gpu::par`]) and the launch memo cache
//! ([`cactus_gpu::Gpu`]) are pure performance features: both must produce
//! bit-identical results to the serial, uncached paths, down to the order
//! of the launch trace.

use cactus_core::SuiteScale;
use cactus_gpu::prelude::*;
use cactus_profiler::Profile;
use cactus_suites::Scale;

/// One fresh device per Table I workload, the shape every suite fan-out
/// (the fig/table resolver's included) gives each member.
fn run_fresh(w: &cactus_core::Workload) -> Profile {
    let mut gpu = Gpu::new(Device::rtx3080());
    w.run(&mut gpu, SuiteScale::Tiny);
    Profile::from_records(gpu.records())
}

/// Run the Table I workload `abbr` at tiny scale on `gpu` and profile it.
fn run_on(gpu: &mut Gpu, abbr: &str) -> Profile {
    let w = cactus_core::workloads::by_abbr(abbr).expect("Table I workload");
    w.run(gpu, SuiteScale::Tiny);
    Profile::from_records(gpu.records())
}

/// Fanning the suite out over `par::parallel_map` must return exactly what
/// the serial runner returns: same workload order, bit-identical profiles.
#[test]
fn parallel_suite_matches_serial() {
    let parallel = cactus_gpu::par::parallel_map(cactus_core::suite(), |w| {
        let p = run_fresh(&w);
        (w, p)
    });
    let serial = cactus_core::run_suite(SuiteScale::Tiny);
    assert_eq!(parallel.len(), serial.len());
    for ((pw, pp), (sw, sp)) in parallel.iter().zip(&serial) {
        assert_eq!(pw.abbr, sw.abbr, "workload order must match");
        assert_eq!(pp, sp, "profile of {} differs between modes", pw.abbr);
    }
}

/// Fan-out over the comparison suites (the `prt_profiles` shape) is equally
/// deterministic: compare full launch traces, not just aggregates.
#[test]
fn parallel_prt_fanout_matches_serial() {
    let run = |b: &cactus_suites::Benchmark| {
        let mut gpu = Gpu::new(Device::rtx3080());
        b.run(&mut gpu, Scale::Tiny);
        gpu.records().to_vec()
    };
    let parallel = cactus_gpu::par::parallel_map(cactus_suites::all(), |b| (b.name, run(&b)));
    let serial: Vec<_> = cactus_suites::all()
        .into_iter()
        .map(|b| (b.name, run(&b)))
        .collect();
    assert_eq!(parallel.len(), serial.len());
    for ((pn, pr), (sn, sr)) in parallel.iter().zip(&serial) {
        assert_eq!(pn, sn, "benchmark order must match");
        assert_eq!(pr, sr, "trace of {pn} differs between modes");
    }
}

/// A memoized run must reproduce the cold run exactly — every record, in
/// order, including per-launch metrics — for repeated-launch-heavy
/// workloads (MD integration loops, seq2seq time steps).
#[test]
fn memoized_run_matches_cold_run() {
    for abbr in ["GMS", "GRU"] {
        let mut cold = Gpu::new(Device::rtx3080());
        cold.set_memoization(false);
        let cold_profile = run_on(&mut cold, abbr);

        let mut memo = Gpu::new(Device::rtx3080());
        let memo_profile = run_on(&mut memo, abbr);

        assert_eq!(memo.memo_misses() as usize, memo.memo_len());
        assert!(
            memo.memo_hits() > 0,
            "{abbr} should re-launch at least one identical kernel"
        );
        assert_eq!(
            cold.records(),
            memo.records(),
            "{abbr}: memoized trace must equal cold trace, in order"
        );
        assert_eq!(cold_profile, memo_profile);
    }
}

/// Parallelism and memoization composed (the default engine configuration)
/// still match the fully serial, uncached baseline.
#[test]
fn parallel_memoized_suite_matches_cold_serial() {
    let baseline: Vec<_> = cactus_core::suite()
        .into_iter()
        .map(|w| {
            let mut gpu = Gpu::new(Device::rtx3080());
            gpu.set_memoization(false);
            let p = run_on(&mut gpu, w.abbr);
            (w.abbr, p)
        })
        .collect();
    let engine = cactus_gpu::par::parallel_map(cactus_core::suite(), |w| (w.abbr, run_fresh(&w)));
    assert_eq!(baseline.len(), engine.len());
    for ((ba, bp), (ea, ep)) in baseline.iter().zip(&engine) {
        assert_eq!(ba, ea);
        assert_eq!(bp, ep, "{ba}: engine output differs from cold baseline");
    }
}
