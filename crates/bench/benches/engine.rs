//! Execution-engine benchmarks: the cost of the full profile-scale suite
//! under the three engine configurations (serial cold, parallel cold,
//! parallel + launch memoization — the default), and the memoization win on
//! the two most repeat-launch-heavy workloads (GROMACS MD and the GRU
//! seq2seq model).
//!
//! The `engine/full-suite/*` trio measures the fan-out: on an N-core host
//! `parallel-cold` approaches N× over `serial-cold` (the workloads are
//! embarrassingly parallel), with `parallel-memo` shaving launch
//! simulation on top. `engine/profile-store/*` measures the third layer —
//! reading presimulated `cactus_profiles() + prt_profiles()` sets back
//! through `cactus-store` (open, one `get` per member, decode) versus
//! recomputing them — which exceeds the 2× engine-speedup target on any
//! host, single-core included.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use cactus_bench::store::{cactus_members, default_device, load, prt_members, save};
use cactus_bench::{cactus_profiles, prt_profiles};
use cactus_core::SuiteScale;
use cactus_gpu::{par, Device, Gpu};
use cactus_store::Store;
use cactus_suites::Scale;

/// One full pass over both profile sets with per-workload memoization
/// toggled by `memo`.
fn suite_serial(memo: bool) -> usize {
    let mut launches = 0;
    for w in cactus_core::suite() {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.set_memoization(memo);
        cactus_core::run_on(&mut gpu, w.abbr, SuiteScale::Profile);
        launches += gpu.records().len();
    }
    for b in cactus_suites::all() {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.set_memoization(memo);
        b.run(&mut gpu, Scale::Profile);
        launches += gpu.records().len();
    }
    launches
}

/// The same pass fanned out across worker threads (one `Gpu` per workload).
fn suite_parallel(memo: bool) -> usize {
    let cactus = par::parallel_map(cactus_core::suite(), move |w| {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.set_memoization(memo);
        cactus_core::run_on(&mut gpu, w.abbr, SuiteScale::Profile);
        gpu.records().len()
    });
    let prt = par::parallel_map(cactus_suites::all(), move |b| {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.set_memoization(memo);
        b.run(&mut gpu, Scale::Profile);
        gpu.records().len()
    });
    cactus.into_iter().chain(prt).sum()
}

fn bench_full_suite(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/full-suite");
    // Each pass takes tens of seconds; keep the sample count minimal.
    g.sample_size(2).measurement_time(Duration::from_secs(1));
    g.bench_function("serial-cold", |b| b.iter(|| suite_serial(false)));
    g.bench_function("parallel-cold", |b| b.iter(|| suite_parallel(false)));
    g.bench_function("parallel-memo", |b| b.iter(|| suite_parallel(true)));
    g.finish();

    // Fanning out must never cost more than running serially: the queue
    // hand-off is chunked and results land in per-index slots, so even a
    // single-core host should see parallel ≈ serial. The 10% band absorbs
    // scheduler noise at sample_size(2).
    if let (Some(serial), Some(parallel)) = (
        criterion::median_of("engine/full-suite/serial-cold"),
        criterion::median_of("engine/full-suite/parallel-cold"),
    ) {
        assert!(
            parallel <= serial * 1.10,
            "parallel-cold ({parallel:.2}s) regressed past serial-cold ({serial:.2}s)"
        );
    }
}

/// Per-workload memo ablation: MD and seq2seq dominate repeat launches
/// (integration steps / time steps re-issue identical kernels), so they
/// show the memoization ceiling.
fn bench_memo_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/memo");
    g.sample_size(5).measurement_time(Duration::from_secs(2));
    for (label, abbr) in [("md-gromacs", "GMS"), ("seq2seq-gru", "GRU")] {
        for (mode, memo) in [("cold", false), ("memo", true)] {
            g.bench_function(&format!("{label}/{mode}"), |b| {
                b.iter(|| {
                    let mut gpu = Gpu::new(Device::rtx3080());
                    gpu.set_memoization(memo);
                    cactus_core::run_on(&mut gpu, abbr, SuiteScale::Profile);
                    gpu.records().len()
                });
            });
        }
    }
    g.finish();

    // Hit-rate summary (not a timing — printed once for context).
    for (label, abbr) in [("md-gromacs", "GMS"), ("seq2seq-gru", "GRU")] {
        let mut gpu = Gpu::new(Device::rtx3080());
        cactus_core::run_on(&mut gpu, abbr, SuiteScale::Profile);
        let (hits, misses) = (gpu.memo_hits(), gpu.memo_misses());
        println!(
            "engine/memo/{label}: {hits} hits / {} launches ({:.1}% hit rate, {misses} unique kernels)",
            hits + misses,
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
    }
}

/// Store load vs. fresh simulation for the exact profile sets every
/// fig/table binary consumes.
fn bench_profile_store(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("cactus-engine-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entry = default_device();
    {
        let store = Store::open(&dir).expect("open store");
        save(&store, entry, &cactus_profiles()).expect("populate store");
        save(&store, entry, &prt_profiles()).expect("populate store");
    }
    let (cactus, prt) = (cactus_members(), prt_members());

    let mut g = c.benchmark_group("engine/profile-store");
    g.sample_size(3).measurement_time(Duration::from_secs(2));
    g.bench_function("simulate", |b| {
        b.iter(|| (cactus_profiles().len(), prt_profiles().len()));
    });
    g.bench_function("load", |b| {
        b.iter(|| {
            let store = Store::open(&dir).expect("open store");
            let c = load(&store, entry, &cactus).expect("cactus set");
            let p = load(&store, entry, &prt).expect("prt set");
            (c.len(), p.len())
        });
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    engine,
    bench_full_suite,
    bench_memo_workloads,
    bench_profile_store
);
criterion_main!(engine);
