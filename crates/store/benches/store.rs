//! Embedded-store benchmarks on the three paths the daemons lean on:
//!
//! * `store/append-fsync` — one durable record append, fsync included
//!   (the WAL ordering means every append pays this before the index
//!   admits the record).
//! * `store/cold-open-10k` — open a 10k-record store from disk, i.e. the
//!   full segment scan that rebuilds the in-memory index at daemon
//!   startup.
//! * `store/warm-get` — one indexed read (one `pread` on the segment's
//!   kept-open handle + header check + CRC) of a hot key from the open store.
//!
//! After the timed groups the harness sanity-checks the open store's
//! accounting so a bench run doubles as a smoke test.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use cactus_store::{Store, StoreOptions};

const COLD_RECORDS: usize = 10_000;

fn opts() -> StoreOptions {
    StoreOptions {
        // A few hundred records per segment so rotation and multi-segment
        // scans are part of what's measured, as in a long-lived daemon.
        segment_max_bytes: 64 * 1024,
        compact_min_dead_bytes: u64::MAX,
    }
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cactus-store-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A profile-sized value (~120 bytes, the order of one small rendered
/// kernel table).
fn value(i: usize) -> Vec<u8> {
    format!(
        "cactus profile v2\nkernels 3\nk gemm_{i} 0.41 0.22 0.9\nk scan_{i} 0.18 0.55 0.3\nk reduce_{i} 0.11 0.61 0.2\n"
    )
    .into_bytes()
}

fn seed(dir: &std::path::Path, n: usize) {
    let store = Store::open_with(dir, opts()).expect("open for seeding");
    for i in 0..n {
        store
            .append(&format!("dev-{}/tiny/W{i:05}", i % 4), 2, &value(i))
            .expect("seed append");
    }
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.sample_size(10).measurement_time(Duration::from_secs(2));

    // Durable append throughput: every iteration is one fsync'd record.
    let append_dir = bench_dir("append");
    let store = Store::open_with(&append_dir, opts()).expect("open append store");
    let mut i = 0usize;
    g.bench_function("append-fsync", |b| {
        b.iter(|| {
            i += 1;
            store
                .append(&format!("bench/append/K{i:07}"), 2, &value(i))
                .expect("append");
            i
        })
    });

    // Cold-open index rebuild at daemon-startup scale.
    let cold_dir = bench_dir("cold");
    seed(&cold_dir, COLD_RECORDS);
    g.bench_function("cold-open-10k", |b| {
        b.iter(|| {
            let store = Store::open_with(&cold_dir, opts()).expect("cold open");
            black_box(store.entries().len())
        })
    });

    // Warm point reads against the already-open store.
    let reopened = Store::open_with(&cold_dir, opts()).expect("open for gets");
    let mut k = 0usize;
    g.bench_function("warm-get", |b| {
        b.iter(|| {
            k = (k + 7919) % COLD_RECORDS;
            let key = format!("dev-{}/tiny/W{k:05}", k % 4);
            let rec = reopened
                .get(black_box(&key))
                .expect("get io")
                .expect("seeded key present");
            rec.value.len()
        })
    });
    g.finish();

    // Accounting smoke test on the cold store: every seeded record is
    // indexed and the stats add up.
    let stats = reopened.stats();
    assert_eq!(stats.live_records as usize, COLD_RECORDS);
    assert!(stats.segments > 1, "rotation exercised: {stats:?}");
    println!(
        "store summary: {} live records over {} segments | {} appends, {} gets this process",
        stats.live_records, stats.segments, stats.appends, stats.gets
    );

    let _ = std::fs::remove_dir_all(&append_dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
