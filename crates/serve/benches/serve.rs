//! Serving-path benchmarks over a live loopback server: the three levels of
//! the response hierarchy, measured end to end through the typed client.
//!
//! * `serve/cold-store` — response cache cleared before every request, so
//!   each one falls through to the profile store (level 2: deserialize and
//!   render, no simulation).
//! * `serve/warm-cache` — the same request repeated, answered from the LRU
//!   (level 1: render-free, simulation-free).
//! * `serve/single-flight-contended` — eight concurrent clients racing for
//!   one uncached tiny-scale triple; single-flight coalesces the burst into
//!   exactly one simulation (level 3), so per-burst cost approaches one
//!   simulation rather than eight.
//!
//! After the timed groups a one-shot summary prints the observed request
//! counters so the hierarchy's hit ratios are visible in bench logs.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use cactus_core::SuiteScale;
use cactus_profiler::store::write_profile;
use cactus_serve::{Client, ServeConfig, Server};
use cactus_store::Store;

/// Seed a store directory with GMS under the `rtx-3080/profile` key,
/// simulated at tiny scale (the store never looks inside the value, so
/// this is a cheap way to exercise the store-load path).
fn seeded_store_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cactus-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entry = cactus_gpu::by_id("rtx-3080").expect("catalog id");
    Store::open(&dir)
        .expect("open store")
        .append(
            "rtx-3080/profile/GMS",
            entry.record_version(),
            write_profile(&cactus_core::run("GMS", SuiteScale::Tiny)).as_bytes(),
        )
        .expect("seed store");
    dir
}

fn start_server(store_dir: std::path::PathBuf, workers: usize) -> Server {
    Server::start(ServeConfig {
        workers,
        queue: 64,
        store_dir: Some(store_dir),
        ..ServeConfig::default()
    })
    .expect("bind loopback server")
}

fn bench_serve_levels(c: &mut Criterion) {
    // Benchmarks measure the passthrough lock path: release builds without
    // the lock-check feature must compile rank checking out entirely.
    #[cfg(all(not(debug_assertions), not(feature = "lock-check")))]
    assert!(
        !cactus_obs::lock::CHECK_ENABLED,
        "release benches must run the zero-overhead RankedMutex passthrough"
    );

    let dir = seeded_store_dir();
    let server = start_server(dir.clone(), 8);
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));

    // The seeded record must be what answers: a fixture the server cannot
    // see would silently time Profile-scale simulations instead.
    server.state().cache.clear();
    let seeded = client
        .get("/v1/profile/rtx-3080/profile/GMS")
        .expect("store-backed request");
    assert_eq!(seeded.status, 200);
    assert_eq!(server.state().service.simulations(), 0);

    let mut g = c.benchmark_group("serve");
    g.sample_size(10).measurement_time(Duration::from_secs(2));

    // Level 2: the store answers, the LRU never does.
    g.bench_function("cold-store", |b| {
        b.iter(|| {
            server.state().cache.clear();
            let reply = client
                .get("/v1/profile/rtx-3080/profile/GMS")
                .expect("store-backed request");
            assert_eq!(reply.status, 200);
            reply.body.len()
        });
    });

    // Level 1: identical request, LRU hit.
    g.bench_function("warm-cache", |b| {
        let _ = client.get("/v1/profile/rtx-3080/profile/GMS");
        b.iter(|| {
            let reply = client
                .get("/v1/profile/rtx-3080/profile/GMS")
                .expect("cached request");
            assert_eq!(reply.status, 200);
            reply.body.len()
        });
    });

    // Level 3 under contention: an 8-client burst for one uncached triple.
    g.bench_function("single-flight-contended", |b| {
        b.iter(|| {
            server.reset_caches();
            let addr = server.addr();
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    std::thread::spawn(move || {
                        let client = Client::new(addr).with_timeout(Duration::from_secs(120));
                        let reply = client
                            .get("/v1/profile/rtx-3080/tiny/GMS")
                            .expect("coalesced request");
                        assert_eq!(reply.status, 200);
                        reply.body.len()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .sum::<usize>()
        });
    });
    g.finish();

    // Counter summary: how often each level actually answered.
    let metrics = client.metrics().expect("metrics");
    for name in [
        "cactus_serve_requests_total",
        "cactus_serve_cache_hits_total",
        "cactus_serve_cache_misses_total",
        "cactus_serve_store_hits_total",
        "cactus_serve_simulations_total",
        "cactus_serve_engine_memo_hit_rate",
    ] {
        println!(
            "serve/summary: {name} = {}",
            metrics.get(name).unwrap_or(0.0)
        );
    }

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(serve, bench_serve_levels);
criterion_main!(serve);
