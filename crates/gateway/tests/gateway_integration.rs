//! End-to-end failover: a 3-backend supervised fleet behind one gateway.
//!
//! The acceptance sequence, in one test (the phases share expensive fleet
//! state and must happen in order):
//!
//! 1. **Balance** — a sweep over every store-backed profile key returns
//!    `200` and spreads across all three shards, with no shard owning more
//!    than half the sweep.
//! 2. **Failover** — one backend is killed mid-run; re-sweeping every key
//!    still returns `200` for every request (retries re-route around the
//!    dead shard), the gateway records at least one retry and one ejection,
//!    and per-backend route counts keep summing to the forwarded total.
//! 3. **Recovery** — the killed backend restarts on its pinned port; the
//!    half-open trial re-admits it and traffic lands on it again.
//!
//! The fleet serves entirely from seeded profile stores (no simulations —
//! asserted after phase 1), so the test exercises routing machinery, not
//! simulator throughput. The gateway runs passive-only health (no active
//! probes) so the retry and ejection counts asserted below are
//! deterministic consequences of the data path, not races against a prober.

use std::time::{Duration, Instant};

use cactus_core::{workloads, SuiteScale};
use cactus_gateway::{Gateway, GatewayConfig, HealthState, Supervisor};
use cactus_profiler::store::write_profile;
use cactus_serve::{Client, Connection, ServeConfig, Server};
use cactus_store::Store;

/// The devices the sweep reads. Every view of a triple shares the triple's
/// ring key, so four devices give the sweep's 30 workloads 120 distinct
/// keys: enough that no shard owning more than half of them means a skewed
/// ring, not an unlucky draw of ports.
const DEVICES: [&str; 4] = ["rtx-3080", "a100", "gtx-1080", "rtx-3060"];

/// Seed the three slot stores `spawn_fleet` will open under `dir` so every
/// Cactus workload and 20 PRT benchmarks resolve on each of [`DEVICES`] at
/// `profile` scale without simulating, whichever backend a request lands
/// on. The profile *content* is shared (one cheap tiny simulation) — the
/// routing tier never looks inside it.
fn seed_store(dir: &std::path::Path) -> Vec<String> {
    let record = write_profile(&cactus_core::run("GMS", SuiteScale::Tiny));
    let names: Vec<String> = workloads::suite()
        .into_iter()
        .map(|w| w.abbr.to_owned())
        .chain(
            cactus_suites::all()
                .into_iter()
                .take(20)
                .map(|b| b.name.to_owned()),
        )
        .collect();
    for slot in 0..3 {
        let store = Store::open(dir.join(format!("slot-{slot}"))).expect("open slot store");
        for device in DEVICES {
            let version = cactus_gpu::by_id(device)
                .expect("catalog id")
                .record_version();
            for name in &names {
                store
                    .append(
                        &format!("{device}/profile/{name}"),
                        version,
                        record.as_bytes(),
                    )
                    .expect("seed slot store");
            }
        }
    }
    names
}

/// The request sweep: every seeded workload through every read endpoint,
/// all resolving against the store.
fn sweep_paths(names: &[String]) -> Vec<String> {
    let mut paths = Vec::new();
    for endpoint in ["profile", "kernels", "roofline", "dominant"] {
        for device in DEVICES {
            for name in names {
                paths.push(format!("/v1/{endpoint}/{device}/profile/{name}"));
            }
        }
    }
    paths
}

fn routed_counts(gateway: &Gateway) -> Vec<u64> {
    gateway
        .router()
        .metrics
        .backends
        .iter()
        .map(|b| b.routed.get())
        .collect()
}

#[test]
fn failover_balance_and_recovery() {
    let dir = std::env::temp_dir().join(format!("cactus-gateway-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let names = seed_store(&dir);
    let paths = sweep_paths(&names);
    assert!(paths.len() >= 30, "sweep must cover at least 30 keys");

    let fleet = Supervisor::spawn_fleet(
        3,
        &ServeConfig {
            workers: 2,
            queue: 32,
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("spawn fleet");
    let addrs = fleet.addrs();

    let gateway = Gateway::start(
        GatewayConfig {
            workers: 4,
            queue: 64,
            eject_after: 2,
            // Long enough that the victim stays Ejected through the phase-2
            // sweep and assertions; short enough that recovery is quick.
            cooldown: Duration::from_secs(2),
            probe_interval: None, // passive-only: see module docs
            hedge: false,
            ..GatewayConfig::default()
        },
        addrs.clone(),
    )
    .expect("start gateway");
    let mut conn = Connection::new(gateway.addr(), Duration::from_secs(60));

    // --- Phase 1: balance. Every key answers 200 through the gateway and
    // the ring spreads the sweep across all three shards.
    for path in &paths {
        let reply = conn.get(path).expect("sweep reply");
        assert_eq!(reply.status, 200, "{path} -> {}", reply.body);
    }
    let routed = routed_counts(&gateway);
    let total: u64 = routed.iter().sum();
    assert_eq!(
        total,
        paths.len() as u64,
        "route counts must sum to the forwarded total: {routed:?}"
    );
    assert_eq!(total, gateway.router().metrics.forwarded.get());
    for (i, &count) in routed.iter().enumerate() {
        assert!(count > 0, "backend {i} received no traffic: {routed:?}");
        assert!(
            count * 2 < total,
            "backend {i} owns over half the sweep ({count}/{total}): ring is skewed"
        );
    }

    // The module doc's "no simulations", as a check: every reply above came
    // out of a seeded slot store.
    let simulations: f64 = addrs
        .iter()
        .map(|&addr| {
            Client::new(addr)
                .metrics()
                .expect("backend metrics")
                .get("cactus_serve_simulations_total")
                .expect("simulations counter")
        })
        .sum();
    assert_eq!(simulations, 0.0, "the sweep must not simulate");

    // --- Phase 2: failover. Kill the busiest backend mid-run; every key
    // must still answer 200 via ejection + re-routing.
    let victim = routed
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .expect("non-empty fleet");
    fleet.kill(victim);

    for path in &paths {
        let reply = conn.get(path).expect("failover sweep reply");
        assert_eq!(
            reply.status, 200,
            "{path} must survive a dead backend -> {}",
            reply.body
        );
    }
    let metrics = &gateway.router().metrics;
    assert!(
        metrics.retries.get() >= 1,
        "the first failed attempt on the dead backend must be retried"
    );
    assert!(
        gateway.router().health.ejections() >= 1,
        "repeated failures must eject the dead backend"
    );
    assert_eq!(
        gateway.router().health.state(victim),
        HealthState::Ejected,
        "victim must be out of rotation"
    );
    let routed_after = routed_counts(&gateway);
    assert_eq!(
        routed_after.iter().sum::<u64>(),
        metrics.forwarded.get(),
        "route counts must keep summing to the forwarded total"
    );

    // The gateway's own scrape endpoint reports the same story.
    let scrape = conn.get("/v1/metricsz").expect("metricsz");
    assert_eq!(scrape.status, 200);
    let field = |name: &str| -> u64 {
        scrape
            .body
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{}", scrape.body))
    };
    assert!(field("cactus_gateway_ejections_total ") >= 1);
    assert!(field("cactus_gateway_retries_total ") >= 1);
    assert_eq!(
        field(&format!("cactus_gateway_backend_{victim}_state ")),
        1,
        "victim must scrape as ejected"
    );

    // --- Phase 3: recovery. Restart the victim on its pinned port; the
    // cooldown opens a half-open trial and routed traffic re-admits it.
    fleet
        .restart(victim)
        .expect("restart victim on pinned port");
    let victim_routed_before = routed_after[victim];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut readmitted = false;
    while Instant::now() < deadline {
        for path in &paths {
            let reply = conn.get(path).expect("recovery sweep reply");
            assert_eq!(reply.status, 200, "{path} during recovery");
        }
        if gateway.router().health.state(victim) == HealthState::Healthy {
            readmitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        readmitted,
        "restarted backend must pass its half-open trial and return to rotation"
    );
    assert!(
        routed_counts(&gateway)[victim] > victim_routed_before,
        "re-admitted backend must receive traffic again"
    );

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Non-profile routes proxy through verbatim: a backend 404 reaches the
/// client as a 404 with the backend's body, and the catalog endpoint works
/// end to end.
#[test]
fn gateway_proxies_non_shard_routes_verbatim() {
    let dir = std::env::temp_dir().join(format!("cactus-gateway-it-misc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = Supervisor::spawn_fleet(
        2,
        &ServeConfig {
            workers: 1,
            queue: 8,
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("spawn fleet");

    let gateway = Gateway::start(
        GatewayConfig {
            workers: 2,
            probe_interval: None,
            ..GatewayConfig::default()
        },
        fleet.addrs(),
    )
    .expect("start gateway");
    let mut conn = Connection::new(gateway.addr(), Duration::from_secs(30));

    let catalog = conn.get("/v1/workloads").expect("catalog via gateway");
    assert_eq!(catalog.status, 200);
    assert!(
        catalog.body.contains("Cactus,GMS"),
        "catalog proxied intact"
    );

    let missing = conn.get("/nope").expect("404 via gateway");
    assert_eq!(missing.status, 404, "backend 404 forwarded verbatim");
    assert!(missing.body.contains("unknown route"));

    let health = conn.get("/v1/healthz").expect("gateway healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n", "healthz is answered locally");

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Neither tier's background thread waits out its interval on the way
/// down: the gateway's health thread sits between probe rounds a minute
/// apart, serve's compactor between one-second passes, and each `join`
/// still returns at once.
#[test]
fn both_tiers_join_without_waiting_out_an_interval() {
    let dir = std::env::temp_dir().join(format!("cactus-gateway-it-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("start backend");
    let gateway = Gateway::start(
        GatewayConfig {
            workers: 2,
            probe_interval: Some(Duration::from_secs(60)),
            ..GatewayConfig::default()
        },
        vec![server.addr()],
    )
    .expect("start gateway");

    let started = Instant::now();
    gateway.join();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "gateway join took {took:?}");
    let started = Instant::now();
    server.join();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "serve join took {took:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
