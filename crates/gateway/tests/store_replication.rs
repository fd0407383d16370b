//! Store replication and anti-entropy acceptance: a 3-backend fleet must
//! survive losing a profile's owning shard with zero client-visible errors
//! (the follower replica holds the record), and a restarted owner must be
//! repaired back to a converged fleet manifest by one anti-entropy pass.

use std::time::{Duration, Instant};

use cactus_gateway::{Gateway, GatewayConfig, RoutePolicy, Supervisor};
use cactus_serve::{Client, ServeConfig};

fn fleet_config(store_dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue: 16,
        store_dir: Some(store_dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        workers: 2,
        // Fast failure detection and recovery so the test converges in
        // seconds: probes every 100ms, one failure ejects, 200ms cooldown.
        eject_after: 1,
        cooldown: Duration::from_millis(200),
        probe_interval: Some(Duration::from_millis(100)),
        probe_timeout: Duration::from_millis(500),
        policy: RoutePolicy {
            hedge: false,
            ..RoutePolicy::default()
        },
        ..GatewayConfig::default()
    }
}

/// The `replicas=` list of the manifest `k` line for `key`.
fn replicas_of(manifest: &str, key: &str) -> Vec<usize> {
    let line = manifest
        .lines()
        .find(|l| l.starts_with(&format!("k {key} ")))
        .unwrap_or_else(|| panic!("key {key} missing from manifest:\n{manifest}"));
    let replicas = line
        .split_whitespace()
        .find_map(|f| f.strip_prefix("replicas="))
        .expect("replicas field");
    replicas
        .split(',')
        .map(|i| i.parse().expect("replica index"))
        .collect()
}

/// The `have=` list of the manifest `k` line for `key`.
fn holders_of(manifest: &str, key: &str) -> Vec<usize> {
    let line = manifest
        .lines()
        .find(|l| l.starts_with(&format!("k {key} ")))
        .unwrap_or_else(|| panic!("key {key} missing from manifest:\n{manifest}"));
    let have = line
        .split_whitespace()
        .find_map(|f| f.strip_prefix("have="))
        .expect("have field");
    if have == "-" {
        return Vec::new();
    }
    have.split(',').map(|i| i.parse().expect("index")).collect()
}

#[test]
fn killed_owner_serves_from_follower_and_antientropy_repairs_it() {
    let dir = std::env::temp_dir().join(format!("cactus-store-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let fleet = Supervisor::spawn_fleet(3, &fleet_config(&dir)).expect("spawn fleet");
    let gateway = Gateway::start(gateway_config(), fleet.addrs()).expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(120));

    // Write one profile through the gateway: the owning shard simulates and
    // stores it, and the gateway synchronously copies the record to the
    // follower replica before the 200 reaches us.
    let key = "rtx-3080/tiny/GMS";
    let first = client
        .get("/v1/profile/rtx-3080/tiny/GMS")
        .expect("initial write-through");
    assert_eq!(first.status, 200, "body: {}", first.body);

    let manifest = client
        .get("/v1/store/manifest")
        .expect("fleet manifest")
        .body;
    assert!(
        manifest.starts_with("cactus-gateway store manifest v1\n"),
        "unexpected manifest:\n{manifest}"
    );
    let replicas = replicas_of(&manifest, key);
    assert_eq!(replicas.len(), 2, "two-way replication: {manifest}");
    let holders = holders_of(&manifest, key);
    for r in &replicas {
        assert!(
            holders.contains(r),
            "replica {r} lacks the record right after the write:\n{manifest}"
        );
    }
    assert!(
        manifest.contains("\nmissing 0\n"),
        "fleet not converged after the first write:\n{manifest}"
    );
    let owner = replicas[0];

    // Lose the owner. Every read must still succeed: the ring retries onto
    // the follower, whose store holds the replicated record.
    fleet.kill(owner);
    for i in 0..10 {
        let reply = client
            .get("/v1/profile/rtx-3080/tiny/GMS")
            .unwrap_or_else(|e| panic!("read {i} with dead owner: {e:?}"));
        assert_eq!(reply.status, 200, "read {i}: {}", reply.body);
    }

    // Write more profiles while the owner is down — some of their replica
    // sets will name the dead backend, which anti-entropy must repair.
    for device in ["rtx-2080-ti", "a100", "gtx-1080"] {
        let reply = client
            .get(&format!("/v1/profile/{device}/tiny/GMS"))
            .expect("write with one backend down");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
    }

    // Restart the owner and wait for the gateway to re-admit and repair it:
    // half-open trial passes -> anti-entropy streams the missed records ->
    // the fleet manifest reports every replica slot filled.
    fleet.restart(owner).expect("restart owner");
    let deadline = Instant::now() + Duration::from_secs(30);
    let converged = loop {
        let manifest = client
            .get("/v1/store/manifest")
            .expect("fleet manifest")
            .body;
        let all_reachable = !manifest.contains("digest=-");
        // Ring placement hashes the ephemeral ports, so in some runs none
        // of the writes above names the dead owner and the manifest reads
        // converged before the gateway has even re-admitted it: wait for
        // the repair pass itself too.
        let repaired = client
            .metrics()
            .expect("gateway metrics")
            .get("cactus_gateway_store_syncs_total")
            .unwrap_or(0.0)
            >= 1.0;
        if all_reachable && repaired && manifest.contains("\nmissing 0\n") {
            break manifest;
        }
        assert!(
            Instant::now() < deadline,
            "fleet did not converge:\n{manifest}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    let holders = holders_of(&converged, key);
    assert!(
        holders.contains(&owner),
        "restarted owner not repaired:\n{converged}"
    );

    // So is write-path replication (the repair pass was awaited above).
    let metrics = client.metrics().expect("gateway metrics");
    assert!(
        metrics
            .get("cactus_gateway_store_replications_total")
            .unwrap_or(0.0)
            >= 1.0,
        "write-path replication counted"
    );

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}
