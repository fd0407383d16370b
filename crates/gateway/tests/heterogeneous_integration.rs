//! End-to-end heterogeneous routing: a 3-backend fleet where the slots
//! model different catalog devices, behind one device-aware gateway.
//!
//! The acceptance claims, in one test (the phases share fleet state and
//! must happen in order):
//!
//! 1. **Placement** — requests for a device land only on backends that
//!    model it; the incapable shard's routed counter never moves.
//! 2. **Catalog surfaces** — the gateway's `/v1/devices` reports the fleet
//!    union; unknown devices answer the JSON envelope at the edge without
//!    burning a backend attempt; catalog devices nobody models answer the
//!    router's synthesized `404`.
//! 3. **Compare** — `/v1/compare` across two devices answers one table
//!    whose per-device rows are byte-identical to each backend's own
//!    `/v1/roofline` rows, and the typed client parses it.
//! 4. **Capable-only failover** — killing one of two capable shards
//!    re-routes onto the surviving capable shard only; the incapable shard
//!    still receives nothing.
//!
//! The fleet serves entirely from seeded profile stores and runs
//! passive-only health, so every asserted counter is a deterministic
//! consequence of the data path.

use std::time::Duration;

use cactus_core::{workloads, SuiteScale};
use cactus_gateway::{Gateway, GatewayConfig, HealthState, RoutePolicy, Supervisor};
use cactus_profiler::store::write_profile;
use cactus_serve::{Client, Connection, DeviceId, ServeConfig};
use cactus_store::Store;

fn dev(slug: &str) -> DeviceId {
    DeviceId::resolve(slug).expect("catalog id")
}

/// Seed `dir/slot-<i>` with every Cactus workload at Profile scale for each
/// device the slot models, so every request resolves from the store
/// without simulating.
fn seed_slots(dir: &std::path::Path, slot_devices: &[Vec<String>]) -> Vec<String> {
    let record = write_profile(&cactus_core::run("GMS", SuiteScale::Tiny));
    let names: Vec<String> = workloads::suite()
        .into_iter()
        .map(|w| w.abbr.to_owned())
        .collect();
    for (i, devices) in slot_devices.iter().enumerate() {
        let store = Store::open(dir.join(format!("slot-{i}"))).expect("open slot store");
        for id in devices {
            let entry = cactus_gpu::by_id(id).expect("catalog id");
            for name in &names {
                store
                    .append(
                        &format!("{}/profile/{name}", entry.id),
                        entry.record_version(),
                        record.as_bytes(),
                    )
                    .expect("seed slot store");
            }
        }
    }
    names
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
fn heterogeneous_fleet_routes_compares_and_fails_over_by_capability() {
    let dir = std::env::temp_dir().join(format!("cactus-hetero-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Slot 2 is the only home of uhd-630; rtx-3080 has two homes so it can
    // fail over. rtx-3060 rides along on slot 0. a100 stays unmodeled.
    let slot_devices: Vec<Vec<String>> = vec![
        vec!["rtx-3080".to_owned(), "rtx-3060".to_owned()],
        vec!["rtx-3080".to_owned()],
        vec!["uhd-630".to_owned()],
    ];
    let names = seed_slots(&dir, &slot_devices);

    let fleet = Supervisor::spawn_heterogeneous(
        &slot_devices,
        &ServeConfig {
            workers: 2,
            queue: 32,
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("spawn fleet");

    let gateway = Gateway::start(
        GatewayConfig {
            workers: 4,
            queue: 64,
            eject_after: 2,
            cooldown: Duration::from_secs(5),
            probe_interval: None, // capabilities come from startup discovery
            backend_timeout: Duration::from_secs(30),
            policy: RoutePolicy {
                hedge: false,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(10),
                ..RoutePolicy::default()
            },
            ..GatewayConfig::default()
        },
        fleet.addrs(),
    )
    .expect("start gateway");
    let mut conn = Connection::new(gateway.addr(), Duration::from_secs(60));
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(60));

    // Startup discovery saw all three healthy backends.
    for (i, devices) in slot_devices.iter().enumerate() {
        let mut want = devices.clone();
        want.sort();
        assert_eq!(
            gateway.router().capabilities.devices(i),
            Some(want),
            "backend {i} capabilities discovered at startup"
        );
    }

    // --- Phase 1: placement. rtx-3080 traffic never reaches slot 2;
    // uhd-630 traffic reaches only slot 2.
    for endpoint in ["profile", "kernels", "roofline", "dominant"] {
        for name in &names {
            let reply = conn
                .get(&format!("/v1/{endpoint}/rtx-3080/profile/{name}"))
                .expect("rtx sweep");
            assert_eq!(reply.status, 200, "{endpoint}/{name}: {}", reply.body);
        }
    }
    let after_rtx = routed_counts(&gateway);
    assert_eq!(
        after_rtx[2], 0,
        "slot 2 does not model rtx-3080 and must receive none of its sweep"
    );
    assert!(after_rtx[0] > 0 && after_rtx[1] > 0, "{after_rtx:?}");

    for name in &names {
        let reply = conn
            .get(&format!("/v1/profile/uhd-630/profile/{name}"))
            .expect("uhd sweep");
        assert_eq!(reply.status, 200, "uhd-630/{name}: {}", reply.body);
    }
    let after_uhd = routed_counts(&gateway);
    assert_eq!(after_uhd[0], after_rtx[0], "slot 0 got no uhd-630 traffic");
    assert_eq!(after_uhd[1], after_rtx[1], "slot 1 got no uhd-630 traffic");
    assert_eq!(
        after_uhd[2],
        names.len() as u64,
        "slot 2 owns the whole uhd-630 sweep"
    );

    // --- Phase 2: catalog surfaces. The fleet /v1/devices view parses
    // with the same typed client as a single backend's.
    let entries = client.devices().expect("fleet devices page");
    assert_eq!(entries.len(), cactus_gpu::CATALOG.len());
    let modeled: Vec<&str> = entries
        .iter()
        .filter(|e| e.modeled)
        .map(|e| e.id.as_str())
        .collect();
    assert_eq!(modeled, vec!["rtx-3080", "rtx-3060", "uhd-630"]);

    // Unknown device: answered at the edge, no backend attempt spent.
    let forwarded_before = gateway.router().metrics.forwarded.get();
    let unknown = conn
        .get("/v1/profile/rtx-9090/profile/GMS")
        .expect("unknown device");
    assert_eq!(unknown.status, 404);
    assert!(
        unknown.body.contains("unknown device") && unknown.body.contains("\"code\":404"),
        "edge envelope, got {}",
        unknown.body
    );
    assert_eq!(gateway.router().metrics.forwarded.get(), forwarded_before);

    // Catalog device nobody models: the router's synthesized 404.
    let orphan = conn
        .get("/v1/profile/a100/profile/GMS")
        .expect("unmodeled device");
    assert_eq!(orphan.status, 404);
    assert!(
        orphan
            .body
            .contains("no backend in the fleet models device"),
        "got {}",
        orphan.body
    );

    // --- Phase 3: compare. Per-device rows are byte-identical to each
    // backend's own /v1/roofline answer for the same triple.
    let compare_csv = conn
        .get("/v1/compare/profile/GMS?devices=rtx-3080,uhd-630&format=csv")
        .expect("compare csv");
    assert_eq!(compare_csv.status, 200, "{}", compare_csv.body);
    for device in ["rtx-3080", "uhd-630"] {
        let roofline = conn
            .get(&format!("/v1/roofline/{device}/profile/GMS"))
            .expect("single-device roofline");
        assert_eq!(roofline.status, 200);
        let single_rows: Vec<&str> = roofline
            .body
            .lines()
            .skip(1) // header
            .collect();
        let compare_rows: Vec<String> = compare_csv
            .body
            .lines()
            .filter(|l| l.starts_with(&format!("{device},")))
            .map(|l| {
                // Strip the leading device column and the trailing
                // bottleneck_shift column; what remains is a roofline row.
                let rest = &l[device.len() + 1..];
                rest.rsplit_once(',').expect("shift column").0.to_owned()
            })
            .collect();
        assert_eq!(
            compare_rows, single_rows,
            "{device} rows in /v1/compare must be byte-identical to /v1/roofline"
        );
    }
    assert!(compare_csv.body.contains("# baseline: rtx-3080"));
    assert!(compare_csv
        .body
        .contains("# speedup_vs_baseline rtx-3080 1.000000"));

    // The typed client parses the same table.
    let rows = client
        .compare("profile", "GMS", &[dev("rtx-3080"), dev("uhd-630")])
        .expect("typed compare");
    assert!(!rows.is_empty());
    assert!(rows.iter().any(|r| r.device.as_str() == "uhd-630"));
    // The seeded profile is identical on both devices, but the rooflines
    // differ enormously (discrete vs integrated): every kernel's placement
    // is computed per device, so at least one boundedness class shifts.
    assert!(
        rows.iter().any(|r| r.bottleneck_shift),
        "rtx-3080 vs uhd-630 must shift at least one kernel's bottleneck"
    );

    // Compare input errors: unknown device, too few devices.
    let bad = conn
        .get("/v1/compare/profile/GMS?devices=rtx-3080,rtx-9090")
        .expect("compare unknown device");
    assert_eq!(bad.status, 404);
    assert!(bad.body.contains("unknown device"));
    let lonely = conn
        .get("/v1/compare/profile/GMS?devices=rtx-3080")
        .expect("compare one device");
    assert_eq!(lonely.status, 400);
    assert!(lonely.body.contains("at least two"));
    // A device nobody models fails the leg with the router's 404.
    let orphan_cmp = conn
        .get("/v1/compare/profile/GMS?devices=rtx-3080,a100")
        .expect("compare unmodeled device");
    assert_eq!(orphan_cmp.status, 404);
    assert!(orphan_cmp.body.contains("no backend in the fleet models"));

    // --- Phase 4: capable-only failover. Kill one rtx-3080 home; the
    // other absorbs the sweep; the incapable slot still gets nothing.
    let before_kill = routed_counts(&gateway);
    fleet.kill(1);
    for endpoint in ["profile", "kernels", "roofline", "dominant"] {
        for name in &names {
            let reply = conn
                .get(&format!("/v1/{endpoint}/rtx-3080/profile/{name}"))
                .expect("failover sweep");
            assert_eq!(
                reply.status, 200,
                "{endpoint}/{name} must survive a dead capable backend: {}",
                reply.body
            );
        }
    }
    let after_kill = routed_counts(&gateway);
    assert_eq!(
        after_kill[2], before_kill[2],
        "failover must stay within capable backends; slot 2 got traffic"
    );
    assert!(
        after_kill[0] > before_kill[0],
        "the surviving rtx-3080 home absorbs the sweep"
    );
    assert_eq!(
        gateway.router().health.state(1),
        HealthState::Ejected,
        "the dead capable backend is ejected"
    );
    // uhd-630 is untouched by the rtx-3080 failover.
    let reply = conn
        .get("/v1/profile/uhd-630/profile/GMS")
        .expect("uhd after kill");
    assert_eq!(reply.status, 200);

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}
