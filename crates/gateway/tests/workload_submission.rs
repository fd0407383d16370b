//! End-to-end acceptance for submitted IR workloads: a definition posted
//! once through the gateway becomes servable on every backend (the
//! broadcast persists it fleet-wide), its profile is deterministic across
//! repeated reads, and a seeded-defect definition is refused at the edge
//! with the validator's line-accurate findings.

use std::time::Duration;

use cactus_gateway::{Gateway, GatewayConfig, RoutePolicy, Supervisor};
use cactus_serve::{Client, DeviceId, ServeConfig};

fn dev(slug: &str) -> DeviceId {
    DeviceId::resolve(slug).expect("catalog id")
}

fn gnn_source() -> String {
    std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../wir/defs/gnn.wir"),
    )
    .expect("read shipped gnn definition")
}

#[test]
fn gateway_submission_is_fleet_wide_and_deterministic() {
    let dir = std::env::temp_dir().join(format!("cactus-wir-submit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let fleet = Supervisor::spawn_fleet(
        2,
        &ServeConfig {
            workers: 2,
            queue: 16,
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("spawn fleet");
    let gateway = Gateway::start(
        GatewayConfig {
            workers: 2,
            policy: RoutePolicy {
                hedge: false,
                ..RoutePolicy::default()
            },
            ..GatewayConfig::default()
        },
        fleet.addrs(),
    )
    .expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(120));

    // A seeded defect is rejected at the edge with the findings envelope —
    // the broadcast returns the first backend's deterministic verdict.
    let bad = "workload \"bad\" {\n  run { launch ghost; }\n}\n";
    let reply = client
        .post_traced("/v1/workloads", bad, None)
        .expect("post invalid via gateway");
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert!(reply.body.contains("\"pass\":\"types\""), "{}", reply.body);
    assert!(reply.body.contains("\"line\":2"), "{}", reply.body);

    // One POST through the gateway registers the GNN family fleet-wide.
    let gnn = gnn_source();
    let reply = client
        .post_traced("/v1/workloads", &gnn, None)
        .expect("post gnn via gateway");
    assert_eq!(reply.status, 200, "{}", reply.body);

    // Every backend now lists and serves the workload — whatever backend
    // the ring picks, the profile must come back, and repeated reads must
    // be byte-identical (the determinism acceptance criterion).
    for (i, addr) in fleet.addrs().iter().enumerate() {
        let direct = Client::new(*addr).with_timeout(Duration::from_secs(120));
        let catalog = direct.get("/v1/workloads").expect("backend catalog");
        assert!(
            catalog.body.contains("WIR,gnn"),
            "backend {i} missing gnn:\n{}",
            catalog.body
        );
    }
    let first = client
        .get("/v1/profile/rtx-3080/small/gnn")
        .expect("gnn profile via gateway");
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(
        first.body.contains("gnn_gather_scatter"),
        "small scale must take the high-degree arm:\n{}",
        first.body
    );
    let second = client
        .get("/v1/profile/rtx-3080/small/gnn")
        .expect("gnn profile again");
    assert_eq!(second.status, 200);
    assert_eq!(first.body, second.body, "profiles must be deterministic");

    // The kernel CSV routes work for submitted workloads too.
    let kernels = client
        .get("/v1/kernels/rtx-3080/tiny/gnn")
        .expect("gnn kernels");
    assert_eq!(kernels.status, 200, "{}", kernels.body);
    assert!(
        kernels.body.contains("gnn_gather_local"),
        "{}",
        kernels.body
    );

    // A demangled name holds commas and quotes, and a WIR `name` may hold
    // a line break, even one followed by the table's header: the compare
    // table quotes it, its `# dominant_kernel` line escapes the break, and
    // the typed client reads it back verbatim on every device.
    let quoted = "workload \"quoted\" {\n\
         kernel big { name \"void gemm<float, 4>(\\\"x\\\")\\nrow\"; mix { fp32 = 100000; } }\n\
         kernel small { mix { int = 1000; } }\n\
         run { repeat 4 { launch big; launch small; } }\n\
         }\n";
    let forged = "workload \"forged\" {\n\
         kernel big { name \"x\\ndevice,kernel,instruction_intensity,gips,time_share,\
         intensity_class,boundedness,bottleneck_shift\"; mix { fp32 = 100000; } }\n\
         kernel small { mix { int = 1000; } }\n\
         run { repeat 4 { launch big; launch small; } }\n\
         }\n";
    for (source, workload, kernel) in [
        (quoted, "quoted", "void gemm<float, 4>(\"x\")\nrow"),
        (
            forged,
            "forged",
            "x\ndevice,kernel,instruction_intensity,gips,time_share,\
             intensity_class,boundedness,bottleneck_shift",
        ),
    ] {
        let reply = client
            .post_traced("/v1/workloads", source, None)
            .expect("post quoted via gateway");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let devices = [dev("rtx-3080"), dev("uhd-630")];
        let rows = client
            .compare("tiny", workload, &devices)
            .expect("typed compare of a quoted kernel name");
        for device in devices {
            assert!(
                rows.iter()
                    .any(|r| r.device == device && r.kernel == kernel),
                "{device} lost the quoted kernel: {rows:?}"
            );
        }
    }

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}
