//! End-to-end tracing and versioned-surface acceptance: one gateway-routed
//! request must yield exactly one trace id, visible with its span tree in
//! BOTH tiers' `/v1/tracez`, and both tiers' `/v1/metricsz` must round-trip
//! through the shared strict exposition parser.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use cactus_core::SuiteScale;
use cactus_gateway::{Gateway, GatewayConfig};
use cactus_obs::{expo, SpanRecord, TraceId, TRACE_HEADER};
use cactus_serve::{Client, DeviceId, ServeConfig, Server};

/// Resolve a catalog id for query literals.
fn dev(slug: &str) -> DeviceId {
    DeviceId::resolve(slug).expect("catalog id")
}

/// One in-process serve backend (store-seeded so requests are cheap) behind
/// one gateway. In-process rather than supervised, so the test can read the
/// backend's tracer directly.
fn start_pair() -> (Gateway, Server, std::path::PathBuf) {
    // Unique per call: the tests of this binary run in parallel, and a
    // store directory admits one open handle.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cactus-trace-it-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let profile = cactus_core::run("GMS", SuiteScale::Tiny);
    cactus_store::Store::open(&dir)
        .expect("open store")
        .append(
            "rtx-3080/profile/GMS",
            cactus_gpu::by_id("rtx-3080")
                .expect("catalog id")
                .record_version(),
            cactus_profiler::store::write_profile(&profile).as_bytes(),
        )
        .expect("seed store");

    let backend = Server::start(ServeConfig {
        workers: 2,
        queue: 16,
        store_dir: Some(dir.clone()),
        // Disable the response cache so a routed request exercises the
        // store path and files its span tree.
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .expect("start backend");

    let gateway = Gateway::start(
        GatewayConfig {
            workers: 2,
            probe_interval: None,
            hedge: false,
            ..GatewayConfig::default()
        },
        vec![backend.addr()],
    )
    .expect("start gateway");

    (gateway, backend, dir)
}

/// Parse the trace ids out of a `/v1/tracez` ndjson body.
fn trace_ids(body: &str) -> Vec<String> {
    body.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("{\"trace\":\"")?;
            Some(rest[..16].to_owned())
        })
        .collect()
}

#[test]
fn one_request_yields_one_trace_across_both_tiers() {
    let (gateway, backend, dir) = start_pair();
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(60));

    // Pin the trace id client-side so the assertion is deterministic even
    // if unrelated requests (none here) share the ring.
    let trace = TraceId::parse("00000000deadbeef").expect("valid id");
    let reply = client
        .get_traced("/v1/profile/rtx-3080/profile/GMS", Some(trace))
        .expect("routed request");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(
        backend.state().service.simulations(),
        0,
        "the seeded record must answer, not a Profile-scale simulation"
    );
    assert_eq!(
        reply.header(TRACE_HEADER),
        Some(trace.to_string().as_str()),
        "gateway must echo the propagated trace id"
    );

    // The same single id appears in the gateway's ring...
    let gw_spans = gateway.tracer().spans_for(trace);
    assert!(
        !gw_spans.is_empty(),
        "gateway recorded no spans for the trace"
    );
    let route = find(&gw_spans, "gateway.route");
    let attempt = find(&gw_spans, "proxy.attempt");
    assert_eq!(route.parent_id, 0, "gateway.route is the root span");
    assert_eq!(
        attempt.parent_id, route.span_id,
        "proxy.attempt hangs off gateway.route"
    );

    // ...and in the backend's ring, with the serve-side stages under it.
    let be_spans = backend.state().tracer.spans_for(trace);
    let request = find(&be_spans, "serve.request");
    let cache = find(&be_spans, "serve.cache");
    let store = find(&be_spans, "serve.profile");
    assert_eq!(request.parent_id, 0, "serve.request roots the backend tree");
    assert_eq!(cache.parent_id, request.span_id);
    assert_eq!(store.parent_id, request.span_id);
    assert!(
        find(&be_spans, "serve.store").parent_id == store.span_id,
        "store load nested under serve.profile"
    );

    // Exactly one distinct id flowed through both tiers.
    let gw_page = gateway.tracer().render(Some(trace));
    let be_page = backend.state().tracer.render(Some(trace));
    for page in [&gw_page, &be_page] {
        let ids = trace_ids(page);
        assert!(!ids.is_empty());
        assert!(
            ids.iter().all(|id| id == &trace.to_string()),
            "foreign ids leaked into the filtered view: {ids:?}"
        );
    }

    // /v1/tracez serves the same filtered view over HTTP on both tiers.
    let gw_tracez = client
        .get(&format!("/v1/tracez?trace={trace}"))
        .expect("gateway tracez");
    assert_eq!(gw_tracez.status, 200);
    assert!(gw_tracez.body.contains("gateway.route"));
    let be_client = Client::new(backend.addr()).with_timeout(Duration::from_secs(10));
    let be_tracez = be_client
        .get(&format!("/v1/tracez?trace={trace}"))
        .expect("backend tracez");
    assert_eq!(be_tracez.status, 200);
    assert!(be_tracez.body.contains("serve.request"));

    gateway.join();
    backend.join();
    let _ = std::fs::remove_dir_all(&dir);
}

fn find<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("span {name} missing in {spans:?}"))
}

#[test]
fn both_metricsz_pages_parse_with_the_shared_parser() {
    let (gateway, backend, dir) = start_pair();
    let gw_client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(60));
    let be_client = Client::new(backend.addr()).with_timeout(Duration::from_secs(10));

    let reply = gw_client
        .get("/v1/profile/rtx-3080/profile/GMS")
        .expect("routed request");
    assert_eq!(reply.status, 200);

    // Client::metrics goes through cactus_obs::expo::parse — strict.
    let gw = gw_client.metrics().expect("gateway page parses strictly");
    assert_eq!(gw.get("cactus_gateway_requests_forwarded_total"), Some(1.0));
    assert_eq!(gw.get("cactus_gateway_backend_0_routed_total"), Some(1.0));
    let be = be_client.metrics().expect("backend page parses strictly");
    assert!(be.get("cactus_serve_requests_total").unwrap_or(0.0) >= 1.0);
    assert_eq!(be.get("cactus_serve_store_hits_total"), Some(1.0));
    assert_eq!(be.get("cactus_serve_simulations_total"), Some(0.0));

    // Raw pages parse through the same free function (what obs-check runs).
    for (client, tier) in [(&gw_client, "gateway"), (&be_client, "serve")] {
        let page = client.get("/v1/metricsz").expect("scrape");
        assert_eq!(page.status, 200, "{tier}");
        expo::parse(&page.body).unwrap_or_else(|e| panic!("{tier} failed strict parse: {e}"));
        assert_eq!(
            client.get("/v1/healthz").expect("healthz").status,
            200,
            "{tier}"
        );
    }

    gateway.join();
    backend.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gateway_maps_unroutable_requests_onto_the_envelope() {
    let (gateway, backend, dir) = start_pair();
    // Kill the backend so every attempt fails.
    backend.shutdown();
    backend.join();

    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(30));
    let err = client
        .profile(cactus_serve::ProfileQuery {
            device: dev("rtx-3080"),
            scale: "profile",
            workload: "GMS",
        })
        .expect_err("dead fleet cannot serve");
    match err {
        cactus_serve::client::ClientError::Api(e) => {
            assert_eq!(e.code, 502);
            assert!(e.retryable, "502 from the gateway is retryable");
            assert!(e.message.contains("all backends failed"), "{}", e.message);
        }
        other => panic!("expected the JSON envelope, got {other:?}"),
    }

    gateway.join();
    let _ = std::fs::remove_dir_all(&dir);
}
