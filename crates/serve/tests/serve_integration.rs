//! End-to-end tests over a live loopback server: routing, typed round-trips,
//! the single-flight acceptance criterion, backpressure, store integration,
//! and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use cactus_core::SuiteScale;
use cactus_obs::ApiError;
use cactus_serve::client::ClientError;
use cactus_serve::{Client, DeviceId, ProfileQuery, ServeConfig, Server, SimilarQuery};

/// A kernel name with every CSV special: a comma, a quote, a line break.
const QUOTED_KERNEL: &str = "void gemm<float, 4>(\"x\")\nrow";

/// A workload whose dominant kernel is [`QUOTED_KERNEL`].
const QUOTED_WIR: &str = "workload \"quoted\" {\n\
     kernel big { name \"void gemm<float, 4>(\\\"x\\\")\\nrow\"; mix { fp32 = 100000; } }\n\
     kernel small { mix { int = 1000; } }\n\
     run { repeat 4 { launch big; launch small; } }\n\
     }\n";

/// A kernel name that carries the similarity table's header line.
const FORGED_KERNEL: &str = "x\nrank,id,distance";

/// A workload whose dominant kernel is [`FORGED_KERNEL`].
const FORGED_WIR: &str = "workload \"forged\" {\n\
     kernel big { name \"x\\nrank,id,distance\"; mix { fp32 = 100000; } }\n\
     kernel small { mix { int = 1000; } }\n\
     run { repeat 4 { launch big; launch small; } }\n\
     }\n";

/// Resolve a catalog id for query literals.
fn dev(slug: &str) -> DeviceId {
    DeviceId::resolve(slug).expect("catalog id")
}

/// A store directory no other test (or test process) shares: a store
/// admits one open handle, and tests remove their directory when done.
fn fresh_dir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cactus-serve-it-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A server on an ephemeral port with a unique empty store directory.
fn start(workers: usize, queue: usize) -> (Server, Client, std::path::PathBuf) {
    let dir = fresh_dir();
    let server = Server::start(ServeConfig {
        workers,
        queue,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral loopback server");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));
    (server, client, dir)
}

fn metric(client: &Client, name: &str) -> f64 {
    client
        .metrics()
        .expect("metrics")
        .get(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn healthz_metrics_and_unknown_routes() {
    let (server, client, dir) = start(2, 16);

    assert!(client.healthz().expect("healthz"));
    assert!(metric(&client, "cactus_serve_requests_total") >= 1.0);

    // Unknown paths and bad triples are 404 with a hint; bad methods 405.
    assert_eq!(client.get("/nope").expect("404").status, 404);
    // That includes the unversioned pre-`/v1` spellings.
    let unversioned = client.get("/healthz").expect("404");
    assert_eq!(unversioned.status, 404);
    assert!(
        unversioned.body.contains("unknown route"),
        "{unversioned:?}"
    );
    assert_eq!(
        client
            .get("/v1/profile/rtx-9999/tiny/GMS")
            .expect("bad device")
            .status,
        404
    );
    assert_eq!(
        client
            .get("/v1/profile/rtx-3080/tiny/NOPE")
            .expect("bad workload")
            .status,
        404
    );
    assert_eq!(
        client
            .get("/v1/dominant/rtx-3080/tiny/GMS?threshold=7")
            .expect("bad threshold")
            .status,
        400
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(stream, "POST /v1/healthz HTTP/1.1\r\n\r\n").expect("send");
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 405"), "got {raw:?}");

    // The catalog lists both suites.
    let catalog = client.get("/v1/workloads").expect("catalog");
    assert_eq!(catalog.status, 200);
    assert!(catalog.body.contains("Cactus,GMS"));
    assert!(catalog.body.contains("Parboil"));

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_round_trip_matches_local_simulation() {
    let (server, client, dir) = start(2, 16);

    let served = client
        .profile(ProfileQuery {
            device: dev("rtx-3080"),
            scale: "tiny",
            workload: "GMS",
        })
        .expect("served profile");
    let local = cactus_core::run("GMS", SuiteScale::Tiny);
    assert_eq!(
        served, local,
        "served profile must equal a local simulation"
    );

    // CSV endpoints agree on the kernel set.
    let kernels = client
        .get("/v1/kernels/rtx-3080/tiny/GMS")
        .expect("kernels");
    assert_eq!(kernels.status, 200);
    assert_eq!(
        kernels.body.lines().count() - 1,
        local.kernels().len(),
        "one CSV row per kernel"
    );
    let roofline = client
        .get("/v1/roofline/rtx-3080/tiny/GMS")
        .expect("roofline");
    assert_eq!(roofline.status, 200);
    assert!(roofline.body.starts_with("kernel,instruction_intensity"));
    let dominant = client
        .get("/v1/dominant/rtx-3080/tiny/GMS?threshold=0.5")
        .expect("dominant");
    assert_eq!(dominant.status, 200);
    assert!(
        dominant.body.lines().count() >= 2,
        "at least one dominant kernel"
    );

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two thresholds that agree to three decimals but straddle a cumulative
/// share get different dominant sets, and each is served its own, whichever
/// was asked first.
#[test]
fn dominant_thresholds_close_together_are_cached_apart() {
    let (server, client, dir) = start(2, 16);
    let local = cactus_core::run("GMS", SuiteScale::Tiny);
    let share = local.cumulative_distribution()[1];
    let (above, below) = (share + 1e-5, share - 1e-5);
    assert_eq!(format!("{above:.3}"), format!("{below:.3}"));
    for threshold in [above, below] {
        let reply = client
            .get(&format!(
                "/v1/dominant/rtx-3080/tiny/GMS?threshold={threshold}"
            ))
            .expect("dominant");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let served: Vec<&str> = reply
            .body
            .lines()
            .skip(1)
            .filter_map(|row| row.split(',').nth(1))
            .collect();
        let expected: Vec<&str> = local
            .dominant_kernels(threshold)
            .iter()
            .map(|k| k.name.as_str())
            .collect();
        assert_eq!(served, expected, "threshold {threshold}");
    }

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance criterion: 8 concurrent clients requesting the same
/// uncached triple produce exactly one simulation and byte-identical
/// bodies; a second wave is served entirely from the response cache.
#[test]
fn single_flight_coalesces_concurrent_identical_requests() {
    let (server, client, dir) = start(8, 64);
    let addr = server.addr();

    assert_eq!(metric(&client, "cactus_serve_simulations_total"), 0.0);

    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let client = Client::new(addr).with_timeout(Duration::from_secs(240));
                let reply = client
                    .get("/v1/profile/rtx-3080/tiny/GMS")
                    .expect("coalesced request");
                assert_eq!(reply.status, 200);
                reply.body
            })
        })
        .collect();
    let bodies: Vec<String> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    assert!(
        bodies[0].contains("kernel"),
        "profile body: {:?}",
        &bodies[0][..60]
    );
    for body in &bodies[1..] {
        assert_eq!(
            body, &bodies[0],
            "all coalesced bodies must be byte-identical"
        );
    }
    assert_eq!(
        metric(&client, "cactus_serve_simulations_total"),
        1.0,
        "8 concurrent identical requests must cost exactly 1 simulation"
    );

    // Second wave: answered from the LRU, still exactly one simulation.
    let hits_before = metric(&client, "cactus_serve_cache_hits_total");
    for _ in 0..3 {
        let reply = client
            .get("/v1/profile/rtx-3080/tiny/GMS")
            .expect("cached request");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, bodies[0]);
    }
    assert_eq!(metric(&client, "cactus_serve_simulations_total"), 1.0);
    assert!(metric(&client, "cactus_serve_cache_hits_total") >= hits_before + 3.0);

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keep-alive: one client connection carries sequential requests, and the
/// server's connection/reuse counters show it.
#[test]
fn keep_alive_connection_reuses_one_stream() {
    let (server, client, dir) = start(2, 16);

    let mut conn = client.connection();
    for _ in 0..3 {
        let reply = conn.get("/v1/healthz").expect("keep-alive request");
        assert_eq!(reply.status, 200);
    }
    assert_eq!(conn.dials(), 1, "three requests over one dial");
    assert_eq!(conn.reuses(), 2);

    let connections = metric(&client, "cactus_serve_connections_total");
    let reuses = metric(&client, "cactus_serve_keepalive_reuses_total");
    assert!(
        reuses >= 2.0,
        "server must count reused keep-alive requests, saw {reuses}"
    );
    // The keep-alive conn plus the two one-shot metric scrapes.
    assert!(connections >= 2.0, "saw {connections}");

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A saturated worker pool answers `503 + Retry-After` immediately rather
/// than hanging: one worker and a one-slot queue are pinned down by idle
/// connections (the worker blocks in its read timeout), so the next
/// connection must be rejected by the accept thread.
#[test]
fn saturated_pool_returns_503_with_retry_after() {
    let dir = fresh_dir();
    let server = Server::start(ServeConfig {
        workers: 1,
        queue: 1,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Pin down the worker and fill the queue with connections that send
    // nothing: the worker blocks reading the first, the second waits in the
    // queue.
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    // Give the accept thread time to enqueue both.
    std::thread::sleep(Duration::from_millis(300));

    let client = Client::new(addr).with_timeout(Duration::from_secs(5));
    let mut saw_busy = false;
    for _ in 0..10 {
        match client.get("/v1/healthz") {
            Ok(reply) if reply.status == 503 => {
                assert_eq!(
                    reply.retry_after_s(),
                    Some(cactus_serve::daemon::RETRY_AFTER_S),
                    "503 must carry Retry-After"
                );
                saw_busy = true;
                break;
            }
            Ok(_) | Err(ClientError::Io(_)) => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("unexpected client error: {e}"),
        }
    }
    assert!(saw_busy, "a saturated server must answer 503, not hang");

    drop(idle);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown drains: a request already in flight when shutdown is requested
/// still gets its response before `join()` returns.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (server, _client, dir) = start(2, 16);
    let addr = server.addr();

    let in_flight = std::thread::spawn(move || {
        let client = Client::new(addr).with_timeout(Duration::from_secs(240));
        client
            .get("/v1/profile/rtx-3080/tiny/DCG")
            .expect("in-flight request")
    });
    // Let the request reach a worker, then request shutdown while the
    // simulation is (plausibly) still running.
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();
    server.join();

    let reply = in_flight.join().expect("client thread");
    assert_eq!(
        reply.status, 200,
        "in-flight request must complete during drain"
    );

    // The listener is closed: new connections are refused.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Profile-scale requests for rtx-3080 are served from durable storage
/// when the store already holds them (as after `profiles`), without
/// simulating: the first request is a store hit, parsed before it is
/// served, and the second an LRU hit.
#[test]
fn store_backed_profiles_skip_simulation() {
    let dir = fresh_dir();
    let seeded = cactus_core::run("GMS", SuiteScale::Tiny);
    cactus_store::Store::open(&dir)
        .expect("open store")
        .append(
            "rtx-3080/profile/GMS",
            cactus_gpu::by_id("rtx-3080")
                .expect("catalog id")
                .record_version(),
            cactus_profiler::store::write_profile(&seeded).as_bytes(),
        )
        .expect("seed store");

    let server = Server::start(ServeConfig {
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));

    let served = client
        .profile(ProfileQuery {
            device: dev("rtx-3080"),
            scale: "profile",
            workload: "GMS",
        })
        .expect("store-backed profile");
    assert_eq!(served, seeded, "store round-trip must be bit-exact");
    assert_eq!(metric(&client, "cactus_serve_simulations_total"), 0.0);
    // Nothing is cached at startup: the store answered the first request.
    assert_eq!(metric(&client, "cactus_serve_store_hits_total"), 1.0);
    assert_eq!(metric(&client, "cactus_serve_cache_hits_total"), 0.0);
    let again = client
        .get("/v1/profile/rtx-3080/profile/GMS")
        .expect("cached profile");
    assert_eq!(again.status, 200);
    assert_eq!(metric(&client, "cactus_serve_store_hits_total"), 1.0);
    assert_eq!(metric(&client, "cactus_serve_cache_hits_total"), 1.0);

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored record at its key's current version that `read_profile`
/// rejects is never served, from the cache or the store: the first request
/// re-simulates and answers the serial simulation's document.
#[test]
fn an_unparseable_stored_record_is_never_served() {
    let dir = fresh_dir();
    cactus_store::Store::open(&dir)
        .expect("open store")
        .append(
            "rtx-3080/tiny/GMS",
            cactus_gpu::by_id("rtx-3080")
                .expect("catalog id")
                .record_version(),
            b"cactus-profile v1\nnot a profile\n",
        )
        .expect("seed store");

    let server = Server::start(ServeConfig {
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));

    let served = client
        .get("/v1/profile/rtx-3080/tiny/GMS")
        .expect("profile");
    assert_eq!(served.status, 200, "{}", served.body);
    let serial = cactus_profiler::store::write_profile(&cactus_core::run("GMS", SuiteScale::Tiny));
    assert_eq!(served.body, serial, "an unparsed stored byte was served");

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The raw store surface end to end: manifest and statz pages render, a
/// record GET answers the stored bytes verbatim, and a record POST
/// ingests a document that later profile requests serve without
/// simulating (the path the gateway's repair pass uses).
#[test]
fn store_endpoints_round_trip() {
    let (server, client, dir) = start(2, 16);

    // Simulate once so the store holds a record.
    let profile = client
        .profile(ProfileQuery {
            device: dev("rtx-3080"),
            scale: "tiny",
            workload: "GMS",
        })
        .expect("profile");

    let manifest = client.get("/v1/store/manifest").expect("manifest");
    assert_eq!(manifest.status, 200);
    assert!(
        manifest.body.starts_with("cactus-store manifest v1\n"),
        "got {}",
        manifest.body
    );
    assert!(manifest.body.contains("rtx-3080/tiny/GMS"));

    let statz = client.get("/v1/store/statz").expect("statz");
    assert_eq!(statz.status, 200);
    assert!(statz.body.contains("live_records 1"), "got {}", statz.body);

    // The raw record is byte-identical to the profile endpoint's body.
    let key = "rtx-3080/tiny/GMS";
    let record = client
        .get(&format!("/v1/store/record/{key}"))
        .expect("record");
    assert_eq!(record.status, 200);
    let body = client.get("/v1/profile/rtx-3080/tiny/GMS").expect("body");
    assert_eq!(record.body, body.body);

    // POST the document under another key: the next profile request for
    // that triple is a store hit, not a second simulation.
    let small = "rtx-3080/small/GMS";
    let posted = client
        .post_traced(&format!("/v1/store/record/{small}"), &record.body, None)
        .expect("post");
    assert_eq!(posted.status, 200, "got {}", posted.body);
    let replicated = client
        .profile(ProfileQuery {
            device: dev("rtx-3080"),
            scale: "small",
            workload: "GMS",
        })
        .expect("replicated profile");
    assert_eq!(replicated, profile);
    assert_eq!(metric(&client, "cactus_serve_simulations_total"), 1.0);
    assert_eq!(metric(&client, "cactus_serve_store_hits_total"), 1.0);

    // Garbage documents are rejected; absent records 404 without
    // falling through to simulation.
    let bad = client
        .post_traced(
            "/v1/store/record/rtx-3080/tiny/BAD",
            "not a profile\n",
            None,
        )
        .expect("bad post");
    assert_eq!(bad.status, 400);
    let missing = client
        .get("/v1/store/record/rtx-3080/tiny/SRAD")
        .expect("missing record");
    assert_eq!(missing.status, 404);

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/v1/profile` is the stored document: on a fresh simulation (the text
/// just rendered for the store) and on a store hit (the text just read from
/// it) the body, the raw record and a re-render of the body's parse are the
/// same bytes — and the counters tick exactly once per path, as they did
/// when the route rendered the profile itself.
#[test]
fn profile_view_is_the_stored_document_on_both_paths() {
    let dir = fresh_dir();
    let server = Server::start(ServeConfig {
        workers: 2,
        queue: 16,
        cache_capacity: 0, // every request reaches the service
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral loopback server");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));
    let counters = |client: &Client| {
        (
            metric(client, "cactus_serve_simulations_total"),
            metric(client, "cactus_serve_store_hits_total"),
        )
    };

    let simulated = client.get("/v1/profile/rtx-3080/tiny/GMS").expect("cold");
    assert_eq!(simulated.status, 200);
    assert_eq!(counters(&client), (1.0, 0.0));
    let hit = client.get("/v1/profile/rtx-3080/tiny/GMS").expect("warm");
    assert_eq!(counters(&client), (1.0, 1.0));
    let record = client
        .get("/v1/store/record/rtx-3080/tiny/GMS")
        .expect("record");
    assert_eq!(counters(&client), (1.0, 1.0), "the raw route is not a hit");

    let parsed = cactus_profiler::store::read_profile(&simulated.body).expect("body parses");
    assert_eq!(parsed, cactus_core::run("GMS", SuiteScale::Tiny));
    let rendered = cactus_profiler::store::write_profile(&parsed);
    assert_eq!(simulated.body, rendered);
    assert_eq!(hit.body, rendered);
    assert_eq!(record.body, rendered);

    // The CSV views render from the same parse on both paths.
    let kernels = client.get("/v1/kernels/rtx-3080/tiny/GMS").expect("csv");
    assert_eq!(kernels.body, cactus_profiler::csv::to_csv("GMS", &parsed));
    assert_eq!(counters(&client), (1.0, 2.0));

    // A non-canonical document never gets in to be served verbatim.
    let before = client.get("/v1/store/statz").expect("statz").body;
    let padded = client
        .post_traced(
            "/v1/store/record/rtx-3080/small/GMS",
            &format!("{rendered}trailing line\n"),
            None,
        )
        .expect("post");
    assert_eq!(padded.status, 400, "{}", padded.body);
    let crlf = client
        .post_traced(
            "/v1/store/record/rtx-3080/small/GMS",
            &rendered.replace('\n', "\r\n"),
            None,
        )
        .expect("post");
    assert_eq!(crlf.status, 400);
    assert!(
        crlf.body
            .contains("body is not a canonical profile document"),
        "{}",
        crlf.body
    );
    let after = client.get("/v1/store/statz").expect("statz").body;
    let line = |page: &str, name: &str| {
        page.lines()
            .find(|l| l.starts_with(name))
            .map(str::to_owned)
    };
    assert_eq!(line(&before, "appends "), Some("appends 1".to_owned()));
    assert_eq!(line(&after, "appends "), line(&before, "appends "));
    assert_eq!(
        line(&after, "live_records "),
        line(&before, "live_records ")
    );

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/v1/similar` end to end: the first reference query lazily fits the
/// encoder and seeds the index from the profile's kernels, the query
/// kernel comes back at distance zero, inline vector queries work once
/// seeded (and 400 before), stats and scraped gauges reflect the corpus,
/// and the span tree lands in `/v1/tracez`.
#[test]
fn similar_queries_ingest_search_and_trace_end_to_end() {
    let (server, client, dir) = start(2, 16);

    // Before any ingest the index is empty: inline vector queries answer
    // 400 with a seeding hint, and the stats page says so.
    let err = client
        .similar_vector(&[1.0; cactus_simindex::VECTOR_DIMS], Some(3))
        .expect_err("unseeded index must reject vector queries");
    assert_eq!(err.status(), Some(400), "got {err}");
    let stats = client.get("/v1/similar/stats").expect("stats");
    assert_eq!(stats.status, 200);
    assert!(
        stats.body.starts_with("fitted false"),
        "unseeded stats: {:?}",
        stats.body
    );

    // A traced reference query seeds the index from the GMS/tiny profile
    // and must find the query kernel itself at distance zero.
    let trace = cactus_obs::TraceId::mint();
    let reply = client
        .get_traced(
            "/v1/similar?device=rtx-3080&scale=tiny&workload=GMS&k=3",
            Some(trace),
        )
        .expect("reference similar");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert!(
        reply.body.contains("# query: rtx-3080/tiny/GMS/"),
        "query comment missing: {}",
        reply.body
    );

    let hits = client
        .similar(SimilarQuery {
            device: dev("rtx-3080"),
            scale: "tiny",
            workload: "GMS",
            kernel: None,
            k: Some(5),
        })
        .expect("typed similar");
    assert!(!hits.is_empty());
    assert_eq!(hits[0].rank, 1);
    assert_eq!(hits[0].distance, 0.0, "self-match must be exact");
    assert!(
        hits[0].id.starts_with("rtx-3080/tiny/GMS/"),
        "top hit {:?}",
        hits[0].id
    );
    assert!(
        hits.windows(2).all(|w| w[0].distance <= w[1].distance),
        "distances must ascend: {hits:?}"
    );

    // Naming a stored kernel searches for that kernel; an unknown name
    // is 404.
    let local = cactus_core::run("GMS", SuiteScale::Tiny);
    let first = &local.kernels()[0];
    let named = client
        .similar(SimilarQuery {
            device: dev("rtx-3080"),
            scale: "tiny",
            workload: "GMS",
            kernel: Some(&first.name),
            k: Some(5),
        })
        .expect("named-kernel similar");
    let own_id = format!("rtx-3080/tiny/GMS/{}", first.name);
    assert_eq!(named[0].distance, 0.0);
    assert!(
        named.iter().any(|h| h.id == own_id && h.distance == 0.0),
        "named kernel must match itself: {named:?}"
    );
    let err = client
        .similar(SimilarQuery {
            device: dev("rtx-3080"),
            scale: "tiny",
            workload: "GMS",
            kernel: Some("no-such-kernel"),
            k: None,
        })
        .expect_err("unknown kernel");
    assert_eq!(err.status(), Some(404), "got {err}");

    // The raw metric vector of a stored kernel, sent inline, encodes to
    // the same point: it must come back at distance zero.
    let inline = client
        .similar_vector(&first.metrics.vector(), Some(5))
        .expect("inline vector similar");
    assert_eq!(inline[0].distance, 0.0);
    assert!(
        inline.iter().any(|h| h.id == own_id && h.distance == 0.0),
        "inline vector must rediscover its kernel: {inline:?}"
    );

    // Stats and scraped gauges reflect the seeded corpus: one vector per
    // distinct kernel name, and every query above was counted.
    let stats = client.get("/v1/similar/stats").expect("stats").body;
    assert!(stats.starts_with("fitted true"), "seeded stats: {stats:?}");
    assert!(
        stats.contains("proxies "),
        "proxy subset missing: {stats:?}"
    );
    let distinct: std::collections::BTreeSet<&str> =
        local.kernels().iter().map(|k| k.name.as_str()).collect();
    assert_eq!(
        metric(&client, "cactus_simindex_size"),
        distinct.len() as f64
    );
    assert!(metric(&client, "cactus_simindex_queries_total") >= 4.0);
    assert!(metric(&client, "cactus_simindex_inserts_total") >= 1.0);

    // A demangled name holds commas and quotes, and a WIR `name` may hold
    // a line break, even one followed by the table's header: the id (the
    // triple's key, definition digest included, then the kernel name) comes
    // back verbatim, and the body's `# query` line carries the break
    // escaped, so it cannot forge the header.
    for (source, workload, kernel) in [
        (QUOTED_WIR, "quoted", QUOTED_KERNEL),
        (FORGED_WIR, "forged", FORGED_KERNEL),
    ] {
        let reply = client
            .post_traced("/v1/workloads", source, None)
            .expect("post quoted");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let quoted = client
            .similar(SimilarQuery {
                device: dev("rtx-3080"),
                scale: "tiny",
                workload,
                kernel: None,
                k: Some(3),
            })
            .expect("similar on a quoted kernel name");
        let digest = cactus_store::fnv1a64(source.as_bytes());
        let own_id = format!("rtx-3080/tiny/{workload}@{digest:016x}/{kernel}");
        assert!(
            quoted.iter().any(|h| h.id == own_id && h.distance == 0.0),
            "the quoted kernel must match itself verbatim: {quoted:?}"
        );
    }

    // The traced request's span tree is in the ring.
    let tracez = client
        .get(&format!("/v1/tracez?trace={trace}"))
        .expect("tracez");
    assert_eq!(tracez.status, 200);
    for span in ["serve.similar", "simindex.encode", "simindex.search"] {
        assert!(
            tracez.body.contains(span),
            "span {span} missing from trace: {}",
            tracez.body
        );
    }

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The heterogeneous surface: a backend started with a device subset
/// advertises exactly that subset, serves only those devices, and answers
/// catalog triples outside its subset with the 404 envelope.
#[test]
fn device_subset_is_advertised_and_gated() {
    let dir = fresh_dir();
    let server = Server::start(ServeConfig {
        workers: 2,
        queue: 16,
        store_dir: Some(dir.clone()),
        devices: vec!["rtx-3060".to_owned(), "uhd-630".to_owned()],
        ..ServeConfig::default()
    })
    .expect("bind");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));

    // /v1/healthz advertises the modeled subset after the `ok` line.
    let health = client.get("/v1/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\ndevices rtx-3060 uhd-630\n");
    assert_eq!(
        cactus_serve::parse_health_devices(&health.body),
        Some(vec!["rtx-3060".to_owned(), "uhd-630".to_owned()])
    );

    // /v1/devices lists the whole catalog, flagging the modeled subset.
    let devices = client.devices().expect("devices page");
    assert_eq!(devices.len(), cactus_gpu::CATALOG.len());
    let modeled: Vec<&str> = devices
        .iter()
        .filter(|d| d.modeled)
        .map(|d| d.id.as_str())
        .collect();
    assert_eq!(modeled, ["rtx-3060", "uhd-630"]);
    for d in &devices {
        assert!(d.peak_gips > 0.0, "{}: ceilings must be positive", d.id);
        assert!(d.peak_gtxn_per_s > 0.0);
        assert!(d.store_version.starts_with("2."), "{}", d.store_version);
    }

    // A catalog device outside the subset: 404 envelope, not a simulation.
    let err = client
        .profile(ProfileQuery {
            device: dev("rtx-3080"),
            scale: "tiny",
            workload: "GMS",
        })
        .expect_err("unmodeled device");
    let message = match err {
        ClientError::Api(e) => {
            assert_eq!(e.code, 404);
            assert!(e.message.contains("not modeled"), "{}", e.message);
            assert!(e.message.contains("rtx-3060"), "{}", e.message);
            e.message
        }
        other => panic!("expected the JSON envelope, got {other:?}"),
    };
    // `/v1/similar`'s reference form gates the same triple with the same
    // 404 envelope.
    let similar = client
        .get("/v1/similar?device=rtx-3080&scale=tiny&workload=GMS")
        .expect("similar reply");
    assert_eq!(similar.status, 404, "{}", similar.body);
    let envelope = ApiError::from_json(&similar.body).expect("envelope");
    assert_eq!(envelope.message, message);
    assert_eq!(metric(&client, "cactus_serve_simulations_total"), 0.0);

    // A modeled device simulates as usual.
    let profile = client
        .profile(ProfileQuery {
            device: dev("uhd-630"),
            scale: "tiny",
            workload: "GMS",
        })
        .expect("modeled device");
    assert!(!profile.kernels().is_empty());

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A slug that is not in the catalog at all never leaves the client: the
/// typed `DeviceId` constructor answers the same 404 envelope locally.
#[test]
fn unknown_device_ids_fail_at_the_client() {
    let err = DeviceId::resolve("rtx-9090").expect_err("not a catalog id");
    match err {
        ClientError::Api(e) => {
            assert_eq!(e.code, 404);
            assert!(e.message.contains("rtx-9090"), "{}", e.message);
            assert!(e.message.contains("rtx-3080"), "{}", e.message);
        }
        other => panic!("expected the JSON envelope, got {other:?}"),
    }
    assert_eq!(
        dev("RTX-3080").as_str(),
        "rtx-3080",
        "ids are canonicalized"
    );
}

/// `POST /v1/workloads` end to end: an invalid definition is refused with
/// `422` and line-accurate findings, a valid one registers, lists, serves
/// profiles through the ordinary triple routes, and survives a restart
/// from the durable store — bit-identical to a direct interpretation.
#[test]
fn workload_submission_validates_persists_and_serves() {
    let (server, client, dir) = start(2, 16);

    // Seeded defect: unknown kernel on line 2 — the types pass refuses it.
    let bad = "workload \"bad\" {\n  run { launch ghost; }\n}\n";
    let reply = client
        .post_traced("/v1/workloads", bad, None)
        .expect("post invalid");
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert!(reply.body.contains("\"findings\":["), "{}", reply.body);
    assert!(reply.body.contains("\"pass\":\"types\""), "{}", reply.body);
    assert!(reply.body.contains("\"line\":2"), "{}", reply.body);
    assert_eq!(
        metric(&client, "cactus_serve_workloads_rejected_total"),
        1.0
    );
    assert_eq!(metric(&client, "cactus_wir_definitions"), 0.0);

    // A built-in name cannot be shadowed.
    let clash = "workload \"gms\" {\n  kernel k { launch grid(1, 128); }\n  run { launch k; }\n}\n";
    let reply = client
        .post_traced("/v1/workloads", clash, None)
        .expect("post clash");
    assert_eq!(reply.status, 400, "{}", reply.body);

    // The shipped GNN definition is accepted and immediately servable.
    let gnn = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../wir/defs/gnn.wir"),
    )
    .expect("gnn def");
    let reply = client
        .post_traced("/v1/workloads", &gnn, None)
        .expect("post gnn");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(
        reply.body.contains("registered workload \"gnn\""),
        "{}",
        reply.body
    );
    assert_eq!(
        metric(&client, "cactus_serve_workloads_submitted_total"),
        1.0
    );
    assert_eq!(metric(&client, "cactus_wir_definitions"), 1.0);

    // The catalog, rendered per request, now lists the submission.
    let catalog = client.get("/v1/workloads").expect("catalog");
    assert!(catalog.body.contains("WIR,gnn"), "{}", catalog.body);

    // Profiles route like built-ins and match a direct interpretation of
    // the same definition byte for byte.
    let served = client
        .get("/v1/profile/rtx-3080/tiny/gnn")
        .expect("gnn profile");
    assert_eq!(served.status, 200, "{}", served.body);
    let def = cactus_wir::analyze(&gnn).expect("gnn validates");
    let mut gpu = cactus_gpu::Gpu::new(cactus_gpu::Device::rtx3080());
    cactus_wir::run(&def, Some("tiny"), &mut gpu).expect("interpret");
    let local = cactus_profiler::Profile::from_records(gpu.records());
    assert_eq!(
        served.body,
        cactus_profiler::store::write_profile(&local),
        "served IR profile must equal a direct interpretation"
    );

    // Resubmission replaces, not duplicates.
    let reply = client
        .post_traced("/v1/workloads", &gnn, None)
        .expect("post gnn again");
    assert_eq!(reply.status, 200);
    assert!(
        reply.body.contains("replaced workload \"gnn\""),
        "{}",
        reply.body
    );

    server.join();

    // Restart over the same store: the definition reloads and its profile
    // is answered from the durable store without re-simulation.
    let server = Server::start(ServeConfig {
        workers: 2,
        queue: 16,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("restart");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));
    assert_eq!(metric(&client, "cactus_wir_definitions"), 1.0);
    let replayed = client
        .get("/v1/profile/rtx-3080/tiny/gnn")
        .expect("gnn profile after restart");
    assert_eq!(replayed.status, 200, "{}", replayed.body);
    assert_eq!(replayed.body, served.body, "restart must not change bytes");
    assert_eq!(metric(&client, "cactus_serve_simulations_total"), 0.0);

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replacing a definition by re-POSTing under the same name must not keep
/// serving results computed from the old definition: the replacement's
/// triples key the response cache by its new admission and the stored
/// profiles are superseded, so the next read re-simulates under the
/// replacement. A byte-identical resubmission keeps the admitted entry and
/// its stored profiles (same bytes would be re-derived anyway).
#[test]
fn replacing_a_definition_invalidates_cached_and_stored_profiles() {
    let (server, client, dir) = start(4, 16);

    let v1 = "workload \"swap\" { kernel a { mix { int = 1000; } } \
              run { repeat 4 { launch a; } } }";
    let reply = client
        .post_traced("/v1/workloads", v1, None)
        .expect("post v1");
    assert_eq!(reply.status, 200, "{}", reply.body);

    let first = client
        .get("/v1/profile/rtx-3080/tiny/swap")
        .expect("v1 profile");
    assert_eq!(first.status, 200, "{}", first.body);
    let dominant = client
        .get("/v1/dominant/rtx-3080/tiny/swap")
        .expect("v1 dominant");
    assert_eq!(dominant.status, 200, "{}", dominant.body);
    assert_eq!(metric(&client, "cactus_serve_simulations_total"), 1.0);

    // A byte-identical resubmission keeps the admitted entry and the
    // stored profile: the re-read is not a simulation.
    let reply = client
        .post_traced("/v1/workloads", v1, None)
        .expect("repost v1");
    assert!(reply.body.contains("replaced"), "{}", reply.body);
    let unchanged = client
        .get("/v1/profile/rtx-3080/tiny/swap")
        .expect("profile after identical repost");
    assert_eq!(unchanged.body, first.body);
    assert_eq!(metric(&client, "cactus_serve_simulations_total"), 1.0);

    // A changed definition supersedes: the same routes now answer from a
    // fresh simulation of the new definition, not the old cache or store.
    let v2 = "workload \"swap\" { kernel a { mix { int = 1000; } } \
              run { repeat 8 { launch a; } } }";
    let reply = client
        .post_traced("/v1/workloads", v2, None)
        .expect("post v2");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(reply.body.contains("replaced"), "{}", reply.body);
    let second = client
        .get("/v1/profile/rtx-3080/tiny/swap")
        .expect("v2 profile");
    assert_eq!(second.status, 200, "{}", second.body);
    assert_ne!(
        second.body, first.body,
        "replacement must not serve the old definition's profile"
    );
    let dominant2 = client
        .get("/v1/dominant/rtx-3080/tiny/swap")
        .expect("v2 dominant");
    assert_ne!(
        dominant2.body, dominant.body,
        "derived views must be invalidated too"
    );
    assert_eq!(metric(&client, "cactus_serve_simulations_total"), 2.0);

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shipped GNN definition's source.
fn gnn_source() -> String {
    std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../wir/defs/gnn.wir"),
    )
    .expect("gnn def")
}

/// The `live_records` and `appends` lines of `/v1/store/statz`.
fn store_counts(client: &Client) -> Vec<String> {
    let statz = client.get("/v1/store/statz").expect("statz").body;
    statz
        .lines()
        .filter(|l| l.starts_with("live_records") || l.starts_with("appends"))
        .map(str::to_owned)
        .collect()
}

/// A repair push of `wir/<name>` is a way in for a definition: it passes
/// the admission stack, is listed and served, and reads back byte for
/// byte. An invalid body, or one naming another workload than its key,
/// answers `400` and stores nothing.
#[test]
fn a_definition_pushed_as_a_store_record_is_admitted() {
    let (server, client, dir) = start(2, 16);
    let gnn = gnn_source();

    let before = store_counts(&client);
    let invalid = "workload \"gnn\" {\n  run { launch ghost; }\n}\n";
    for (path, body) in [
        ("/v1/store/record/wir/gnn", invalid),
        ("/v1/store/record/wir/other", gnn.as_str()),
    ] {
        let reply = client.post_traced(path, body, None).expect("push");
        assert_eq!(reply.status, 400, "{path}: {}", reply.body);
    }
    assert_eq!(store_counts(&client), before, "nothing stored");
    let missing = client.get("/v1/store/record/wir/gnn").expect("get");
    assert_eq!(missing.status, 404, "{}", missing.body);

    let reply = client
        .post_traced("/v1/store/record/wir/gnn", &gnn, None)
        .expect("push gnn");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let catalog = client.get("/v1/workloads").expect("catalog");
    assert!(catalog.body.contains("WIR,gnn"), "{}", catalog.body);
    let profile = client
        .get("/v1/profile/rtx-3080/tiny/gnn")
        .expect("gnn profile");
    assert_eq!(profile.status, 200, "{}", profile.body);
    let record = client.get("/v1/store/record/wir/gnn").expect("get gnn");
    assert_eq!(record.status, 200, "{}", record.body);
    assert_eq!(record.body, gnn, "the record is the source as pushed");

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The profile, dominant report and stored record of `swap` at
/// rtx-3080/tiny as `client` serves them.
fn swap_views(client: &Client) -> [String; 3] {
    [
        "/v1/profile/rtx-3080/tiny/swap",
        "/v1/dominant/rtx-3080/tiny/swap",
        "/v1/store/record/rtx-3080/tiny/swap",
    ]
    .map(|path| {
        let reply = client.get(path).expect(path);
        assert_eq!(reply.status, 200, "{path}: {}", reply.body);
        reply.body
    })
}

/// A definition replaced while a request is simulating the old one: the
/// simulation finishes and answers its own request, but nothing derived
/// from it is served, stored or reloaded afterwards — every view equals
/// that of a server that only ever saw the replacement.
#[test]
fn a_replacement_during_a_simulation_is_never_served() {
    const V1: &str = "workload \"swap\" { kernel a { mix { int = 1000; } } \
                      run { repeat 400000 { launch a; } } }";
    const V2: &str = "workload \"swap\" { kernel a { mix { int = 1000; } } \
                      run { repeat 8 { launch a; } } }";
    let expected = {
        let (server, client, dir) = start(2, 16);
        let reply = client.post_traced("/v1/workloads", V2, None).expect("v2");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let views = swap_views(&client);
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
        views
    };

    let (server, client, dir) = start(4, 16);
    let reply = client.post_traced("/v1/workloads", V1, None).expect("v1");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let slow = {
        let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));
        std::thread::spawn(move || {
            let reply = client
                .get("/v1/profile/rtx-3080/tiny/swap")
                .expect("v1 profile");
            (reply, std::time::Instant::now())
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while metric(&client, "cactus_serve_simulations_total") < 1.0 {
        assert!(std::time::Instant::now() < deadline, "v1 never simulated");
        std::thread::sleep(Duration::from_millis(1));
    }
    let reply = client.post_traced("/v1/workloads", V2, None).expect("v2");
    let replaced_at = std::time::Instant::now();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let (v1, finished_at) = slow.join().expect("slow reader");
    assert!(
        finished_at > replaced_at,
        "the v1 simulation ended before the replacement's 200: nothing was raced"
    );
    assert_eq!(v1.status, 200, "{}", v1.body);
    assert_ne!(v1.body, expected[0], "v1 and v2 profile differently");

    assert_eq!(swap_views(&client), expected, "after the replacement");
    server.join();
    let server = Server::start(ServeConfig {
        workers: 2,
        queue: 16,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("restart");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));
    assert_eq!(swap_views(&client), expected, "after a restart");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `swap` before and after a replacement that changes its kernel's mix.
const SWAP_INT: &str = "workload \"swap\" { kernel a { mix { int = 1000; } } \
                        run { repeat 4 { launch a; } } }";
const SWAP_FP32: &str = "workload \"swap\" { kernel a { mix { fp32 = 1000; } } \
                         run { repeat 4 { launch a; } } }";

/// The id a `/v1/similar` body's `# query:` line names, and its first
/// `rank,id,distance` row.
fn similar_top(client: &Client, workload: &str) -> (String, String) {
    let path = format!("/v1/similar?device=rtx-3080&scale=tiny&workload={workload}&k=3");
    let reply = client.get(&path).expect("similar");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let lines = reply.body.lines();
    let query = lines
        .clone()
        .find_map(|l| l.strip_prefix("# query: "))
        .unwrap_or_else(|| panic!("no query line: {}", reply.body));
    let row = lines
        .skip_while(|l| *l != "rank,id,distance")
        .nth(1)
        .unwrap_or_else(|| panic!("no rows: {}", reply.body));
    (query.to_owned(), row.to_owned())
}

/// A point of the similarity index names the definition it was measured
/// from: after `swap` is replaced by a definition with another mix, the
/// reference query finds the replacement's own kernel at distance zero,
/// not the replaced definition's vector.
#[test]
fn a_replacement_is_its_own_nearest_kernel() {
    let (server, client, dir) = start(2, 16);
    // GMS fits the encoder, so both definitions land in one space.
    similar_top(&client, "GMS");
    let reply = client
        .post_traced("/v1/workloads", SWAP_INT, None)
        .expect("v1");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let (replaced, _) = similar_top(&client, "swap");
    let reply = client
        .post_traced("/v1/workloads", SWAP_FP32, None)
        .expect("v2");
    assert_eq!(reply.status, 200, "{}", reply.body);

    let (query, row) = similar_top(&client, "swap");
    assert_eq!(row, format!("1,{query},0.000000"));
    assert_ne!(query, replaced, "the two definitions share an id");

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Right after a replacement, before any read, nothing is stored for the
/// replacement's triples: the record route does not answer `200` with a
/// body that is not the replacement's profile.
#[test]
fn a_replacement_has_no_stored_record_before_its_first_read() {
    let (server, client, dir) = start(2, 16);
    let reply = client
        .post_traced("/v1/workloads", SWAP_INT, None)
        .expect("v1");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let profile = client
        .get("/v1/profile/rtx-3080/tiny/swap")
        .expect("v1 profile");
    assert_eq!(profile.status, 200, "{}", profile.body);
    let reply = client
        .post_traced("/v1/workloads", SWAP_FP32, None)
        .expect("v2");
    assert_eq!(reply.status, 200, "{}", reply.body);

    let record = client
        .get("/v1/store/record/rtx-3080/tiny/swap")
        .expect("record");
    assert_ne!(record.status, 200, "{:?}", record.body);

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store written before profile keys carried the definition's digest may
/// hold a record under a submission's bare name — here the placeholder the
/// old re-submission sweep wrote. The record route reads the current
/// definition's profile instead, as the profile route does.
#[test]
fn a_bare_name_record_is_not_read_for_a_submission() {
    let dir = fresh_dir();
    cactus_store::Store::open(&dir)
        .expect("open store")
        .append("rtx-3080/tiny/swap", 0, b"superseded by re-submission\n")
        .expect("seed store");
    let server = Server::start(ServeConfig {
        workers: 2,
        queue: 16,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("start");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));
    let reply = client
        .post_traced("/v1/workloads", SWAP_INT, None)
        .expect("v1");
    assert_eq!(reply.status, 200, "{}", reply.body);

    let record = client
        .get("/v1/store/record/rtx-3080/tiny/swap")
        .expect("record");
    assert_eq!(record.status, 404, "{:?}", record.body);
    let [profile, _, record] = swap_views(&client);
    assert_eq!(record, profile, "the record is the served profile");

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The startup reload runs the whole admission stack: a stored definition
/// that passes the language-level validator but not the serve policy (it
/// declares two of the three scales) is not admitted, exactly as a POST
/// of the same text is refused.
#[test]
fn the_startup_reload_applies_the_serve_policy() {
    let two_scales = "workload \"twoscale\" { scale tiny { n = 1; } scale small { n = 2; } \
                      kernel k { mix { int = n; } } run { launch k; } }";
    assert!(cactus_wir::analyze(two_scales).is_ok());
    let dir = fresh_dir();
    cactus_store::Store::open(&dir)
        .expect("open store")
        .append(
            "wir/twoscale",
            cactus_wir::FORMAT_VERSION,
            two_scales.as_bytes(),
        )
        .expect("seed store");

    let server = Server::start(ServeConfig {
        workers: 2,
        queue: 16,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("start");
    let client = Client::new(server.addr()).with_timeout(Duration::from_secs(120));
    let catalog = client.get("/v1/workloads").expect("catalog");
    assert!(!catalog.body.contains("twoscale"), "{}", catalog.body);
    assert_eq!(metric(&client, "cactus_wir_definitions"), 0.0);
    let reply = client
        .post_traced("/v1/workloads", two_scales, None)
        .expect("post");
    assert_eq!(reply.status, 422, "{}", reply.body);

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
