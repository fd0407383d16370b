//! Store replication and repair acceptance: a 3-backend fleet must
//! survive losing a profile's owning shard with zero client-visible errors
//! (the repair pass copied the record to the follower replica), and a
//! restarted owner, or a follower restarted before it could be ejected,
//! must be repaired back to a converged fleet manifest by the repair pass
//! after a probe round. A definition posted to one backend reaches every
//! backend the same way. A profile read is one backend request and copies
//! nothing, and a repair push that fails is counted; stub fleets that log
//! every request pin both exactly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cactus_gateway::{Gateway, GatewayConfig, HashRing, Supervisor};
use cactus_serve::{Client, ServeConfig};
use cactus_store::{write_manifest, Entry};

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
        hedge: false,
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
fn killed_owner_serves_from_follower_and_repair_refills_it() {
    let dir = std::env::temp_dir().join(format!("cactus-store-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let fleet = Supervisor::spawn_fleet(3, &fleet_config(&dir)).expect("spawn fleet");
    let gateway = Gateway::start(gateway_config(), fleet.addrs()).expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(120));

    // Write one profile through the gateway: the owning shard simulates and
    // stores it, and a repair pass within a probe round or two copies the
    // record to the follower replica.
    let key = "rtx-3080/tiny/GMS";
    let first = client
        .get("/v1/profile/rtx-3080/tiny/GMS")
        .expect("initial write-through");
    assert_eq!(first.status, 200, "body: {}", first.body);

    let deadline = Instant::now() + Duration::from_secs(5);
    let replicas = loop {
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
        if manifest.contains("\nmissing 0\n") && replicas.iter().all(|r| holders.contains(r)) {
            break replicas;
        }
        assert!(
            Instant::now() < deadline,
            "the follower was not refilled within 5 s of the write:\n{manifest}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    let owner = replicas[0];

    // Lose the owner. Every read must still succeed: the ring retries onto
    // the follower, whose store holds the repaired record.
    fleet.kill(owner);
    for i in 0..10 {
        let reply = client
            .get("/v1/profile/rtx-3080/tiny/GMS")
            .unwrap_or_else(|e| panic!("read {i} with dead owner: {e:?}"));
        assert_eq!(reply.status, 200, "read {i}: {}", reply.body);
    }

    // Write more profiles while the owner is down — some of their replica
    // sets will name the dead backend, which the repair pass must refill.
    for device in ["rtx-2080-ti", "a100", "gtx-1080"] {
        let reply = client
            .get(&format!("/v1/profile/{device}/tiny/GMS"))
            .expect("write with one backend down");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
    }

    // Restart the owner and wait for the gateway to re-admit and repair it:
    // half-open trial passes -> the repair pass copies the missed records
    // -> the fleet manifest reports every replica slot filled.
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

    // The repair pass's pushes are counted as replications.
    let metrics = client.metrics().expect("gateway metrics");
    assert!(
        metrics
            .get("cactus_gateway_store_replications_total")
            .unwrap_or(0.0)
            >= 1.0,
        "repair pushes counted"
    );

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A follower that is down for a moment too short to be ejected misses
/// the repair pushes of every key written meanwhile. The repair pass
/// after each probe round refills it once it answers again: the fleet
/// converges without any backend being ejected and re-admitted.
#[test]
fn a_follower_restarted_inside_the_ejection_window_is_repaired() {
    let dir = std::env::temp_dir().join(format!("cactus-store-window-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let fleet = Supervisor::spawn_fleet(3, &fleet_config(&dir)).expect("spawn fleet");
    let config = GatewayConfig {
        // No ejection can happen: the dead follower stays routable, so
        // nothing but the repair pass can refill it.
        eject_after: u32::MAX,
        ..gateway_config()
    };
    let gateway = Gateway::start(config, fleet.addrs()).expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(120));

    // Three tiny profiles whose replica set is (another backend, f). Every
    // backend models every device, so the replica set is the ring's first
    // two candidates; f is a backend that follows at least five of these
    // fifteen triples, as some backend must.
    let labels: Vec<String> = fleet.addrs().iter().map(ToString::to_string).collect();
    let ring = HashRing::new(&labels);
    let follower = |(d, w): &(&str, &str)| ring.candidates(&format!("{d}/tiny/{w}"))[1];
    let all: Vec<(&str, &str)> = ["GMS", "SPT", "LGT"]
        .iter()
        .flat_map(|&w| {
            ["rtx-3080", "a100", "gtx-1080", "rtx-2080-ti", "rtx-3060"]
                .iter()
                .map(move |&d| (d, w))
        })
        .collect();
    let f = (0..3)
        .max_by_key(|&b| all.iter().filter(|t| follower(t) == b).count())
        .expect("three backends");
    let triples: Vec<(&str, &str)> = all
        .iter()
        .copied()
        .filter(|t| follower(t) == f)
        .take(3)
        .collect();
    assert_eq!(triples.len(), 3, "keys with follower {f}: {triples:?}");

    fleet.kill(f);
    for (device, workload) in &triples {
        let reply = client
            .get(&format!("/v1/profile/{device}/tiny/{workload}"))
            .expect("write with the follower down");
        assert_eq!(reply.status, 200, "{device} {workload}: {}", reply.body);
    }
    let keys: Vec<String> = triples
        .iter()
        .map(|(d, w)| format!("{d}/tiny/{w}"))
        .collect();
    fleet.restart(f).expect("restart follower");

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let manifest = client
            .get("/v1/store/manifest")
            .expect("fleet manifest")
            .body;
        if !manifest.contains("digest=-") && manifest.contains("\nmissing 0\n") {
            for key in &keys {
                assert!(
                    holders_of(&manifest, key).contains(&f),
                    "{key} not on {f}:\n{manifest}"
                );
            }
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fleet did not converge within 5 s:\n{manifest}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(gateway.router().health.ejections(), 0, "no ejection");

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Six tiny triples: the two tests below read each through every route
/// that names it.
const TRIPLES: [(&str, &str); 6] = [
    ("rtx-3080", "GMS"),
    ("a100", "GMS"),
    ("gtx-1080", "GMS"),
    ("rtx-2080-ti", "GMS"),
    ("rtx-3060", "GMS"),
    ("rtx-3080", "SPT"),
];

/// Every route that addresses one triple but its profile: the three other
/// views and the similarity reference query.
fn other_routes(device: &str, workload: &str) -> Vec<String> {
    let mut routes: Vec<String> = ["kernels", "roofline", "dominant"]
        .iter()
        .map(|view| format!("/v1/{view}/{device}/tiny/{workload}"))
        .collect();
    routes.push(format!(
        "/v1/similar?device={device}&scale=tiny&workload={workload}"
    ));
    routes
}

/// `cactus_serve_simulations_total` of each backend in `slots`.
fn simulations(fleet: &Supervisor, slots: &[usize]) -> Vec<f64> {
    let addrs = fleet.addrs();
    slots
        .iter()
        .map(|&i| {
            Client::new(addrs[i])
                .with_timeout(Duration::from_secs(10))
                .metrics()
                .expect("backend metrics")
                .get("cactus_serve_simulations_total")
                .unwrap_or(0.0)
        })
        .collect()
}

/// Every route of a triple reaches the backend that owns the triple's
/// key: with no repair pass to copy anything, each of six triples read
/// through its four views and its similarity query is simulated once and
/// stored on one backend.
#[test]
fn a_triples_views_and_similar_query_simulate_once() {
    let dir = std::env::temp_dir().join(format!("cactus-store-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = Supervisor::spawn_fleet(3, &fleet_config(&dir)).expect("spawn fleet");
    let config = GatewayConfig {
        probe_interval: None,
        ..gateway_config()
    };
    let gateway = Gateway::start(config, fleet.addrs()).expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(120));

    for (device, workload) in TRIPLES {
        let profile = format!("/v1/profile/{device}/tiny/{workload}");
        for path in std::iter::once(profile).chain(other_routes(device, workload)) {
            let reply = client.get(&path).expect("read");
            assert_eq!(reply.status, 200, "{path}: {}", reply.body);
        }
    }
    let simulated: f64 = simulations(&fleet, &[0, 1, 2]).iter().sum();
    let manifest = client
        .get("/v1/store/manifest")
        .expect("fleet manifest")
        .body;
    assert_eq!(simulated, 6.0, "one simulation per triple:\n{manifest}");
    for (device, workload) in TRIPLES {
        let key = format!("{device}/tiny/{workload}");
        assert_eq!(holders_of(&manifest, &key).len(), 1, "{key}:\n{manifest}");
    }

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Once repair has copied each record to its follower, losing the owner
/// loses no route of its triples: every other view and the similarity
/// query fail over to the follower, which answers from its store without
/// simulating again.
#[test]
fn every_view_of_a_killed_owners_triple_is_served_by_its_follower() {
    let dir = std::env::temp_dir().join(format!("cactus-store-views-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = Supervisor::spawn_fleet(3, &fleet_config(&dir)).expect("spawn fleet");
    let gateway = Gateway::start(gateway_config(), fleet.addrs()).expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(120));

    for (device, workload) in TRIPLES {
        let path = format!("/v1/profile/{device}/tiny/{workload}");
        let reply = client.get(&path).expect("read");
        assert_eq!(reply.status, 200, "{path}: {}", reply.body);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let manifest = loop {
        let manifest = client
            .get("/v1/store/manifest")
            .expect("fleet manifest")
            .body;
        if manifest.contains("\nmissing 0\n") {
            break manifest;
        }
        assert!(
            Instant::now() < deadline,
            "the followers were not refilled within 5 s:\n{manifest}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    let owner_of = |(d, w): &(&str, &str)| replicas_of(&manifest, &format!("{d}/tiny/{w}"))[0];
    let owner = (0..3)
        .max_by_key(|&b| TRIPLES.iter().filter(|t| owner_of(t) == b).count())
        .expect("three backends");
    let survivors: Vec<usize> = (0..3).filter(|&b| b != owner).collect();

    fleet.kill(owner);
    let before = simulations(&fleet, &survivors);
    for (device, workload) in TRIPLES.iter().filter(|t| owner_of(t) == owner) {
        for path in other_routes(device, workload) {
            let reply = client.get(&path).expect("read with the owner down");
            assert_eq!(reply.status, 200, "{path}: {}", reply.body);
        }
    }
    assert_eq!(
        simulations(&fleet, &survivors),
        before,
        "backends {survivors:?} simulated a triple owner {owner} had:\n{manifest}"
    );

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A keep-alive stub backend that logs `METHOD path` for every request.
/// A `GET` of the store manifest answers the stub's manifest; any other
/// `GET` answers `200` with a profile or record body; a `POST` answers the
/// stub's push status.
struct LoggingStub {
    addr: SocketAddr,
    log: Arc<Mutex<Vec<String>>>,
}

impl LoggingStub {
    /// A stub with an empty store that stores every push.
    fn spawn() -> Self {
        Self::holding(&[], 200)
    }

    /// A stub whose store manifest lists `entries` and that answers every
    /// record push with `push_status`.
    fn holding(entries: &[Entry], push_status: u16) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("stub bind");
        let addr = listener.local_addr().expect("stub addr");
        let log = Arc::new(Mutex::new(Vec::new()));
        let accept_log = Arc::clone(&log);
        let manifest: Arc<str> = write_manifest(entries).into();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let (log, manifest) = (Arc::clone(&accept_log), Arc::clone(&manifest));
                std::thread::spawn(move || serve_logged(stream, &log, &manifest, push_status));
            }
        });
        Self { addr, log }
    }

    /// The requests logged since the last call, oldest first.
    fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.log.lock().expect("log lock"))
    }
}

fn serve_logged(stream: TcpStream, log: &Mutex<Vec<String>>, manifest: &str, push_status: u16) {
    let mut writer = stream.try_clone().expect("clone stub stream");
    let mut reader = BufReader::new(stream);
    loop {
        let mut request_line = String::new();
        if reader.read_line(&mut request_line).unwrap_or(0) == 0 {
            return;
        }
        let mut length = 0usize;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; length];
        if reader.read_exact(&mut body).is_err() {
            return;
        }
        let mut words = request_line.split_whitespace();
        let (method, path) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
        log.lock()
            .expect("log lock")
            .push(format!("{method} {path}"));
        let (status, answer) = match (method, path) {
            ("POST", _) => (push_status, "stored\n"),
            (_, "/v1/store/manifest") => (200, manifest),
            (_, p) if p.starts_with("/v1/store/record/") => (200, "record bytes\n"),
            _ => (200, "profile bytes\n"),
        };
        let reply = format!(
            "HTTP/1.1 {status} stub\r\ncontent-type: text/plain\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{answer}",
            answer.len()
        );
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// A profile read through the gateway is one request to the key's ring
/// owner and nothing more: no record read, no push to a follower. Copying
/// records between backends is the repair pass's job alone, and with no
/// probe interval there is no repair pass.
#[test]
fn a_profile_read_is_one_backend_request() {
    let stubs: Vec<LoggingStub> = (0..3).map(|_| LoggingStub::spawn()).collect();
    let addrs: Vec<SocketAddr> = stubs.iter().map(|s| s.addr).collect();
    let config = GatewayConfig {
        workers: 2,
        probe_interval: None,
        hedge: false,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(config, addrs.clone()).expect("start gateway");
    // Startup's capability discovery is not part of a read.
    for stub in &stubs {
        stub.take();
    }
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(10));

    let path = "/v1/profile/rtx-3080/tiny/GMS";
    let labels: Vec<String> = addrs.iter().map(ToString::to_string).collect();
    // The stubs advertise no device set, so every backend is capable.
    let owner = HashRing::new(&labels).candidates("rtx-3080/tiny/GMS")[0];
    let reads = 8;
    for _ in 0..reads {
        assert_eq!(client.get(path).expect("read").status, 200);
    }
    let logged: Vec<Vec<String>> = stubs.iter().map(LoggingStub::take).collect();
    let mut expected = vec![Vec::new(); stubs.len()];
    expected[owner] = vec![format!("GET {path}"); reads];
    assert_eq!(logged, expected, "per-backend request logs, owner {owner}");

    gateway.join();
}

/// A repair push the target refuses is counted as a replication failure,
/// and the slot stays missing: backend 0 holds a record that backend 1,
/// the other member of its replica set, answers with a `500`.
#[test]
fn a_failed_repair_push_is_counted_and_the_slot_stays_missing() {
    let key = "rtx-3080/tiny/GMS";
    let record = Entry {
        key: key.to_owned(),
        version: 1,
        crc: 0xa,
    };
    let stubs = [
        LoggingStub::holding(&[record], 200),
        LoggingStub::holding(&[], 500),
    ];
    let config = GatewayConfig {
        workers: 2,
        probe_interval: Some(Duration::from_millis(100)),
        hedge: false,
        ..GatewayConfig::default()
    };
    let gateway =
        Gateway::start(config, stubs.iter().map(|s| s.addr).collect()).expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(10));
    let metric = |name: &str| {
        client
            .metrics()
            .expect("gateway metrics")
            .get(name)
            .unwrap_or(0.0)
    };

    // The third pass has begun once the first two have run to the end.
    let deadline = Instant::now() + Duration::from_secs(5);
    while metric("cactus_gateway_store_syncs_total") < 3.0 {
        assert!(Instant::now() < deadline, "two repair passes within 5 s");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(metric("cactus_gateway_store_replication_failures_total") >= 1.0);
    assert_eq!(metric("cactus_gateway_store_replications_total"), 0.0);
    let manifest = client
        .get("/v1/store/manifest")
        .expect("fleet manifest")
        .body;
    assert_eq!(holders_of(&manifest, key), vec![0], "{manifest}");
    assert!(manifest.contains("\nmissing 1\n"), "{manifest}");

    gateway.join();
}

/// A backend serves one keep-alive connection per worker. One whose only
/// worker holds the connection the gateway pooled after a forward still
/// answers every probe round, so it stays available to the repair pass
/// and is never ejected.
#[test]
fn a_backend_whose_only_worker_holds_a_pooled_connection_stays_available() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("stub bind");
    let addr = listener.local_addr().expect("stub addr");
    let log = Arc::new(Mutex::new(Vec::new()));
    let serve_log = Arc::clone(&log);
    let manifest = write_manifest(&[]);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            serve_logged(stream, &serve_log, &manifest, 200);
        }
    });
    let config = GatewayConfig {
        workers: 2,
        eject_after: 1,
        probe_interval: Some(Duration::from_millis(50)),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(config, vec![addr]).expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(10));
    assert_eq!(
        client
            .get("/v1/profile/rtx-3080/tiny/GMS")
            .expect("read")
            .status,
        200
    );

    let probes = || {
        let log = log.lock().expect("log lock");
        log.iter().filter(|l| *l == "GET /v1/healthz").count()
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while probes() < 6 {
        assert!(Instant::now() < deadline, "five probe rounds within 5 s");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(gateway.router().health.ejections(), 0);

    gateway.join();
}

/// A backend whose accept queue is full takes no connection: a dial to it
/// times out. Every pooled dial is bounded by the probe timeout, so such a
/// backend neither stalls startup nor wedges the health thread: repair
/// passes keep running beside it, and it is taken out of rotation.
#[test]
fn a_backend_with_a_full_accept_queue_does_not_wedge_the_health_thread() {
    let live = LoggingStub::spawn();
    // A listener that never accepts, its backlog filled with parked
    // connections until one more dial times out.
    let stuck = TcpListener::bind("127.0.0.1:0").expect("stuck bind");
    let stuck_addr = stuck.local_addr().expect("stuck addr");
    let mut parked = Vec::new();
    while let Ok(conn) = TcpStream::connect_timeout(&stuck_addr, Duration::from_millis(200)) {
        parked.push(conn);
        assert!(parked.len() < 4096, "the backlog never filled");
    }

    let config = GatewayConfig {
        workers: 2,
        probe_interval: Some(Duration::from_millis(50)),
        ..GatewayConfig::default()
    };
    let started = Instant::now();
    let gateway = Gateway::start(config, vec![live.addr, stuck_addr]).expect("start gateway");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "startup took {took:?}");

    std::thread::sleep(Duration::from_secs(3));
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(10));
    let syncs = client
        .metrics()
        .expect("gateway metrics")
        .get("cactus_gateway_store_syncs_total")
        .unwrap_or(0.0);
    assert!(syncs >= 3.0, "{syncs} repair passes in 3 s");
    assert_ne!(
        gateway.router().health.state(1),
        cactus_gateway::HealthState::Healthy,
        "the stuck backend stayed in rotation"
    );

    gateway.join();
    drop((parked, stuck));
}

/// A definition POSTed to one backend directly reaches every backend
/// through the repair pass alone: each passes it through its own admission
/// stack and lists the workload, the fleet manifest reports no missing
/// replica, and no repair push failed.
#[test]
fn repair_copies_a_definition_to_every_backend() {
    let dir = std::env::temp_dir().join(format!("cactus-store-wir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = Supervisor::spawn_fleet(3, &fleet_config(&dir)).expect("spawn fleet");
    let gateway = Gateway::start(gateway_config(), fleet.addrs()).expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(10));
    let backends: Vec<Client> = fleet
        .addrs()
        .into_iter()
        .map(|addr| Client::new(addr).with_timeout(Duration::from_secs(10)))
        .collect();

    let gnn = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../wir/defs/gnn.wir"),
    )
    .expect("gnn def");
    let reply = backends[0]
        .post_traced("/v1/workloads", &gnn, None)
        .expect("post to backend 0");
    assert_eq!(reply.status, 200, "{}", reply.body);

    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let listing: Vec<bool> = backends
            .iter()
            .map(|b| {
                b.get("/v1/workloads")
                    .expect("backend catalog")
                    .body
                    .contains("WIR,gnn")
            })
            .collect();
        let manifest = client
            .get("/v1/store/manifest")
            .expect("fleet manifest")
            .body;
        if listing.iter().all(|&listed| listed) && manifest.contains("\nmissing 0\n") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "not every backend admitted gnn within 2 s: listed {listing:?}\n{manifest}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let metrics = client.metrics().expect("gateway metrics");
    let metric = |name: &str| metrics.get(name).unwrap_or(0.0);
    assert_eq!(
        metric("cactus_gateway_store_replication_failures_total"),
        0.0
    );
    assert!(metric("cactus_gateway_store_replications_total") >= 2.0);

    gateway.join();
    fleet.shutdown_all();
    let _ = std::fs::remove_dir_all(&dir);
}
