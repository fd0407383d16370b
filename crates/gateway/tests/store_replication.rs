//! Store replication and anti-entropy acceptance: a 3-backend fleet must
//! survive losing a profile's owning shard with zero client-visible errors
//! (the follower replica holds the record), and a restarted owner must be
//! repaired back to a converged fleet manifest by one anti-entropy pass.
//! Write-path replication runs once per key however often the key is read,
//! which a stub fleet that logs every request pins exactly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cactus_gateway::{Gateway, GatewayConfig, HashRing, RoutePolicy, Supervisor};
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

/// A keep-alive stub backend that logs `METHOD path` for every request
/// and answers each with a `200`: a profile or record body for a `GET`,
/// `stored` for a `POST`.
struct LoggingStub {
    addr: SocketAddr,
    log: Arc<Mutex<Vec<String>>>,
}

impl LoggingStub {
    fn spawn() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("stub bind");
        let addr = listener.local_addr().expect("stub addr");
        let log = Arc::new(Mutex::new(Vec::new()));
        let accept_log = Arc::clone(&log);
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let log = Arc::clone(&accept_log);
                std::thread::spawn(move || serve_logged(stream, &log));
            }
        });
        Self { addr, log }
    }

    /// How many logged requests equal `line`.
    fn count(&self, line: &str) -> usize {
        self.log
            .lock()
            .expect("log lock")
            .iter()
            .filter(|l| *l == line)
            .count()
    }
}

fn serve_logged(stream: TcpStream, log: &Mutex<Vec<String>>) {
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
        let answer = match method {
            "POST" => "stored\n",
            _ if path.starts_with("/v1/store/record/") => "record bytes\n",
            _ => "profile bytes\n",
        };
        let reply = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{answer}",
            answer.len()
        );
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// Repeat reads of one profile replicate it once: one record read on the
/// winner and one push to the follower, however many times the key is
/// served. A read while the follower is unroutable replicates nothing and
/// leaves the key unclaimed, so the first read after it returns does the
/// copy.
#[test]
fn repeat_reads_replicate_a_profile_exactly_once() {
    let stubs: Vec<LoggingStub> = (0..3).map(|_| LoggingStub::spawn()).collect();
    let addrs: Vec<SocketAddr> = stubs.iter().map(|s| s.addr).collect();
    let config = GatewayConfig {
        workers: 2,
        probe_interval: None,
        cooldown: Duration::from_secs(3600),
        policy: RoutePolicy {
            hedge: false,
            ..RoutePolicy::default()
        },
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(config, addrs.clone()).expect("start gateway");
    let client = Client::new(gateway.addr()).with_timeout(Duration::from_secs(10));

    let path = "/v1/profile/rtx-3080/tiny/GMS";
    let labels: Vec<String> = addrs.iter().map(ToString::to_string).collect();
    // The stubs advertise no device set, so every backend is capable and
    // the replica set is the ring's first two.
    let order = HashRing::new(&labels).candidates("profile/rtx-3080/tiny/GMS");
    let (winner, follower, bystander) = (order[0], order[1], order[2]);
    let record_read = "GET /v1/store/record/rtx-3080/tiny/GMS";
    let push = "POST /v1/store/record/rtx-3080/tiny/GMS";
    let replications = |client: &Client| {
        client
            .metrics()
            .expect("gateway metrics")
            .get("cactus_gateway_store_replications_total")
            .unwrap_or(0.0)
    };

    // The follower is ejected: nothing to copy to, and nothing claimed.
    let health = &gateway.router().health;
    health.report_failure(follower);
    health.report_failure(follower);
    assert!(!health.available(follower), "follower ejected");
    for _ in 0..3 {
        assert_eq!(client.get(path).expect("read").status, 200);
    }
    assert_eq!(stubs[winner].count(record_read), 0);
    assert_eq!(replications(&client), 0.0);

    // Back in rotation: the next read copies the record, later ones don't.
    health.report_success(follower);
    let reads = 8;
    for _ in 0..reads {
        assert_eq!(client.get(path).expect("read").status, 200);
    }
    assert_eq!(stubs[winner].count(&format!("GET {path}")), 3 + reads);
    assert_eq!(stubs[winner].count(record_read), 1, "one source read");
    assert_eq!(stubs[follower].count(push), 1, "one push to the follower");
    for i in [follower, bystander] {
        assert_eq!(stubs[i].count(&format!("GET {path}")), 0);
        assert_eq!(stubs[i].count(record_read), 0);
    }
    assert_eq!(stubs[winner].count(push) + stubs[bystander].count(push), 0);
    assert_eq!(replications(&client), 1.0);

    gateway.join();
}
