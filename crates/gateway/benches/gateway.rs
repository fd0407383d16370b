//! The hedging contract: does hedging actually cut tail latency?
//!
//! The fixture is a two-backend fleet of raw keep-alive stub servers: the
//! routing primary for the benched key is **bimodal** (fast, but every 10th
//! request stalls ~25 ms — a shard with an occasional slow path), its ring
//! neighbour is steadily fast. Two gateways front the same pair, one with
//! hedging enabled (2 ms floor) and one without; the bench sweeps the same
//! key through both, prints p50/p99 plus hedge launches and wins, and
//! asserts hedged p99 < unhedged p99 — two sweeps of one process, so there
//! is no baseline. (What a proxied `GET` costs when nothing stalls is
//! `gateway.hop_us` in `BENCHMARK.json`.)
//!
//! Expected shape: unhedged p99 ≈ the stall (~25 ms) because 1-in-10
//! requests eats it in full; hedged p99 ≈ hedge threshold + the fast
//! neighbour's response time (a few ms). Mean latency barely moves — the
//! win is purely in the tail, which is the point of hedging.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cactus_gateway::server::routing_key;
use cactus_gateway::{Gateway, GatewayConfig, HashRing, RoutePolicy};
use cactus_serve::metrics::quantile;
use cactus_serve::Connection;

/// A raw stub backend answering every `GET` with `200 stub`, optionally
/// stalling every `slow_every`-th request.
struct Stub {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Stub {
    fn spawn(slow_every: Option<u64>, stall: Duration) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("stub bind");
        let addr = listener.local_addr().expect("stub addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let hits = Arc::new(AtomicU64::new(0));
            std::thread::spawn(move || {
                // Blocking accept: a sleep-poll here would show up in the
                // swept latencies.
                for stream in listener.incoming().flatten() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let hits = Arc::clone(&hits);
                    // One thread per keep-alive connection, so a stalled
                    // exchange never serializes the ones beside it.
                    std::thread::spawn(move || serve_stub(stream, &hits, slow_every, stall));
                }
            })
        };
        Self {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }

    fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Serve one connection until the peer closes it: keep-alive, one request
/// at a time.
fn serve_stub(mut stream: TcpStream, hits: &AtomicU64, slow_every: Option<u64>, stall: Duration) {
    let _ = stream.set_nodelay(true);
    let body = "stub\n";
    // Single write_all so Nagle + delayed-ACK can't stall the reply.
    let wire = format!(
        "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{}",
        body.len(),
        body
    );
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(n) if n > 0 => head.extend_from_slice(&buf[..n]),
            _ => return,
        }
        if !head.windows(4).any(|w| w == b"\r\n\r\n") {
            continue;
        }
        head.clear();
        let n = hits.fetch_add(1, Ordering::Relaxed);
        if slow_every.is_some_and(|every| n.is_multiple_of(every)) {
            std::thread::sleep(stall);
        }
        if stream.write_all(wire.as_bytes()).is_err() {
            return;
        }
    }
}

/// Find a request path whose consistent-hash primary is `backend`, using
/// the same ring the gateway builds.
fn path_routed_to(addrs: &[SocketAddr], backend: usize) -> String {
    let labels: Vec<String> = addrs.iter().map(ToString::to_string).collect();
    let ring = HashRing::new(&labels);
    (0..10_000)
        .map(|i| format!("/bench/key-{i}"))
        .find(|path| ring.primary(&routing_key(path)) == backend)
        .expect("some key routes to the backend")
}

fn gateway_config(policy: RoutePolicy) -> GatewayConfig {
    GatewayConfig {
        workers: 4,
        queue: 64,
        // Passive health only: probes would add jitter to the measurement.
        probe_interval: None,
        backend_timeout: Duration::from_secs(5),
        policy,
        ..GatewayConfig::default()
    }
}

fn hedge_policy(hedge: bool) -> RoutePolicy {
    RoutePolicy {
        hedge,
        hedge_floor: Duration::from_millis(2),
        ..RoutePolicy::default()
    }
}

const STALL: Duration = Duration::from_millis(25);
const SLOW_EVERY: u64 = 10;
const SWEEP: usize = 300;

fn sweep(conn: &mut Connection, path: &str, n: usize) -> Vec<u64> {
    let mut latencies = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let reply = conn.get(path).expect("gateway reply");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        latencies.push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    latencies.sort_unstable();
    latencies
}

fn main() {
    let bimodal = Stub::spawn(Some(SLOW_EVERY), STALL);
    let fast = Stub::spawn(None, STALL);
    let addrs = vec![bimodal.addr, fast.addr];
    let path = path_routed_to(&addrs, 0);

    let start = |policy| Gateway::start(gateway_config(policy), addrs.clone());
    let hedged = start(hedge_policy(true)).expect("hedged gateway");
    let unhedged = start(hedge_policy(false)).expect("unhedged gateway");

    let timeout = Duration::from_secs(10);
    let mut hedged_conn = Connection::new(hedged.addr(), timeout);
    let mut unhedged_conn = Connection::new(unhedged.addr(), timeout);

    // Warm the primary's latency window so the hedge threshold reflects its
    // typical (fast) behaviour rather than the floor default alone.
    let _ = sweep(&mut hedged_conn, &path, 50);
    let _ = sweep(&mut unhedged_conn, &path, 50);

    let hedged_lat = sweep(&mut hedged_conn, &path, SWEEP);
    let unhedged_lat = sweep(&mut unhedged_conn, &path, SWEEP);
    let hedges = hedged.router().metrics.hedges.get();
    let hedge_wins = hedged.router().metrics.hedge_wins.get();

    println!("--- hedging tail-latency comparison ({SWEEP} requests, 1-in-{SLOW_EVERY} stalls {STALL:?}) ---");
    println!(
        "unhedged: p50 {:>6} us  p99 {:>6} us",
        quantile(&unhedged_lat, 0.50),
        quantile(&unhedged_lat, 0.99),
    );
    println!(
        "hedged:   p50 {:>6} us  p99 {:>6} us  ({hedges} hedges, {hedge_wins} wins)",
        quantile(&hedged_lat, 0.50),
        quantile(&hedged_lat, 0.99),
    );
    assert!(
        quantile(&hedged_lat, 0.99) < quantile(&unhedged_lat, 0.99),
        "hedging should cut p99: hedged {} us vs unhedged {} us",
        quantile(&hedged_lat, 0.99),
        quantile(&unhedged_lat, 0.99),
    );

    drop(hedged_conn);
    drop(unhedged_conn);
    hedged.join();
    unhedged.join();
    bimodal.stop();
    fast.stop();
}
