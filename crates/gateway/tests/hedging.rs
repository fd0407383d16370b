//! Hedging, end to end: a gateway with `hedge: true` in front of two raw
//! keep-alive stub backends whose behaviour the test switches per phase.
//!
//! Every reply body is `<stub> <path> <n>` — which stub answered, the path
//! it was asked for, and that stub's request count — so a test can tell a
//! backend's own fresh reply from its neighbour's and from a stale one left
//! half-read on a pooled connection. Interleavings are forced through the
//! stubs (a held reply is released by the test, never by a timer); the only
//! clocks are the hedge floor the gateway is configured with and the slow
//! body's gap. The stubs' bodies are never profiles, which the compare
//! test relies on.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cactus_gateway::metrics::GatewayMetrics;
use cactus_gateway::server::routing_key;
use cactus_gateway::{Gateway, GatewayConfig, HashRing, HealthState};
use cactus_obs::TraceId;
use cactus_serve::http::MAX_HEAD_BYTES;
use cactus_serve::Connection;

/// How a stub treats the data requests it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Answer at once.
    Fast,
    /// Read the request, then wait for the next mode and act on that.
    Hold,
    /// Close the socket without answering.
    Drop,
    /// Answer `503` at once.
    Busy,
    /// Answer keep-alive, then close the socket anyway (an idle reap).
    CloseAfterReply,
    /// Send the head and half the body, the rest after this gap.
    SlowBody(Duration),
    /// Declare a `content-length` of `usize::MAX`.
    HugeLength,
    /// Send a head one padding header past `MAX_HEAD_BYTES`.
    HugeHead,
}

struct StubState {
    name: &'static str,
    mode: Mutex<Mode>,
    changed: Condvar,
    /// Data requests read (everything but `/v1/healthz`).
    hits: AtomicU64,
    /// Connections accepted.
    conns: AtomicU64,
    /// Connections closed by `CloseAfterReply`.
    reaped: AtomicU64,
}

struct Stub {
    addr: SocketAddr,
    state: Arc<StubState>,
}

impl Stub {
    fn spawn(name: &'static str) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("stub bind");
        let addr = listener.local_addr().expect("stub addr");
        let state = Arc::new(StubState {
            name,
            mode: Mutex::new(Mode::Fast),
            changed: Condvar::new(),
            hits: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
        });
        let accept_state = Arc::clone(&state);
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                accept_state.conns.fetch_add(1, Ordering::SeqCst);
                let state = Arc::clone(&accept_state);
                std::thread::spawn(move || serve(stream, &state));
            }
        });
        Self { addr, state }
    }

    fn set(&self, mode: Mode) {
        *self.state.mode.lock().expect("mode") = mode;
        self.state.changed.notify_all();
    }

    fn hits(&self) -> u64 {
        self.state.hits.load(Ordering::SeqCst)
    }

    fn conns(&self) -> u64 {
        self.state.conns.load(Ordering::SeqCst)
    }

    /// The body this stub gives its `n`-th data request.
    fn body(&self, path: &str, n: u64) -> String {
        body(self.state.name, path, n)
    }
}

fn body(stub: &str, path: &str, n: u64) -> String {
    format!("{stub} {path} {n}\n")
}

/// Read one request head, returning its path; `None` once the peer closed.
fn read_path(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut buf = [0u8; 2048];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf) {
            Ok(n) if n > 0 => head.extend_from_slice(&buf[..n]),
            _ => return None,
        }
    }
    let head = String::from_utf8_lossy(&head);
    head.split_ascii_whitespace().nth(1).map(str::to_owned)
}

fn head(status: &str, len: usize) -> String {
    format!("HTTP/1.1 {status}\r\ncontent-type: text/plain\r\ncontent-length: {len}\r\nconnection: keep-alive\r\n\r\n")
}

/// One stub connection: keep-alive, one request at a time.
fn serve(mut stream: TcpStream, state: &StubState) {
    while let Some(path) = read_path(&mut stream) {
        if path == "/v1/healthz" {
            // The gateway's start-up capability probe; not a data request.
            let _ = stream.write_all(format!("{}ok\n", head("200 OK", 3)).as_bytes());
            continue;
        }
        let n = state.hits.fetch_add(1, Ordering::SeqCst) + 1;
        let mode = {
            let guard = state.mode.lock().expect("mode");
            *state
                .changed
                .wait_while(guard, |m| *m == Mode::Hold)
                .expect("mode")
        };
        let body = body(state.name, &path, n);
        // Single write_all per reply, so Nagle + delayed-ACK cannot stall it.
        let ok = format!("{}{body}", head("200 OK", body.len()));
        match mode {
            Mode::Hold => unreachable!("wait_while returns only on another mode"),
            Mode::Fast => {
                let _ = stream.write_all(ok.as_bytes());
            }
            Mode::Drop => return,
            Mode::Busy => {
                // The status argument carries one extra header line.
                let wire = format!(
                    "{}busy\n",
                    head("503 Service Unavailable\r\nretry-after: 2", 5)
                );
                let _ = stream.write_all(wire.as_bytes());
            }
            Mode::CloseAfterReply => {
                let _ = stream.write_all(ok.as_bytes());
                drop(stream);
                state.reaped.fetch_add(1, Ordering::SeqCst);
                return;
            }
            Mode::SlowBody(gap) => {
                let (first, rest) = ok.split_at(ok.len() - body.len() / 2);
                let _ = stream.write_all(first.as_bytes());
                std::thread::sleep(gap);
                let _ = stream.write_all(rest.as_bytes());
            }
            Mode::HugeLength => {
                let _ =
                    stream.write_all(format!("{}{body}", head("200 OK", usize::MAX)).as_bytes());
            }
            Mode::HugeHead => {
                let padded = format!("200 OK\r\nx-padding: {}", "p".repeat(MAX_HEAD_BYTES));
                let _ = stream.write_all(format!("{}{body}", head(&padded, body.len())).as_bytes());
            }
        }
    }
}

/// Poll `done` until it holds; the 10 s deadline only bounds a failing run.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Two stubs behind a hedging gateway, and a path the ring routes to the
/// first of them.
struct Fleet {
    primary: Stub,
    neighbour: Stub,
    gateway: Gateway,
    client: Connection,
    path: String,
}

/// Ring index of the primary stub (the fleet lists it first).
const PRIMARY: usize = 0;

/// Stall tests hedge after 5 ms; tests that assert *no* hedge get a floor no
/// scheduler hiccup on a shared runner reaches.
const STALL_FLOOR: Duration = Duration::from_millis(5);
const QUIET_FLOOR: Duration = Duration::from_millis(500);

impl Fleet {
    fn start(hedge_floor: Duration) -> Self {
        let primary = Stub::spawn("primary");
        let neighbour = Stub::spawn("neighbour");
        let addrs = vec![primary.addr, neighbour.addr];
        let labels: Vec<String> = addrs.iter().map(ToString::to_string).collect();
        let ring = HashRing::new(&labels);
        let path = (0..10_000)
            .map(|i| format!("/hedging/key-{i}"))
            .find(|path| ring.primary(&routing_key(path)) == PRIMARY)
            .expect("some key routes to the first stub");
        let gateway = Gateway::start(
            GatewayConfig {
                workers: 2,
                queue: 16,
                // Passive health only: probes would add requests and
                // connections the counts below do not expect.
                probe_interval: None,
                hedge: true,
                hedge_floor,
                ..GatewayConfig::default()
            },
            addrs,
        )
        .expect("start gateway");
        let client = Connection::new(gateway.addr(), Duration::from_secs(10));
        Self {
            primary,
            neighbour,
            gateway,
            client,
            path,
        }
    }

    /// One `GET` of the routed path through the gateway; the body of the 200.
    fn get(&mut self) -> String {
        let reply = self.client.get(&self.path).expect("gateway reply");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        reply.body
    }

    fn counter(&self, pick: impl Fn(&GatewayMetrics) -> u64) -> u64 {
        pick(&self.gateway.router().metrics)
    }

    fn hedges(&self) -> (u64, u64) {
        (
            self.counter(|m| m.hedges.get()),
            self.counter(|m| m.hedge_wins.get()),
        )
    }

    fn primary_failures(&self) -> u64 {
        self.counter(|m| m.backends[PRIMARY].failures.get())
    }

    /// The `hedged` tag of the one `proxy.attempt` span filed under `trace`.
    fn hedged_tag(&self, trace: TraceId) -> String {
        let spans = self.gateway.tracer().spans_for(trace);
        let attempts: Vec<_> = spans.iter().filter(|s| s.name == "proxy.attempt").collect();
        assert_eq!(attempts.len(), 1, "one attempt expected in {spans:?}");
        let tag = attempts[0].tags.iter().find(|(k, _)| *k == "hedged");
        tag.expect("hedged tag").1.to_string()
    }

    fn stop(self) {
        drop(self.client);
        self.gateway.join();
    }
}

#[test]
fn a_fast_primary_answers_inline_over_pooled_connections() {
    let mut fleet = Fleet::start(QUIET_FLOOR);
    assert_eq!(fleet.get(), fleet.primary.body(&fleet.path, 1));
    let pool = Arc::clone(&fleet.gateway.router().pool);
    let (dials, reuses, conns) = (pool.dials(), pool.reuses(), fleet.primary.conns());
    for n in 2..=20 {
        assert_eq!(fleet.get(), fleet.primary.body(&fleet.path, n));
    }
    assert_eq!(fleet.hedges(), (0, 0));
    assert_eq!(
        pool.dials(),
        dials,
        "every later forward found a pooled connection"
    );
    assert_eq!(pool.reuses(), reuses + 19);
    assert_eq!(fleet.primary.conns(), conns, "and that connection was live");
    assert_eq!(fleet.neighbour.hits(), 0);

    // A second candidate existing is not a hedge: the span says so.
    let trace = TraceId::parse("00000000000000a1").expect("trace id");
    let path = fleet.path.clone();
    let reply = fleet.client.get_traced(&path, Some(trace)).expect("reply");
    assert_eq!(reply.status, 200);
    assert_eq!(fleet.hedged_tag(trace), "false");
    fleet.stop();
}

#[test]
fn a_stalled_primary_is_hedged_and_its_connection_comes_back_drained() {
    let mut fleet = Fleet::start(STALL_FLOOR);
    assert_eq!(fleet.get(), fleet.primary.body(&fleet.path, 1));
    let router = Arc::clone(fleet.gateway.router());
    let window = &router.metrics.backends[PRIMARY].latency;
    let samples = window.len();

    fleet.primary.set(Mode::Hold);
    let trace = TraceId::parse("00000000000000b2").expect("trace id");
    let path = fleet.path.clone();
    let reply = fleet.client.get_traced(&path, Some(trace)).expect("reply");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, fleet.neighbour.body(&fleet.path, 1));
    assert_eq!(fleet.hedges(), (1, 1));
    assert_eq!(fleet.hedged_tag(trace), "true");
    wait_until("the primary to read the request it is sitting on", || {
        fleet.primary.hits() == 2
    });

    // The stall ends: the finisher reads reply 2 to its end, feeds the
    // window, and only then does the connection go back to the pool.
    fleet.primary.set(Mode::Fast);
    wait_until("the loser's sample", || window.len() == samples + 1);
    let conns = fleet.primary.conns();
    assert_eq!(
        fleet.get(),
        fleet.primary.body(&fleet.path, 3),
        "the primary's own fresh reply, not the loser's left half-read"
    );
    assert_eq!(fleet.primary.conns(), conns, "over the drained connection");
    assert_eq!(fleet.hedges(), (1, 1));
    assert_eq!(fleet.primary_failures(), 0);
    fleet.stop();
}

#[test]
fn a_primary_that_dies_after_the_hedge_launched_costs_one_failure_and_no_502() {
    let mut fleet = Fleet::start(STALL_FLOOR);
    assert_eq!(fleet.get(), fleet.primary.body(&fleet.path, 1));
    fleet.primary.set(Mode::Hold);
    fleet.neighbour.set(Mode::Hold);
    std::thread::scope(|scope| {
        let (client, path) = (&mut fleet.client, fleet.path.as_str());
        let request = scope.spawn(move || client.get(path).expect("gateway reply"));
        wait_until("the hedge to reach the neighbour", || {
            fleet.neighbour.hits() == 1
        });
        // Dropped once held: the request may have been read, so the
        // failure surfaces without a redial.
        fleet.primary.set(Mode::Drop);
        let metrics = &fleet.gateway.router().metrics;
        wait_until("the primary's failure", || {
            metrics.backends[PRIMARY].failures.get() == 1
        });
        fleet.neighbour.set(Mode::Fast);
        let reply = request.join().expect("client thread");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        assert_eq!(reply.body, fleet.neighbour.body(path, 1));
    });
    assert_eq!(fleet.hedges(), (1, 1));
    assert_eq!(fleet.primary_failures(), 1);
    assert_eq!(fleet.primary.hits(), 2, "warm-up, held");
    assert_eq!(fleet.counter(|m| m.retries.get()), 0);
    assert_eq!(fleet.counter(|m| m.responses_5xx.get()), 0);
    fleet.stop();
}

#[test]
fn an_immediate_503_is_retried_not_hedged_and_not_penalised() {
    let mut fleet = Fleet::start(QUIET_FLOOR);
    fleet.primary.set(Mode::Busy);
    assert_eq!(fleet.get(), fleet.neighbour.body(&fleet.path, 1));
    assert_eq!(fleet.hedges(), (0, 0));
    assert_eq!(fleet.counter(|m| m.retries.get()), 1);
    assert_eq!(fleet.primary_failures(), 0);
    let health = &fleet.gateway.router().health;
    assert_eq!(health.state(PRIMARY), HealthState::Healthy);
    assert_eq!(health.ejections(), 0);
    fleet.stop();
}

#[test]
fn a_saturated_fleet_forwards_its_503_with_the_backends_retry_after() {
    let mut fleet = Fleet::start(QUIET_FLOOR);
    fleet.primary.set(Mode::Busy);
    fleet.neighbour.set(Mode::Busy);
    let reply = fleet.client.get(&fleet.path).expect("gateway reply");
    assert_eq!((reply.status, reply.body.as_str()), (503, "busy\n"));
    assert_eq!(
        reply.retry_after_s(),
        Some(2),
        "headers: {:?}",
        reply.headers()
    );
    // Backpressure is the fleet's answer, not a fault: all three attempts
    // ran, none hedged, nobody was penalised.
    assert_eq!(fleet.hedges(), (0, 0));
    assert_eq!(fleet.counter(|m| m.retries.get()), 2);
    assert_eq!(fleet.primary_failures(), 0);
    let health = &fleet.gateway.router().health;
    assert_eq!(health.state(PRIMARY), HealthState::Healthy);
    assert_eq!(health.ejections(), 0);
    fleet.stop();
}

#[test]
fn a_reaped_pooled_connection_is_redialed_once_without_failure_or_hedge() {
    let mut fleet = Fleet::start(QUIET_FLOOR);
    fleet.primary.set(Mode::CloseAfterReply);
    assert_eq!(fleet.get(), fleet.primary.body(&fleet.path, 1));
    wait_until("the stub to close the pooled connection", || {
        fleet.primary.state.reaped.load(Ordering::SeqCst) == 1
    });
    fleet.primary.set(Mode::Fast);
    let (conns, dials) = (fleet.primary.conns(), fleet.gateway.router().pool.dials());
    assert_eq!(fleet.get(), fleet.primary.body(&fleet.path, 2));
    assert_eq!(fleet.primary.conns(), conns + 1, "redialed exactly once");
    assert_eq!(
        fleet.gateway.router().pool.dials(),
        dials,
        "on the connection the pool handed out, not a second checkout"
    );
    assert_eq!(fleet.primary_failures(), 0);
    assert_eq!(fleet.hedges(), (0, 0));
    assert_eq!(fleet.counter(|m| m.retries.get()), 0);
    fleet.stop();
}

#[test]
fn a_slow_body_after_a_prompt_first_byte_is_read_to_the_end() {
    // The gap outlasts the hedge threshold several times over: were the
    // stall timeout still on the socket, the body read would fail.
    let mut fleet = Fleet::start(Duration::from_millis(40));
    fleet
        .primary
        .set(Mode::SlowBody(Duration::from_millis(400)));
    assert_eq!(fleet.get(), fleet.primary.body(&fleet.path, 1));
    assert_eq!(fleet.hedges(), (0, 0));
    assert_eq!(fleet.primary_failures(), 0);
    assert_eq!(fleet.counter(|m| m.retries.get()), 0);
    assert_eq!(fleet.neighbour.hits(), 0);
    fleet.stop();
}

#[test]
fn a_reply_past_the_message_bounds_fails_over_and_charges_the_primary() {
    for mode in [Mode::HugeLength, Mode::HugeHead] {
        let mut fleet = Fleet::start(QUIET_FLOOR);
        fleet.primary.set(mode);
        let conns = fleet.primary.conns();
        assert_eq!(
            fleet.get(),
            fleet.neighbour.body(&fleet.path, 1),
            "{mode:?}: the healthy backend's 200"
        );
        assert_eq!(
            fleet.primary.hits(),
            1,
            "{mode:?}: the forward was sent once"
        );
        assert_eq!(
            fleet.primary.conns(),
            conns,
            "{mode:?}: over the pooled connection, not a redial"
        );
        assert_eq!(fleet.primary_failures(), 1, "{mode:?}");
        assert_eq!(fleet.counter(|m| m.retries.get()), 1, "{mode:?}");
        assert_eq!(
            fleet.counter(|m| m.responses_5xx.get()),
            0,
            "{mode:?}: no handler panicked into a 500"
        );
        fleet.stop();
    }
}

#[test]
fn a_hedged_primary_whose_late_reply_is_past_the_bounds_is_charged_a_failure() {
    let mut fleet = Fleet::start(STALL_FLOOR);
    fleet.primary.set(Mode::Hold);
    assert_eq!(fleet.get(), fleet.neighbour.body(&fleet.path, 1));
    assert_eq!(fleet.hedges(), (1, 1));
    // The finisher reads the held reply only now, and must book it.
    fleet.primary.set(Mode::HugeLength);
    let metrics = &fleet.gateway.router().metrics;
    wait_until("the primary's failure", || {
        metrics.backends[PRIMARY].failures.get() == 1
    });
    assert_eq!(fleet.counter(|m| m.responses_5xx.get()), 0);
    fleet.stop();
}

/// A compare leg is a profile fetch, and a stub's `200` body is no profile:
/// the comparison answers `502` naming the first such leg's device.
#[test]
fn a_compare_leg_whose_body_is_not_a_profile_answers_502_naming_its_device() {
    let mut fleet = Fleet::start(QUIET_FLOOR);
    let reply = fleet
        .client
        .get("/v1/compare/tiny/GMS?devices=a100,rtx-3080")
        .expect("gateway reply");
    assert_eq!(reply.status, 502, "body: {}", reply.body);
    assert!(
        reply.body.contains("unparseable profile for device")
            && reply.body.contains("a100")
            && !reply.body.contains("rtx-3080"),
        "body: {}",
        reply.body
    );
    assert_eq!(fleet.primary.hits() + fleet.neighbour.hits(), 2);
    fleet.stop();
}

/// A backend that answers `/v1/healthz` but never `/v1/store/manifest`: the
/// repair pass's manifest read gives up at its first-byte bound, so the
/// health thread never sits out the 60 s backend timeout and `join` returns
/// within the bound plus one probe interval.
#[test]
fn a_backend_that_never_answers_its_manifest_does_not_hold_join() {
    let mute = Stub::spawn("mute");
    mute.set(Mode::Hold);
    let gateway = Gateway::start(
        GatewayConfig {
            workers: 2,
            queue: 16,
            probe_interval: Some(Duration::from_millis(100)),
            ..GatewayConfig::default()
        },
        vec![mute.addr],
    )
    .expect("start gateway");
    wait_until("the repair pass's manifest read", || mute.hits() >= 1);
    let started = Instant::now();
    gateway.join();
    let waited = started.elapsed();
    mute.set(Mode::Fast);
    assert!(waited < Duration::from_secs(2), "join waited {waited:?}");
}
