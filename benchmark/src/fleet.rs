//! The system under test, booted as threads of this (pinned) process: three
//! `cactus_serve::Server`s and one `cactus_gateway::Gateway` on fixed ports,
//! every config field at its shipped default except `addr` and `store_dir`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::{Add, Sub};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cactus_gateway::server::routing_key;
use cactus_gateway::{Gateway, GatewayConfig, HashRing};
use cactus_serve::{Client, Connection, ServeConfig, Server};

use crate::host::timed;

pub const BACKENDS: usize = 3;
/// Gateway, three backends, and the traced run's stub server.
pub const PORTS: u16 = BACKENDS as u16 + 2;
/// Per-exchange client timeout: far above any op (a cold `small` triple is
/// ~0.2 s), so it only fires when something is wedged.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

fn local(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

#[must_use]
pub fn gateway_addr(base: u16) -> SocketAddr {
    local(base)
}

#[must_use]
pub fn backend_addr(base: u16, i: usize) -> SocketAddr {
    local(base + 1 + i as u16)
}

#[must_use]
pub fn stub_addr(base: u16) -> SocketAddr {
    local(base + 1 + BACKENDS as u16)
}

/// The gateway's placement, recomputed from outside with its own public
/// pieces: which backend the ring names first for a path.
pub struct Placement {
    ring: HashRing,
}

impl Placement {
    #[must_use]
    pub fn new(base: u16) -> Self {
        let labels: Vec<String> = (0..BACKENDS)
            .map(|i| backend_addr(base, i).to_string())
            .collect();
        Self {
            ring: HashRing::new(&labels),
        }
    }

    /// Failover order for `path`, exactly the work the gateway does per
    /// request (`routing_key` + `HashRing::candidates`).
    #[must_use]
    pub fn candidates(&self, path: &str) -> Vec<usize> {
        self.ring.candidates(&routing_key(path))
    }

    #[must_use]
    pub fn owner(&self, path: &str) -> usize {
        self.candidates(path)[0]
    }
}

/// The counters the self-checks and count metrics read, summed over the
/// backends (gateway counters as they are), scraped from `/v1/metricsz`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub store_hits: f64,
    pub simulations: f64,
    pub memo_hits: f64,
    pub memo_misses: f64,
    pub hedges: f64,
    pub hedge_wins: f64,
    pub retries: f64,
    pub replications: f64,
    pub replication_failures: f64,
    pub pool_dials: f64,
    pub pool_reuses: f64,
}

impl Counters {
    /// Share of response-cache lookups that hit.
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    fn zip(self, o: Counters, f: fn(f64, f64) -> f64) -> Counters {
        Counters {
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            store_hits: f(self.store_hits, o.store_hits),
            simulations: f(self.simulations, o.simulations),
            memo_hits: f(self.memo_hits, o.memo_hits),
            memo_misses: f(self.memo_misses, o.memo_misses),
            hedges: f(self.hedges, o.hedges),
            hedge_wins: f(self.hedge_wins, o.hedge_wins),
            retries: f(self.retries, o.retries),
            replications: f(self.replications, o.replications),
            replication_failures: f(self.replication_failures, o.replication_failures),
            pool_dials: f(self.pool_dials, o.pool_dials),
            pool_reuses: f(self.pool_reuses, o.pool_reuses),
        }
    }
}

impl Sub for Counters {
    type Output = Counters;
    fn sub(self, o: Counters) -> Counters {
        self.zip(o, |a, b| a - b)
    }
}

impl Add for Counters {
    type Output = Counters;
    fn add(self, o: Counters) -> Counters {
        self.zip(o, |a, b| a + b)
    }
}

/// `num ÷ den`, 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub struct Fleet {
    base: u16,
    backends: Vec<Server>,
    gateway: Gateway,
    /// Time in the three `Server::start` calls (store open, cache warm).
    pub serve_boot_ns: u64,
    /// Time in `Gateway::start` (ring build, capability discovery).
    pub gateway_boot_ns: u64,
}

impl Fleet {
    /// Boot three backends on `store_dirs` and a gateway over them, and
    /// return once the gateway answers `/v1/healthz` and knows every
    /// backend's devices.
    ///
    /// # Errors
    ///
    /// Bind and store-open failures, or a gateway that never becomes ready.
    pub fn boot(base: u16, store_dirs: &[PathBuf]) -> Result<Self, String> {
        assert_eq!(store_dirs.len(), BACKENDS);
        let (backends, _, serve_boot_ns) = timed(|| {
            store_dirs
                .iter()
                .enumerate()
                .map(|(i, dir)| {
                    Server::start(ServeConfig {
                        addr: backend_addr(base, i).to_string(),
                        store_dir: Some(dir.clone()),
                        ..ServeConfig::default()
                    })
                    .map_err(|e| format!("backend {i}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let backends = backends?;
        let addrs = backends.iter().map(Server::addr).collect();
        let (gateway, _, gateway_boot_ns) = timed(|| {
            Gateway::start(
                GatewayConfig {
                    addr: gateway_addr(base).to_string(),
                    ..GatewayConfig::default()
                },
                addrs,
            )
            .map_err(|e| format!("gateway: {e}"))
        });
        let fleet = Self {
            base,
            backends,
            gateway: gateway?,
            serve_boot_ns,
            gateway_boot_ns,
        };
        fleet.wait_ready()?;
        Ok(fleet)
    }

    fn wait_ready(&self) -> Result<(), String> {
        let client = Client::new(self.gateway.addr()).with_timeout(CLIENT_TIMEOUT);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let healthy = client.healthz().unwrap_or(false);
            // The gateway's `/v1/devices` names each backend's observed
            // device set, or `unknown` while discovery has not reached it.
            let known = healthy
                && client.get("/v1/devices").is_ok_and(|r| {
                    r.status == 200
                        && !r
                            .body
                            .lines()
                            .any(|l| l.starts_with("# backend") && l.ends_with("unknown"))
                });
            if known {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("gateway did not learn every backend's devices within 5 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[must_use]
    pub fn base(&self) -> u16 {
        self.base
    }

    /// A keep-alive connection to the gateway: the one closed-loop client.
    #[must_use]
    pub fn gateway_conn(&self) -> Connection {
        Connection::new(self.gateway.addr(), CLIENT_TIMEOUT)
    }

    /// One keep-alive connection per backend, for passes that send each op
    /// straight to its ring owner.
    #[must_use]
    pub fn backend_conns(&self) -> Vec<Connection> {
        self.backends
            .iter()
            .map(|b| Connection::new(b.addr(), CLIENT_TIMEOUT))
            .collect()
    }

    /// Scrape every tier's `/v1/metricsz`.
    ///
    /// # Errors
    ///
    /// A tier that does not answer or whose page does not parse.
    pub fn counters(&self) -> Result<Counters, String> {
        let mut c = Counters::default();
        for b in &self.backends {
            let page = Client::new(b.addr())
                .with_timeout(CLIENT_TIMEOUT)
                .metrics()
                .map_err(|e| format!("backend metricsz: {e}"))?;
            let get = |name: &str| page.get(name).unwrap_or(0.0);
            c.cache_hits += get("cactus_serve_cache_hits_total");
            c.cache_misses += get("cactus_serve_cache_misses_total");
            c.store_hits += get("cactus_serve_store_hits_total");
            c.simulations += get("cactus_serve_simulations_total");
            c.memo_hits += get("cactus_serve_engine_memo_hits_total");
            c.memo_misses += get("cactus_serve_engine_memo_misses_total");
        }
        let page = Client::new(self.gateway.addr())
            .with_timeout(CLIENT_TIMEOUT)
            .metrics()
            .map_err(|e| format!("gateway metricsz: {e}"))?;
        let get = |name: &str| page.get(name).unwrap_or(0.0);
        c.hedges = get("cactus_gateway_hedges_total");
        c.hedge_wins = get("cactus_gateway_hedge_wins_total");
        c.retries = get("cactus_gateway_retries_total");
        c.replications = get("cactus_gateway_store_replications_total");
        c.replication_failures = get("cactus_gateway_store_replication_failures_total");
        c.pool_dials = get("cactus_gateway_pool_dials_total");
        c.pool_reuses = get("cactus_gateway_pool_reuses_total");
        Ok(c)
    }

    /// The `missing <n>` line of the gateway's fleet store manifest: replica
    /// slots that still lack their record.
    ///
    /// # Errors
    ///
    /// A manifest that cannot be fetched or has no `missing` line.
    pub fn missing(&self) -> Result<u64, String> {
        let reply = Client::new(self.gateway.addr())
            .with_timeout(CLIENT_TIMEOUT)
            .get("/v1/store/manifest")
            .map_err(|e| format!("gateway manifest: {e}"))?;
        reply
            .body
            .lines()
            .find_map(|l| l.strip_prefix("missing "))
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| "gateway manifest has no `missing` line".to_owned())
    }

    /// Spans the tiers recorded for one trace id, as `(name, dur_us)`, pulled
    /// from each tier's `/v1/tracez?trace=`.
    #[must_use]
    pub fn program_spans(&self, trace: cactus_obs::TraceId) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let tiers =
            std::iter::once(self.gateway.addr()).chain(self.backends.iter().map(Server::addr));
        for addr in tiers {
            let Ok(reply) = Client::new(addr)
                .with_timeout(CLIENT_TIMEOUT)
                .get(&format!("/v1/tracez?trace={trace}"))
            else {
                continue;
            };
            for line in reply.body.lines() {
                if let (Some(name), Some(dur)) =
                    (json_field(line, "name"), json_field(line, "dur_us"))
                {
                    if let Ok(dur) = dur.parse() {
                        out.push((name.to_owned(), dur));
                    }
                }
            }
        }
        out
    }

    /// Stop the gateway, then the backends, and wait for every thread. Every
    /// client connection must be dropped first: a worker only notices
    /// shutdown between requests, so an idle keep-alive connection would
    /// hold it for the full read timeout.
    pub fn shutdown(self) {
        self.gateway.join();
        for b in self.backends {
            b.join();
        }
    }
}

/// The raw text of `"key":value` in one line of the tiers' span JSON (which
/// this repo's own renderer writes without spaces or nesting before `tags`).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split_once(&format!("\"{key}\":"))?.1;
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// A bare loopback peer for `harness.client_us`: answers `GET /stub/<n>`
/// with an `n`-byte body under the same response head `cactus-serve` writes,
/// doing nothing else — what is left of a round trip when the server side
/// costs nothing.
pub struct Stub {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Stub {
    /// # Errors
    ///
    /// The bind error.
    pub fn start(addr: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Blocking accept: an idle stub must not add wake-ups to the
                // pinned CPU. `stop` is noticed through a wake-up connection.
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let _ = serve_stub(stream);
                    }
                }
            })
        };
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    #[must_use]
    pub fn conn(&self) -> Connection {
        Connection::new(self.addr, CLIENT_TIMEOUT)
    }

    /// Stop and join. Client connections must be dropped first.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_stub(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let filler = vec![b'x'; 64 * 1024];
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        buf.clear();
        while !buf.ends_with(b"\r\n\r\n") {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Ok(());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let len = std::str::from_utf8(&buf)
            .ok()
            .and_then(|head| head.strip_prefix("GET /stub/"))
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(0)
            .min(filler.len());
        let mut wire = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: text/plain; charset=utf-8\r\ncontent-length: {len}\r\n\
             connection: keep-alive\r\nx-cactus-trace: 0123456789abcdef\r\n\r\n"
        )
        .into_bytes();
        wire.extend_from_slice(&filler[..len]);
        stream.write_all(&wire)?;
    }
}
