//! The daemon skeleton both tiers run on: listener, bounded queue, worker
//! pool, backpressure, keep-alive connection loop, and graceful drain.
//!
//! ```text
//! accept thread ──try_send──► bounded queue ──recv──► worker pool (N threads)
//!      │                        (cap = Q)                 │
//!      └── queue full: write `503 Retry-After`            └── Handler::respond
//! ```
//!
//! `cactus-serve` and `cactus-gateway` are two [`Handler`]s on this one
//! loop; what a request *does* (LRU → store → simulation, or a proxied
//! exchange) and which counters tick are the handler's, everything about
//! the socket is here.
//!
//! The accept loop never blocks on a slow client: a connection either
//! enqueues or is answered `503` immediately, so saturation degrades into
//! fast, explicit pushback instead of unbounded queueing. Connections are
//! keep-alive by default: a worker serves sequential requests from one
//! stream until the client asks `Connection: close`, the idle read timeout
//! fires, [`KEEP_ALIVE_MAX`] requests have been served, or shutdown begins
//! (the last response then advertises `close`). Shutdown is graceful by
//! construction — the accept thread exits and drops the queue sender, each
//! worker drains what was already queued, finishes its in-flight
//! connection, and exits on the closed channel; [`Daemon::join`] returns
//! once every response has been written.

use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cactus_obs::lock::{rank, RankedMutex};
use cactus_obs::TraceId;

use crate::http::{self, HttpError, Request, Response};
use crate::net;

/// How long the accept loop sleeps between polls when idle. Accepted
/// connections are processed back to back; this only bounds the latency of
/// the first request after an idle period.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Requests served over one keep-alive connection before the daemon forces
/// a close, bounding how long a single client can pin a worker.
pub const KEEP_ALIVE_MAX: usize = 256;

/// What the loop tells its handler's metrics hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A connection came off the listener and is about to be offered to
    /// the queue; exactly one of `Dequeued` or `Rejected` follows.
    Accepted,
    /// The queue was full: the connection was answered `503` by the accept
    /// thread and closed.
    Rejected,
    /// A worker took the connection off the queue.
    Dequeued,
    /// A request head was read (well-formed or not); `reused` when it is
    /// not the first on its connection. Fires before the handler runs.
    Request { reused: bool },
    /// The reply to that request was written (or the write failed).
    Responded {
        status: u16,
        /// From the request being read to its reply being written.
        elapsed_us: u64,
    },
}

/// The per-tier half of a daemon. Monomorphised into the loop: no `dyn` on
/// the request path.
pub trait Handler: Send + Sync + 'static {
    /// Answer one well-formed request. `trace` is the id the client sent in
    /// `x-cactus-trace`, or one minted for it; the loop echoes it on the
    /// reply, the handler roots its span tree under it. A panic in here is
    /// caught by the loop and answered `500`.
    fn respond(&self, request: &Request, trace: TraceId) -> Response;

    /// Metrics hook: called inline on the accept and worker threads.
    fn observe(&self, event: Event);
}

/// Sizing of one daemon (the fields `ServeConfig` and `GatewayConfig`
/// share, minus the address [`bind`] took).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Worker threads (at least one is spawned).
    pub workers: usize,
    /// Accepted connections that may wait for a worker before the daemon
    /// starts answering `503`.
    pub queue: usize,
    /// Per-connection read timeout; doubles as the keep-alive idle timeout.
    pub read_timeout: Duration,
    /// `Retry-After` seconds advertised on that `503`.
    pub retry_after_s: u32,
}

/// A bound listener that is not yet served, so a tier can fail on a taken
/// port before it builds the state its handler needs.
#[derive(Debug)]
pub struct Bound {
    listener: TcpListener,
    addr: SocketAddr,
}

/// Bind `addr` (port 0 picks an ephemeral port).
///
/// # Errors
///
/// Propagates resolution and bind failures.
pub fn bind(addr: &str) -> io::Result<Bound> {
    // SO_REUSEADDR so a supervised restart can rebind its pinned port
    // immediately (lingering TIME_WAIT sockets would otherwise block it).
    let listener = net::bind_reusable(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    Ok(Bound { listener, addr })
}

impl Bound {
    /// Spawn the worker pool and the accept thread over `handler`.
    pub fn serve<H: Handler>(self, limits: Limits, handler: H) -> Daemon<H> {
        let Bound { listener, addr } = self;
        let handler = Arc::new(handler);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(limits.queue.max(1));
        let rx = Arc::new(RankedMutex::new(
            rank::WORKER_QUEUE,
            "daemon.worker_queue",
            rx,
        ));

        let workers = (0..limits.workers.max(1))
            .map(|_| {
                let (handler, rx, shutdown) =
                    (Arc::clone(&handler), Arc::clone(&rx), Arc::clone(&shutdown));
                std::thread::spawn(move || {
                    worker_loop(&*handler, &rx, limits.read_timeout, &shutdown);
                })
            })
            .collect();
        let accept = {
            let (handler, shutdown) = (Arc::clone(&handler), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                accept_loop(&*handler, &listener, &tx, limits.retry_after_s, &shutdown);
            })
        };
        Daemon {
            addr,
            shutdown,
            accept,
            workers,
            handler,
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Daemon::shutdown`] then [`Daemon::join`].
pub struct Daemon<H> {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    handler: Arc<H>,
}

impl<H> Daemon<H> {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handler every worker shares.
    #[must_use]
    pub fn handler(&self) -> &Arc<H> {
        &self.handler
    }

    /// The flag [`Daemon::shutdown`] raises, for a tier's background
    /// thread to stop on.
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Begin graceful shutdown: stop accepting, let workers drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Shut down (if not already requested) and wait until every queued and
    /// in-flight request has been answered and all threads exited.
    pub fn join(self) {
        self.shutdown();
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn accept_loop<H: Handler>(
    handler: &H,
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    retry_after_s: u32,
    shutdown: &AtomicBool,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                handler.observe(Event::Accepted);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => reject_busy(handler, stream, retry_after_s),
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // `WouldBlock` is the idle case; anything else (fd exhaustion,
            // an aborted handshake) is transient too.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Dropping `tx` here closes the queue: workers drain what is already
    // enqueued, then exit on the closed channel.
}

/// Answer `503 + Retry-After` without occupying a worker.
fn reject_busy<H: Handler>(handler: &H, mut stream: TcpStream, retry_after_s: u32) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    // Drain the request head before answering: closing with unread bytes in
    // the receive buffer sends an RST that can discard the in-flight 503.
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(n) if n > 0 => {
                if buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            _ => break,
        }
    }
    handler.observe(Event::Rejected);
    let _ = Response::busy(retry_after_s).write_to(&mut stream);
}

fn worker_loop<H: Handler>(
    handler: &H,
    rx: &RankedMutex<Receiver<TcpStream>>,
    read_timeout: Duration,
    shutdown: &AtomicBool,
) {
    loop {
        let next = rx.lock().recv();
        let Ok(stream) = next else { break };
        handler.observe(Event::Dequeued);
        handle_connection(handler, &stream, read_timeout, shutdown);
    }
}

/// Serve sequential keep-alive requests from one connection until the
/// client closes (or asks to), an error or idle timeout occurs, the
/// per-connection request cap is reached, or shutdown begins.
fn handle_connection<H: Handler>(
    handler: &H,
    stream: &TcpStream,
    read_timeout: Duration,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));

    let mut reader = BufReader::new(stream);
    let mut served = 0usize;
    loop {
        let request = match http::read_request(&mut reader) {
            // Clean close or idle timeout between requests: nothing to answer.
            Err(HttpError::ClosedEarly | HttpError::Io(_)) => return,
            parsed => parsed,
        };
        let start = Instant::now();
        handler.observe(Event::Request { reused: served > 0 });
        let (response, client_close) = match request {
            Ok(request) => {
                // One trace id per request: propagated by the caller (the
                // gateway, toward a backend) or minted at this edge.
                let trace = request.trace_id().unwrap_or_else(TraceId::mint);
                // A panicking handler must not kill the worker thread;
                // convert it into a 500 and keep serving.
                let response =
                    std::panic::catch_unwind(AssertUnwindSafe(|| handler.respond(&request, trace)))
                        .unwrap_or_else(|_| {
                            Response::error(500, "internal error: handler panicked")
                        });
                (response.traced(trace), request.wants_close())
            }
            // A malformed head gets its 400, then the connection closes
            // (framing can no longer be trusted).
            Err(e) => (Response::error(400, format!("bad request: {e}")), true),
        };

        served += 1;
        let keep_alive =
            !client_close && served < KEEP_ALIVE_MAX && !shutdown.load(Ordering::SeqCst);
        let mut out = stream;
        let written = response.write_conn(&mut out, keep_alive);
        handler.observe(Event::Responded {
            status: response.status,
            elapsed_us: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
        });
        if !keep_alive || written.is_err() {
            return;
        }
    }
}
