//! The daemon skeleton both tiers run on: listener, bounded queue, worker
//! pool, backpressure, keep-alive connection loop, and graceful drain.
//!
//! ```text
//! accept thread ──send──► queue ──recv──► worker pool (N threads)
//!      │                                       │
//!      └── N + Q open: write `503 Retry-After` └── Handler::respond
//! ```
//!
//! `cactus-serve` and `cactus-gateway` are two [`Handler`]s on this one
//! loop; what a request *does* (LRU → store → simulation, or a proxied
//! exchange) and which counters tick are the handler's, everything about
//! the socket is here.
//!
//! The accept loop blocks in `accept` and never on a slow client: a
//! connection either enqueues or is answered `503` immediately, so
//! saturation degrades into fast, explicit pushback instead of unbounded
//! queueing; shutdown wakes the blocked `accept` with a connection of its
//! own. Connections are keep-alive by default: a worker serves sequential
//! requests from one stream until the client asks `Connection: close`, the
//! idle read timeout fires, [`KEEP_ALIVE_MAX`] requests have been served,
//! or shutdown begins (the last response then advertises `close`).
//! Shutdown is graceful by construction — the accept thread exits and
//! drops the queue sender, each worker drains what was already queued,
//! finishes its in-flight connection, and exits on the closed channel;
//! [`Daemon::join`] returns once every response has been written.

use std::io::{self, BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cactus_obs::lock::{rank, RankedMutex};
use cactus_obs::TraceId;

use crate::http::{self, HttpError, Request, Response};
use crate::net;

/// How long the accept loop backs off after a failed `accept` (fd
/// exhaustion, an aborted handshake) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

/// How long a refused connection's request head is drained, in total.
const REJECT_DRAIN: Duration = Duration::from_millis(250);

/// Write timeout on a refused connection's `503`.
const REJECT_WRITE: Duration = Duration::from_secs(1);

/// Bound on the loopback connect that wakes a blocked `accept`.
const WAKE_CONNECT: Duration = Duration::from_secs(1);

/// Requests served over one keep-alive connection before the daemon forces
/// a close, bounding how long a single client can pin a worker.
pub const KEEP_ALIVE_MAX: usize = 256;

/// How long a request may take to arrive, head and body, from its first
/// byte, on both tiers; doubles as the keep-alive idle timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-connection write timeout on a worker's replies, on both tiers.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// `Retry-After` seconds advertised on the accept thread's `503`, on both
/// tiers.
pub const RETRY_AFTER_S: u32 = 1;

/// What the loop tells its handler's metrics hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A connection came off the listener and is about to be offered to
    /// the queue; exactly one of `Dequeued` or `Rejected` follows.
    Accepted,
    /// Every worker was busy and the queue full: the connection was
    /// answered `503` by the accept thread and closed.
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
/// share, minus the address [`bind`] took). The read timeout and
/// `Retry-After` are the constants `READ_TIMEOUT` and [`RETRY_AFTER_S`].
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Worker threads (at least one is spawned).
    pub workers: usize,
    /// Accepted connections that may wait for a worker before the daemon
    /// starts answering `503`.
    pub queue: usize,
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
    let addr = listener.local_addr()?;
    Ok(Bound { listener, addr })
}

impl Bound {
    /// Spawn the worker pool and the accept thread over `handler`.
    pub fn serve<H: Handler>(self, limits: Limits, handler: H) -> Daemon<H> {
        let Bound { listener, addr } = self;
        let handler = Arc::new(handler);
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = limits.workers.max(1);
        // Admission is by count (`accept_loop`), so the channel itself
        // never holds more than `capacity` connections.
        let capacity = workers + limits.queue.max(1);
        let open = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(RankedMutex::new(
            rank::WORKER_QUEUE,
            "daemon.worker_queue",
            rx,
        ));

        let workers = (0..workers)
            .map(|_| {
                let (handler, rx, open, shutdown) = (
                    Arc::clone(&handler),
                    Arc::clone(&rx),
                    Arc::clone(&open),
                    Arc::clone(&shutdown),
                );
                std::thread::spawn(move || {
                    worker_loop(&*handler, &rx, &open, &shutdown);
                })
            })
            .collect();
        let accept = {
            let (handler, shutdown) = (Arc::clone(&handler), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                accept_loop(&*handler, &listener, &tx, &open, capacity, &shutdown);
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

    /// Begin graceful shutdown: stop accepting, let workers drain. The
    /// accept thread, blocked in `accept`, is woken by a connection to the
    /// listener, which it closes unserved.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(self.addr);
    }

    /// Shut down (if not already requested) and wait until every queued and
    /// in-flight request has been answered and all threads exited.
    pub fn join(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A wake-up that could not connect (no free descriptor, say) is
        // retried until the accept thread has seen the flag.
        while !wake(self.addr) && !self.accept.is_finished() {
            // lint:allow(no_tick_loop, a backoff between wake-up attempts, not a timer)
            std::thread::sleep(ACCEPT_BACKOFF);
        }
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// A tier's background thread: runs a job every interval until
/// [`Periodic::stop`]. Between jobs it blocks on a channel whose sender
/// `stop` drops, so stopping wakes it at once. Dropping the handle stops
/// the thread without waiting for it.
pub struct Periodic {
    stop: Sender<()>,
    thread: JoinHandle<()>,
}

impl Periodic {
    /// Spawn the thread: wait `interval`, run `job`, repeat.
    pub fn spawn(interval: Duration, mut job: impl FnMut() + Send + 'static) -> Self {
        let (stop, stopped) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                job();
            }
        });
        Self { stop, thread }
    }

    /// Wake the thread, let a job in progress finish, and wait for the
    /// thread to exit.
    pub fn stop(self) {
        drop(self.stop);
        let _ = self.thread.join();
    }
}

/// Connect to the listener at `addr` (an unspecified address through
/// loopback) so that a blocked `accept` returns. True once connected.
fn wake(addr: SocketAddr) -> bool {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&target, WAKE_CONNECT).is_ok()
}

/// Admit connections while fewer than `capacity` (workers + queue) are
/// open, that is accepted and not yet finished by a worker; refuse the
/// rest. Counting open connections instead of free queue slots admits a
/// burst that an idle worker has not yet begun to drain.
fn accept_loop<H: Handler>(
    handler: &H,
    listener: &TcpListener,
    tx: &Sender<TcpStream>,
    open: &AtomicUsize,
    capacity: usize,
    shutdown: &AtomicBool,
) {
    loop {
        let accepted = listener.accept();
        // Checked after `accept` returns: the connection that woke a
        // shutting-down daemon is closed unserved, like any still queued
        // in the listener's backlog.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                handler.observe(Event::Accepted);
                // Only this thread adds to `open`, so the count cannot pass
                // `capacity` between the check and the add.
                if open.load(Ordering::SeqCst) >= capacity {
                    reject_busy(handler, stream);
                    continue;
                }
                open.fetch_add(1, Ordering::SeqCst);
                if tx.send(stream).is_err() {
                    break;
                }
            }
            // Fd exhaustion or an aborted handshake: transient, but back
            // off rather than spin on it.
            // lint:allow(no_tick_loop, a backoff after a failed accept, not a timer)
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
    // Dropping `tx` here closes the queue: workers drain what is already
    // enqueued, then exit on the closed channel.
}

/// Answer `503 + Retry-After` without occupying a worker.
fn reject_busy<H: Handler>(handler: &H, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(REJECT_WRITE));
    // Drain the request head before answering: closing with unread bytes in
    // the receive buffer sends an RST that can discard the in-flight 503.
    // The whole drain is bounded, so a client that trickles its head holds
    // the accept thread for at most `REJECT_DRAIN`.
    let deadline = Instant::now() + REJECT_DRAIN;
    let mut buf = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
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
    let _ = Response::busy(RETRY_AFTER_S).write_to(&mut stream);
}

fn worker_loop<H: Handler>(
    handler: &H,
    rx: &RankedMutex<Receiver<TcpStream>>,
    open: &AtomicUsize,
    shutdown: &AtomicBool,
) {
    loop {
        let next = rx.lock().recv();
        let Ok(stream) = next else { break };
        handler.observe(Event::Dequeued);
        handle_connection(handler, &stream, shutdown);
        open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A worker's connection as the reader of its requests: one deadline per
/// request, [`READ_TIMEOUT`] after its first byte, bounds the whole of its
/// head and body. Until that byte the socket keeps its `READ_TIMEOUT`
/// timeout (the idle wait), and the read after it has the whole budget
/// left; each later read of the same request first shortens the timeout to
/// the time left. A request that arrives in one read neither reads the
/// clock nor touches the timeout, and one that did gets it restored at its
/// end.
struct RequestClock<'a> {
    stream: &'a TcpStream,
    /// Whether the request being read has had its first byte.
    started: bool,
    /// When it must be complete, from the read after its first byte on.
    deadline: Option<Instant>,
    /// Whether the socket's timeout was shortened for it.
    rearmed: bool,
}

impl<'a> RequestClock<'a> {
    fn new(stream: &'a TcpStream) -> Self {
        Self {
            stream,
            started: false,
            deadline: None,
            rearmed: false,
        }
    }

    /// A request starts; `started` when its first byte is already read.
    fn begin(&mut self, started: bool) {
        self.started = started;
        self.deadline = None;
    }

    /// The request was read, or failed to be.
    fn end(&mut self) {
        if self.rearmed {
            self.rearmed = false;
            let _ = self.stream.set_read_timeout(Some(READ_TIMEOUT));
        }
    }
}

impl Read for RequestClock<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.started {
            let now = Instant::now();
            match self.deadline {
                // The first byte came in the read just before this one: the
                // socket's timeout is this read's whole budget.
                None => self.deadline = Some(now + READ_TIMEOUT),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(now);
                    if left.is_zero() {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    self.stream.set_read_timeout(Some(left))?;
                    self.rearmed = true;
                }
            }
        }
        let n = self.stream.read(buf)?;
        self.started |= n > 0;
        Ok(n)
    }
}

/// Serve sequential keep-alive requests from one connection until the
/// client closes (or asks to), an error or idle timeout occurs, the
/// per-connection request cap is reached, or shutdown begins.
fn handle_connection<H: Handler>(handler: &H, stream: &TcpStream, shutdown: &AtomicBool) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));

    // One request and one head buffer per connection, refilled in place.
    let mut reader = BufReader::new(RequestClock::new(stream));
    let mut request = Request::default();
    let mut head = Vec::new();
    let mut served = 0usize;
    loop {
        // A pipelined request already buffered has had its first byte.
        let buffered = !reader.buffer().is_empty();
        reader.get_mut().begin(buffered);
        let read = http::read_request_into(&mut reader, &mut request);
        reader.get_mut().end();
        let parsed = match read {
            // Clean close, idle timeout between requests, or a request that
            // missed its deadline: nothing to answer.
            Err(HttpError::ClosedEarly | HttpError::Io(_)) => return,
            parsed => parsed,
        };
        let start = Instant::now();
        handler.observe(Event::Request { reused: served > 0 });
        let (response, client_close) = match parsed {
            Ok(()) => {
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
        let written = response.write_reusing(&mut out, keep_alive, &mut head);
        handler.observe(Event::Responded {
            status: response.status,
            elapsed_us: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
        });
        if !keep_alive || written.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::*;

    /// A loopback pair: the client's end, and the served end with the
    /// daemon's idle timeout.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (served, _) = listener.accept().expect("accept");
        served
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("timeout");
        (client, served)
    }

    fn timeout(stream: &TcpStream) -> Duration {
        stream.read_timeout().expect("get").expect("set")
    }

    #[test]
    fn a_request_in_one_read_reads_no_clock_and_keeps_the_timeout() {
        let (mut client, served) = pair();
        client
            .write_all(b"POST /r HTTP/1.1\r\ncontent-length: 2\r\n\r\nok")
            .expect("write");
        let mut reader = BufReader::new(RequestClock::new(&served));
        let mut request = Request::default();
        reader.get_mut().begin(false);
        http::read_request_into(&mut reader, &mut request).expect("a request");
        assert_eq!((request.path.as_str(), request.body.as_str()), ("/r", "ok"));
        assert_eq!(reader.get_ref().deadline, None);
        assert!(!reader.get_ref().rearmed);
        reader.get_mut().end();
        assert_eq!(timeout(&served), READ_TIMEOUT);
    }

    #[test]
    fn later_reads_of_one_request_shorten_the_timeout_until_its_end() {
        let (mut client, served) = pair();
        let mut clock = RequestClock::new(&served);
        clock.begin(false);
        let mut buf = [0u8; 64];
        // The first read finds the first byte, the second starts the
        // deadline with the whole budget, the third is the first to
        // shorten the timeout: by at least the 20 ms slept before it, more
        // than the kernel's rounding of a timeout up to whole ticks.
        for (part, rearmed) in [(&b"GET"[..], false), (b" /r", false), (b" HTTP/1.1", true)] {
            if rearmed {
                std::thread::sleep(Duration::from_millis(20));
            }
            client.write_all(part).expect("write");
            assert_eq!(clock.read(&mut buf).expect("read"), part.len());
            assert_eq!(clock.rearmed, rearmed);
        }
        assert!(timeout(&served) < READ_TIMEOUT);
        clock.end();
        assert_eq!(timeout(&served), READ_TIMEOUT);
    }
}
