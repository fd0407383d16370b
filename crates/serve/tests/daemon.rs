//! The daemon skeleton's contract, checked once against a stub [`Handler`]
//! over raw sockets: both tiers run on this loop, so what holds here holds
//! for `cactus-serve` and `cactus-gateway` alike.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use cactus_obs::{ApiError, TraceId};
use cactus_serve::daemon::{self, Daemon, Event, Handler, Limits, KEEP_ALIVE_MAX, RETRY_AFTER_S};
use cactus_serve::http::{Request, Response};

/// Answers `/ok` with the trace id it was handed, panics on `/boom`, and
/// parks on `/block` until the test releases it.
struct Stub {
    events: Mutex<Vec<Event>>,
    entered: Barrier,
    release: Barrier,
}

impl Handler for Stub {
    fn respond(&self, request: &Request, trace: TraceId) -> Response {
        match request.path.as_str() {
            "/boom" => panic!("stub handler asked to panic"),
            "/block" => {
                self.entered.wait();
                self.release.wait();
            }
            _ => {}
        }
        Response::ok(trace.to_string(), "text/plain")
    }

    fn observe(&self, event: Event) {
        self.events.lock().expect("events").push(event);
    }
}

impl Stub {
    fn count(&self, wanted: impl Fn(&Event) -> bool) -> usize {
        let events = self.events.lock().expect("events");
        events.iter().filter(|e| wanted(e)).count()
    }
}

fn start(workers: usize, queue: usize) -> Daemon<Stub> {
    let limits = Limits { workers, queue };
    let stub = Stub {
        events: Mutex::new(Vec::new()),
        entered: Barrier::new(2),
        release: Barrier::new(2),
    };
    daemon::bind("127.0.0.1:0")
        .expect("bind ephemeral loopback port")
        .serve(limits, stub)
}

/// One client stream; replies are read off it one at a time.
struct Conn(BufReader<TcpStream>);

struct Reply {
    status: u16,
    head: String,
    body: String,
}

impl Reply {
    fn has(&self, header: &str) -> bool {
        self.head.lines().any(|line| line == header)
    }

    fn header(&self, name: &str) -> Option<&str> {
        self.head
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(": "))
    }
}

impl Conn {
    fn open<H>(daemon: &Daemon<H>) -> Self {
        let stream = TcpStream::connect(daemon.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        Self(BufReader::new(stream))
    }

    fn send(&mut self, wire: &str) {
        self.0.get_mut().write_all(wire.as_bytes()).expect("write");
    }

    fn get(&mut self, path: &str) -> Reply {
        self.send(&format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n"));
        self.reply().expect("a reply")
    }

    /// The next reply, or `None` when the daemon closed the stream.
    fn reply(&mut self) -> Option<Reply> {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            if self.0.read_line(&mut line).expect("read head") == 0 {
                assert!(head.is_empty(), "stream ended inside a head: {head:?}");
                return None;
            }
            if line == "\r\n" {
                break;
            }
            head.push_str(line.trim_end());
            head.push('\n');
        }
        let status = head.split(' ').nth(1)?.parse().expect("status code");
        let length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("content-length: "))
            .expect("content-length")
            .parse()
            .expect("length");
        let mut body = vec![0u8; length];
        self.0.read_exact(&mut body).expect("read body");
        Some(Reply {
            status,
            head,
            body: String::from_utf8(body).expect("utf-8 body"),
        })
    }
}

#[test]
fn a_panicking_handler_answers_500_and_its_worker_lives_on() {
    let daemon = start(1, 8);
    for _ in 0..3 {
        let reply = Conn::open(&daemon).get("/boom");
        assert_eq!(reply.status, 500);
        let envelope = ApiError::from_json(&reply.body).expect("envelope");
        assert_eq!(envelope.message, "internal error: handler panicked");
    }
    // The one worker took all three panics and still serves.
    assert_eq!(Conn::open(&daemon).get("/ok").status, 200);
    daemon.join();
}

#[test]
fn a_bad_header_line_gets_a_400_that_names_the_header_line() {
    let daemon = start(1, 8);
    let mut conn = Conn::open(&daemon);
    conn.send("GET /ok HTTP/1.1\r\nno-colon-here\r\n\r\n");
    let reply = conn.reply().expect("the 400");
    assert_eq!(reply.status, 400);
    let envelope = ApiError::from_json(&reply.body).expect("envelope");
    assert_eq!(
        envelope.message,
        "bad request: malformed header line \"no-colon-here\""
    );
    assert!(conn.reply().is_none(), "the stream closes after a 400");
    daemon.join();
}

#[test]
fn a_malformed_head_gets_400_then_eof_and_counts_as_a_request() {
    let daemon = start(1, 8);
    let mut conn = Conn::open(&daemon);
    assert_eq!(conn.get("/ok").status, 200);
    conn.send("GET  /double-space HTTP/1.1\r\n\r\n");
    let reply = conn.reply().expect("the 400");
    assert_eq!(reply.status, 400);
    assert!(reply.has("connection: close"), "{}", reply.head);
    let envelope = ApiError::from_json(&reply.body).expect("envelope");
    assert!(envelope
        .message
        .starts_with("bad request: malformed request line"));
    assert!(
        conn.reply().is_none(),
        "framing is untrusted: stream closes"
    );

    let stub = Arc::clone(daemon.handler());
    daemon.join();
    assert_eq!(stub.count(|e| matches!(e, Event::Request { .. })), 2);
    assert_eq!(
        stub.count(|e| matches!(e, Event::Responded { status: 400, .. })),
        1
    );
}

#[test]
fn the_keep_alive_cap_closes_the_stream_on_its_last_reply() {
    let daemon = start(1, 8);
    let mut conn = Conn::open(&daemon);
    for served in 1..=KEEP_ALIVE_MAX {
        let reply = conn.get("/ok");
        assert_eq!(reply.status, 200);
        let expected = if served < KEEP_ALIVE_MAX {
            "connection: keep-alive"
        } else {
            "connection: close"
        };
        assert!(reply.has(expected), "reply {served}: {}", reply.head);
    }
    assert!(conn.reply().is_none(), "stream ends at the cap");

    let stub = Arc::clone(daemon.handler());
    daemon.join();
    assert_eq!(
        stub.count(|e| matches!(e, Event::Request { reused: true })),
        KEEP_ALIVE_MAX - 1
    );
    assert_eq!(stub.count(|e| matches!(e, Event::Dequeued)), 1);
}

#[test]
fn a_request_after_shutdown_is_answered_with_close() {
    let daemon = start(1, 8);
    let mut conn = Conn::open(&daemon);
    assert!(conn.get("/ok").has("connection: keep-alive"));
    daemon.shutdown();
    // The worker is still parked on this stream: it answers, then drains.
    let reply = conn.get("/ok");
    assert_eq!(reply.status, 200);
    assert!(reply.has("connection: close"), "{}", reply.head);
    assert!(conn.reply().is_none());
    daemon.join();
}

#[test]
fn a_full_queue_answers_503_without_occupying_a_worker() {
    let daemon = start(1, 1);
    // Pin the only worker inside the handler…
    let mut pinned = Conn::open(&daemon);
    pinned.send("GET /block HTTP/1.1\r\nhost: t\r\n\r\n");
    daemon.handler().entered.wait();
    // …fill the one queue slot (accepted in connect order)…
    let mut queued = Conn::open(&daemon);
    // …so the next connection is the accept thread's to refuse, which it
    // does while the worker is still parked.
    let reply = Conn::open(&daemon).get("/ok");
    assert_eq!(reply.status, 503);
    assert!(
        reply.has(&format!("retry-after: {RETRY_AFTER_S}")),
        "{}",
        reply.head
    );
    assert!(reply.has("connection: close"), "{}", reply.head);
    assert!(
        ApiError::from_json(&reply.body)
            .expect("envelope")
            .retryable
    );

    daemon.handler().release.wait();
    assert_eq!(pinned.reply().expect("pinned reply").status, 200);
    drop(pinned);
    assert_eq!(queued.get("/ok").status, 200);
    drop(queued);

    let stub = Arc::clone(daemon.handler());
    daemon.join();
    assert_eq!(stub.count(|e| matches!(e, Event::Accepted)), 3);
    assert_eq!(stub.count(|e| matches!(e, Event::Dequeued)), 2);
    assert_eq!(stub.count(|e| matches!(e, Event::Rejected)), 1);
    // The refusal never reached the request path.
    assert_eq!(stub.count(|e| matches!(e, Event::Request { .. })), 2);
}

/// A burst of `queue + 1` connections is never refused while a worker is
/// idle: with one worker and one queue slot, the worker takes the first
/// of two idle connections and the slot holds the second, however soon
/// the second follows the first. Only a third is refused. The race this
/// pins (a slot still held by a connection that a woken worker has not
/// yet taken) is timing-dependent, so the burst is repeated.
#[test]
fn a_burst_is_never_refused_while_a_worker_is_idle() {
    for round in 0..50 {
        let daemon = start(1, 1);
        let idle = [Conn::open(&daemon), Conn::open(&daemon)];
        let mut third = Conn::open(&daemon);
        // The accept thread takes connections in order: once it has taken
        // the third, it has admitted or refused the first two.
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon.handler().count(|e| *e == Event::Accepted) < 3 {
            assert!(Instant::now() < deadline, "round {round}: accept stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            daemon.handler().count(|e| *e == Event::Rejected),
            0,
            "round {round}: refused while the worker was idle"
        );
        assert_eq!(third.get("/ok").status, 503, "round {round}");
        drop((idle, third));
        let stub = Arc::clone(daemon.handler());
        daemon.join();
        assert_eq!(stub.count(|e| *e == Event::Rejected), 1, "round {round}");
    }
}

/// A refused client that trickles its head, a byte every 100 ms and never
/// the blank line, holds the accept thread for a bounded drain only: a
/// fresh client is refused promptly while the trickle goes on.
#[test]
fn a_trickling_refused_client_does_not_hold_the_accept_thread() {
    let daemon = start(1, 1);
    let mut pinned = Conn::open(&daemon);
    pinned.send("GET /block HTTP/1.1\r\nhost: t\r\n\r\n");
    daemon.handler().entered.wait();
    let queued = Conn::open(&daemon);

    let trickling = Arc::new(AtomicBool::new(true));
    let trickler = {
        let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
        let trickling = Arc::clone(&trickling);
        std::thread::spawn(move || {
            // Write errors once the daemon gives up on the stream are
            // expected; the schedule runs to its end either way.
            for &byte in b"GET /ok HTTP/1.1\r\nhost: trickle\r\n".iter().take(20) {
                let _ = stream.write_all(&[byte]);
                std::thread::sleep(Duration::from_millis(100));
            }
            trickling.store(false, Ordering::SeqCst);
        })
    };

    let started = Instant::now();
    let reply = Conn::open(&daemon).get("/ok");
    let took = started.elapsed();
    assert_eq!(reply.status, 503);
    assert!(took < Duration::from_secs(1), "refused after {took:?}");
    assert!(trickling.load(Ordering::SeqCst), "the trickle ended first");

    daemon.handler().release.wait();
    assert_eq!(pinned.reply().expect("pinned reply").status, 200);
    drop((pinned, queued));
    trickler.join().expect("trickler thread");
    daemon.join();
}

/// A served client that trickles its head, a byte every 500 ms and never
/// the blank line, holds its worker until the request's one deadline,
/// `READ_TIMEOUT` after its first byte, however often a byte arrives: then
/// it sees EOF, and the client queued behind it on the only worker is
/// answered.
#[test]
fn a_trickling_served_client_holds_its_worker_for_one_read_timeout() {
    let daemon = start(1, 1);
    let mut trickled = TcpStream::connect(daemon.addr()).expect("connect");
    trickled
        .set_read_timeout(Some(daemon::READ_TIMEOUT + Duration::from_secs(2)))
        .expect("read timeout");
    let first_byte = Instant::now();
    trickled.write_all(b"G").expect("first byte");

    let trickling = Arc::new(AtomicBool::new(true));
    let trickler = {
        let mut stream = trickled.try_clone().expect("clone");
        let trickling = Arc::clone(&trickling);
        std::thread::spawn(move || {
            // Off by half a period from the first byte, so no byte lands
            // on the deadline itself.
            std::thread::sleep(Duration::from_millis(250));
            let head = b"ET /ok HTTP/1.1\r\nx-trickle: ".iter();
            for &byte in head.chain(std::iter::repeat(&b'a')) {
                if !trickling.load(Ordering::SeqCst) || stream.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        })
    };
    let mut queued = Conn::open(&daemon);
    queued.send("GET /ok HTTP/1.1\r\nhost: t\r\n\r\n");

    let bound = daemon::READ_TIMEOUT + Duration::from_secs(1);
    let read = trickled.read(&mut [0u8; 64]);
    let cut = first_byte.elapsed();
    trickling.store(false, Ordering::SeqCst);
    assert!(
        matches!(read, Ok(0)),
        "the trickled head was not cut after {cut:?}: {read:?}"
    );
    assert!(
        cut >= daemon::READ_TIMEOUT,
        "cut before its deadline, after {cut:?}"
    );
    assert!(cut < bound, "cut after {cut:?}");
    let reply = queued.reply().expect("the queued reply");
    let answered = first_byte.elapsed();
    assert_eq!(reply.status, 200);
    assert!(answered < bound, "the queued client waited {answered:?}");

    trickler.join().expect("trickler thread");
    drop(queued);
    let stub = Arc::clone(daemon.handler());
    daemon.join();
    // The cut head never reached the request path.
    assert_eq!(stub.count(|e| matches!(e, Event::Request { .. })), 1);
}

#[test]
fn a_trace_id_is_adopted_when_sent_and_minted_when_not() {
    let daemon = start(1, 8);
    let mut conn = Conn::open(&daemon);
    conn.send("GET /ok HTTP/1.1\r\nx-cactus-trace: 00000000deadbeef\r\n\r\n");
    let adopted = conn.reply().expect("reply");
    assert_eq!(adopted.header("x-cactus-trace"), Some("00000000deadbeef"));
    assert_eq!(adopted.body, "00000000deadbeef", "the handler saw it too");

    let minted = conn.get("/ok");
    let id = minted.header("x-cactus-trace").expect("a minted id");
    assert!(TraceId::parse(id).is_some(), "{id:?}");
    assert_eq!(minted.body, id);
    assert_ne!(id, "00000000deadbeef");
    drop(conn);
    daemon.join();
}
