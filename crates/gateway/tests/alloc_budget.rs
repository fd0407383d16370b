//! Allocation budget of the read path: an LRU-hit `GET` allocates per
//! connection, not per request.
//!
//! A counting global allocator (this test binary's own) counts every heap
//! allocation and reallocation, split between the test's client thread and
//! every other thread (the daemons' workers). One `Server` and one
//! `Gateway` with active probing off serve warm LRU hits over keep-alive
//! connections; allocations per request are counted over windows of
//! [`WINDOW`] requests, and the least of [`WINDOWS`] windows is held to the
//! budget — a compactor pass or a keep-alive redial in one window is not
//! the read path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cactus_gateway::{Gateway, GatewayConfig};
use cactus_serve::{Connection, ServeConfig, Server};

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static CLIENT_ALLOCS: AtomicU64 = AtomicU64::new(0);
static DAEMON_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that drives the requests.
    static CLIENT: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    let client = CLIENT.try_with(Cell::get).unwrap_or(false);
    let counter = if client {
        &CLIENT_ALLOCS
    } else {
        &DAEMON_ALLOCS
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests per counting window.
const WINDOW: u64 = 200;
/// Windows per path; the least is the one held to the budget.
const WINDOWS: usize = 5;

/// Allocations per hit, in the window with the fewest: `(client, daemons)`.
fn per_hit(conn: &mut Connection, path: &str) -> (f64, f64) {
    let mut best: Option<(u64, u64)> = None;
    for _ in 0..WINDOWS {
        let client = CLIENT_ALLOCS.load(Ordering::SeqCst);
        let daemons = DAEMON_ALLOCS.load(Ordering::SeqCst);
        for _ in 0..WINDOW {
            let reply = conn.get(path).expect("reply");
            assert_eq!(reply.status, 200, "{path}: {}", reply.body);
        }
        let counted = (
            CLIENT_ALLOCS.load(Ordering::SeqCst) - client,
            DAEMON_ALLOCS.load(Ordering::SeqCst) - daemons,
        );
        if best.is_none_or(|(c, d)| counted.0 + counted.1 < c + d) {
            best = Some(counted);
        }
    }
    let (client, daemons) = best.expect("at least one window");
    (
        client as f64 / WINDOW as f64,
        daemons as f64 / WINDOW as f64,
    )
}

#[test]
fn an_lru_hit_allocates_within_its_budget() {
    let dir = std::env::temp_dir().join(format!("cactus-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        workers: 2,
        queue: 16,
        store_dir: Some(dir.clone()),
        devices: vec!["rtx-3080".to_owned()],
        ..ServeConfig::default()
    })
    .expect("start backend");
    let gateway = Gateway::start(
        GatewayConfig {
            workers: 2,
            queue: 16,
            probe_interval: None,
            ..GatewayConfig::default()
        },
        vec![server.addr()],
    )
    .expect("start gateway");

    CLIENT.with(|c| c.set(true));
    let timeout = Duration::from_secs(120);
    let mut via = Connection::new(gateway.addr(), timeout);
    let mut direct = Connection::new(server.addr(), timeout);
    let paths = [
        "/v1/kernels/rtx-3080/tiny/GMS",
        "/v1/profile/rtx-3080/tiny/GMS",
    ];
    // Warm up: the first request simulates and fills the LRU; the rest grow
    // every per-connection buffer to its steady size.
    for path in paths {
        for conn in [&mut via, &mut direct] {
            for _ in 0..300 {
                assert_eq!(conn.get(path).expect("warm-up").status, 200);
            }
        }
    }

    let mut over = Vec::new();
    for path in paths {
        for (route, conn, budget) in [("gateway", &mut via, 30.0), ("direct", &mut direct, 12.0)] {
            let (client, daemons) = per_hit(conn, path);
            let total = client + daemons;
            println!(
                "{route:>7} {path}: {total:.2} allocations per hit \
                 (client {client:.2}, daemons {daemons:.2}; budget {budget})"
            );
            if total > budget {
                over.push(format!("{route} {path}: {total:.2} > {budget}"));
            }
        }
    }
    CLIENT.with(|c| c.set(false));

    drop((via, direct));
    gateway.join();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(over.is_empty(), "over budget: {over:?}");
}
