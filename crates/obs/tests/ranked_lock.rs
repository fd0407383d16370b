//! Integration tests for the runtime half of deadlock detection.
//!
//! The point of rank checking is determinism: an out-of-order acquisition
//! panics on its *first* execution, on one thread, with both sites in the
//! message — no contention or lucky interleaving required. These tests
//! only exist when checking is compiled in (`debug_assertions` or the
//! `lock-check` feature); release builds compile the passthrough path,
//! which `ranked_lock_passthrough.rs` asserts separately.

#![cfg(any(debug_assertions, feature = "lock-check"))]

use std::thread;

use cactus_obs::lock::{order_edges, rank, RankedMutex, CHECK_ENABLED};

static LOW: RankedMutex<u32> = RankedMutex::new(rank::WORKER_QUEUE, "test.low", 1);
static HIGH: RankedMutex<u32> = RankedMutex::new(rank::TRACER, "test.high", 2);

#[test]
// The file-level cfg implies the constant; the assert documents that the
// cfg gate and CHECK_ENABLED can never disagree.
#[allow(clippy::assertions_on_constants)]
fn checking_is_compiled_in_here() {
    assert!(CHECK_ENABLED);
}

#[test]
fn inversion_panics_deterministically_with_both_sites() {
    // A fresh thread has an empty held-lock stack, so the panic below is
    // provoked by exactly these two acquisitions, first try.
    let result = thread::spawn(|| {
        let high = HIGH.lock();
        let low = LOW.lock(); // inversion: rank 10 under rank 100
        drop(low);
        drop(high);
    })
    .join();
    let payload = result.expect_err("out-of-order acquisition must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("panic payload is a message");
    assert!(
        msg.contains("lock rank inversion"),
        "panic names the failure: {msg}"
    );
    assert!(
        msg.contains("test.low") && msg.contains("test.high"),
        "panic names both locks: {msg}"
    );
    assert!(
        msg.matches("ranked_lock.rs").count() >= 2,
        "panic carries the file:line of both acquisition sites: {msg}"
    );
}

#[test]
fn in_order_nesting_records_the_edge() {
    let low = LOW.lock();
    let high = HIGH.lock();
    assert_eq!(*low + *high, 3);
    drop(high);
    drop(low);
    assert!(
        order_edges().contains(&("test.low", "test.high")),
        "edges: {:?}",
        order_edges()
    );
}

#[test]
fn guards_may_release_out_of_order() {
    // Nested scopes release LIFO, but Rust lets bindings drop in any
    // order; the held-stack bookkeeping must tolerate it.
    let low = LOW.lock();
    let high = HIGH.lock();
    drop(low);
    drop(high);
    // The stack is clean: re-acquiring from the bottom works.
    let low = LOW.lock();
    drop(low);
}
