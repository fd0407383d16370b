//! The mirror image of `ranked_lock.rs`: a release build without the
//! `lock-check` feature must compile rank checking out entirely, so every
//! daemon lock is a plain `Mutex::lock` with poison recovery. Only exists
//! in that configuration (`cargo test --release -p cactus-obs`).

#![cfg(not(any(debug_assertions, feature = "lock-check")))]

use cactus_obs::lock::{rank, RankedMutex, CHECK_ENABLED};

static LOW: RankedMutex<u32> = RankedMutex::new(rank::WORKER_QUEUE, "test.low", 1);
static HIGH: RankedMutex<u32> = RankedMutex::new(rank::TRACER, "test.high", 2);

#[test]
// The file-level cfg implies the constant; the assert documents that the
// cfg gate and CHECK_ENABLED can never disagree.
#[allow(clippy::assertions_on_constants)]
fn release_builds_compile_the_passthrough() {
    assert!(!CHECK_ENABLED);
    // The inversion `ranked_lock.rs` proves panics when checking is on goes
    // unnoticed here: rank and name are dormant metadata.
    let high = HIGH.lock();
    let low = LOW.lock();
    assert_eq!(*low + *high, 3);
}
