//! Rank-ordered mutexes: the runtime half of the workspace's deadlock
//! defense (`cactus-lint` is the static half).
//!
//! Every long-lived mutex in the serving stack is a [`RankedMutex`] carrying
//! a [`rank`] from the table below. Under `debug_assertions` or the
//! `lock-check` feature, each thread keeps a stack of the locks it holds and
//! every acquisition is checked against it: taking a lock whose rank is not
//! strictly greater than every held rank panics immediately with both
//! acquisition sites. Because the check runs on *every* acquisition — not
//! only on the interleavings that happen to contend — an ordering violation
//! is caught deterministically the first time the code path runs, in any
//! test or debug fleet, long before it can deadlock in production.
//!
//! In release builds without `lock-check`, [`RankedMutex::lock`] compiles to
//! a plain `Mutex::lock` with poison recovery ([`CHECK_ENABLED`] is `false`
//! and `tests/ranked_lock_passthrough.rs` asserts it): the rank and name are
//! dormant metadata.
//!
//! Poisoning is always recovered (`unwrap_or_else(|e| e.into_inner())`): a
//! panicking request handler must not take down every later request that
//! touches the same lock. Handlers already run under `catch_unwind` and
//! report their own 500s; the data a panicked writer left behind is
//! per-request state, never cross-request bookkeeping.

#[cfg(any(debug_assertions, feature = "lock-check"))]
use std::collections::BTreeSet;
use std::fmt;
use std::panic::Location;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// `true` when acquisition-order checking is compiled in (debug builds or
/// `--features lock-check`). The release test run asserts this is `false` so
/// the passthrough stays zero-overhead.
pub const CHECK_ENABLED: bool = cfg!(any(debug_assertions, feature = "lock-check"));

/// The workspace lock-rank table. A thread may only acquire locks in
/// strictly increasing rank; ranks are spaced so future locks can slot in
/// between. Outermost (coarsest, held longest) ranks lowest; innermost
/// (leaf, held briefly from anywhere — the tracer fires in `SpanGuard::drop`)
/// ranks highest.
///
/// | rank | constant            | lock                                      |
/// |-----:|---------------------|-------------------------------------------|
/// |    5 | `SUPERVISOR`        | `gateway::supervisor` fleet slots          |
/// |   10 | `WORKER_QUEUE`      | `serve::daemon` accept-queue receiver      |
/// |   20 | `SINGLEFLIGHT_MAP`  | `serve::singleflight` in-flight map        |
/// |   30 | `SINGLEFLIGHT_SLOT` | `serve::singleflight` per-key result slot  |
/// |   40 | `RESPONSE_CACHE`    | `serve::cache` LRU                         |
/// |   41 | `WIR_ADMISSION`     | `serve::service` definition persist + swap |
/// |   42 | `STORE_WRITER`      | `store` active-segment writer              |
/// |   45 | `STORE_INDEX`       | `store` key→location index                 |
/// |   47 | `WIR_REGISTRY`      | `serve::service` submitted IR definitions  |
/// |   60 | `CONN_POOL`         | `gateway::connpool` per-backend idle list  |
/// |   62 | `CAPABILITY`        | `gateway::capability` modeled-device map   |
/// |   70 | `HEALTH`            | `gateway::health` backend states           |
/// |   80 | `LATENCY_WINDOW`    | `gateway::metrics` sliding latency ring    |
/// |   85 | `SIMINDEX`          | `serve::similar` similarity-index state    |
/// |   95 | `METRICS_REGISTRY`  | `obs::registry` name map (cold path)       |
/// |  100 | `TRACER`            | `obs::trace` span ring (innermost leaf)    |
pub mod rank {
    pub const SUPERVISOR: u32 = 5;
    pub const WORKER_QUEUE: u32 = 10;
    pub const SINGLEFLIGHT_MAP: u32 = 20;
    pub const SINGLEFLIGHT_SLOT: u32 = 30;
    pub const RESPONSE_CACHE: u32 = 40;
    pub const WIR_ADMISSION: u32 = 41;
    pub const STORE_WRITER: u32 = 42;
    pub const STORE_INDEX: u32 = 45;
    pub const WIR_REGISTRY: u32 = 47;
    pub const CONN_POOL: u32 = 60;
    pub const CAPABILITY: u32 = 62;
    pub const HEALTH: u32 = 70;
    pub const LATENCY_WINDOW: u32 = 80;
    pub const SIMINDEX: u32 = 85;
    pub(crate) const METRICS_REGISTRY: u32 = 95;
    pub const TRACER: u32 = 100;
}

#[cfg(any(debug_assertions, feature = "lock-check"))]
mod check {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Held {
        id: u64,
        rank: u32,
        name: &'static str,
        at: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_ID: AtomicU64 = AtomicU64::new(0);

    /// Every (outer, inner) lock-name pair ever observed nested, process-wide.
    static EDGES: Mutex<BTreeSet<(&'static str, &'static str)>> = Mutex::new(BTreeSet::new());

    /// Opaque receipt for one acquisition; releasing it pops the thread's
    /// held-stack entry (by id, since guards may drop out of order).
    pub struct Token {
        id: u64,
    }

    pub(crate) fn acquire(rank: u32, name: &'static str, at: &'static Location<'static>) -> Token {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(worst) = held
                .iter()
                .filter(|h| h.rank >= rank)
                .max_by_key(|h| h.rank)
            {
                // lint:allow(no_panic, failing fast on rank inversion is this detector's entire job)
                panic!(
                    "lock rank inversion: acquiring {name} (rank {rank}) at {at} \
                     while holding {held_name} (rank {held_rank}) acquired at {held_at}",
                    held_name = worst.name,
                    held_rank = worst.rank,
                    held_at = worst.at,
                );
            }
            if !held.is_empty() {
                let mut edges = EDGES.lock().unwrap_or_else(PoisonError::into_inner);
                for h in held.iter() {
                    edges.insert((h.name, name));
                }
            }
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            held.push(Held { id, rank, name, at });
            Token { id }
        })
    }

    pub(crate) fn release(token: &Token) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            held.retain(|h| h.id != token.id);
        });
    }

    pub(crate) fn order_edges() -> Vec<(&'static str, &'static str)> {
        EDGES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }
}

#[cfg(not(any(debug_assertions, feature = "lock-check")))]
mod check {
    use std::panic::Location;

    pub struct Token;

    #[inline(always)]
    pub(crate) fn acquire(
        _rank: u32,
        _name: &'static str,
        _at: &'static Location<'static>,
    ) -> Token {
        Token
    }

    #[inline(always)]
    pub(crate) fn release(_token: &Token) {}
}

/// The nesting pairs observed so far: every `(outer, inner)` lock-name edge
/// any thread has actually executed. Only available when [`CHECK_ENABLED`];
/// used by tests to assert the runtime order graph matches the rank table.
#[cfg(any(debug_assertions, feature = "lock-check"))]
#[must_use]
pub fn order_edges() -> Vec<(&'static str, &'static str)> {
    check::order_edges()
}

/// A `Mutex<T>` with a fixed place in the workspace lock order.
///
/// See the [module docs](self) and the [`rank`] table. `lock()` recovers
/// from poisoning and, when [`CHECK_ENABLED`], panics on rank inversion
/// with both acquisition sites in the message.
pub struct RankedMutex<T> {
    rank: u32,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Wrap `value` in a mutex at `rank`. `name` labels the lock in
    /// inversion panics and the order graph; use `crate.field` style
    /// (`"serve.cache"`).
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        Self {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquire the lock, recovering from poisoning.
    ///
    /// # Panics
    ///
    /// When [`CHECK_ENABLED`], panics if this thread already holds a lock of
    /// equal or higher rank (a deadlock-capable ordering, caught on first
    /// execution rather than first contention).
    #[track_caller]
    pub fn lock(&self) -> RankedGuard<'_, T> {
        // Check *before* blocking: an inverted acquisition should panic with
        // the two sites, not sit in a deadlock the check exists to prevent.
        let token = check::acquire(self.rank, self.name, Location::caller());
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        RankedGuard {
            guard: Some(guard),
            token,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankedMutex")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for a [`RankedMutex`]; releases the thread's held-stack entry
/// on drop. Dereferences to `T`.
pub struct RankedGuard<'a, T> {
    // Invariant: `Some` from construction to drop; `take`n only transiently
    // inside `wait` (while the thread is parked) and in `drop`.
    guard: Option<MutexGuard<'a, T>>,
    token: check::Token,
}

impl<T> RankedGuard<'_, T> {
    /// Block on `cv` until notified, releasing and re-acquiring the
    /// underlying mutex exactly like `Condvar::wait`.
    ///
    /// The thread's held-stack entry is kept across the wait: the thread is
    /// parked and acquires nothing, and it owns the mutex again before this
    /// returns, so from the order graph's perspective the hold is
    /// continuous.
    #[must_use]
    pub fn wait(mut self, cv: &Condvar) -> Self {
        // lint:allow(no_panic, guard is Some from construction until drop)
        let inner = self.guard.take().expect("guard present until drop");
        self.guard = Some(cv.wait(inner).unwrap_or_else(PoisonError::into_inner));
        self
    }
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // lint:allow(no_panic, guard is Some from construction until drop)
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // lint:allow(no_panic, guard is Some from construction until drop)
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        // Release the held-stack entry first: the same thread runs both, so
        // nothing can acquire in between, and the entry must not outlive the
        // guard.
        check::release(&self.token);
        self.guard = None;
    }
}

impl<T: fmt::Debug> fmt::Debug for RankedGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.guard {
            Some(g) => fmt::Debug::fmt(&**g, f),
            None => f.write_str("RankedGuard(released)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trips_value() {
        let m = RankedMutex::new(rank::RESPONSE_CACHE, "test.cache", 7u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
        assert_eq!(m.rank, rank::RESPONSE_CACHE);
        assert_eq!(m.name, "test.cache");
    }

    #[test]
    fn increasing_rank_is_fine_and_recorded() {
        let a = RankedMutex::new(10, "test.edges.outer", ());
        let b = RankedMutex::new(20, "test.edges.inner", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
        // The edge log only exists when checking is compiled in.
        #[cfg(any(debug_assertions, feature = "lock-check"))]
        assert!(
            order_edges().contains(&("test.edges.outer", "test.edges.inner")),
            "nesting edge recorded"
        );
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(RankedMutex::new(50, "test.poison", 0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn wait_keeps_guard_usable() {
        let m = Arc::new(RankedMutex::new(30, "test.wait", false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                g = g.wait(&cv2);
            }
            *g
        });
        loop {
            let mut g = m.lock();
            *g = true;
            drop(g);
            cv.notify_all();
            if waiter.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        assert!(waiter.join().unwrap_or(false));
    }
}
