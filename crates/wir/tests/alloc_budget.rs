//! Allocation budget of the front end: `parse` allocates the definition it
//! returns (and its token vector), and `check` of a clean definition builds
//! next to nothing — a finding's text is written only when it is emitted.
//!
//! A counting global allocator (this test binary's own) counts every heap
//! allocation and reallocation made by the thread that sets `COUNTING`, so
//! the test harness's own threads never reach the count. The budgets are
//! the counts for `defs/dcg.wir`, the largest shipped definition; one eager
//! `format!` per expression or token would overrun them by hundreds.
//!
//! ```text
//! cargo test --release -p cactus-wir --test alloc_budget -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic and a
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

/// Allocations `parse` makes for `dcg.wir`: one token vector, and the
/// strings, vectors and boxes of the definition it returns.
const PARSE_BUDGET: u64 = 901;
/// Allocations `check` makes for `dcg.wir`, which has no finding.
const CHECK_BUDGET: u64 = 7;

/// Allocations `f` makes on this thread, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    let n = ALLOCS.load(Ordering::SeqCst) - before;
    COUNTING.with(|c| c.set(false));
    (n, out)
}

#[test]
fn parse_and_check_of_dcg_allocate_within_their_budgets() {
    let src = include_str!("../defs/dcg.wir");
    // Warm the catalog limits and any other once-per-process state, so the
    // count is what every later check costs.
    let warm = cactus_wir::parse(src).expect("dcg.wir parses");
    assert!(cactus_wir::check(&warm).is_empty());

    let (parse, def) = counted(|| cactus_wir::parse(src));
    let def = def.expect("dcg.wir parses");
    let (check, findings) = counted(|| cactus_wir::check(&def));
    assert!(findings.is_empty(), "{findings:?}");
    println!("dcg.wir: parse {parse} allocations (budget {PARSE_BUDGET}), check {check} (budget {CHECK_BUDGET})");
    assert!(parse <= PARSE_BUDGET, "parse made {parse} allocations");
    assert!(check <= CHECK_BUDGET, "check made {check} allocations");
}
