//! Deterministic parallel fan-out for suite-scale simulation.
//!
//! The Cactus runners simulate many independent workloads, each on its own
//! [`crate::engine::Gpu`]; nothing couples them, so they can execute on
//! separate OS threads. This module provides the one primitive those runners
//! need: an ordered parallel map whose output is **bit-identical to the
//! serial map** — workers pull items from a shared queue, tag every result
//! with its input index, and the results are reassembled in input order. The
//! per-item closures themselves are deterministic (the device model draws no
//! randomness at simulation time), so scheduling order cannot leak into the
//! output.
//!
//! Thread count defaults to [`std::thread::available_parallelism`] and can
//! be pinned with the `CACTUS_THREADS` environment variable (`1` forces the
//! serial path; useful for benchmarking and debugging).
//!
//! `CACTUS_THREADS` parsing is deliberately forgiving: the value is
//! trimmed, and anything that is not a *positive* integer — unset, empty,
//! `0`, negative, non-numeric garbage, or a number too large for `usize` —
//! falls back to the machine's available parallelism (itself falling back
//! to 1 if the OS cannot report it). A huge-but-parseable value is honored
//! as given; `parallel_map_threads` clamps the worker count to the item
//! count, so over-asking never spawns idle threads.

use std::sync::Mutex;

/// Environment variable overriding the worker-thread count.
pub(crate) const THREADS_ENV: &str = "CACTUS_THREADS";

/// Worker threads to use: `CACTUS_THREADS` if set to a positive integer
/// (after trimming), otherwise the machine's available parallelism. See the
/// module docs for the exact fallback rules.
#[must_use]
pub(crate) fn max_threads() -> usize {
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Map `f` over `items` on up to `max_threads` worker threads, returning
/// results in input order. Output is identical to
/// `items.into_iter().map(f).collect()`.
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    parallel_map_threads(items, max_threads(), f)
}

/// [`parallel_map`] with an explicit worker-thread count.
///
/// # Panics
///
/// Propagates the first panic raised inside `f`.
pub(crate) fn parallel_map_threads<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }

    // Workers pull *batches* of items under the queue lock (amortizing
    // lock traffic by `chunk`) and write each result straight into its own
    // pre-allocated slot, so there is no shared result sink to contend on
    // and no post-hoc sort. The chunk size keeps ~8 hand-offs per worker
    // for load balancing while capping lock acquisitions at O(n / chunk).
    let chunk = (n / (threads * 8)).max(1);
    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut batch: Vec<(usize, T)> = Vec::with_capacity(chunk);
                loop {
                    {
                        let mut q = queue.lock().expect("work queue poisoned");
                        batch.extend(q.by_ref().take(chunk));
                    }
                    if batch.is_empty() {
                        break;
                    }
                    for (index, item) in batch.drain(..) {
                        let result = f(item);
                        // Uncontended: each index is handed to exactly one
                        // worker.
                        *slots[index].lock().expect("result slot poisoned") = Some(result);
                    }
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was dispatched exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let input: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = input.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let got = parallel_map_threads(input.clone(), threads, |x| x * x);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn matches_serial_with_uneven_costs() {
        // Early items are the slowest, so completion order inverts input
        // order — the output must not.
        let input: Vec<u64> = (0..32).collect();
        let f = |x: u64| {
            std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
            x + 1
        };
        let serial: Vec<u64> = input.iter().map(|&x| f(x)).collect();
        assert_eq!(parallel_map_threads(input, 8, f), serial);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_threads(empty, 4, |x: u32| x).is_empty());
        assert_eq!(parallel_map_threads(vec![7], 4, |x| x * 2), vec![14]);
    }

    #[test]
    fn non_copy_items_and_results() {
        let input: Vec<String> = (0..20).map(|i| format!("w{i}")).collect();
        let got = parallel_map_threads(input, 4, |s| format!("{s}!"));
        assert_eq!(got[0], "w0!");
        assert_eq!(got[19], "w19!");
    }

    // std::thread::scope re-panics with its own payload, so only the fact
    // of the panic (not the message) crosses the join.
    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = parallel_map_threads(vec![1u32, 2, 3], 2, |x| {
            assert!(x != 2, "worker boom");
            x
        });
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    /// All `CACTUS_THREADS` edge cases in one test: the variable is process
    /// global, so the cases run sequentially here rather than as separate
    /// (concurrently scheduled) tests.
    #[test]
    fn max_threads_env_edge_cases() {
        let fallback = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let saved = std::env::var(THREADS_ENV).ok();

        // Not positive integers → fall back to available parallelism.
        for garbage in [
            "0",
            "",
            " ",
            "-3",
            "eight",
            "3.5",
            "0x10",
            "99999999999999999999999",
        ] {
            std::env::set_var(THREADS_ENV, garbage);
            assert_eq!(max_threads(), fallback, "CACTUS_THREADS={garbage:?}");
        }

        // Positive integers are honored, including surrounding whitespace
        // and values far beyond the core count.
        for (value, want) in [("1", 1), (" 8 ", 8), ("64", 64), ("1000000", 1_000_000)] {
            std::env::set_var(THREADS_ENV, value);
            assert_eq!(max_threads(), want, "CACTUS_THREADS={value:?}");
        }

        // A huge override still executes correctly: the per-call clamp
        // bounds workers by the item count.
        std::env::set_var(THREADS_ENV, "1000000");
        let got = parallel_map(vec![1u64, 2, 3], |x| x * 10);
        assert_eq!(got, vec![10, 20, 30]);

        match saved {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }
}
