//! Single-flight coalescing: N concurrent computations of the same key run
//! the computation exactly once.
//!
//! When a burst of requests arrives for the same uncached (device, scale,
//! workload) triple, simulating it once per request would multiply the most
//! expensive step of the serving hierarchy by the burst size. A
//! `SingleFlight` group keys each in-flight computation; the first caller
//! for a key becomes the **leader** and runs the closure, every concurrent
//! caller for the same key becomes a **follower** and blocks on a condvar
//! until the leader publishes the shared result. Once published, the key is
//! retired — a later caller starts a fresh flight (the response cache above
//! this layer is what makes *repeat* requests cheap; this layer only
//! collapses *concurrent* ones).
//!
//! The leader's result type is `Result<T, String>` so failures propagate to
//! every waiter, and a leader that panics publishes an error instead of
//! stranding its followers.

use std::collections::HashMap;
use std::sync::{Arc, Condvar};

use cactus_obs::lock::{rank, RankedMutex};

/// The shared result slot of one in-flight computation.
#[derive(Debug)]
struct Slot<T> {
    result: RankedMutex<Option<Result<T, String>>>,
    ready: Condvar,
}

/// Publishes an error on drop unless the leader completed normally, so a
/// panicking leader never strands followers.
struct LeaderGuard<'a, T: Clone> {
    flight: &'a SingleFlight<T>,
    key: String,
    slot: Arc<Slot<T>>,
    completed: bool,
}

impl<T: Clone> Drop for LeaderGuard<'_, T> {
    fn drop(&mut self) {
        if !self.completed {
            self.flight.publish(
                &self.key,
                &self.slot,
                Err("computation panicked".to_owned()),
            );
        }
    }
}

/// A group of keyed, coalesced computations.
#[derive(Debug)]
pub(crate) struct SingleFlight<T: Clone> {
    inflight: RankedMutex<HashMap<String, Arc<Slot<T>>>>,
}

impl<T: Clone> Default for SingleFlight<T> {
    fn default() -> Self {
        Self {
            inflight: RankedMutex::new(
                rank::SINGLEFLIGHT_MAP,
                "serve.singleflight_map",
                HashMap::new(),
            ),
        }
    }
}

impl<T: Clone> SingleFlight<T> {
    /// An empty group.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Run `compute` for `key`, coalescing with any concurrent call for the
    /// same key. Returns the shared result and whether this caller was the
    /// leader (i.e. actually ran `compute`).
    pub(crate) fn run<F>(&self, key: &str, compute: F) -> (Result<T, String>, bool)
    where
        F: FnOnce() -> Result<T, String>,
    {
        let (slot, leader) = {
            let mut inflight = self.inflight.lock();
            match inflight.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        result: RankedMutex::new(
                            rank::SINGLEFLIGHT_SLOT,
                            "serve.singleflight_slot",
                            None,
                        ),
                        ready: Condvar::new(),
                    });
                    inflight.insert(key.to_owned(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };

        if leader {
            let mut guard = LeaderGuard {
                flight: self,
                key: key.to_owned(),
                slot: Arc::clone(&slot),
                completed: false,
            };
            let result = compute();
            guard.completed = true;
            self.publish(key, &slot, result.clone());
            (result, true)
        } else {
            let mut result = slot.result.lock();
            loop {
                if let Some(shared) = result.as_ref() {
                    return (shared.clone(), false);
                }
                result = result.wait(&slot.ready);
            }
        }
    }

    fn publish(&self, key: &str, slot: &Arc<Slot<T>>, result: Result<T, String>) {
        *slot.result.lock() = Some(result);
        slot.ready.notify_all();
        self.inflight.lock().remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn single_caller_leads_and_retires_the_key() {
        let flight: SingleFlight<u32> = SingleFlight::new();
        let (result, leader) = flight.run("k", || Ok(7));
        assert_eq!(result, Ok(7));
        assert!(leader);
        assert!(
            flight.inflight.lock().is_empty(),
            "key retired after completion"
        );
        // A later call starts a fresh flight.
        let (result, leader) = flight.run("k", || Ok(8));
        assert_eq!(result, Ok(8));
        assert!(leader);
    }

    #[test]
    fn concurrent_callers_coalesce_to_one_computation() {
        const CALLERS: usize = 8;
        let flight: SingleFlight<u64> = SingleFlight::new();
        let computations = AtomicU64::new(0);
        let barrier = Barrier::new(CALLERS);

        let results: Vec<(Result<u64, String>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        flight.run("triple", || {
                            // Linger so every follower arrives while the
                            // leader is still computing.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok(computations.fetch_add(1, Ordering::SeqCst) + 1)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });

        assert_eq!(computations.load(Ordering::SeqCst), 1, "one computation");
        assert_eq!(results.iter().filter(|(_, leader)| *leader).count(), 1);
        for (result, _) in &results {
            assert_eq!(*result, Ok(1), "every caller sees the leader's value");
        }
        assert!(flight.inflight.lock().is_empty());
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let flight: SingleFlight<u32> = SingleFlight::new();
        let a = flight.run("a", || Ok(1));
        let b = flight.run("b", || Ok(2));
        assert_eq!(a.0, Ok(1));
        assert_eq!(b.0, Ok(2));
    }

    #[test]
    fn errors_propagate_to_every_waiter() {
        let flight: SingleFlight<u32> = SingleFlight::new();
        let (result, _) = flight.run("bad", || Err("boom".to_owned()));
        assert_eq!(result, Err("boom".to_owned()));
        assert!(flight.inflight.lock().is_empty());
    }

    #[test]
    fn panicking_leader_does_not_strand_followers() {
        let flight: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let barrier = Arc::new(Barrier::new(2));

        let f = Arc::clone(&flight);
        let b = Arc::clone(&barrier);
        let leader = std::thread::spawn(move || {
            let _ = f.run("k", || {
                b.wait(); // follower is about to join the flight
                std::thread::sleep(std::time::Duration::from_millis(50));
                panic!("leader dies");
            });
        });

        barrier.wait();
        // Give the follower path time to register on the same key.
        let (result, was_leader) = flight.run("k", || Ok(42));
        assert!(leader.join().is_err(), "leader panicked");
        // The follower either coalesced with the dying leader (gets the
        // published error) or arrived after the key retired (computes 42).
        match (result, was_leader) {
            (Err(e), false) => assert!(e.contains("panicked"), "{e}"),
            (Ok(42), true) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(flight.inflight.lock().is_empty());
    }
}
