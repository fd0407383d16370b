//! A thread-safe checkout pool of memoizing [`Gpu`] engines.
//!
//! Long-lived services (the `cactus-serve` daemon) simulate many workloads
//! concurrently from a pool of worker threads. Building a fresh [`Gpu`] per
//! request would discard the launch-memo cache between requests, and sharing
//! one `Gpu` behind a mutex would serialize simulation. The pool gives each
//! concurrent simulation exclusive use of one engine while **keeping every
//! engine's memo cache warm across checkouts**: repeat requests for the same
//! (workload, scale) replay most launches from cache even though each
//! request may land on a different thread.
//!
//! Checkout hands back a [`PooledGpu`] guard. On drop the guard clears the
//! engine's *trace* (per-request state) but keeps its memo cache, folds the
//! memo hits/misses accrued during the checkout into the pool-wide
//! [`GpuPool::memo_stats`] counters, and returns the engine for reuse. The
//! pool is unbounded: a checkout when all engines are busy creates a new
//! engine rather than blocking (callers bound concurrency themselves — the
//! serve daemon's worker pool holds at most one engine per worker).
//!
//! ```
//! use cactus_gpu::pool::GpuPool;
//! use cactus_gpu::prelude::*;
//!
//! let pool = GpuPool::new(Device::rtx3080());
//! let k = KernelDesc::builder("copy")
//!     .launch(LaunchConfig::linear(1 << 20, 256))
//!     .stream(AccessStream::read(1 << 20, 4, AccessPattern::Streaming))
//!     .build();
//! {
//!     let mut gpu = pool.checkout();
//!     gpu.launch(&k);
//! } // engine returned, memo kept
//! {
//!     let mut gpu = pool.checkout();
//!     gpu.launch(&k); // replayed from the warm memo cache
//! }
//! assert_eq!(pool.memo_stats().hits, 1);
//! assert_eq!(pool.memo_stats().misses, 1);
//! assert_eq!(pool.engines(), 1);
//! ```

use cactus_obs::lock::{rank, RankedMutex};

use cactus_obs::Counter;

use crate::device::Device;
use crate::engine::{Gpu, MemoStats};

/// Registry-backed counters a pool reports into, shareable across pools.
///
/// The serve tier registers one set of counters and hands a clone to every
/// device pool via [`GpuPool::instrument`]; the counters then sum memo
/// traffic and engine creation fleet-wide while each pool's own
/// [`GpuPool::memo_stats`] stays per-device.
#[derive(Debug, Clone)]
pub struct PoolInstruments {
    /// Launches replayed from a warm memo cache.
    pub memo_hits: Counter,
    /// Launches simulated from scratch.
    pub memo_misses: Counter,
    /// Engines created (pool growth).
    pub engines_created: Counter,
}

/// A pool of idle [`Gpu`] engines for one device, shareable across threads.
#[derive(Debug)]
pub struct GpuPool {
    device: Device,
    idle: RankedMutex<Vec<Gpu>>,
    /// Memo counters folded in from completed checkouts, plus engine count.
    stats: RankedMutex<PoolCounters>,
    instruments: Option<PoolInstruments>,
}

#[derive(Debug, Default, Clone, Copy)]
struct PoolCounters {
    memo: MemoStats,
    created: u64,
}

impl GpuPool {
    /// An empty pool for `device`; engines are created on first checkout.
    #[must_use]
    pub fn new(device: Device) -> Self {
        Self {
            device,
            idle: RankedMutex::new(rank::ENGINE_POOL_IDLE, "gpu.pool_idle", Vec::new()),
            stats: RankedMutex::new(
                rank::ENGINE_POOL_STATS,
                "gpu.pool_stats",
                PoolCounters::default(),
            ),
            instruments: None,
        }
    }

    /// Attach registry-backed counters; every subsequent checkout reports
    /// its memo delta (and engine creation) into them in addition to the
    /// pool-local stats.
    #[must_use]
    pub fn instrument(mut self, instruments: PoolInstruments) -> Self {
        self.instruments = Some(instruments);
        self
    }

    /// Take exclusive use of an engine (an idle one if available, otherwise
    /// a new one). Never blocks on other checkouts.
    #[must_use]
    pub fn checkout(&self) -> PooledGpu<'_> {
        let reused = self.idle.lock().pop();
        let gpu = reused.unwrap_or_else(|| {
            self.stats.lock().created += 1;
            if let Some(instruments) = &self.instruments {
                instruments.engines_created.inc();
            }
            Gpu::new(self.device.clone())
        });
        let baseline = gpu.memo_stats();
        PooledGpu {
            pool: self,
            gpu: Some(gpu),
            baseline,
        }
    }

    /// Total engines ever created by this pool.
    #[must_use]
    pub fn engines(&self) -> u64 {
        self.stats.lock().created
    }

    /// Memo hits/misses accumulated by all *completed* checkouts.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        self.stats.lock().memo
    }

    fn check_in(&self, mut gpu: Gpu, baseline: MemoStats) {
        let after = gpu.memo_stats();
        let delta = MemoStats {
            hits: after.hits - baseline.hits,
            misses: after.misses - baseline.misses,
        };
        gpu.reset_trace();
        if let Some(instruments) = &self.instruments {
            instruments.memo_hits.add(delta.hits);
            instruments.memo_misses.add(delta.misses);
        }
        let mut stats = self.stats.lock();
        stats.memo = stats.memo.merged(&delta);
        drop(stats);
        self.idle.lock().push(gpu);
    }
}

/// Exclusive use of one pooled engine; derefs to [`Gpu`]. Dropping the
/// guard returns the engine to the pool with its memo cache intact.
#[derive(Debug)]
pub struct PooledGpu<'a> {
    pool: &'a GpuPool,
    gpu: Option<Gpu>,
    baseline: MemoStats,
}

impl PooledGpu<'_> {
    /// Memo hits/misses accrued *during this checkout* so far — the same
    /// delta that will be folded into the pool on drop. Span tagging reads
    /// this to attribute memo traffic to one request.
    #[must_use]
    pub fn memo_delta(&self) -> MemoStats {
        // lint:allow(no_panic, engine is Some from checkout until drop)
        let now = self
            .gpu
            .as_ref()
            .expect("engine present until drop")
            .memo_stats();
        MemoStats {
            hits: now.hits - self.baseline.hits,
            misses: now.misses - self.baseline.misses,
        }
    }
}

impl std::ops::Deref for PooledGpu<'_> {
    type Target = Gpu;

    fn deref(&self) -> &Gpu {
        // lint:allow(no_panic, engine is Some from checkout until drop)
        self.gpu.as_ref().expect("engine present until drop")
    }
}

impl std::ops::DerefMut for PooledGpu<'_> {
    fn deref_mut(&mut self) -> &mut Gpu {
        // lint:allow(no_panic, engine is Some from checkout until drop)
        self.gpu.as_mut().expect("engine present until drop")
    }
}

impl Drop for PooledGpu<'_> {
    fn drop(&mut self) {
        if let Some(gpu) = self.gpu.take() {
            self.pool.check_in(gpu, self.baseline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn kernel(n: u64) -> KernelDesc {
        KernelDesc::builder("k")
            .launch(LaunchConfig::linear(n, 256))
            .stream(AccessStream::read(n, 4, AccessPattern::Streaming))
            .build()
    }

    #[test]
    fn checkout_reuses_idle_engine_and_keeps_memo_warm() {
        let pool = GpuPool::new(Device::rtx3080());
        {
            let mut gpu = pool.checkout();
            gpu.launch(&kernel(1 << 20));
        }
        assert_eq!(pool.engines(), 1);
        assert_eq!(pool.idle.lock().len(), 1);
        {
            let mut gpu = pool.checkout();
            gpu.launch(&kernel(1 << 20));
            assert!(gpu.records().len() == 1, "trace was reset at check-in");
        }
        assert_eq!(pool.engines(), 1, "idle engine was reused");
        let stats = pool.memo_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1, "second checkout hit the warm memo");
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_engines() {
        let pool = GpuPool::new(Device::rtx3080());
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.idle.lock().len(), 0);
        }
        assert_eq!(pool.engines(), 2);
        assert_eq!(pool.idle.lock().len(), 2);
    }

    #[test]
    fn pool_fans_out_across_threads() {
        let pool = GpuPool::new(Device::rtx3080());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut gpu = pool.checkout();
                    gpu.launch(&kernel(1 << 18));
                });
            }
        });
        let stats = pool.memo_stats();
        assert_eq!(stats.launches(), 4);
        // However the threads interleaved, every launch was counted and at
        // least the first one on each fresh engine was a miss.
        assert!(stats.misses >= 1);
        assert_eq!(pool.idle.lock().len() as u64, pool.engines());
    }

    #[test]
    fn instruments_sum_across_checkouts() {
        let registry = cactus_obs::MetricsRegistry::new();
        let instruments = PoolInstruments {
            memo_hits: registry.counter("hits", "").unwrap(),
            memo_misses: registry.counter("misses", "").unwrap(),
            engines_created: registry.counter("engines", "").unwrap(),
        };
        let pool = GpuPool::new(Device::rtx3080()).instrument(instruments.clone());
        {
            let mut gpu = pool.checkout();
            gpu.launch(&kernel(1 << 18));
            let delta = gpu.memo_delta();
            assert_eq!((delta.hits, delta.misses), (0, 1));
        }
        {
            let mut gpu = pool.checkout();
            gpu.launch(&kernel(1 << 18));
            let delta = gpu.memo_delta();
            assert_eq!((delta.hits, delta.misses), (1, 0));
        }
        assert_eq!(instruments.memo_hits.get(), 1);
        assert_eq!(instruments.memo_misses.get(), 1);
        assert_eq!(instruments.engines_created.get(), 1);
    }
}
