//! The simulated GPU device: executes kernel descriptors and records an
//! execution trace.
//!
//! Kernel simulation is **memoized**: the timing model and memory hierarchy
//! are pure functions of the device and the kernel descriptor, and the
//! Cactus workloads relaunch the same kernel configuration many times per
//! run (MD force kernels every timestep, attention kernels every decoder
//! step), so each [`Gpu`] caches `(Timing, KernelMetrics)` per distinct
//! launch fingerprint and replays the cached result on repeat launches. The
//! trace a workload observes is bit-identical with memoization on or off —
//! only the simulation cost changes. See [`Gpu::memo_hits`].

use std::collections::HashMap;

use crate::cache::{MemoryModel, StreamTraffic};
use crate::device::Device;
use crate::kernel::KernelDesc;
use crate::metrics::KernelMetrics;
use crate::timing::{self, Timing};

/// Reusable per-engine scratch for the launch hot path.
///
/// Every launch needs a fingerprint (to consult the memo cache) and every
/// memo miss resolves the kernel's access streams; both used to allocate
/// per call. The scratch keeps those temporaries alive on the [`Gpu`] so a
/// long-lived engine — in particular one cycling through a
/// [`crate::pool::GpuPool`] — touches the allocator only when a memo miss
/// inserts a new cache key.
#[derive(Debug, Clone, Default)]
struct LaunchScratch {
    /// Fingerprint words staged here before the memo lookup; boxed into a
    /// key only on a miss.
    fingerprint: Vec<u64>,
    /// Per-stream traffic staging for [`MemoryModel::resolve_with`].
    streams: Vec<StreamTraffic>,
}

/// Snapshot of a device's launch-memoization counters.
///
/// `hits + misses` equals the number of launches issued while memoization
/// was enabled; `misses` is also the number of *distinct* kernel
/// configurations simulated (each miss populates one cache entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Launches answered from the memo cache.
    pub hits: u64,
    /// Launches that ran the full simulation.
    pub misses: u64,
}

impl MemoStats {
    /// Total memoized-path launches.
    #[must_use]
    pub fn launches(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of launches answered from the cache (0 when none ran).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.launches();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise sum of two snapshots.
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// Record of one executed kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchRecord {
    /// Kernel name (aggregation key for the profiler).
    pub name: String,
    /// Metric record (Table IV + roofline coordinates).
    pub metrics: KernelMetrics,
    /// Timing internals (bound classification, wave structure).
    pub timing: Timing,
}

impl LaunchRecord {
    /// Kernel duration in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.metrics.duration_s
    }
}

/// Words per access stream in a launch fingerprint: direction,
/// warp accesses, transactions-per-access bits, pattern tag, three
/// pattern parameters (zero-padded).
const STREAM_FINGERPRINT_WORDS: usize = 7;

/// Exact fingerprint of everything [`timing::simulate`] and
/// [`MemoryModel::resolve`] read from a kernel descriptor. The kernel *name*
/// is deliberately excluded — two kernels with identical launch geometry,
/// instruction mix, and access streams simulate identically — and the device
/// is excluded because a fingerprint never leaves the `Gpu` whose device
/// produced it.
#[cfg(test)]
fn fingerprint(kernel: &KernelDesc) -> Box<[u64]> {
    let mut words = Vec::new();
    fingerprint_into(kernel, &mut words);
    words.into_boxed_slice()
}

/// Stage a kernel's fingerprint into `words` (cleared first, capacity
/// reused) — the allocation-free form backing the launch hot path.
fn fingerprint_into(kernel: &KernelDesc, words: &mut Vec<u64>) {
    let launch = kernel.launch();
    let mix = kernel.mix();
    let streams = kernel.streams();

    words.clear();
    words.reserve(14 + streams.len() * STREAM_FINGERPRINT_WORDS);
    words.extend([
        launch.grid_blocks,
        u64::from(launch.threads_per_block),
        u64::from(launch.registers_per_thread),
        u64::from(launch.shared_mem_per_block),
    ]);
    words.extend([
        mix.fp32,
        mix.special,
        mix.int,
        mix.branch,
        mix.load,
        mix.store,
        mix.shared,
        mix.sync,
        mix.misc,
    ]);
    words.push(kernel.dependency_fraction().to_bits());
    for stream in streams {
        use crate::access::{AccessPattern, Direction};
        words.push(match stream.direction {
            Direction::Read => 0,
            Direction::Write => 1,
        });
        words.push(stream.warp_accesses);
        words.push(stream.transactions_per_access.to_bits());
        // Fixed-width pattern encoding so no two descriptors can share a
        // word sequence.
        let (tag, p0, p1, p2) = match stream.pattern {
            AccessPattern::Streaming => (0, 0, 0, 0),
            AccessPattern::RandomUniform { working_set_bytes } => (1, working_set_bytes, 0, 0),
            AccessPattern::Sweep {
                working_set_bytes,
                sweeps,
            } => (2, working_set_bytes, u64::from(sweeps), 0),
            AccessPattern::HotCold {
                hot_fraction,
                hot_bytes,
                cold_bytes,
            } => (3, hot_fraction.to_bits(), hot_bytes, cold_bytes),
            AccessPattern::Broadcast { bytes } => (4, bytes, 0, 0),
        };
        words.extend([tag, p0, p1, p2]);
    }
}

/// A simulated GPU: executes [`KernelDesc`]s in issue order and records the
/// resulting trace, playing the role the RTX 3080 + Nsight Compute play in
/// the paper.
///
/// # Example
///
/// ```
/// use cactus_gpu::prelude::*;
///
/// let mut gpu = Gpu::new(Device::rtx3080());
/// let k = KernelDesc::builder("copy")
///     .launch(LaunchConfig::linear(1 << 20, 256))
///     .stream(AccessStream::read(1 << 20, 4, AccessPattern::Streaming))
///     .stream(AccessStream::write(1 << 20, 4, AccessPattern::Streaming))
///     .build();
/// gpu.launch(&k);
/// gpu.launch(&k);
/// assert_eq!(gpu.records().len(), 2);
/// assert_eq!(gpu.memo_hits(), 1); // second launch replayed from cache
/// assert!(gpu.total_gpu_time_s() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    device: Device,
    records: Vec<LaunchRecord>,
    memo: HashMap<Box<[u64]>, (Timing, KernelMetrics)>,
    memo_enabled: bool,
    memo_hits: u64,
    memo_misses: u64,
    scratch: LaunchScratch,
    desc_log: Option<Vec<KernelDesc>>,
}

impl Gpu {
    /// Create a device with an empty trace. Launch memoization starts
    /// enabled; see [`Gpu::set_memoization`].
    #[must_use]
    pub fn new(device: Device) -> Self {
        Self {
            device,
            records: Vec::new(),
            memo: HashMap::new(),
            memo_enabled: true,
            memo_hits: 0,
            memo_misses: 0,
            scratch: LaunchScratch::default(),
            desc_log: None,
        }
    }

    /// The device descriptor.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Execute one kernel launch and append it to the trace; returns the
    /// record.
    ///
    /// If an identical launch (same geometry, mix, streams, and dependency
    /// fraction) was simulated before on this device, the cached result is
    /// replayed instead of re-running the memory and timing models.
    pub fn launch(&mut self, kernel: &KernelDesc) -> &LaunchRecord {
        if let Some(log) = self.desc_log.as_mut() {
            log.push(kernel.clone());
        }
        let (timing, metrics) = if self.memo_enabled {
            // Stage the fingerprint in the scratch arena and look it up by
            // slice; a heap-allocated key is built only when a miss has to
            // populate the cache.
            let mut fp = std::mem::take(&mut self.scratch.fingerprint);
            fingerprint_into(kernel, &mut fp);
            let result = if let Some(&cached) = self.memo.get(fp.as_slice()) {
                self.memo_hits += 1;
                cached
            } else {
                self.memo_misses += 1;
                let result = self.simulate(kernel);
                self.memo.insert(fp.as_slice().into(), result);
                result
            };
            self.scratch.fingerprint = fp;
            result
        } else {
            self.simulate(kernel)
        };
        self.records.push(LaunchRecord {
            name: kernel.name().to_owned(),
            metrics,
            timing,
        });
        // lint:allow(no_panic, a record was pushed two statements up)
        self.records.last().expect("record just pushed")
    }

    /// Run the memory and timing models for one kernel (the memo-miss path).
    ///
    /// Stream resolution stages per-stream traffic in the launch scratch
    /// ([`MemoryModel::resolve_with`]); `timing::simulate` itself operates
    /// on `Copy` data and needs no scratch.
    fn simulate(&mut self, kernel: &KernelDesc) -> (Timing, KernelMetrics) {
        let traffic =
            MemoryModel::resolve_with(&self.device, kernel.streams(), &mut self.scratch.streams);
        timing::simulate(
            &self.device,
            kernel.launch(),
            kernel.mix(),
            kernel.dependency_fraction(),
            &traffic,
        )
    }

    /// Enable or disable launch memoization. Disabling leaves existing
    /// cached entries in place (re-enable to use them again).
    pub fn set_memoization(&mut self, enabled: bool) {
        self.memo_enabled = enabled;
    }

    /// Start logging every launched descriptor (cleared of prior entries).
    /// Workload capture uses this to lift hardcoded runners into the IR;
    /// it is off by default because descriptors are heap-heavy.
    pub fn enable_desc_log(&mut self) {
        self.desc_log = Some(Vec::new());
    }

    /// Take the logged descriptors and stop logging.
    #[must_use]
    pub fn take_desc_log(&mut self) -> Vec<KernelDesc> {
        self.desc_log.take().unwrap_or_default()
    }

    /// Launches answered from the memo cache.
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Launches that ran the full simulation (and populated the cache).
    #[must_use]
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Both memo counters as one snapshot.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo_hits,
            misses: self.memo_misses,
        }
    }

    /// Distinct launch fingerprints currently cached.
    #[must_use]
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// The execution trace so far, in launch order.
    #[must_use]
    pub fn records(&self) -> &[LaunchRecord] {
        &self.records
    }

    /// Total GPU time across all launches, in seconds.
    #[must_use]
    pub fn total_gpu_time_s(&self) -> f64 {
        self.records.iter().map(|r| r.metrics.duration_s).sum()
    }

    /// Total warp instructions across all launches.
    #[must_use]
    pub fn total_warp_instructions(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.metrics.warp_instructions)
            .sum()
    }

    /// Drop the trace (e.g. after a warm-up phase, mirroring how the paper
    /// profiles only a steady-state region). The memo cache survives — a
    /// post-warm-up run replays warm-up kernels from cache.
    pub fn reset_trace(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessPattern, AccessStream};
    use crate::instmix::InstructionMix;
    use crate::launch::LaunchConfig;

    fn copy_kernel(n: u64) -> KernelDesc {
        KernelDesc::builder("copy")
            .launch(LaunchConfig::linear(n, 256))
            .stream(AccessStream::read(n, 4, AccessPattern::Streaming))
            .stream(AccessStream::write(n, 4, AccessPattern::Streaming))
            .build()
    }

    #[test]
    fn launch_appends_records() {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.launch(&copy_kernel(1 << 20));
        gpu.launch(&copy_kernel(1 << 21));
        assert_eq!(gpu.records().len(), 2);
        assert!(gpu.records()[1].duration_s() > gpu.records()[0].duration_s());
    }

    #[test]
    fn totals_accumulate() {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.launch(&copy_kernel(1 << 20));
        let t1 = gpu.total_gpu_time_s();
        gpu.launch(&copy_kernel(1 << 20));
        assert!((gpu.total_gpu_time_s() - 2.0 * t1).abs() < 1e-12);
        assert!(gpu.total_warp_instructions() > 0);
    }

    #[test]
    fn reset_trace_clears() {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.launch(&copy_kernel(1 << 20));
        gpu.reset_trace();
        assert!(gpu.records().is_empty());
        assert_eq!(gpu.total_gpu_time_s(), 0.0);
    }

    #[test]
    fn compute_kernel_is_compute_intensive() {
        let mut gpu = Gpu::new(Device::rtx3080());
        let lc = LaunchConfig::linear(1 << 22, 256);
        let warps = lc.total_warps();
        let k = KernelDesc::builder("gemm_like")
            .launch(lc)
            .mix(
                InstructionMix::new()
                    .with_fp32(warps * 4000)
                    .with_shared(warps * 500),
            )
            .stream(AccessStream::read(1 << 22, 4, AccessPattern::Streaming))
            .build();
        let elbow = gpu.device().elbow_intensity();
        let r = gpu.launch(&k);
        assert!(
            r.metrics.instruction_intensity > elbow,
            "II {} vs elbow {elbow}",
            r.metrics.instruction_intensity
        );
    }

    #[test]
    fn repeat_launches_hit_the_memo() {
        let mut gpu = Gpu::new(Device::rtx3080());
        let k = copy_kernel(1 << 20);
        for _ in 0..5 {
            gpu.launch(&k);
        }
        assert_eq!(gpu.memo_misses(), 1);
        assert_eq!(gpu.memo_hits(), 4);
        assert_eq!(gpu.memo_len(), 1);
        let first = gpu.records()[0].clone();
        for r in gpu.records() {
            assert_eq!(*r, first);
        }
    }

    #[test]
    fn memoized_trace_is_bit_identical_to_cold_trace() {
        let kernels: Vec<KernelDesc> = (0..4)
            .flat_map(|_| [copy_kernel(1 << 18), copy_kernel(1 << 20)])
            .collect();

        let mut warm = Gpu::new(Device::rtx3080());
        let mut cold = Gpu::new(Device::rtx3080());
        cold.set_memoization(false);
        for k in &kernels {
            warm.launch(k);
            cold.launch(k);
        }
        assert_eq!(warm.records(), cold.records());
        assert_eq!(warm.memo_misses(), 2);
        assert_eq!(warm.memo_hits(), 6);
        assert_eq!(cold.memo_hits() + cold.memo_misses(), 0);
    }

    #[test]
    fn fingerprint_separates_distinct_kernels() {
        // Same name, different geometry → distinct entries.
        let a = copy_kernel(1 << 18);
        let b = copy_kernel(1 << 20);
        assert_ne!(fingerprint(&a), fingerprint(&b));

        // Different name, same everything else → same fingerprint.
        let renamed = KernelDesc::builder("other_name")
            .launch(*a.launch())
            .mix(*a.mix())
            .streams(a.streams().iter().copied())
            .dependency_fraction(a.dependency_fraction())
            .build();
        assert_eq!(fingerprint(&a), fingerprint(&renamed));

        // Pattern parameters are part of the key.
        let sweep1 = KernelDesc::builder("s")
            .stream(AccessStream::read(
                1 << 16,
                4,
                AccessPattern::Sweep {
                    working_set_bytes: 1 << 20,
                    sweeps: 2,
                },
            ))
            .build();
        let sweep2 = KernelDesc::builder("s")
            .stream(AccessStream::read(
                1 << 16,
                4,
                AccessPattern::Sweep {
                    working_set_bytes: 1 << 20,
                    sweeps: 3,
                },
            ))
            .build();
        assert_ne!(fingerprint(&sweep1), fingerprint(&sweep2));
    }

    #[test]
    fn launch_scratch_capacity_is_reused_across_launches() {
        let mut gpu = Gpu::new(Device::rtx3080());
        let a = copy_kernel(1 << 18);
        let b = copy_kernel(1 << 20);
        gpu.launch(&a);
        gpu.launch(&b);
        let fp_cap = gpu.scratch.fingerprint.capacity();
        let st_cap = gpu.scratch.streams.capacity();
        gpu.set_memoization(false); // force the simulate path every launch
        for _ in 0..8 {
            gpu.launch(&a);
            gpu.launch(&b);
        }
        gpu.set_memoization(true);
        gpu.launch(&a); // memo-hit path also goes through the staged lookup
        assert_eq!(gpu.scratch.fingerprint.capacity(), fp_cap);
        assert_eq!(gpu.scratch.streams.capacity(), st_cap);
        assert_eq!(gpu.memo_hits(), 1);
    }

    #[test]
    fn renamed_kernel_records_its_own_name_on_memo_hit() {
        let mut gpu = Gpu::new(Device::rtx3080());
        let a = copy_kernel(1 << 20);
        let b = KernelDesc::builder("copy_v2")
            .launch(*a.launch())
            .mix(*a.mix())
            .streams(a.streams().iter().copied())
            .dependency_fraction(a.dependency_fraction())
            .build();
        gpu.launch(&a);
        gpu.launch(&b);
        assert_eq!(gpu.memo_hits(), 1);
        assert_eq!(gpu.records()[0].name, "copy");
        assert_eq!(gpu.records()[1].name, "copy_v2");
        assert_eq!(gpu.records()[0].metrics, gpu.records()[1].metrics);
    }
}
