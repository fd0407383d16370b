//! Shared kernel-emission helpers for the comparison suites.
//!
//! Each suite benchmark performs a real (small-scale) computation and then
//! describes its kernels to the device model with one of these builders,
//! parameterized by the work the computation actually did. The builders
//! encode the two roofline archetypes the paper observes in these suites:
//! compute-dense kernels with on-chip reuse (right of the elbow) and
//! streaming/gather kernels (left of it).

use cactus_gpu::access::{AccessPattern, AccessStream, Direction};
use cactus_gpu::instmix::InstructionMix;
use cactus_gpu::kernel::KernelDesc;
use cactus_gpu::launch::LaunchConfig;

fn warps(n: u64) -> u64 {
    n.div_ceil(32).max(1)
}

/// A compute-dense kernel: `flops_per_thread` FP32 ops per thread with
/// shared-memory tiling over a `ws_bytes` working set. Lands right of the
/// roofline elbow.
#[must_use]
pub(crate) fn compute_kernel(
    name: &str,
    threads: u64,
    flops_per_thread: u64,
    ws_bytes: u64,
) -> KernelDesc {
    let w = warps(threads);
    let fp = w * flops_per_thread;
    KernelDesc::builder(name)
        .launch(
            LaunchConfig::linear(threads, 128)
                .with_registers(64)
                .with_shared_mem(16 * 1024),
        )
        .mix(
            InstructionMix::new()
                .with_fp32(fp)
                .with_special(fp / 32 + 1)
                .with_shared(fp / 4 + 1)
                .with_int(fp / 8 + 1)
                .with_sync(w / 8 + 1)
                .with_branch(w * 2),
        )
        .stream(AccessStream::raw(
            Direction::Read,
            w * 2,
            4.0,
            AccessPattern::HotCold {
                hot_fraction: 0.9,
                hot_bytes: 64 * 1024,
                cold_bytes: ws_bytes.max(128),
            },
        ))
        .stream(AccessStream::write(threads, 4, AccessPattern::Streaming))
        .dependency_fraction(0.3)
        .build()
}

/// A streaming memory kernel: reads `read_bytes_per_thread` and writes
/// `write_bytes_per_thread` per thread with few FLOPs. Lands on the memory
/// side, on or near the bandwidth roof at scale.
#[must_use]
pub(crate) fn streaming_kernel(
    name: &str,
    threads: u64,
    read_bytes_per_thread: u32,
    write_bytes_per_thread: u32,
    flops_per_thread: u64,
) -> KernelDesc {
    let w = warps(threads);
    let mut b = KernelDesc::builder(name)
        .launch(LaunchConfig::linear(threads, 256))
        .mix(
            InstructionMix::new()
                .with_fp32(w * flops_per_thread)
                .with_int(w * 4)
                .with_branch(w)
                .with_misc(w),
        )
        .dependency_fraction(0.3);
    if read_bytes_per_thread > 0 {
        b = b.stream(AccessStream::read(
            threads,
            read_bytes_per_thread,
            AccessPattern::Streaming,
        ));
    }
    if write_bytes_per_thread > 0 {
        b = b.stream(AccessStream::write(
            threads,
            write_bytes_per_thread,
            AccessPattern::Streaming,
        ));
    }
    b.build()
}

/// An irregular-gather memory kernel (graph/sparse workloads): poorly
/// coalesced random reads over a working set. Deep on the memory side,
/// often latency-limited.
#[must_use]
pub(crate) fn gather_kernel(
    name: &str,
    threads: u64,
    accesses_per_thread: u64,
    ws_bytes: u64,
    flops_per_thread: u64,
) -> KernelDesc {
    let w = warps(threads);
    KernelDesc::builder(name)
        .launch(LaunchConfig::linear(threads, 192))
        .mix(
            InstructionMix::new()
                .with_fp32(w * flops_per_thread)
                .with_int(w * 6)
                .with_branch(w * 3),
        )
        .stream(AccessStream::raw(
            Direction::Read,
            w * accesses_per_thread,
            14.0,
            AccessPattern::RandomUniform {
                working_set_bytes: ws_bytes.max(128),
            },
        ))
        .stream(AccessStream::write(threads, 4, AccessPattern::Streaming))
        .dependency_fraction(0.55)
        .build()
}

/// A shared-memory reduction kernel.
#[must_use]
pub(crate) fn reduction_kernel(name: &str, threads: u64) -> KernelDesc {
    let w = warps(threads);
    KernelDesc::builder(name)
        .launch(LaunchConfig::linear(threads, 256).with_shared_mem(4096))
        .mix(
            InstructionMix::new()
                .with_fp32(w * 2)
                .with_shared(w * 5)
                .with_sync(w / 4 + 1)
                .with_int(w * 2),
        )
        .stream(AccessStream::read(threads, 4, AccessPattern::Streaming))
        .stream(AccessStream::write(
            threads / 256 + 1,
            4,
            AccessPattern::Streaming,
        ))
        .dependency_fraction(0.6)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::{Device, Gpu};

    #[test]
    fn compute_kernel_is_right_of_elbow() {
        let mut gpu = Gpu::new(Device::rtx3080());
        let elbow = gpu.device().elbow_intensity();
        let r = gpu.launch(&compute_kernel("k", 1 << 20, 400, 1 << 22));
        assert!(
            r.metrics.instruction_intensity > elbow,
            "II {}",
            r.metrics.instruction_intensity
        );
    }

    #[test]
    fn streaming_kernel_is_left_of_elbow_on_the_roof() {
        let mut gpu = Gpu::new(Device::rtx3080());
        let elbow = gpu.device().elbow_intensity();
        let gtxn = gpu.device().peak_gtxn_per_s();
        let r = gpu.launch(&streaming_kernel("k", 1 << 22, 16, 4, 4));
        let m = r.metrics;
        assert!(m.instruction_intensity < elbow);
        let roof = m.instruction_intensity * gtxn;
        assert!(m.gips > 0.7 * roof, "gips {} roof {roof}", m.gips);
    }

    #[test]
    fn gather_kernel_is_memory_bound_with_low_hit_rates() {
        let mut gpu = Gpu::new(Device::rtx3080());
        let r = gpu.launch(&gather_kernel("k", 1 << 20, 8, 256 << 20, 2));
        assert!(r.metrics.l2_hit_rate < 0.2, "l2 {}", r.metrics.l2_hit_rate);
        assert!(r.metrics.instruction_intensity < 5.0);
    }
}
