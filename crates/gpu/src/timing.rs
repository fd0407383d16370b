//! Wave-based SM timing model.
//!
//! The model descends from the analytic GPU-performance-model tradition
//! (Hong & Kim's MWP/CWP model and the instruction-roofline work the paper
//! builds on). A kernel executes in scheduling *waves* of thread blocks.
//! Within a wave, each SM interleaves its resident warps across its
//! schedulers; a wave's duration is the larger of
//!
//! * the **issue time** — warp instructions the scheduler must issue,
//!   one per cycle per scheduler, and
//! * the **serial time** — the dependency-limited latency of a single warp's
//!   instruction stream (instructions that wait on their producers pay the
//!   functional-unit or memory latency).
//!
//! With many resident warps the issue time dominates (latency is hidden);
//! with few warps the serial time dominates and the kernel is
//! *latency-bound*. Device-wide, the kernel can additionally be capped by
//! DRAM or L2 bandwidth; whichever of the four terms is largest determines
//! the duration, and the surplus over the issue time is attributed to the
//! stall categories of the paper's Table IV.

use crate::cache::TrafficResult;
use crate::device::Device;
use crate::instmix::InstructionMix;
use crate::launch::{LaunchConfig, Occupancy};
use crate::metrics::KernelMetrics;

/// Which resource bounds the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Warp-issue (compute) bound.
    Issue,
    /// Dependency-latency bound (too few warps to hide latency).
    Latency,
    /// DRAM-bandwidth bound.
    Dram,
    /// L2-bandwidth bound.
    L2,
}

/// Full timing result for one launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Timing {
    /// Kernel duration in seconds (includes fixed launch overhead).
    pub duration_s: f64,
    /// Duration in core cycles.
    pub duration_cycles: f64,
    /// Which term determined the duration.
    pub bound: Bound,
    /// Per-wave issue cycles per scheduler.
    pub issue_cycles_per_wave: f64,
    /// Dependency-limited serial cycles of one warp.
    pub serial_cycles_per_warp: f64,
    /// Device-wide DRAM service cycles.
    pub dram_cycles: f64,
    /// Device-wide L2 service cycles.
    pub l2_cycles: f64,
    /// The occupancy record used.
    pub occupancy: Occupancy,
}

/// Compute the timing and the full metric record for one launch.
#[must_use]
pub(crate) fn simulate(
    device: &Device,
    launch: &LaunchConfig,
    mix: &InstructionMix,
    dependency_fraction: f64,
    traffic: &TrafficResult,
) -> (Timing, KernelMetrics) {
    let occ = launch.occupancy(device);
    let lat = &device.latencies;
    let dep = dependency_fraction.clamp(0.0, 1.0);

    let total_insts = mix.total().max(1) as f64;
    let warps = launch.total_warps().max(1) as f64;
    let ipw = total_insts / warps; // instructions per warp
    let per_warp = |n: u64| n as f64 / warps;

    // --- Serial (dependency-limited) time of one warp -----------------
    let mem_lat = traffic.avg_read_latency_cycles;
    let sync_cost = 20.0 + 2.0 * f64::from(launch.warps_per_block());
    let serial_stall_mem =
        dep * (per_warp(mix.load) * (mem_lat - 1.0) + per_warp(mix.shared) * (lat.shared - 1.0));
    let serial_stall_exec = dep
        * ((per_warp(mix.fp32) + per_warp(mix.int) + per_warp(mix.branch) + per_warp(mix.misc))
            * (lat.alu - 1.0)
            + per_warp(mix.special) * (lat.sfu - 1.0)
            + per_warp(mix.store) * (lat.alu - 1.0));
    let serial_stall_sync = per_warp(mix.sync) * sync_cost;
    let serial_cycles_per_warp = ipw + serial_stall_mem + serial_stall_exec + serial_stall_sync;

    // --- Issue time of one wave per scheduler --------------------------
    let warps_per_sched =
        f64::from(occ.resident_warps_per_sm) / f64::from(device.schedulers_per_sm);
    let issue_cycles_per_wave = warps_per_sched.max(1.0) * ipw / device.issue_per_scheduler;

    // --- SM-side kernel time -------------------------------------------
    let wave_cycles = issue_cycles_per_wave.max(serial_cycles_per_warp);
    let waves = occ.effective_waves().max(1.0);
    let sm_cycles = waves * wave_cycles;

    // --- Device-wide bandwidth terms ------------------------------------
    let dram_txn_per_cycle = device.peak_gtxn_per_s() * 1e9 / device.clock_hz();
    let dram_cycles = traffic.dram_transactions() / dram_txn_per_cycle;
    let l2_bytes = traffic.l2_accesses * f64::from(device.l1.sector_bytes);
    let l2_bytes_per_cycle = device.l2_bandwidth_gbps * 1e9 / device.clock_hz();
    let l2_cycles = l2_bytes / l2_bytes_per_cycle;

    let (body_cycles, bound) = {
        let mut best = (sm_cycles, Bound::Issue);
        if serial_cycles_per_warp > issue_cycles_per_wave {
            best.1 = Bound::Latency;
        }
        if dram_cycles > best.0 {
            best = (dram_cycles, Bound::Dram);
        }
        if l2_cycles > best.0 {
            best = (l2_cycles, Bound::L2);
        }
        best
    };

    let duration_cycles = body_cycles + device.launch_overhead_cycles;
    let duration_s = duration_cycles / device.clock_hz();

    let timing = Timing {
        duration_s,
        duration_cycles,
        bound,
        issue_cycles_per_wave,
        serial_cycles_per_warp,
        dram_cycles,
        l2_cycles,
        occupancy: occ,
    };

    // --- Metrics ---------------------------------------------------------
    let sm_util = occ.sm_utilization(device.sm_count);
    let wave_time = body_cycles / waves;

    // Stall attribution: per warp, cycles resident = wave_time, issued = ipw.
    let total_stall = (wave_time - ipw).max(0.0);
    // Pipe-busy: waiting for the scheduler because other warps are issuing.
    let pipe_raw = (issue_cycles_per_wave - ipw).max(0.0);
    // Bandwidth surplus goes to the memory-stall bucket (warps queue on the
    // memory system) unless the kernel is issue/latency bound.
    let bw_surplus = match bound {
        Bound::Dram | Bound::L2 => {
            (wave_time - issue_cycles_per_wave.max(serial_cycles_per_warp)).max(0.0)
        }
        _ => 0.0,
    };
    let mem_raw = serial_stall_mem + bw_surplus;
    let exec_raw = serial_stall_exec;
    let sync_raw = serial_stall_sync;
    let raw_sum = mem_raw + exec_raw + sync_raw + pipe_raw;
    let norm = if raw_sum > 0.0 {
        total_stall / raw_sum / wave_time.max(1.0)
    } else {
        0.0
    };
    let memory_stall = (mem_raw * norm).clamp(0.0, 1.0);
    let execution_stall = (exec_raw * norm).clamp(0.0, 1.0);
    let sync_stall = (sync_raw * norm).clamp(0.0, 1.0);
    let pipe_stall = (pipe_raw * norm).clamp(0.0, 1.0);

    let gips = total_insts / duration_s / 1e9;
    let dram_txns = traffic.dram_transactions();
    let instruction_intensity = total_insts / dram_txns.max(1.0);

    // Functional-unit utilizations.
    let sm_active = f64::from(device.sm_count) * sm_util;
    let fp32_capacity = sm_active * f64::from(device.fp32_lanes_per_sm) / 32.0 * duration_cycles;
    let sp_utilization = if fp32_capacity > 0.0 {
        (mix.fp32 as f64 / fp32_capacity).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let ldst_capacity = sm_active * f64::from(device.ldst_lanes_per_sm) / 32.0 * duration_cycles;
    let ldst_insts = (mix.load + mix.store + mix.shared) as f64;
    let ldst_utilization = if ldst_capacity > 0.0 {
        (ldst_insts / ldst_capacity).clamp(0.0, 1.0)
    } else {
        0.0
    };

    let metrics = KernelMetrics {
        duration_s,
        warp_instructions: mix.total(),
        dram_transactions: dram_txns,
        gips,
        instruction_intensity,
        warp_occupancy: f64::from(occ.resident_warps_per_sm) * sm_util,
        sm_efficiency: sm_util,
        l1_hit_rate: traffic.l1_hit_rate(),
        l2_hit_rate: traffic.l2_hit_rate(),
        dram_read_throughput_gbps: traffic.dram_read_bytes(device) / duration_s / 1e9,
        ldst_utilization,
        sp_utilization,
        fraction_branches: mix.fraction_branches(),
        fraction_ldst: mix.fraction_ldst(),
        execution_stall,
        pipe_stall,
        sync_stall,
        memory_stall,
    };

    (timing, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessPattern, AccessStream};
    use crate::cache::MemoryModel;

    fn device() -> Device {
        Device::rtx3080()
    }

    /// The model with a throwaway staging buffer.
    fn resolve(device: &Device, streams: &[AccessStream]) -> TrafficResult {
        MemoryModel::resolve_with(device, streams, &mut Vec::new())
    }

    /// A large compute-heavy kernel with negligible memory traffic should
    /// approach the 516.8 GIPS compute roof.
    #[test]
    fn compute_kernel_approaches_peak_gips() {
        let d = device();
        let lc = LaunchConfig::linear(1 << 24, 256);
        let warps = lc.total_warps();
        let mix = InstructionMix::new().with_fp32(warps * 2000);
        let traffic = resolve(&d, &[]);
        let (t, m) = simulate(&d, &lc, &mix, 0.2, &traffic);
        assert_eq!(t.bound, Bound::Issue);
        assert!(m.gips > 0.9 * d.peak_gips(), "gips {}", m.gips);
        assert!(m.gips <= d.peak_gips() * 1.0001);
    }

    /// A streaming kernel should sit on the memory roof:
    /// GIPS ≈ II × 23.75.
    #[test]
    fn streaming_kernel_sits_on_memory_roof() {
        let d = device();
        let n = 1u64 << 26;
        let lc = LaunchConfig::linear(n, 256);
        let warps = lc.total_warps();
        let mut mix = InstructionMix::new()
            .with_load(warps * 2)
            .with_fp32(warps * 2)
            .with_int(warps * 4);
        mix.store = warps;
        let streams = [
            AccessStream::read(n, 8, AccessPattern::Streaming),
            AccessStream::write(n, 4, AccessPattern::Streaming),
        ];
        let traffic = resolve(&d, &streams);
        let (t, m) = simulate(&d, &lc, &mix, 0.3, &traffic);
        assert_eq!(t.bound, Bound::Dram);
        let roof = m.instruction_intensity * d.peak_gtxn_per_s();
        assert!(
            (m.gips - roof).abs() / roof < 0.05,
            "gips {} vs roof {roof}",
            m.gips
        );
        // Memory-bound region: left of the elbow.
        assert!(m.instruction_intensity < d.elbow_intensity());
        // Stalls should be dominated by memory.
        assert!(m.memory_stall > m.execution_stall);
    }

    /// A one-block kernel is latency-bound with very low SM efficiency and
    /// GIPS far below 1% of peak.
    #[test]
    fn tiny_kernel_is_latency_bound() {
        let d = device();
        let lc = LaunchConfig::new(1, 64);
        let warps = lc.total_warps();
        let mix = InstructionMix::new()
            .with_fp32(warps * 100)
            .with_load(warps * 30);
        let streams = [AccessStream::raw(
            crate::access::Direction::Read,
            warps * 30,
            16.0,
            AccessPattern::RandomUniform {
                working_set_bytes: 64 << 20,
            },
        )];
        let traffic = resolve(&d, &streams);
        let (t, m) = simulate(&d, &lc, &mix, 0.6, &traffic);
        assert_eq!(t.bound, Bound::Latency);
        assert!(m.sm_efficiency < 0.05, "sm eff {}", m.sm_efficiency);
        assert!(m.gips < d.latency_bound_threshold_gips(), "gips {}", m.gips);
    }

    #[test]
    fn stall_fractions_are_ratios() {
        let d = device();
        let lc = LaunchConfig::linear(1 << 20, 128);
        let warps = lc.total_warps();
        let mix = InstructionMix::new()
            .with_fp32(warps * 50)
            .with_load(warps * 20)
            .with_sync(warps * 2)
            .with_branch(warps * 5);
        let streams = [AccessStream::read(1 << 20, 4, AccessPattern::Streaming)];
        let traffic = resolve(&d, &streams);
        let (_, m) = simulate(&d, &lc, &mix, 0.4, &traffic);
        let total = m.memory_stall + m.execution_stall + m.sync_stall + m.pipe_stall;
        assert!((0.0..=1.0).contains(&total), "total stall {total}");
        for v in [
            m.memory_stall,
            m.execution_stall,
            m.sync_stall,
            m.pipe_stall,
        ] {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn more_warps_hide_latency() {
        let d = device();
        let n = 1u64 << 22;
        let mix_of = |lc: &LaunchConfig| {
            let warps = lc.total_warps();
            InstructionMix::new()
                .with_fp32(warps * 64)
                .with_load(warps * 16)
        };
        let streams = [AccessStream::read(n, 4, AccessPattern::Streaming)];
        let traffic = resolve(&d, &streams);

        // Same total work; 64-thread blocks with huge register use (low
        // occupancy) vs. 256-thread blocks (full occupancy).
        let low = LaunchConfig::linear(n, 64).with_registers(255);
        let high = LaunchConfig::linear(n, 256).with_registers(32);
        let (_, m_low) = simulate(&d, &low, &mix_of(&low), 0.5, &traffic);
        let (_, m_high) = simulate(&d, &high, &mix_of(&high), 0.5, &traffic);
        assert!(
            m_high.gips >= m_low.gips,
            "high-occ {} < low-occ {}",
            m_high.gips,
            m_low.gips
        );
    }

    #[test]
    fn duration_includes_launch_overhead() {
        let d = device();
        let lc = LaunchConfig::new(1, 32);
        let mix = InstructionMix::new().with_fp32(1);
        let traffic = resolve(&d, &[]);
        let (t, _) = simulate(&d, &lc, &mix, 0.0, &traffic);
        assert!(t.duration_cycles >= d.launch_overhead_cycles);
    }
}
