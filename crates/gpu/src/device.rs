//! Physical device descriptors.
//!
//! A [`Device`] captures every hardware parameter the timing and cache models
//! consume. The preset [`Device::rtx3080`] matches the paper's Table II
//! platform; the derived quantities reproduce the paper's Section IV numbers:
//! 516.8 peak GIPS, 23.75 GTXN/s peak memory transaction rate, and a roofline
//! elbow at 21.76 warp instructions per DRAM transaction.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache line size in bytes (allocation granularity).
    pub line_bytes: u32,
    /// Sector size in bytes (fill/transaction granularity).
    pub sector_bytes: u32,
    /// Set associativity.
    pub associativity: u32,
}

impl CacheGeometry {
    /// Number of cache lines.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.size_bytes / u64::from(self.line_bytes)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        (self.lines() / u64::from(self.associativity)).max(1)
    }
}

/// Characteristic load-to-use latencies, in core clock cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latencies {
    /// Dependent-issue latency of a simple ALU instruction.
    pub alu: f64,
    /// Dependent-issue latency of a special-function (SFU) instruction.
    pub sfu: f64,
    /// Shared-memory load-to-use latency.
    pub shared: f64,
    /// L1 hit load-to-use latency.
    pub l1_hit: f64,
    /// L2 hit load-to-use latency.
    pub l2_hit: f64,
    /// DRAM load-to-use latency.
    pub dram: f64,
}

impl Latencies {
    /// Latencies representative of the Ampere generation.
    #[must_use]
    pub fn ampere() -> Self {
        Self {
            alu: 4.0,
            sfu: 8.0,
            shared: 22.0,
            l1_hit: 32.0,
            l2_hit: 210.0,
            dram: 470.0,
        }
    }
}

/// A simulated GPU device.
///
/// This is a passive configuration record; all fields are public so that
/// hypothetical-hardware studies can tweak individual parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Marketing name, e.g. `"RTX 3080"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Warp schedulers per SM (SM sub-partitions).
    pub schedulers_per_sm: u32,
    /// Warp instructions issued per scheduler per cycle.
    pub issue_per_scheduler: f64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Register file size per SM, in 32-bit registers.
    pub registers_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// FP32 lanes per SM (CUDA cores).
    pub fp32_lanes_per_sm: u32,
    /// Load/store lanes per SM.
    pub ldst_lanes_per_sm: u32,
    /// Per-SM L1 data cache geometry.
    pub l1: CacheGeometry,
    /// Device-wide L2 cache geometry.
    pub l2: CacheGeometry,
    /// DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// DRAM transaction size in bytes.
    pub dram_transaction_bytes: u32,
    /// L2-to-SM aggregate bandwidth in GB/s.
    pub l2_bandwidth_gbps: f64,
    /// Characteristic latencies.
    pub latencies: Latencies,
    /// Fixed per-launch front-end overhead in core cycles (pipeline fill and
    /// drain; kernel launch gaps are excluded, matching how Nsight reports
    /// kernel durations).
    pub launch_overhead_cycles: f64,
}

impl Device {
    /// The paper's platform (Table II): Nvidia RTX 3080, 68 SMs with 128 CUDA
    /// cores each at 1.9 GHz, 10 GB GDDR6X at 760.3 GB/s, 5 MB L2.
    ///
    /// ```
    /// let d = cactus_gpu::device::Device::rtx3080();
    /// assert!((d.peak_gips() - 516.8).abs() < 1e-9);
    /// assert!((d.peak_gtxn_per_s() - 23.759_375).abs() < 1e-6);
    /// assert!((d.elbow_intensity() - 21.75).abs() < 0.2);
    /// ```
    #[must_use]
    pub fn rtx3080() -> Self {
        Self {
            name: "RTX 3080".to_owned(),
            sm_count: 68,
            schedulers_per_sm: 4,
            issue_per_scheduler: 1.0,
            clock_ghz: 1.9,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 102_400,
            fp32_lanes_per_sm: 128,
            ldst_lanes_per_sm: 32,
            l1: CacheGeometry {
                size_bytes: 128 * 1024,
                line_bytes: 128,
                sector_bytes: 32,
                associativity: 4,
            },
            l2: CacheGeometry {
                size_bytes: 5 * 1024 * 1024,
                line_bytes: 128,
                sector_bytes: 32,
                associativity: 16,
            },
            dram_bandwidth_gbps: 760.3,
            dram_transaction_bytes: 32,
            l2_bandwidth_gbps: 2200.0,
            latencies: Latencies::ampere(),
            launch_overhead_cycles: 1500.0,
        }
    }

    /// A previous-generation Turing card: Nvidia RTX 2080 Ti (68 SMs at
    /// 1.545 GHz, 11 GB GDDR6 at 616 GB/s, 5.5 MB L2).
    #[must_use]
    pub fn rtx2080ti() -> Self {
        Self {
            name: "RTX 2080 Ti".to_owned(),
            sm_count: 68,
            clock_ghz: 1.545,
            max_warps_per_sm: 32,
            fp32_lanes_per_sm: 64,
            l1: CacheGeometry {
                size_bytes: 96 * 1024,
                line_bytes: 128,
                sector_bytes: 32,
                associativity: 4,
            },
            l2: CacheGeometry {
                size_bytes: 5632 * 1024,
                line_bytes: 128,
                sector_bytes: 32,
                associativity: 16,
            },
            dram_bandwidth_gbps: 616.0,
            l2_bandwidth_gbps: 1800.0,
            ..Self::rtx3080()
        }
    }

    /// A data-center Ampere part: Nvidia A100 (108 SMs at 1.41 GHz, 40 GB
    /// HBM2 at 1555 GB/s, 40 MB L2).
    #[must_use]
    pub fn a100() -> Self {
        Self {
            name: "A100".to_owned(),
            sm_count: 108,
            clock_ghz: 1.41,
            max_warps_per_sm: 64,
            fp32_lanes_per_sm: 64,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 164 * 1024,
            l1: CacheGeometry {
                size_bytes: 192 * 1024,
                line_bytes: 128,
                sector_bytes: 32,
                associativity: 4,
            },
            l2: CacheGeometry {
                size_bytes: 40 * 1024 * 1024,
                line_bytes: 128,
                sector_bytes: 32,
                associativity: 16,
            },
            dram_bandwidth_gbps: 1555.0,
            l2_bandwidth_gbps: 4500.0,
            ..Self::rtx3080()
        }
    }

    /// An older Pascal card: Nvidia GTX 1080 (20 SMs at 1.733 GHz, 8 GB
    /// GDDR5X at 320 GB/s, 2 MB L2).
    #[must_use]
    pub fn gtx1080() -> Self {
        Self {
            name: "GTX 1080".to_owned(),
            sm_count: 20,
            clock_ghz: 1.733,
            max_warps_per_sm: 64,
            fp32_lanes_per_sm: 128,
            l1: CacheGeometry {
                size_bytes: 48 * 1024,
                line_bytes: 128,
                sector_bytes: 32,
                associativity: 4,
            },
            l2: CacheGeometry {
                size_bytes: 2 * 1024 * 1024,
                line_bytes: 128,
                sector_bytes: 32,
                associativity: 16,
            },
            dram_bandwidth_gbps: 320.0,
            l2_bandwidth_gbps: 1000.0,
            ..Self::rtx3080()
        }
    }

    /// A mainstream Ampere card: Nvidia RTX 3060 (28 SMs at 1.777 GHz, 12 GB
    /// GDDR6 at 360 GB/s, 3 MB L2). The discrete half of the
    /// discrete-vs-integrated contrast pair.
    #[must_use]
    pub fn rtx3060() -> Self {
        Self {
            name: "RTX 3060".to_owned(),
            sm_count: 28,
            clock_ghz: 1.777,
            l2: CacheGeometry {
                size_bytes: 3 * 1024 * 1024,
                line_bytes: 128,
                sector_bytes: 32,
                associativity: 16,
            },
            dram_bandwidth_gbps: 360.0,
            l2_bandwidth_gbps: 1100.0,
            ..Self::rtx3080()
        }
    }

    /// An integrated part: Intel UHD Graphics 630 (Gen9.5 GT2). Modeled as
    /// 3 subslices of 8 EUs at 1.15 GHz sharing system DDR4 at 41.6 GB/s,
    /// with a small 512 KB last-level cache — the "tiny L2, a fraction of
    /// the DRAM bandwidth" end of the heterogeneity spectrum.
    #[must_use]
    pub fn uhd630() -> Self {
        Self {
            name: "UHD 630".to_owned(),
            sm_count: 3,
            schedulers_per_sm: 8,
            issue_per_scheduler: 1.0,
            clock_ghz: 1.15,
            max_warps_per_sm: 56,
            max_blocks_per_sm: 16,
            max_threads_per_block: 256,
            registers_per_sm: 28_672,
            shared_mem_per_sm: 64 * 1024,
            fp32_lanes_per_sm: 64,
            ldst_lanes_per_sm: 16,
            l1: CacheGeometry {
                size_bytes: 64 * 1024,
                line_bytes: 64,
                sector_bytes: 32,
                associativity: 4,
            },
            l2: CacheGeometry {
                size_bytes: 512 * 1024,
                line_bytes: 64,
                sector_bytes: 32,
                associativity: 16,
            },
            dram_bandwidth_gbps: 41.6,
            dram_transaction_bytes: 32,
            l2_bandwidth_gbps: 120.0,
            latencies: Latencies {
                dram: 600.0,
                ..Latencies::ampere()
            },
            launch_overhead_cycles: 3000.0,
        }
    }

    /// Core clock in Hz.
    #[must_use]
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// Theoretical peak performance in Giga warp Instructions Per Second.
    ///
    /// For the RTX 3080 this is 68 × 4 × 1 × 1.9 = 516.8 GIPS, exactly the
    /// compute roof used in the paper's roofline analyses.
    #[must_use]
    pub fn peak_gips(&self) -> f64 {
        f64::from(self.sm_count)
            * f64::from(self.schedulers_per_sm)
            * self.issue_per_scheduler
            * self.clock_ghz
    }

    /// Peak DRAM transaction rate in Giga transactions per second.
    ///
    /// 760.3 GB/s over 32-byte transactions gives 23.76 GTXN/s, the paper's
    /// memory roof slope.
    #[must_use]
    pub fn peak_gtxn_per_s(&self) -> f64 {
        self.dram_bandwidth_gbps / f64::from(self.dram_transaction_bytes)
    }

    /// Roofline elbow: the instruction intensity (warp instructions per DRAM
    /// transaction) at which the memory roof meets the compute roof. The
    /// paper reports 21.76 for the RTX 3080.
    #[must_use]
    pub fn elbow_intensity(&self) -> f64 {
        self.peak_gips() / self.peak_gtxn_per_s()
    }

    /// The bandwidth/latency-bound classification threshold used by the
    /// paper's qualitative roofline labels: 1 % of peak performance
    /// (5.16 GIPS for the RTX 3080).
    #[must_use]
    pub fn latency_bound_threshold_gips(&self) -> f64 {
        self.peak_gips() * 0.01
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx3080_matches_paper_constants() {
        let d = Device::rtx3080();
        assert!((d.peak_gips() - 516.8).abs() < 1e-9, "peak GIPS");
        assert!(
            (d.peak_gtxn_per_s() - 23.759_375).abs() < 1e-6,
            "peak GTXN/s"
        );
        // Paper reports the elbow as 21.76 warp instructions per transaction.
        assert!((d.elbow_intensity() - 21.76).abs() < 0.05, "elbow");
        assert!((d.latency_bound_threshold_gips() - 5.168).abs() < 1e-9);
    }

    #[test]
    fn cache_geometry_derivations() {
        let d = Device::rtx3080();
        assert_eq!(d.l1.lines(), 1024);
        assert_eq!(d.l2.lines(), 40_960);
        assert_eq!(d.l1.sets(), 256);
        assert_eq!(d.l2.sets(), 2560);
    }

    #[test]
    fn clock_is_in_hz() {
        let d = Device::rtx3080();
        assert!((d.clock_hz() - 1.9e9).abs() < 1.0);
    }

    #[test]
    fn device_presets_order_sensibly() {
        let g1080 = Device::gtx1080();
        let t2080 = Device::rtx2080ti();
        let a3080 = Device::rtx3080();
        let a100 = Device::a100();
        // Peak compute rises across generations (A100's FP32 lane count is
        // lower per SM but its SM count and scheduler throughput dominate
        // the warp-issue roof).
        assert!(g1080.peak_gips() < t2080.peak_gips());
        assert!(t2080.peak_gips() < a3080.peak_gips());
        // Memory bandwidth strictly orders the cards.
        assert!(g1080.dram_bandwidth_gbps < t2080.dram_bandwidth_gbps);
        assert!(t2080.dram_bandwidth_gbps < a3080.dram_bandwidth_gbps);
        assert!(a3080.dram_bandwidth_gbps < a100.dram_bandwidth_gbps);
        // Every preset has a positive, finite elbow.
        for d in [g1080, t2080, a3080, a100] {
            assert!(d.elbow_intensity() > 0.0 && d.elbow_intensity().is_finite());
        }
    }

    #[test]
    fn integrated_part_sits_below_every_discrete_card() {
        let uhd = Device::uhd630();
        let g1080 = Device::gtx1080();
        let r3060 = Device::rtx3060();
        assert!(uhd.peak_gips() < g1080.peak_gips());
        assert!(uhd.dram_bandwidth_gbps < g1080.dram_bandwidth_gbps / 4.0);
        assert!(uhd.l2.size_bytes < r3060.l2.size_bytes / 4, "tiny L2");
        assert!(uhd.elbow_intensity() > 0.0 && uhd.elbow_intensity().is_finite());
    }

    #[test]
    fn rtx3060_is_a_scaled_down_3080() {
        let r3060 = Device::rtx3060();
        let r3080 = Device::rtx3080();
        assert!(r3060.peak_gips() < r3080.peak_gips());
        assert!(r3060.dram_bandwidth_gbps < r3080.dram_bandwidth_gbps);
        assert_eq!(r3060.fp32_lanes_per_sm, r3080.fp32_lanes_per_sm);
        assert!((r3060.peak_gips() - 199.024).abs() < 1e-9);
    }

    #[test]
    fn a100_has_the_big_l2() {
        assert_eq!(Device::a100().l2.size_bytes, 40 * 1024 * 1024);
        assert!(Device::a100().peak_gtxn_per_s() > 2.0 * Device::rtx3080().peak_gtxn_per_s());
    }
}
