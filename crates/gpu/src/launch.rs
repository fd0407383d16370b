//! Kernel launch configuration and the occupancy calculator.

use crate::device::Device;

/// Threads per warp on every device this crate models.
pub const WARP_SIZE: u32 = 32;

/// A CUDA-style kernel launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Registers per thread (occupancy limiter).
    pub registers_per_thread: u32,
    /// Static + dynamic shared memory per block, in bytes.
    pub shared_mem_per_block: u32,
}

impl LaunchConfig {
    /// A launch with explicit grid and block dimensions and default resource
    /// usage (32 registers per thread, no shared memory).
    #[must_use]
    pub fn new(grid_blocks: u64, threads_per_block: u32) -> Self {
        Self {
            grid_blocks: grid_blocks.max(1),
            threads_per_block: threads_per_block.clamp(WARP_SIZE, 1024),
            registers_per_thread: 32,
            shared_mem_per_block: 0,
        }
    }

    /// A launch sized to cover `n_threads` worth of elements with the given
    /// block size, the canonical elementwise-kernel pattern.
    #[must_use]
    pub fn linear(n_threads: u64, threads_per_block: u32) -> Self {
        let tpb = threads_per_block.clamp(WARP_SIZE, 1024);
        let blocks = n_threads.div_ceil(u64::from(tpb)).max(1);
        Self::new(blocks, tpb)
    }

    /// Set registers per thread (builder style).
    #[must_use]
    pub fn with_registers(mut self, regs: u32) -> Self {
        self.registers_per_thread = regs.max(16);
        self
    }

    /// Set shared memory per block in bytes (builder style).
    #[must_use]
    pub fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Warps per block.
    #[must_use]
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block.div_ceil(WARP_SIZE)
    }

    /// Total warps in the grid.
    #[must_use]
    pub fn total_warps(&self) -> u64 {
        self.grid_blocks * u64::from(self.warps_per_block())
    }

    /// Compute theoretical occupancy on `device`.
    #[must_use]
    pub fn occupancy(&self, device: &Device) -> Occupancy {
        let warps_per_block = self.warps_per_block();

        // Limit 1: resident blocks per SM.
        let by_blocks = device.max_blocks_per_sm;

        // Limit 2: warps per SM.
        let by_warps = device.max_warps_per_sm / warps_per_block;

        // Limit 3: register file.
        let regs_per_block =
            u64::from(self.registers_per_thread) * u64::from(self.threads_per_block);
        let by_regs = u64::from(device.registers_per_sm)
            .checked_div(regs_per_block)
            .unwrap_or(u64::from(device.max_blocks_per_sm));

        // Limit 4: shared memory.
        let by_smem = if self.shared_mem_per_block == 0 {
            u64::from(device.max_blocks_per_sm)
        } else {
            u64::from(device.shared_mem_per_sm) / u64::from(self.shared_mem_per_block)
        };

        let blocks_per_sm = u64::from(by_blocks)
            .min(u64::from(by_warps))
            .min(by_regs)
            .min(by_smem)
            .max(1) as u32;

        let resident_warps = (blocks_per_sm * warps_per_block).min(device.max_warps_per_sm);
        let occupancy = f64::from(resident_warps) / f64::from(device.max_warps_per_sm);

        // Wave accounting: how many rounds of device-wide block scheduling
        // does the grid take, and how full is the tail wave?
        let blocks_per_wave = u64::from(blocks_per_sm) * u64::from(device.sm_count);
        let full_waves = self.grid_blocks / blocks_per_wave;
        let tail_blocks = self.grid_blocks % blocks_per_wave;
        let tail_fraction = tail_blocks as f64 / blocks_per_wave as f64;

        Occupancy {
            blocks_per_sm,
            resident_warps_per_sm: resident_warps,
            occupancy,
            blocks_per_wave,
            full_waves,
            tail_blocks,
            tail_fraction,
        }
    }
}

/// Result of the occupancy calculation for one launch on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Thread blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Warps resident per SM while the SM is saturated.
    pub resident_warps_per_sm: u32,
    /// Theoretical occupancy in `[0, 1]`.
    pub occupancy: f64,
    /// Blocks the device retires per scheduling wave.
    pub blocks_per_wave: u64,
    /// Number of completely full waves.
    pub full_waves: u64,
    /// Blocks in the final, partial wave (0 if the grid divides evenly).
    pub tail_blocks: u64,
    /// Fill fraction of the tail wave in `[0, 1)`.
    pub tail_fraction: f64,
}

impl Occupancy {
    /// Total waves, counting a partial tail wave as one.
    #[must_use]
    pub fn waves(&self) -> u64 {
        self.full_waves + u64::from(self.tail_blocks > 0)
    }

    /// Effective number of waves weighting the tail by its duration
    /// contribution (a tail wave still takes a full wave of time on the SMs
    /// it occupies, but for grids smaller than one wave the device is simply
    /// underfilled).
    #[must_use]
    pub fn effective_waves(&self) -> f64 {
        self.full_waves as f64 + if self.tail_blocks > 0 { 1.0 } else { 0.0 }
    }

    /// Fraction of SMs that hold at least one block, averaged over waves.
    /// This is the backbone of the paper's "SM efficiency" metric: small
    /// grids leave most SMs idle.
    #[must_use]
    pub fn sm_utilization(&self, sm_count: u32) -> f64 {
        let waves = self.effective_waves();
        if waves == 0.0 {
            return 0.0;
        }
        let tail_sms = self
            .tail_blocks
            .div_ceil(u64::from(self.blocks_per_sm.max(1)))
            .min(u64::from(sm_count)) as f64;
        let full_part = self.full_waves as f64 * f64::from(sm_count);
        let tail_part = if self.tail_blocks > 0 { tail_sms } else { 0.0 };
        ((full_part + tail_part) / (waves * f64::from(sm_count))).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::rtx3080()
    }

    #[test]
    fn linear_covers_all_threads() {
        let lc = LaunchConfig::linear(1000, 256);
        assert_eq!(lc.grid_blocks, 4);
        assert_eq!(lc.warps_per_block(), 8);
    }

    #[test]
    fn occupancy_full_for_light_kernels() {
        let lc = LaunchConfig::linear(1 << 20, 256);
        let occ = lc.occupancy(&device());
        // 256 threads/block, 32 regs/thread: 6 blocks of 8 warps = 48 warps.
        assert_eq!(occ.resident_warps_per_sm, 48);
        assert!((occ.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let lc = LaunchConfig::linear(1 << 20, 256).with_registers(128);
        let occ = lc.occupancy(&device());
        // 128 regs × 256 threads = 32768 regs/block → 2 blocks → 16 warps.
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.resident_warps_per_sm, 16);
        assert!(occ.occupancy < 0.5);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let lc = LaunchConfig::linear(1 << 20, 256).with_shared_mem(48 * 1024);
        let occ = lc.occupancy(&device());
        assert_eq!(occ.blocks_per_sm, 2);
    }

    #[test]
    fn single_block_grid_underfills_device() {
        let lc = LaunchConfig::new(1, 256);
        let occ = lc.occupancy(&device());
        assert_eq!(occ.full_waves, 0);
        assert_eq!(occ.tail_blocks, 1);
        let util = occ.sm_utilization(68);
        assert!(util < 0.02, "one block on 68 SMs, got {util}");
    }

    #[test]
    fn wave_accounting_sums_to_grid() {
        let lc = LaunchConfig::linear(3 << 20, 128);
        let occ = lc.occupancy(&device());
        assert_eq!(
            occ.full_waves * occ.blocks_per_wave + occ.tail_blocks,
            lc.grid_blocks
        );
    }

    #[test]
    fn tiny_block_is_rounded_to_a_warp() {
        let lc = LaunchConfig::new(10, 1);
        assert_eq!(lc.threads_per_block, WARP_SIZE);
    }
}
