//! Declarative memory access streams.
//!
//! Rather than replaying per-thread address traces (infeasible at the
//! billions-of-instructions scale of the Cactus workloads), each kernel
//! describes its global-memory behaviour as a set of [`AccessStream`]s: how
//! many warp-level memory instructions it executes, how well they coalesce,
//! and what reuse *pattern* the generated transactions follow. The cache
//! hierarchy ([`crate::cache`]) turns these into per-level hit rates and DRAM
//! transaction counts, using closed-form models that are validated against a
//! trace-driven set-associative simulator in this crate's test suite.

/// Direction of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Loads.
    Read,
    /// Stores.
    Write,
}

/// Spatial/temporal reuse pattern of a stream's transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Every sector is touched exactly once, in order (pure streaming: SAXPY
    /// inputs, copy kernels). No cache reuse beyond the sector itself.
    Streaming,
    /// Transactions are distributed uniformly at random across a working set
    /// (hash tables, random gather). Hit rate follows the classic capacity
    /// ratio for LRU under independent uniform references.
    RandomUniform {
        /// Size of the touched region in bytes.
        working_set_bytes: u64,
    },
    /// Repeated in-order sweeps over a working set (iterative stencils,
    /// per-step re-reads of simulation state). Fully reused between sweeps if
    /// the set fits in the cache, and thrashes in classic cyclic-LRU fashion
    /// if it does not.
    Sweep {
        /// Size of the region swept, in bytes.
        working_set_bytes: u64,
        /// Number of complete sweeps the kernel performs.
        sweeps: u32,
    },
    /// Skewed gather: a `hot_fraction` of transactions target a small hot
    /// region; the remainder are uniform over a cold region (frontier-based
    /// graph kernels, embedding lookups with Zipfian ids).
    HotCold {
        /// Fraction of transactions hitting the hot region, in `[0, 1]`.
        hot_fraction: f64,
        /// Hot region size in bytes.
        hot_bytes: u64,
        /// Cold region size in bytes.
        cold_bytes: u64,
    },
    /// All warps repeatedly read the same small block (convolution filter
    /// weights, lookup tables). Essentially always cached after warm-up.
    Broadcast {
        /// Size of the shared block in bytes.
        bytes: u64,
    },
}

/// One global-memory access stream of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessStream {
    /// Loads or stores.
    pub direction: Direction,
    /// Number of warp-level memory instructions in the stream.
    pub warp_accesses: u64,
    /// Average 32-byte transactions generated per warp access, at least 1.
    /// 4 for a fully coalesced FP32 access (32 threads × 4 B = 128 B = 4
    /// sectors); 32 for a fully divergent scalar gather, the most one
    /// divergent instruction generates and where [`Self::raw`] clamps.
    /// [`Self::read`]/[`Self::write`] set no upper bound: `b` bytes per
    /// thread is one access of `b` transactions (lbm's stream reaches 152),
    /// which the instruction mix counts as one load or store. Splitting it
    /// into accesses of at most 32 would raise those counts and move the
    /// profiles, so the domain stays as it is and `cactus-wir` shares it.
    pub transactions_per_access: f64,
    /// Reuse pattern of the generated transactions.
    pub pattern: AccessPattern,
}

impl AccessStream {
    /// A read stream of `warp_accesses` warp loads of `bytes_per_thread`
    /// bytes each, fully coalesced.
    #[must_use]
    pub fn read(n_threads: u64, bytes_per_thread: u32, pattern: AccessPattern) -> Self {
        Self {
            direction: Direction::Read,
            warp_accesses: n_threads.div_ceil(32),
            transactions_per_access: coalesced_transactions(bytes_per_thread),
            pattern,
        }
    }

    /// A write stream, fully coalesced.
    #[must_use]
    pub fn write(n_threads: u64, bytes_per_thread: u32, pattern: AccessPattern) -> Self {
        Self {
            direction: Direction::Write,
            warp_accesses: n_threads.div_ceil(32),
            transactions_per_access: coalesced_transactions(bytes_per_thread),
            pattern,
        }
    }

    /// Explicit constructor for irregular streams.
    #[must_use]
    pub fn raw(
        direction: Direction,
        warp_accesses: u64,
        transactions_per_access: f64,
        pattern: AccessPattern,
    ) -> Self {
        Self {
            direction,
            warp_accesses,
            transactions_per_access: transactions_per_access.clamp(1.0, 32.0),
            pattern,
        }
    }

    /// Total 32-byte transactions generated by the stream (before caching).
    #[must_use]
    pub(crate) fn transactions(&self) -> f64 {
        self.warp_accesses as f64 * self.transactions_per_access
    }
}

/// Transactions per warp access for a coalesced access of
/// `bytes_per_thread` bytes per lane: 32 lanes × bytes / 32-byte sectors.
#[must_use]
pub(crate) fn coalesced_transactions(bytes_per_thread: u32) -> f64 {
    (f64::from(bytes_per_thread) * 32.0 / 32.0).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_fp32_is_four_sectors() {
        assert!((coalesced_transactions(4) - 4.0).abs() < 1e-12);
        assert!((coalesced_transactions(8) - 8.0).abs() < 1e-12);
        // Sub-word accesses still cost at least one transaction.
        assert!((coalesced_transactions(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stream_transaction_math() {
        let s = AccessStream::read(1 << 20, 4, AccessPattern::Streaming);
        assert_eq!(s.warp_accesses, 1 << 15);
        assert!((s.transactions() - (4 << 15) as f64).abs() < 1e-6);
        assert!((s.transactions() * 32.0 - (128 << 15) as f64).abs() < 1e-3);
    }

    #[test]
    fn raw_clamps_coalescing() {
        let s = AccessStream::raw(Direction::Read, 10, 100.0, AccessPattern::Streaming);
        assert!((s.transactions_per_access - 32.0).abs() < 1e-12);
    }
}
