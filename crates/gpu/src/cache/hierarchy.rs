//! The L1 → L2 → DRAM composition.
//!
//! Reads probe the per-SM L1 first (the analytic model is applied with the
//! single-SM L1 capacity, since the Cactus working sets are shared across
//! SMs and each L1 holds its own copy); L1 misses probe the device-wide L2;
//! L2 misses become DRAM transactions. Stores follow the GPU convention of
//! bypassing L1 (no-allocate) and coalescing in L2, with L2 write misses
//! accounted as DRAM write traffic.

use crate::access::{AccessStream, Direction};
use crate::cache::analytic;
use crate::device::Device;

/// Resolved memory traffic of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct TrafficResult {
    /// Transactions that probed L1 (reads only; stores bypass).
    pub l1_accesses: f64,
    /// Transactions that hit in L1.
    pub l1_hits: f64,
    /// Transactions that probed L2 (L1 read misses + all stores).
    pub l2_accesses: f64,
    /// Transactions that hit in L2.
    pub l2_hits: f64,
    /// Read transactions that reached DRAM.
    pub dram_read_transactions: f64,
    /// Write transactions that reached DRAM.
    pub dram_write_transactions: f64,
    /// Mean load-to-use latency of a read transaction, in core cycles.
    pub avg_read_latency_cycles: f64,
}

impl TrafficResult {
    /// L1 hit rate in `[0, 1]` (0 when there were no L1 accesses).
    #[must_use]
    pub(crate) fn l1_hit_rate(&self) -> f64 {
        if self.l1_accesses <= 0.0 {
            0.0
        } else {
            self.l1_hits / self.l1_accesses
        }
    }

    /// L2 hit rate in `[0, 1]` (0 when there were no L2 accesses).
    #[must_use]
    pub(crate) fn l2_hit_rate(&self) -> f64 {
        if self.l2_accesses <= 0.0 {
            0.0
        } else {
            self.l2_hits / self.l2_accesses
        }
    }

    /// Total DRAM transactions (reads + writes).
    #[must_use]
    pub(crate) fn dram_transactions(&self) -> f64 {
        self.dram_read_transactions + self.dram_write_transactions
    }

    /// DRAM read bytes given the device transaction size.
    #[must_use]
    pub(crate) fn dram_read_bytes(&self, device: &Device) -> f64 {
        self.dram_read_transactions * f64::from(device.dram_transaction_bytes)
    }
}

/// Per-stream traffic staged by `MemoryModel::resolve_with` before the
/// fold into a [`TrafficResult`]. One entry per non-empty access stream;
/// the staging buffer lives in the engine's launch scratch so repeated
/// launches reuse its capacity instead of allocating.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamTraffic {
    /// Transactions issued by the stream.
    pub txns: f64,
    /// L1 hit rate (reads; 0 for writes, which bypass L1).
    pub h1: f64,
    /// Transactions that probed L2.
    pub l2_in: f64,
    /// L2 hit rate over `l2_in`.
    pub h2: f64,
    /// True for read streams (reads probe L1 and accrue load latency).
    pub is_read: bool,
}

/// The analytic memory-hierarchy model.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MemoryModel;

impl MemoryModel {
    /// Resolve a launch's access streams into per-level traffic, with
    /// caller-owned per-stream staging (the engine's memo-miss path threads
    /// one reusable buffer).
    ///
    /// Stage 1 walks the streams and records each one's per-level hit rates
    /// in `stage` (cleared first, capacity reused); stage 2 folds the staged
    /// entries into the aggregate in stream order. The fold performs the
    /// same floating-point operations in the same order as a fused loop, so
    /// the result is bit-identical to the fused loop's.
    #[must_use]
    pub(crate) fn resolve_with(
        device: &Device,
        streams: &[AccessStream],
        stage: &mut Vec<StreamTraffic>,
    ) -> TrafficResult {
        let sector = device.l1.sector_bytes;
        let l1_blocks = device.l1.size_bytes as f64 / f64::from(sector);
        let l2_blocks = device.l2.size_bytes as f64 / f64::from(sector);
        let lat = &device.latencies;

        stage.clear();
        for stream in streams {
            let txns = stream.transactions();
            if txns <= 0.0 {
                continue;
            }
            match stream.direction {
                Direction::Read => {
                    let h1 = analytic::hit_rate(&stream.pattern, l1_blocks, sector, txns);
                    let l2_in = txns * (1.0 - h1);
                    let h2 = if l2_in > 0.0 {
                        analytic::hit_rate(&stream.pattern, l2_blocks, sector, l2_in)
                    } else {
                        0.0
                    };
                    stage.push(StreamTraffic {
                        txns,
                        h1,
                        l2_in,
                        h2,
                        is_read: true,
                    });
                }
                Direction::Write => {
                    // Stores bypass L1 and allocate in L2.
                    let h2 = analytic::hit_rate(&stream.pattern, l2_blocks, sector, txns);
                    stage.push(StreamTraffic {
                        txns,
                        h1: 0.0,
                        l2_in: txns,
                        h2,
                        is_read: false,
                    });
                }
            }
        }

        let mut out = TrafficResult::default();
        let mut read_latency_weighted = 0.0;
        let mut read_txns = 0.0;
        for s in stage.iter() {
            if s.is_read {
                let dram = s.l2_in * (1.0 - s.h2);
                out.l1_accesses += s.txns;
                out.l1_hits += s.h1 * s.txns;
                out.l2_accesses += s.l2_in;
                out.l2_hits += s.h2 * s.l2_in;
                out.dram_read_transactions += dram;

                let avg = s.h1 * lat.l1_hit
                    + (1.0 - s.h1) * (s.h2 * lat.l2_hit + (1.0 - s.h2) * lat.dram);
                read_latency_weighted += avg * s.txns;
                read_txns += s.txns;
            } else {
                out.l2_accesses += s.txns;
                out.l2_hits += s.h2 * s.txns;
                out.dram_write_transactions += s.txns * (1.0 - s.h2);
            }
        }

        out.avg_read_latency_cycles = if read_txns > 0.0 {
            read_latency_weighted / read_txns
        } else {
            lat.l1_hit
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPattern;

    fn device() -> Device {
        Device::rtx3080()
    }

    /// The model with a throwaway staging buffer.
    fn resolve(device: &Device, streams: &[AccessStream]) -> TrafficResult {
        MemoryModel::resolve_with(device, streams, &mut Vec::new())
    }

    #[test]
    fn streaming_read_misses_everywhere() {
        let streams = [AccessStream::read(1 << 22, 4, AccessPattern::Streaming)];
        let r = resolve(&device(), &streams);
        assert!(r.l1_hit_rate() < 1e-9);
        assert!(r.l2_hit_rate() < 1e-9);
        let expected = (1 << 22) as f64 / 32.0 * 4.0;
        assert!((r.dram_read_transactions - expected).abs() < 1.0);
        // Streaming loads pay full DRAM latency.
        assert!(r.avg_read_latency_cycles > 400.0);
    }

    #[test]
    fn l1_resident_working_set_yields_high_hits_and_no_dram() {
        // 64 KiB working set fits the 128 KiB L1.
        let streams = [AccessStream::read(
            1 << 24,
            4,
            AccessPattern::RandomUniform {
                working_set_bytes: 64 * 1024,
            },
        )];
        let r = resolve(&device(), &streams);
        assert!(r.l1_hit_rate() > 0.99, "l1 {}", r.l1_hit_rate());
        // Only the cold misses reach DRAM: ~2048 sectors.
        assert!(r.dram_read_transactions < 4096.0);
    }

    #[test]
    fn l2_resident_working_set_is_caught_by_l2() {
        // 2 MiB: too big for L1 (128 KiB), fits L2 (5 MiB).
        let streams = [AccessStream::read(
            1 << 24,
            4,
            AccessPattern::RandomUniform {
                working_set_bytes: 2 * 1024 * 1024,
            },
        )];
        let r = resolve(&device(), &streams);
        assert!(r.l1_hit_rate() < 0.15, "l1 {}", r.l1_hit_rate());
        assert!(r.l2_hit_rate() > 0.95, "l2 {}", r.l2_hit_rate());
        let total_txn = (1 << 24) as f64 / 32.0 * 4.0;
        assert!(r.dram_read_transactions < 0.05 * total_txn);
    }

    #[test]
    fn writes_bypass_l1() {
        let streams = [AccessStream::write(1 << 20, 4, AccessPattern::Streaming)];
        let r = resolve(&device(), &streams);
        assert_eq!(r.l1_accesses, 0.0);
        assert!(r.l2_accesses > 0.0);
        assert!(r.dram_write_transactions > 0.0);
        assert_eq!(r.dram_read_transactions, 0.0);
    }

    #[test]
    fn mixed_streams_accumulate() {
        let streams = [
            AccessStream::read(1 << 20, 4, AccessPattern::Streaming),
            AccessStream::write(1 << 20, 4, AccessPattern::Streaming),
        ];
        let r = resolve(&device(), &streams);
        assert!(r.dram_read_transactions > 0.0);
        assert!(r.dram_write_transactions > 0.0);
        assert!(
            (r.dram_transactions() - (r.dram_read_transactions + r.dram_write_transactions)).abs()
                < 1e-9
        );
    }

    #[test]
    fn resolve_with_is_bit_identical_and_reuses_staging() {
        let streams = [
            AccessStream::read(1 << 20, 4, AccessPattern::Streaming),
            AccessStream::read(
                1 << 22,
                4,
                AccessPattern::RandomUniform {
                    working_set_bytes: 2 << 20,
                },
            ),
            AccessStream::write(1 << 20, 4, AccessPattern::Streaming),
        ];
        let base = resolve(&device(), &streams);
        let mut stage = Vec::new();
        let a = MemoryModel::resolve_with(&device(), &streams, &mut stage);
        assert_eq!(a, base);
        assert_eq!(stage.len(), 3);
        let cap = stage.capacity();
        let b = MemoryModel::resolve_with(&device(), &streams, &mut stage);
        assert_eq!(b, base);
        assert_eq!(stage.capacity(), cap, "staging capacity must be reused");
    }

    #[test]
    fn empty_streams_default_latency() {
        let r = resolve(&device(), &[]);
        assert_eq!(r.dram_transactions(), 0.0);
        assert!((r.avg_read_latency_cycles - device().latencies.l1_hit).abs() < 1e-9);
    }
}
