//! # cactus-profiler
//!
//! Turns a [`cactus_gpu::engine::Gpu`] execution trace into the aggregate
//! views the paper's methodology needs:
//!
//! * [`KernelStats`] — per-kernel-name aggregation across invocations; the
//!   paper ranks kernels by `rᵢ × tᵢ` (invocation count × per-invocation
//!   time), i.e. by *total* time, not per-invocation time (Section IV,
//!   "Dominant Kernels").
//! * [`Profile`] — the whole-application view: total GPU time, total warp
//!   instructions, dominant-kernel sets at a time-coverage threshold
//!   (the paper uses 70 %), and the cumulative time distribution behind
//!   Figures 2 and 3.
//! * [`report`] — Table I-style summary rows.
//! * [`store`] — bit-exact profile (de)serialization: the value of every
//!   profile record in the `cactus-store` that `cactus-serve` (and through
//!   it every fig/table bin) reads and writes.
//!
//! ## Example
//!
//! ```
//! use cactus_gpu::prelude::*;
//! use cactus_profiler::Profile;
//!
//! let mut gpu = Gpu::new(Device::rtx3080());
//! for _ in 0..3 {
//!     let k = KernelDesc::builder("step")
//!         .launch(LaunchConfig::linear(1 << 20, 256))
//!         .stream(AccessStream::read(1 << 20, 4, AccessPattern::Streaming))
//!         .build();
//!     gpu.launch(&k);
//! }
//! let profile = Profile::from_records(gpu.records());
//! assert_eq!(profile.kernel_count(), 1);
//! assert_eq!(profile.kernels()[0].invocations, 3);
//! assert_eq!(profile.kernels_for_fraction(0.7), 1);
//! ```

pub mod csv;
pub mod report;
pub mod store;

use std::collections::HashMap;

use cactus_gpu::engine::LaunchRecord;
use cactus_gpu::metrics::{KernelMetrics, MetricId};

/// Aggregated statistics for one kernel name across all its invocations.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Number of invocations (`rᵢ` in the paper).
    pub invocations: u64,
    /// Total GPU time across invocations (`rᵢ × tᵢ`), in seconds.
    pub total_time_s: f64,
    /// Total warp instructions across invocations.
    pub warp_instructions: u64,
    /// Total DRAM transactions across invocations.
    pub dram_transactions: f64,
    /// Aggregated metric record: GIPS and instruction intensity are
    /// recomputed from the totals; the remaining metrics are time-weighted
    /// means over invocations.
    pub metrics: KernelMetrics,
}

impl KernelStats {
    /// Share of the application's total GPU time, given that total.
    #[must_use]
    pub fn time_share(&self, app_total_s: f64) -> f64 {
        if app_total_s <= 0.0 {
            0.0
        } else {
            self.total_time_s / app_total_s
        }
    }
}

/// A profiled application: kernels aggregated by name and ranked by total
/// GPU time (the paper's dominance order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    kernels: Vec<KernelStats>,
    total_time_s: f64,
}

impl Profile {
    /// Build a profile from an execution trace.
    #[must_use]
    pub fn from_records(records: &[LaunchRecord]) -> Self {
        struct Acc {
            invocations: u64,
            total_time: f64,
            insts: u64,
            txns: f64,
            weighted: Vec<f64>,
        }
        let mut by_name: HashMap<&str, Acc> = HashMap::new();
        let metric_ids = MetricId::ALL;

        for r in records {
            let acc = by_name.entry(r.name.as_str()).or_insert_with(|| Acc {
                invocations: 0,
                total_time: 0.0,
                insts: 0,
                txns: 0.0,
                weighted: vec![0.0; metric_ids.len()],
            });
            let dt = r.metrics.duration_s;
            acc.invocations += 1;
            acc.total_time += dt;
            acc.insts += r.metrics.warp_instructions;
            acc.txns += r.metrics.dram_transactions;
            for (slot, &id) in acc.weighted.iter_mut().zip(metric_ids.iter()) {
                *slot += r.metrics.get(id) * dt;
            }
        }

        let mut kernels: Vec<KernelStats> = by_name
            .into_iter()
            .map(|(name, acc)| {
                let mut metrics = KernelMetrics {
                    duration_s: acc.total_time,
                    warp_instructions: acc.insts,
                    dram_transactions: acc.txns,
                    ..KernelMetrics::default()
                };
                // Time-weighted means for the Table IV metrics.
                if acc.total_time > 0.0 {
                    let w = 1.0 / acc.total_time;
                    metrics.warp_occupancy = acc.weighted[2] * w;
                    metrics.sm_efficiency = acc.weighted[3] * w;
                    metrics.l1_hit_rate = acc.weighted[4] * w;
                    metrics.l2_hit_rate = acc.weighted[5] * w;
                    metrics.dram_read_throughput_gbps = acc.weighted[6] * w;
                    metrics.ldst_utilization = acc.weighted[7] * w;
                    metrics.sp_utilization = acc.weighted[8] * w;
                    metrics.fraction_branches = acc.weighted[9] * w;
                    metrics.fraction_ldst = acc.weighted[10] * w;
                    metrics.execution_stall = acc.weighted[11] * w;
                    metrics.pipe_stall = acc.weighted[12] * w;
                    metrics.sync_stall = acc.weighted[13] * w;
                    metrics.memory_stall = acc.weighted[14] * w;
                }
                // Recompute the roofline coordinates from totals.
                metrics.gips = if acc.total_time > 0.0 {
                    acc.insts as f64 / acc.total_time / 1e9
                } else {
                    0.0
                };
                metrics.instruction_intensity = acc.insts as f64 / acc.txns.max(1.0);

                KernelStats {
                    name: name.to_owned(),
                    invocations: acc.invocations,
                    total_time_s: acc.total_time,
                    warp_instructions: acc.insts,
                    dram_transactions: acc.txns,
                    metrics,
                }
            })
            .collect();

        // Dominance order: total time descending, name as tiebreaker for
        // determinism.
        kernels.sort_by(|a, b| {
            b.total_time_s
                .partial_cmp(&a.total_time_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        let total_time_s = kernels.iter().map(|k| k.total_time_s).sum();
        Self {
            kernels,
            total_time_s,
        }
    }

    /// Build a profile from already-aggregated kernel statistics (the
    /// deserialization path of [`store`]). Kernels are (re-)sorted into
    /// dominance order and the total recomputed; feeding back
    /// [`Profile::kernels`] reproduces the original profile bit-exactly
    /// because the sort is stable and the summation order matches
    /// [`Profile::from_records`].
    #[must_use]
    pub fn from_kernel_stats(mut kernels: Vec<KernelStats>) -> Self {
        kernels.sort_by(|a, b| {
            b.total_time_s
                .partial_cmp(&a.total_time_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        let total_time_s = kernels.iter().map(|k| k.total_time_s).sum();
        Self {
            kernels,
            total_time_s,
        }
    }

    /// Kernels in dominance order (total GPU time descending).
    #[must_use]
    pub fn kernels(&self) -> &[KernelStats] {
        &self.kernels
    }

    /// Number of distinct kernels executed (the paper's "No. kernels, 100 %
    /// execution time").
    #[must_use]
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Total GPU time, in seconds.
    #[must_use]
    pub fn total_time_s(&self) -> f64 {
        self.total_time_s
    }

    /// Total warp instructions.
    #[must_use]
    pub fn total_warp_instructions(&self) -> u64 {
        self.kernels.iter().map(|k| k.warp_instructions).sum()
    }

    /// Total DRAM transactions.
    #[must_use]
    pub(crate) fn total_dram_transactions(&self) -> f64 {
        self.kernels.iter().map(|k| k.dram_transactions).sum()
    }

    /// The paper's Table I "weighted average no. warp instructions per
    /// kernel": per-kernel instruction totals weighted by the kernel's share
    /// of GPU time.
    #[must_use]
    pub(crate) fn weighted_avg_warp_instructions(&self) -> f64 {
        if self.total_time_s <= 0.0 {
            return 0.0;
        }
        self.kernels
            .iter()
            .map(|k| k.time_share(self.total_time_s) * k.warp_instructions as f64)
            .sum()
    }

    /// Minimum number of top-ranked kernels whose cumulative time reaches
    /// `fraction` of the total (the paper's "No. kernels, 70 % execution
    /// time" uses `fraction = 0.7`).
    #[must_use]
    pub fn kernels_for_fraction(&self, fraction: f64) -> usize {
        let target = fraction.clamp(0.0, 1.0) * self.total_time_s;
        let mut acc = 0.0;
        for (i, k) in self.kernels.iter().enumerate() {
            acc += k.total_time_s;
            if acc >= target - 1e-15 {
                return i + 1;
            }
        }
        self.kernels.len()
    }

    /// The dominant kernels: the smallest top-ranked set covering
    /// `fraction` of GPU time.
    #[must_use]
    pub fn dominant_kernels(&self, fraction: f64) -> &[KernelStats] {
        let n = self.kernels_for_fraction(fraction);
        &self.kernels[..n]
    }

    /// Cumulative GPU-time distribution over kernels in dominance order
    /// (the series behind Figures 2 and 3). Entry `i` is the fraction of
    /// total time covered by the `i + 1` most dominant kernels; the last
    /// entry is 1.
    #[must_use]
    pub fn cumulative_distribution(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.kernels
            .iter()
            .map(|k| {
                acc += k.time_share(self.total_time_s);
                acc.min(1.0)
            })
            .collect()
    }

    /// Application-level aggregate metrics (Figure 5's per-application
    /// roofline points): GIPS and instruction intensity from device totals,
    /// everything else time-weighted across kernels.
    #[must_use]
    pub fn aggregate_metrics(&self) -> KernelMetrics {
        let mut m = KernelMetrics {
            duration_s: self.total_time_s,
            warp_instructions: self.total_warp_instructions(),
            dram_transactions: self.total_dram_transactions(),
            ..KernelMetrics::default()
        };
        if self.total_time_s > 0.0 {
            m.gips = m.warp_instructions as f64 / self.total_time_s / 1e9;
            let w = 1.0 / self.total_time_s;
            for k in &self.kernels {
                let share = k.total_time_s * w;
                m.warp_occupancy += share * k.metrics.warp_occupancy;
                m.sm_efficiency += share * k.metrics.sm_efficiency;
                m.l1_hit_rate += share * k.metrics.l1_hit_rate;
                m.l2_hit_rate += share * k.metrics.l2_hit_rate;
                m.dram_read_throughput_gbps += share * k.metrics.dram_read_throughput_gbps;
                m.ldst_utilization += share * k.metrics.ldst_utilization;
                m.sp_utilization += share * k.metrics.sp_utilization;
                m.fraction_branches += share * k.metrics.fraction_branches;
                m.fraction_ldst += share * k.metrics.fraction_ldst;
                m.execution_stall += share * k.metrics.execution_stall;
                m.pipe_stall += share * k.metrics.pipe_stall;
                m.sync_stall += share * k.metrics.sync_stall;
                m.memory_stall += share * k.metrics.memory_stall;
            }
        }
        m.instruction_intensity = m.warp_instructions as f64 / m.dram_transactions.max(1.0);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::prelude::*;

    fn kernel(name: &str, n: u64) -> KernelDesc {
        KernelDesc::builder(name)
            .launch(LaunchConfig::linear(n, 256))
            .stream(AccessStream::read(n, 4, AccessPattern::Streaming))
            .stream(AccessStream::write(n, 4, AccessPattern::Streaming))
            .build()
    }

    fn trace() -> Vec<cactus_gpu::engine::LaunchRecord> {
        let mut gpu = Gpu::new(Device::rtx3080());
        // "big" dominates, then "mid", then "small" × 3.
        gpu.launch(&kernel("big", 1 << 24));
        gpu.launch(&kernel("mid", 1 << 22));
        for _ in 0..3 {
            gpu.launch(&kernel("small", 1 << 18));
        }
        gpu.records().to_vec()
    }

    #[test]
    fn aggregates_by_name_and_sorts_by_total_time() {
        let p = Profile::from_records(&trace());
        assert_eq!(p.kernel_count(), 3);
        assert_eq!(p.kernels()[0].name, "big");
        assert_eq!(p.kernels()[1].name, "mid");
        assert_eq!(p.kernels()[2].name, "small");
        assert_eq!(p.kernels()[2].invocations, 3);
    }

    #[test]
    fn frequent_small_kernel_can_dominate() {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.launch(&kernel("one_shot", 1 << 22));
        for _ in 0..200 {
            gpu.launch(&kernel("hot_loop", 1 << 18));
        }
        let p = Profile::from_records(gpu.records());
        // ri × ti ranking: the frequently-invoked kernel wins.
        assert_eq!(p.kernels()[0].name, "hot_loop");
    }

    #[test]
    fn cumulative_distribution_is_monotone_and_ends_at_one() {
        let p = Profile::from_records(&trace());
        let cdf = p.cumulative_distribution();
        assert_eq!(cdf.len(), 3);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!((cdf[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kernels_for_fraction_is_minimal() {
        let p = Profile::from_records(&trace());
        let n70 = p.kernels_for_fraction(0.7);
        let cdf = p.cumulative_distribution();
        assert!(cdf[n70 - 1] >= 0.7 - 1e-12);
        if n70 > 1 {
            assert!(cdf[n70 - 2] < 0.7);
        }
        assert_eq!(p.kernels_for_fraction(1.0), p.kernel_count());
        assert_eq!(p.dominant_kernels(0.7).len(), n70);
    }

    #[test]
    fn totals_match_trace() {
        let records = trace();
        let p = Profile::from_records(&records);
        let t: f64 = records.iter().map(|r| r.metrics.duration_s).sum();
        let i: u64 = records.iter().map(|r| r.metrics.warp_instructions).sum();
        assert!((p.total_time_s() - t).abs() < 1e-12);
        assert_eq!(p.total_warp_instructions(), i);
    }

    #[test]
    fn aggregate_metrics_are_consistent() {
        let p = Profile::from_records(&trace());
        let m = p.aggregate_metrics();
        assert!(m.gips > 0.0);
        assert!(m.instruction_intensity > 0.0);
        assert!((0.0..=1.0).contains(&m.sm_efficiency));
        let expected_gips = p.total_warp_instructions() as f64 / p.total_time_s() / 1e9;
        assert!((m.gips - expected_gips).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_yields_empty_profile() {
        let p = Profile::from_records(&[]);
        assert_eq!(p.kernel_count(), 0);
        assert_eq!(p.total_time_s(), 0.0);
        assert_eq!(p.kernels_for_fraction(0.7), 0);
        assert!(p.cumulative_distribution().is_empty());
    }

    #[test]
    fn weighted_avg_is_between_min_and_max_kernel_insts() {
        let p = Profile::from_records(&trace());
        let w = p.weighted_avg_warp_instructions();
        let min = p
            .kernels()
            .iter()
            .map(|k| k.warp_instructions)
            .min()
            .unwrap() as f64;
        let max = p
            .kernels()
            .iter()
            .map(|k| k.warp_instructions)
            .max()
            .unwrap() as f64;
        assert!(w >= min && w <= max, "{min} <= {w} <= {max}");
    }
}
